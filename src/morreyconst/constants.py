"""Ratio functionals measuring how far the space is from an inner-product
space, their witness pairs, and a maximizing estimator.

Four ratios over pairs (x, y), all with supremum 2 over any normed space:

* sum-power ratio        (N(x+y)^s + N(x-y)^s) / (2^(s-1) (N(x)^s + N(y)^s));
* unit-pair ratio        (N(u+v)^2 + N(u-v)^2) / 4           on unit vectors;
* unit-pair power ratio  (N(u+v)^s + N(u-v)^s) / 2^s         on unit vectors;
* product ratio          N(x+y) N(x-y) / (N(x)^2 + N(y)^2).

The witness pairs split a borderline power function into its inner and
outer parts; their ratios approach 2 exactly, with a closed-form lower
bound as a function of the split point in small mode.

All four ratios are arithmetic on a few norms of the pair: N(x), N(y),
N(x +- y) and, for the unit-pair ratios, N(x/N(x) +- y/N(y)).
:func:`pair_ratios` lists the distinct functions among those of every
candidate pair, has a :class:`~morreyconst.norms.NormTable` evaluate
them, and then computes every kind's ratio on every pair from the
returned values; :func:`estimate_constants` reduces those rows to one
estimate per kind.
:func:`ratio` is the same arithmetic on one pair, with the norms
computed as it goes.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from morreyconst.integrate import IntegrationSettings
from morreyconst.model import (
    MixedExponentOverlap,
    Mode,
    PiecewiseRadialFunction,
    RadialPiece,
    SpaceParams,
    add,
    canonicalize,
    scale,
    subtract,
    truncate,
)
from morreyconst.norms import NormTable, norm

__all__ = [
    "Family",
    "ConstantKind",
    "ConstantEstimate",
    "ZeroFunction",
    "NotInSpace",
    "ratio",
    "witness_pair_morrey",
    "witness_pair_small_morrey",
    "theorem2_lower_bound",
    "random_pair",
    "candidate_pairs",
    "pair_ratios",
    "estimate_constants",
    "estimate_constant",
    "DEFAULT_EPS_LADDER",
]

INF = math.inf

DEFAULT_EPS_LADDER = (0.5, 0.1, 0.01, 1e-4)


class ZeroFunction(ValueError):
    """A ratio was requested with a zero-norm argument in its denominator."""


class NotInSpace(ValueError):
    """A function involved in a ratio has infinite norm."""


class Family(enum.Enum):
    GEN_VNJ = "gen_vnj"          # parametrized by s >= 1
    MOD_VNJ = "mod_vnj"          # unit vectors, squares
    GEN_MOD_VNJ = "gen_mod_vnj"  # unit vectors, parametrized by s >= 1
    ZBAGANU = "zbaganu"          # product form


# the families whose sums are taken over x/N(x) and y/N(y)
_UNIT_PAIR = (Family.MOD_VNJ, Family.GEN_MOD_VNJ)


@dataclass(frozen=True)
class ConstantKind:
    """One of the four ratio families, with its power s where applicable."""

    family: Family
    s: float | None = None

    def __post_init__(self) -> None:
        if self.family in (Family.GEN_VNJ, Family.GEN_MOD_VNJ):
            if self.s is None or not self.s >= 1.0:
                raise ValueError(f"{self.family.value} needs s >= 1, got {self.s}")
        elif self.s is not None:
            raise ValueError(f"{self.family.value} does not take s")

    @classmethod
    def gen_vnj(cls, s: float) -> "ConstantKind":
        return cls(Family.GEN_VNJ, float(s))

    @classmethod
    def mod_vnj(cls) -> "ConstantKind":
        return cls(Family.MOD_VNJ)

    @classmethod
    def gen_mod_vnj(cls, s: float) -> "ConstantKind":
        return cls(Family.GEN_MOD_VNJ, float(s))

    @classmethod
    def zbaganu(cls) -> "ConstantKind":
        return cls(Family.ZBAGANU)

    def label(self) -> str:
        if self.s is not None:
            return f"{self.family.value}(s={self.s:g})"
        return self.family.value


@dataclass(frozen=True)
class ConstantEstimate:
    """Best ratio found over a candidate set, with provenance.

    ``best_ratio`` is a certified lower bound for the constant (each
    ratio is an admissible pair's value); it is never a proof of the
    supremum.  ``best_pair`` is the achieving pair, ``best_index`` its
    position in the deterministic candidate order.
    """

    kind: ConstantKind
    best_ratio: float
    best_pair: tuple[PiecewiseRadialFunction, PiecewiseRadialFunction] | None
    best_index: int
    n_pairs_tried: int
    n_skipped: int
    trace: tuple[float, ...] = ()

    @property
    def max_ratio_seen(self) -> float:
        """Largest ratio over the candidates: always ``best_ratio``."""
        return self.best_ratio


def _combine(kind: ConstantKind, nx: float, ny: float, n_sum: float, n_diff: float) -> float:
    """The ratio of kind from N(x), N(y) and the norms of its two sums.

    The sums are x + y and x - y, or x/N(x) + y/N(y) and x/N(x) - y/N(y)
    for the unit-pair kinds.
    """
    fam, s = kind.family, kind.s
    if fam is Family.MOD_VNJ:
        return (n_sum**2 + n_diff**2) / 4.0
    if fam is Family.GEN_MOD_VNJ:
        return (n_sum**s + n_diff**s) / 2.0**s
    if fam is Family.GEN_VNJ:
        return (n_sum**s + n_diff**s) / (2.0 ** (s - 1.0) * (nx**s + ny**s))
    # product form
    return n_sum * n_diff / (nx**2 + ny**2)


def _units(
    x: PiecewiseRadialFunction, y: PiecewiseRadialFunction, nx: float, ny: float
) -> tuple[PiecewiseRadialFunction, PiecewiseRadialFunction]:
    return scale(x, 1.0 / nx), scale(y, 1.0 / ny)


def ratio(
    kind: ConstantKind,
    x: PiecewiseRadialFunction,
    y: PiecewiseRadialFunction,
    params: SpaceParams,
    integ: IntegrationSettings = IntegrationSettings(),
) -> float:
    """Evaluate one ratio functional on the pair (x, y).

    Raises ZeroFunction when a norm in the denominator vanishes and
    NotInSpace when any involved norm is infinite.  The pair sums
    x + y and x - y must be representable (shared exponents).
    """

    def n_of(g: PiecewiseRadialFunction) -> float:
        v = norm(g, params, integ).value
        if v == INF:
            raise NotInSpace(f"infinite norm for {g.pieces!r}")
        return v

    nx, ny = n_of(x), n_of(y)
    if nx == 0.0 or ny == 0.0:
        raise ZeroFunction("ratio needs both arguments to have nonzero norm")
    if kind.family in _UNIT_PAIR:
        x, y = _units(x, y, nx, ny)
    return _combine(kind, nx, ny, n_of(add(x, y)), n_of(subtract(x, y)))


def _split_pair(
    f: PiecewiseRadialFunction, cut: float
) -> tuple[PiecewiseRadialFunction, PiecewiseRadialFunction]:
    """k = (inner part) - (outer part) of f at the cut radius; returns (f, k)."""
    g = truncate(f, 0.0, cut)
    h = subtract(f, g)
    k = subtract(g, h)
    return f, k


def witness_pair_morrey(
    params: SpaceParams,
) -> tuple[PiecewiseRadialFunction, PiecewiseRadialFunction]:
    """Extremal pair for the unrestricted-radius mode.

    f = |x|^(-n/q) on all of R^n, k = f inside the unit ball minus f
    outside it.  Then f + k and f - k are twice the inner and outer
    parts, and |k| = f pointwise, which forces all four norms equal.
    """
    params.require_strict()
    if params.mode is not Mode.MORREY:
        raise ValueError("witness_pair_morrey requires Morrey-mode params")
    alpha = -params.n / params.q
    f = canonicalize([RadialPiece(0.0, INF, 1.0, alpha)])
    return _split_pair(f, 1.0)


def witness_pair_small_morrey(
    params: SpaceParams, eps: float
) -> tuple[PiecewiseRadialFunction, PiecewiseRadialFunction]:
    """Near-extremal pair for the small mode, split at radius eps.

    f = |x|^(-n/q) on the unit ball only; k flips sign at eps.  The
    ratios approach 2 as eps -> 0 with the closed-form deficit given by
    :func:`theorem2_lower_bound`.
    """
    params.require_strict()
    if params.mode is not Mode.SMALL_MORREY:
        raise ValueError("witness_pair_small_morrey requires small-mode params")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"split radius must be in (0, 1), got {eps}")
    alpha = -params.n / params.q
    f = canonicalize([RadialPiece(0.0, 1.0, 1.0, alpha)])
    return _split_pair(f, eps)


def theorem2_lower_bound(params: SpaceParams, eps: float, kind: ConstantKind) -> float:
    """Closed-form lower bound achieved by the small-mode witness pair.

    With E = eps^(n(1 - p/q)): the sum-power families give
    1 + (1 - E)^(s/p) (s = 2 for the unit-pair ratio), the product form
    gives 2 (1 - E)^(1/p).  All tend to 2 as eps -> 0.
    """
    params.require_strict()
    if not (0.0 < eps < 1.0):
        raise ValueError(f"split radius must be in (0, 1), got {eps}")
    deficit = 1.0 - eps ** (params.n * (1.0 - params.p / params.q))
    p = params.p
    fam = kind.family
    if fam is Family.ZBAGANU:
        return 2.0 * deficit ** (1.0 / p)
    s = 2.0 if fam is Family.MOD_VNJ else float(kind.s)
    return 1.0 + deficit ** (s / p)


# ---------------------------------------------------------------------------
# Random candidate pairs.


def _random_function(
    rng: Generator, params: SpaceParams
) -> PiecewiseRadialFunction:
    """One random canonical function with everywhere-shared exponent -n/q.

    Breakpoints are drawn in log space; each cell of the resulting
    partition of (0, inf) gets a coefficient in [-2, 2], and the first
    or last cell is sometimes dropped so finite supports appear too.
    The shared exponent keeps every pairwise sum representable and the
    norm finite in both modes.
    """
    alpha = -params.n / params.q
    if params.mode is Mode.SMALL_MORREY:
        log_lo, log_hi = math.log(1e-3), math.log(1.0)
    else:
        log_lo, log_hi = math.log(1e-2), math.log(10.0)
    n_cuts = int(rng.integers(1, 4))
    cuts = np.sort(np.exp(rng.uniform(log_lo, log_hi, size=n_cuts)))
    bounds = [0.0, *[float(c) for c in cuts], INF]
    coefs = rng.uniform(-2.0, 2.0, size=len(bounds) - 1)
    if rng.random() < 0.25:
        coefs[0] = 0.0
    if rng.random() < 0.25:
        coefs[-1] = 0.0
    pieces = [
        RadialPiece(bounds[i], bounds[i + 1], float(coefs[i]), alpha)
        for i in range(len(bounds) - 1)
        if coefs[i] != 0.0
    ]
    return canonicalize(pieces)


def random_pair(
    rng: Generator, params: SpaceParams
) -> tuple[PiecewiseRadialFunction, PiecewiseRadialFunction]:
    """A random candidate pair whose sums stay representable."""
    return _random_function(rng, params), _random_function(rng, params)


# ---------------------------------------------------------------------------
# Estimation: maximize the ratio over witnesses and random pairs.


def candidate_pairs(
    params: SpaceParams,
    random_trials: int = 0,
    seed: int = 0,
    eps_ladder: tuple[float, ...] = DEFAULT_EPS_LADDER,
) -> list[tuple[PiecewiseRadialFunction, PiecewiseRadialFunction]]:
    """The estimator's candidate sequence, in its deterministic order.

    Witness pair(s) for the mode first (one per ladder value in small
    mode, which needs a nonempty ladder), then the trivial pair (f, f),
    then the seeded random pairs.
    """
    if random_trials < 0:
        raise ValueError("random_trials must be >= 0")
    if params.mode is Mode.MORREY:
        pairs = [witness_pair_morrey(params)]
    elif eps_ladder:
        pairs = [witness_pair_small_morrey(params, eps) for eps in eps_ladder]
    else:
        raise ValueError("small mode needs a nonempty eps ladder")
    f_witness = pairs[0][0]
    pairs.append((f_witness, f_witness))
    if random_trials:
        rng = Generator(Philox(key=seed))
        for _ in range(random_trials):
            pairs.append(random_pair(rng, params))
    return pairs


def _sums(
    x: PiecewiseRadialFunction, y: PiecewiseRadialFunction
) -> tuple[PiecewiseRadialFunction, PiecewiseRadialFunction] | None:
    """(x + y, x - y), or None when they are not representable."""
    try:
        return add(x, y), subtract(x, y)
    except MixedExponentOverlap:
        return None


def pair_ratios(
    kinds: list[ConstantKind],
    pairs: list[tuple[PiecewiseRadialFunction, PiecewiseRadialFunction]],
    table: NormTable,
) -> list[list[float]]:
    """Every kind's ratio on every pair, NaN where :func:`ratio` would raise.

    The norms come from ``table`` in two batches of distinct functions,
    and their values are kept here, by function, for the arithmetic.  The
    first batch holds x and y of every pair, and x + y and x - y where a
    kind needs them and they are representable.  The second, only when a
    unit-pair kind is asked for, holds x/N(x) + y/N(y) and
    x/N(x) - y/N(y) for pairs whose N(x) and N(y) are finite and
    nonzero.  ``rows[k][i]`` is kinds[k] on pairs[i], equal to
    ``ratio(kinds[k], *pairs[i], ...)`` bit for bit.
    """
    plain = any(kind.family not in _UNIT_PAIR for kind in kinds)
    unit = any(kind.family in _UNIT_PAIR for kind in kinds)
    values: dict[PiecewiseRadialFunction, float] = {}

    def evaluate(functions: Iterable[PiecewiseRadialFunction]) -> None:
        todo = list(dict.fromkeys(g for g in functions if g not in values))
        values.update(zip(todo, (res.value for res in table.evaluate(todo))))

    sums = [_sums(x, y) if plain else None for x, y in pairs]
    evaluate(g for (x, y), s in zip(pairs, sums) for g in (x, y, *(s or ())))
    bases = [(values[x], values[y]) for x, y in pairs]
    usable = [INF not in base and 0.0 not in base for base in bases]
    unit_sums = [
        _sums(*_units(x, y, *base)) if unit and ok else None
        for (x, y), base, ok in zip(pairs, bases, usable)
    ]
    evaluate(g for s in unit_sums for g in (s or ()))

    rows = []
    for kind in kinds:
        row = []
        kind_sums = unit_sums if kind.family in _UNIT_PAIR else sums
        for (nx, ny), ok, s in zip(bases, usable, kind_sums):
            n_sum, n_diff = (values[s[0]], values[s[1]]) if ok and s else (INF, INF)
            defined = INF not in (n_sum, n_diff)
            row.append(_combine(kind, nx, ny, n_sum, n_diff) if defined else math.nan)
        rows.append(row)
    return rows


def estimate_constants(
    kinds: list[ConstantKind],
    pairs: list[tuple[PiecewiseRadialFunction, PiecewiseRadialFunction]],
    table: NormTable,
    keep_trace: bool = False,
) -> list[ConstantEstimate]:
    """One :class:`ConstantEstimate` per kind over the same candidate pairs.

    Each distinct norm is evaluated once for all kinds (see
    :func:`pair_ratios`).  Pairs whose ratio is undefined are skipped
    and counted; ties go to the earliest candidate.
    """
    estimates = []
    for kind, row in zip(kinds, pair_ratios(kinds, pairs, table)):
        defined = [(value, idx) for idx, value in enumerate(row) if not math.isnan(value)]
        if not defined:
            raise ZeroFunction("no candidate pair had a well-defined ratio")
        best_ratio, best_index = max(defined, key=lambda vi: (vi[0], -vi[1]))
        estimates.append(
            ConstantEstimate(
                kind=kind,
                best_ratio=best_ratio,
                best_pair=pairs[best_index],
                best_index=best_index,
                n_pairs_tried=len(pairs),
                n_skipped=len(pairs) - len(defined),
                trace=tuple(row) if keep_trace else (),
            )
        )
    return estimates


def estimate_constant(
    kind: ConstantKind,
    params: SpaceParams,
    random_trials: int = 0,
    seed: int = 0,
    keep_trace: bool = False,
) -> ConstantEstimate:
    """Best ratio over the :func:`candidate_pairs` sequence, default ladder.

    Pairs whose ratio is undefined (zero norm, infinite norm,
    unrepresentable sum) are skipped and counted.  Identical inputs give
    identical output: the reduction is a max with ties resolved to the
    earliest candidate.
    """
    pairs = candidate_pairs(params, random_trials, seed)
    with NormTable(params) as table:
        return estimate_constants([kind], pairs, table, keep_trace)[0]
