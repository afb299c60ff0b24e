"""Space parameters, balls, and the piecewise radial power function algebra.

Every function handled by this package has the form

    f(x) = coef_j * |x|**alpha_j      for lo_j <= |x| < hi_j,

with finitely many pairwise disjoint radial intervals [lo_j, hi_j) and
f = 0 elsewhere.  This family is closed under scaling, addition (when
overlapping intervals share the exponent) and truncation to an interval,
which is all the witness constructions need, and it keeps every integral
of |f|**p over a ball in closed form per piece.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

__all__ = [
    "Mode",
    "SpaceParams",
    "Ball",
    "RadialPiece",
    "PiecewiseRadialFunction",
    "MixedExponentOverlap",
    "FunctionParseError",
    "canonicalize",
    "scale",
    "add",
    "subtract",
    "truncate",
    "parse_function",
    "format_function",
]

INF = math.inf


class MixedExponentOverlap(ValueError):
    """Two overlapping pieces carry different exponents.

    Coefficients of overlapping pieces can only be added when the pieces
    share the same power; otherwise |sum|**p would lose its closed-form
    integral and the function is rejected.
    """


class FunctionParseError(ValueError):
    """A textual function record could not be parsed."""


class Mode(enum.Enum):
    """Ball-radius domain of the supremum defining the norm."""

    MORREY = "morrey"        # all radii r > 0
    SMALL_MORREY = "small"   # radii restricted to r in (0, 1)


@dataclass(frozen=True)
class SpaceParams:
    """Identifies the space: dimension n, exponents p <= q, and the mode."""

    n: int
    p: float
    q: float
    mode: Mode = Mode.MORREY

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"dimension n must be a positive integer, got {self.n!r}")
        if not (1.0 <= self.p <= self.q):
            raise ValueError(f"exponents must satisfy 1 <= p <= q, got p={self.p}, q={self.q}")
        if not math.isfinite(self.q):
            raise ValueError("q must be finite")
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")

    @property
    def strict(self) -> bool:
        """True when p < q (required by the witness constructions)."""
        return self.p < self.q

    def require_strict(self) -> None:
        if not self.strict:
            raise ValueError(f"p < q is required here, got p = q = {self.p}")

    def with_mode(self, mode: Mode) -> "SpaceParams":
        return SpaceParams(self.n, self.p, self.q, mode)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball, reduced by radial symmetry to (center distance, radius)."""

    d: float
    r: float

    def __post_init__(self) -> None:
        if not (self.d >= 0.0):
            raise ValueError(f"center distance must be >= 0, got {self.d}")
        if not (self.r > 0.0):
            raise ValueError(f"radius must be > 0, got {self.r}")


@dataclass(frozen=True)
class RadialPiece:
    """One term coef * |x|**alpha on the radial interval [lo, hi)."""

    lo: float
    hi: float
    coef: float
    alpha: float

    def __post_init__(self) -> None:
        if not (self.lo >= 0.0):
            raise ValueError(f"piece lower radius must be >= 0, got {self.lo}")
        if not (self.hi > self.lo):
            raise ValueError(f"piece needs hi > lo, got [{self.lo}, {self.hi})")
        if not (math.isfinite(self.coef) and math.isfinite(self.alpha)):
            raise ValueError("coefficient and exponent must be finite")


@dataclass(frozen=True)
class PiecewiseRadialFunction:
    """Canonical form: disjoint pieces sorted by lo, no zero coefficients.

    Use :func:`canonicalize` to build one from raw pieces; the constructor
    trusts its input.  The zero function is the empty piece tuple.  The
    hash, the dataclass's own, is computed once: functions key caches.
    """

    pieces: tuple[RadialPiece, ...] = field(default=())

    @cached_property
    def _hash(self) -> int:
        return hash((self.pieces,))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_zero(self) -> bool:
        return not self.pieces

    def breakpoints(self) -> list[float]:
        """All finite interval endpoints, sorted, without duplicates."""
        pts = set()
        for pc in self.pieces:
            pts.add(pc.lo)
            if math.isfinite(pc.hi):
                pts.add(pc.hi)
        return sorted(pts)

    def evaluate(self, t: float) -> float:
        """Value at radius t > 0."""
        if not t > 0.0:
            raise ValueError(f"radius must be > 0, got {t}")
        for pc in self.pieces:
            if pc.lo <= t < pc.hi:
                return pc.coef * t**pc.alpha
        return 0.0

    def evaluate_radii(self, t: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`evaluate` for an array of radii > 0."""
        out = np.zeros_like(t, dtype=float)
        for pc in self.pieces:
            mask = (t >= pc.lo) & (t < pc.hi)
            if mask.any():
                out[mask] = pc.coef * t[mask] ** pc.alpha
        return out

    def __call__(self, t: float) -> float:
        return self.evaluate(t)

    def __add__(self, other: "PiecewiseRadialFunction") -> "PiecewiseRadialFunction":
        return add(self, other)

    def __sub__(self, other: "PiecewiseRadialFunction") -> "PiecewiseRadialFunction":
        return subtract(self, other)

    def __mul__(self, c: float) -> "PiecewiseRadialFunction":
        return scale(self, c)

    __rmul__ = __mul__

    def __neg__(self) -> "PiecewiseRadialFunction":
        return scale(self, -1.0)


ZERO = PiecewiseRadialFunction()


def canonicalize(raw) -> PiecewiseRadialFunction:
    """Turn an arbitrary sequence of (lo, hi, coef, alpha) pieces canonical.

    Overlapping pieces must share the exponent; their coefficients add.
    Zero-coefficient input pieces are vacuous and dropped up front.
    Adjacent output intervals with identical (coef, alpha) are merged, so
    e.g. the two halves of a split support reassemble exactly.

    Raises :class:`MixedExponentOverlap` when two overlapping nonzero
    pieces have different exponents.
    """
    pieces = []
    for item in raw:
        pc = item if isinstance(item, RadialPiece) else RadialPiece(*item)
        if pc.coef != 0.0:
            pieces.append(pc)
    if not pieces:
        return ZERO

    # Split the line at every endpoint, then sum coefficients per segment,
    # sweeping the pieces in order of their lower ends
    cuts = sorted({x for pc in pieces for x in (pc.lo, pc.hi)})
    pieces.sort(key=attrgetter("lo"))
    out: list[RadialPiece] = []
    active: list[RadialPiece] = []
    k = 0
    for lo, hi in zip(cuts, cuts[1:]):
        while k < len(pieces) and pieces[k].lo <= lo:
            active.append(pieces[k])
            k += 1
        active = [pc for pc in active if pc.hi > lo]
        if len(active) == 1:
            coef, alpha = active[0].coef, active[0].alpha
        elif active:
            alphas = {pc.alpha for pc in active}
            if len(alphas) > 1:
                raise MixedExponentOverlap(
                    f"overlap on [{lo}, {hi}) mixes exponents {sorted(alphas)}"
                )
            coef, alpha = math.fsum(pc.coef for pc in active), active[0].alpha
        if not active or coef == 0.0:
            continue
        if out and out[-1].hi == lo and out[-1].coef == coef and out[-1].alpha == alpha:
            out[-1] = RadialPiece(out[-1].lo, hi, coef, alpha)
        else:
            out.append(RadialPiece(lo, hi, coef, alpha))
    return PiecewiseRadialFunction(tuple(out))


def scale(f: PiecewiseRadialFunction, c: float) -> PiecewiseRadialFunction:
    """c * f, in canonical form (c = 0 gives the zero function)."""
    if c == 0.0 or f.is_zero:
        return ZERO
    return canonicalize(
        RadialPiece(pc.lo, pc.hi, c * pc.coef, pc.alpha) for pc in f.pieces
    )


def add(f: PiecewiseRadialFunction, g: PiecewiseRadialFunction) -> PiecewiseRadialFunction:
    """Pointwise sum, one sweep over both sorted runs; overlaps must share the exponent."""
    return canonicalize(f.pieces + g.pieces)


def subtract(f: PiecewiseRadialFunction, g: PiecewiseRadialFunction) -> PiecewiseRadialFunction:
    """Pointwise difference: :func:`add` of f and g negated piece by piece, which is exact."""
    return canonicalize(f.pieces + tuple(RadialPiece(pc.lo, pc.hi, -pc.coef, pc.alpha)
                                         for pc in g.pieces))


def truncate(f: PiecewiseRadialFunction, lo: float, hi: float) -> PiecewiseRadialFunction:
    """Restriction of f to radii in [lo, hi), zero outside."""
    if not (0.0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    kept = []
    for pc in f.pieces:
        a, b = max(pc.lo, lo), min(pc.hi, hi)
        if a < b:
            kept.append(RadialPiece(a, b, pc.coef, pc.alpha))
    return canonicalize(kept)


# ---------------------------------------------------------------------------
# Plain-text record: one piece per "lo hi coef alpha" group, "inf" for +inf.
# Pieces are separated by ";" on the CLI and by newlines in files.


def _fmt(x: float) -> str:
    if x == INF:
        return "inf"
    return repr(float(x))


def format_function(f: PiecewiseRadialFunction) -> str:
    """Serialize to the plain-text record used by the CLI and reports."""
    return "; ".join(
        f"{_fmt(pc.lo)} {_fmt(pc.hi)} {_fmt(pc.coef)} {_fmt(pc.alpha)}"
        for pc in f.pieces
    )


def parse_function(text: str) -> PiecewiseRadialFunction:
    """Parse the plain-text record; the empty record is the zero function.

    Errors carry the piece number and token column to make CLI mistakes
    easy to locate.
    """
    pieces = []
    chunks = text.replace("\n", ";").split(";")
    for lineno, chunk in enumerate(chunks, start=1):
        if not chunk.strip():
            continue
        tokens = chunk.split()
        if len(tokens) != 4:
            raise FunctionParseError(
                f"piece {lineno}: expected 4 tokens 'lo hi coef alpha', got {len(tokens)}"
            )
        values = []
        for col, tok in enumerate(tokens, start=1):
            try:
                values.append(INF if tok.lower() in ("inf", "+inf") else float(tok))
            except ValueError:
                raise FunctionParseError(
                    f"piece {lineno}, token {col}: {tok!r} is not a number"
                ) from None
        try:
            pieces.append(RadialPiece(*values))
        except ValueError as exc:
            raise FunctionParseError(f"piece {lineno}: {exc}") from None
    return canonicalize(pieces)
