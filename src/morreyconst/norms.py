"""Ball-averaged sup norms of piecewise radial power functions.

The norm is  sup over balls B(a, r)  of  |B|^(1/q - 1/p) (int_B |f|^p)^(1/p),
with radii unrestricted (Morrey mode) or confined to (0, 1) (small mode).

Two exact bounds bracket the norm.  From below, the centered balls:
the centered profile P(r) is closed form, and its supremum L over the
window's radii comes exactly from a few candidate radii, for a whole
batch of functions in one vectorized pass (:func:`_centered_tops`).
From above, the bathtub principle
(Lieb & Loss, *Analysis*, Thm 1.14): let g* be the decreasing
rearrangement of |f|^p in the measure variable m = v_n t^n and
Phi(m) = int_0^m g*.  A ball of measure m holds at most Phi(m) of |f|^p,
and its weight |B|^(1/q - 1/p) depends on m alone, so no ball beats
U = sup over m of m^(1/q - 1/p) Phi(m)^(1/p) (:func:`_bathtub_bounds`),
and L <= ||f|| <= U.  Where U meets L within the requested rel_tol, the
norm is L, certified, and no grid, zoom or quadrature runs
(:func:`_certified`).  When |f| is radially nonincreasing, |f|^p is its
own rearrangement: the centered ball of measure m is the set of the m
largest values, so U = L up to rounding and every such f is certified.
That is the elementary case of the Hardy-Littlewood rearrangement
inequality (Lieb & Loss, Thm 3.4).

U is exact.  In m, a piece c |x|^alpha is |c|^p (m / v_n)^(alpha p / n)
on an m-interval, so the level set {|f|^p > lam} is a union of
intervals with closed-form ends, and its measure mu(lam) and the
integral G(lam) of |f|^p over it are closed form, with
Phi(mu(lam)) = G(lam).  The m-derivative of log(m^(-kappa) Phi(m)),
kappa = 1 - p/q, has the sign of m g*(m) - kappa Phi(m), which at
m = mu(lam) is H(lam) = lam mu(lam) - kappa G(lam).  Between
consecutive levels at which some piece starts or stops being cut, the
pieces whose level-set ends move stay the same, and in z = log lam both
mu and H are sums of exponentials (plus a linear term for a piece with
alpha p + n = 0), whose roots come exactly from the vectorized solver
:func:`~morreyconst.exact1d.exp_sum_roots` (Rolle's theorem, closed
forms for two terms, safeguarded Newton steps).  A constant piece makes
mu jump at its level; Phi is linear there, with slope lam, and the
bound has no maximum inside that stretch, since its one stationary point
there is a minimum.  So the candidates are the ends of every stretch,
the roots of H, the window's ends (inverting mu(lam) = m on the segment
that brackets m) and the limits as m -> 0 and m -> infinity, or m = v_n
in small mode.  One vectorized pass bounds a whole batch.  No
quadrature, grid or scipy is used.

For n = 1 every function that the bound does not certify takes an
exact path (:mod:`morreyconst.exact1d`).  A ball is an interval [u, v];
with g = |f|^p on the line, kappa = 1 - p/q and Phi(u, v) the integral of g
over [u, v], value^p = (v - u)^(-kappa) Phi(u, v).  The norm is the
supremum over 0 < v - u <= 2 r_max, and it is attained at a stationary
point of one of the smooth strata of that domain, or approached in a
limit.  Mirror images give equal values, so one of each pair is taken.
The candidates:

* both ends on faces (0, or plus or minus a breakpoint): corners;
* one end fixed on a face, the other free at x = e^z on a piece, where
  g(x) (x - x0) = kappa (G(x) - G(x0)), G the signed antiderivative of g;
* both ends free, on two pieces, where g(u) = g(v) = kappa Phi / (v - u);
  g(u) = g(v) makes log |u| affine in z = log v on power pieces, and
  where one piece is constant it fixes the other end, which then joins
  the fixed points of the class above;
* on the cap v - u = 2 rho, an end on a face, or both ends free with
  g(u) = g(v): rho = r_max for the value, and rho = 1 for the small
  mode's flag;
* the centered balls, whose supremum L and its limits are exact already
  (:func:`_centered_tops`).

Every free-end condition is the root of one kind of function of z, an
exponential sum P(z) = a0 + a1 e^(e1 z) + a2 e^(e2 z) + lin z, with a
linear term only beside a single exponential (where alpha p = -1 makes G
logarithmic).  Its slope changes sign at most once, in closed form, so
P has at most two roots, each in a monotone bracket.  A bracket whose
bound (v_lo - u_hi)^(-kappa) Phi(u_lo, v_hi) cannot beat L is pruned,
and every other bracket of a batch takes safeguarded Newton steps at
once.  The candidate balls of all the batch's functions are then
evaluated in one call of the exact n = 1 kernel
(:func:`~morreyconst.integrate.group_ball_integrals_n1`).  The value is
the best ball of the window, argmax ties going to the smaller (d, r);
there is no r_min and no d_max, which were the search grid's.
``truncated`` is exact: the best over every radius of the mode (the cap
at rho = 1 in small mode, every interior candidate and the limit at
infinity in Morrey mode) beats the value by more than rel_tol.

For n >= 2 every function that the bound does not certify is searched
(:func:`_search`).  By radial symmetry the supremum over centers a
reduces to a supremum over the center distance d = |a|, leaving a
2-parameter search in (d, r): a coarse log-r x linear-d grid, filled by
one batched kernel call, then a zoom.  The zoom starts from the best grid
cells and from the best balls whose faces d - r and d + r both sit on
breakpoints of f (or at the origin); each round evaluates a small patch
in (d, log r) and one in (d - r, d + r) around every start, moves each
start to its best ball and shrinks the patches, for a fixed number of
rounds, each round one kernel call.  Centered balls (d = 0) are exact.
The winner is then re-evaluated at the requested tolerance.

The norm depends only on |f| and ||c f|| = |c| ||f||, so a search runs
once per norm shape, |f| over the magnitude of its first coefficient
(:func:`_shape`): a function's norm is its shape's norm times that
magnitude.  :class:`NormTable` is the one evaluator: it takes shapes,
keeps each one's result for as long as the table lives, and evaluates
the new ones here: the certificate for all of them, the exact path for
n = 1; only the uncertified n >= 2 shapes go to its process pool, which
only searches.  :func:`norm` is a pool-less table of one.  Every pass
over a batch reads its one :class:`~morreyconst.integrate.PieceTable`
(:func:`_table`), or the rows of the shapes it takes.

Whether the norm is infinite is decided analytically from the piece
exponents before any search runs (:func:`norm_is_infinite`, exact on
this function class).
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from collections.abc import Iterable
from itertools import repeat

import numpy as np

from morreyconst.exact1d import best_in_rows, exact_norms, exp_sum_roots, runs
from morreyconst.geometry import unit_ball_volume, unit_sphere_area
from morreyconst.integrate import (
    IntegrationSettings,
    PieceTable,
    ball_integrals,
    centered_integrals,
    group_centered_integrals,
)
from morreyconst.model import (
    Ball,
    Mode,
    PiecewiseRadialFunction,
    RadialPiece,
    SpaceParams,
)

__all__ = [
    "search_window",
    "NormResult",
    "centered_norm_profile",
    "norm",
    "NormTable",
    "closed_form_power_norm",
    "norm_is_infinite",
]

INF = math.inf

# The grid: _N_RADII log-spaced radii by _N_CENTERS evenly spaced
# center distances over the search window.
_N_RADII = 64
_N_CENTERS = 33

# Search probes run at a floor tolerance for speed; the winning ball is
# re-evaluated at the requested tolerance afterwards, so the floor only
# affects where the refinement looks, not the reported value.
_SCOUT_REL_TOL = 1e-8

# The refinement zoom: starts from the _STARTS best grid cells and the
# _STARTS best breakpoint-aligned balls, _PATCH x _PATCH points per
# patch, patches shrunk by _SHRINK after each of _ROUNDS rounds.  The
# middle offset is exactly 0, so the (d, log r) patch holds its start
# and a start never moves to a worse ball.
_STARTS = 3
_PATCH = 7
_SHRINK = 1.0 / 3.0
_ROUNDS = 20
_OFFSETS = np.linspace(-1.0, 1.0, _PATCH)


def search_window(f: PiecewiseRadialFunction, mode: Mode) -> tuple[float, float, float]:
    """The (r_min, r_max, d_max) window of f's (d, r) search in mode.

    With b the largest finite breakpoint of f (0 without one): r_min is
    1e-3, or a tenth of f's smallest breakpoint when that is smaller,
    since a function supported inside (0, eps) has its best balls at
    radii comparable to eps; d_max is 10 + b; r_max is 1 - 1e-6 in small
    mode and R = max(1e6, 10 b) in Morrey mode.  No ball beyond the
    Morrey window beats it when the profile of f has stopped rising at R:

    * Every ball of the window's centers with r > R contains B(0, b),
      since R >= 10 + 2 b.
    * Past b, f is one power |c| |x|^alpha or 0, and a finite norm
      has alpha <= -n/q there (:func:`norm_is_infinite`), so |f|^p
      does not grow with |x| outside B(0, b).  A ball holding B(0, b)
      adds a set of measure |B_r| - |B_b| outside it, and no such set
      carries more of |f|^p than the annulus b <= |x| <= r (the
      bathtub principle): the centered ball of the same radius is at
      least as good.
    * For r >= b the centered integral is I(r) = C + K r^gamma,
      gamma = alpha p + n (C + K log r when gamma = 0), and the
      profile's derivative in log r is
      n/q - n/p + |c|^p |S^(n-1)| r^gamma / (p I(r)), monotone in r,
      with limit alpha + n/q <= 0 (n/q - n/p <= 0 when gamma <= 0).
      So a profile that does not rise at R rises nowhere beyond it,
      and the centered ball of radius R beats every larger ball; one
      that still rises at R has its supremum beyond the window,
      which ``truncated`` reports.  When f vanishes past b, the
      centered ball of radius b <= R holds all of |f|^p in the least
      volume and beats every larger ball.

    For n = 1 only r_max is used: the exact path (:mod:`~morreyconst.exact1d`)
    takes every center and every radius up to r_max.  For n >= 2 the
    search does not look below r_min or past d_max, so it can miss the
    best ball of a thin annulus a <= |x| < b far out, whose radius is
    about (b - a) / 2; no bound yet shows that nothing below r_min beats
    the search's value.  It is f's row of a batch's :func:`_table`.
    """
    return tuple(PieceTable.of((f,), small=mode is Mode.SMALL_MORREY).window[0].tolist())


def _table(fs, params: SpaceParams) -> PieceTable:
    """The :class:`~morreyconst.integrate.PieceTable` of fs in params' space, or fs if it is one."""
    return PieceTable.of(fs, params.p, params.n, params.mode is Mode.SMALL_MORREY)


@dataclass(frozen=True)
class NormResult:
    """Computed norm with the best ball found and diagnostic flags.

    ``truncated`` marks suprema still climbing at the search boundary
    (r -> infinity, or r -> 1 in small mode): the value is then a lower
    estimate with an analytically known deficit.  For any f that the
    bathtub bound certifies (:func:`_certified`) it is exact: True when
    the centered profile's supremum over every radius of the mode, its
    limit as r -> infinity or its value at r = 1 included, beats the
    window's by more than the requested ``rel_tol``, and False when the
    bound over every radius of the mode does not; the value is the
    window's centered supremum either way, and ``argmax`` is the
    centered ball (0, r*).

    For n = 1 it is exact for every f.  ``value`` is the supremum over
    all centers and all radii 0 < r <= r_max of :func:`search_window`,
    attained at ``argmax``, ties going to the smaller (d, r), and
    ``truncated`` is True when the supremum over every radius of the
    mode (r < 1 in small mode; every r, its limit as r -> infinity
    included, in Morrey mode) beats it by more than ``rel_tol``.  For
    n >= 2 an uncertified f is searched, and ``truncated`` is the
    search's heuristic: the best grid column still rising by more than
    1e-7 over its last step.  ``tol_ok`` is False when some probe
    integral missed its tolerance budget.
    """

    value: float
    argmax: Ball | None
    truncated: bool = False
    tol_ok: bool = True

    @property
    def infinite(self) -> bool:
        return self.value == INF

    def scaled(self, c: float) -> "NormResult":
        """The result of c times the function, for c > 0: only the value moves."""
        return self if c == 1.0 else replace(self, value=self.value * c)


def _weight(params: SpaceParams, r) -> float | np.ndarray:
    """|B(a, r)|^(1/q - 1/p), the shrinking factor of the norm."""
    vol = unit_ball_volume(params.n) * r**params.n
    return vol ** (1.0 / params.q - 1.0 / params.p)


def centered_norm_profile(f: PiecewiseRadialFunction, params: SpaceParams, r):
    """Norm quantity of the centered balls of radii r (exact closed form).

    r may be a number or an array; the result has r's shape.  A number is
    evaluated as a one-element array, since numpy's power of a 0-d array
    can take another path and differ by an ulp, so both forms agree bit
    for bit.
    """
    r = np.asarray(r, dtype=float)
    if params.mode is Mode.SMALL_MORREY and not (r < 1.0).all():
        raise ValueError(f"small mode requires radius < 1, got {r}")
    flat = r.reshape(-1)
    integrals = centered_integrals(f, params.p, params.n, flat)
    with np.errstate(over="ignore"):
        values = _weight(params, flat) * integrals ** (1.0 / params.p)
    return values.reshape(r.shape)[()]


def closed_form_power_norm(params: SpaceParams) -> float:
    """Reference norm of the pure power |x|^(-n/q): v_n^(1/q) (1 - p/q)^(-1/p).

    The centered profile of that power is this constant for every radius.
    The power is radially decreasing, so no ball beats the centered ball
    of its radius (the rearrangement argument of the module docstring),
    and the norm is this constant in both modes.
    """
    params.require_strict()
    vn = unit_ball_volume(params.n)
    return vn ** (1.0 / params.q) * (1.0 - params.p / params.q) ** (-1.0 / params.p)


def norm_is_infinite(f: PiecewiseRadialFunction, params: SpaceParams) -> bool:
    """Analytic membership test, exact for piecewise radial powers.

    |f| is bounded on bounded sets away from the origin, so unless the
    piece at radius 0 has alpha p + n <= 0 (a divergent integral) the
    norm quantity is finite and continuous in (d, r); it can blow up only
    at radius 0 (at the origin: elsewhere it is at most
    sup |f| |B|^(1/q)) or at infinity.  The norm is infinite exactly when
    the piece at 0 has alpha < -n/q (centered profile r^(alpha + n/q))
    or alpha p + n <= 0, or when the piece reaching infinity has, in
    Morrey mode, alpha > -n/q (big centered balls), or alpha = -n/q
    with p = q (weight 1, centered integral ~ log r); in small mode,
    alpha > 0 (far-away centers).  Below those thresholds, in Morrey
    mode, |f| <= C |x|^(-n/q) when p < q, whose norm is finite
    (:func:`closed_form_power_norm`), and f is in L^p when p = q; in
    small mode, f is such a part near 0 plus a bounded rest.  So a
    finite answer needs no growth check on the search grid.
    """
    return bool(_infinite(_table((f,), params), params)[0])


def _infinite(tab: PieceTable, params: SpaceParams) -> np.ndarray:
    """:func:`norm_is_infinite` of each function of tab, from its first and last piece."""
    n, p, q = params.n, params.p, params.q
    last = np.arange(len(tab)), np.maximum(tab.sizes - 1, 0)
    head, tail = tab.alpha[:, 0], tab.alpha[last]
    far = tail > 0.0 if params.mode is Mode.SMALL_MORREY else (
        (tail > -n / q) | ((p == q) & (tail * p + n >= 0.0)))
    origin = (tab.lo[:, 0] == 0.0) & ((head + n / q < 0.0) | (head * p + n <= 0.0))
    return origin | (tab.hi[last] == INF) & far


def _limits_at_infinity(tab: PieceTable, params: SpaceParams) -> np.ndarray:
    """Limit of each centered Morrey profile of tab as r -> infinity, for finite norms.

    With p = q the weight is 1, and the profile rises to (int |f|^p)^(1/p).
    With p < q, let the last piece be c |x|^alpha, gamma = alpha p + n and
    m = n (1 - p/q).  When it reaches infinity with alpha = -n/q, that is
    gamma = m, its centered integral is C + |c|^p |S^(n-1)| r^m / m, and
    the profile tends to |c| times :func:`closed_form_power_norm`.
    Otherwise the integral grows slower than r^m (a finite norm has
    alpha <= -n/q), the weight falls as r^(-m/p), and the limit is 0.
    """
    p, n, q = params.p, params.n, params.q
    last = np.arange(len(tab)), np.maximum(tab.sizes - 1, 0)
    if p == q:
        whole = group_centered_integrals(tab, p, n, last[0], np.full(len(tab), INF))
        return np.array([x ** (1.0 / p) for x in whole.tolist()])
    critical = (tab.hi[last] == INF) & (tab.alpha[last] == -n / q)
    return np.where(critical, np.abs(tab.coef[last]) * closed_form_power_norm(params), 0.0)


def _stationary_roots(fs, params: SpaceParams) -> np.ndarray:
    """Radii inside the pieces of fs where their centered profiles are stationary.

    Returns the (f, piece) table of them, NaN where a piece has none, for
    fs or their :func:`_table`.  On a
    piece c |x|^alpha from a > 0, with A = |c|^p |S^(n-1)|, the root of
    A r^gamma = m I(r) (see :func:`_centered_tops`) is
    r^gamma = m (gamma I(a) - A a^gamma) / (A (gamma - m)), or
    r = a exp(1/m - I(a) / A) when gamma = 0, when that is a radius
    inside the piece.  With p = q (m = 0) the profile I(r)^(1/p) only
    rises and has none.  A piece from 0 has none either: there P(r) is a
    constant times r^(alpha + n/q).  Every piece of every f is solved at
    once, elementwise, so a root does not depend on the other functions.
    """
    p, n = params.p, params.n
    m = n * (1.0 - p / params.q)
    tab = _table(fs, params)
    found = np.full(tab.lo.shape, np.nan)
    inner = tab.lo > 0.0
    if m == 0.0 or not inner.any():
        return found
    owner = np.nonzero(inner)[0]
    lo, hi, coef, gamma = tab.lo[inner], tab.hi[inner], tab.coef[inner], tab.gamma[inner]
    rate = unit_sphere_area(n) * np.abs(coef) ** p
    at_lo = group_centered_integrals(tab, p, n, owner, lo)
    with np.errstate(all="ignore"):  # gamma in {0, m}: one branch has no root
        power = m * (gamma * at_lo - rate * lo**gamma) / (rate * (gamma - m))
        roots = np.where(
            gamma == 0.0, lo * np.exp(1.0 / m - at_lo / rate), power ** (1.0 / gamma)
        )
    found[inner] = np.where((lo < roots) & (roots < hi), roots, np.nan)
    return found


def _centered_tops(fs, params: SpaceParams) -> list[tuple[float, float, float, float]]:
    """(L, r*, top, r_max) of each f's centered profile P(r), for fs of finite norm, exactly.

    L is the lower end of the bracket of the module docstring, and f's
    norm wherever the bathtub bound meets it (:func:`_certified`).  It is
    the supremum over the search window [r_min, r_max] of
    :func:`search_window`.  On a piece c |x|^alpha with lower end a > 0
    the centered integral is I(r) = I(a) + K (r^gamma - a^gamma),
    gamma = alpha p + n and K = |c|^p |S^(n-1)| / gamma (or
    I(a) + |c|^p |S^(n-1)| log(r / a) when gamma = 0), and
    d log P / d log r = |c|^p |S^(n-1)| r^gamma / (p I(r)) - m / p with
    m = n (1 - p/q).  Its first term is monotone in r, so P has at most
    one stationary point inside a piece, where
    |c|^p |S^(n-1)| r^gamma = m I(r), which is closed form in r.  So the
    supremum over any interval of radii is attained at its ends, at a
    breakpoint or at such a root, and those are the candidates.

    Nothing is lost below r_min, which is at most a tenth of f's first
    breakpoint: when f's first piece starts at 0, P(r) is a constant
    times r^(alpha + n/q) on it, monotone in r, so the supremum over
    (0, r_min] is P(r_min); otherwise P vanishes there.

    top is the supremum over every radius of the mode: the same
    candidates unclipped, and the limit as r -> infinity in Morrey mode
    (:func:`_limits_at_infinity`) or P(1) in small mode, which is the
    supremum over r < 1 of the continuous P.  r* is the smallest
    candidate that attains L (the values are finite or INF), and r_max is
    the window's largest radius.  fs are functions or their
    :func:`_table`; the candidates of all of fs are one row per f, and
    every step is elementwise or a reduction over one f's row, so each
    result equals f's alone bit for bit.
    """
    tab = _table(fs, params)
    count, small = len(tab), params.mode is Mode.SMALL_MORREY
    # each f's candidates: its window's ends, its breakpoints, its
    # stationary points and 1 in small mode
    r_min, r_max = tab.window[:, :1], tab.window[:, 1:2]
    radii = np.concatenate([tab.window[:, :2], tab.lo, tab.hi, _stationary_roots(tab, params),
                            np.ones((count, 1))], axis=1)
    real = (0.0 < radii) & (radii < (1.0 if small else INF))
    real[:, -1] = small
    # Morrey's profile, so that small mode may evaluate P(1) too
    owner = np.nonzero(real)[0]
    integrals = group_centered_integrals(tab, params.p, params.n, owner, radii[real])
    values = np.full(radii.shape, -INF)
    with np.errstate(over="ignore"):
        values[real] = _weight(params, radii[real]) * integrals ** (1.0 / params.p)
    # its top, and its window's maximum, first reached at the smallest radius
    tops = values.max(axis=1)
    inside = np.where((r_min <= radii) & (radii <= r_max), values, -INF)
    lower = inside.max(axis=1)
    r_star = np.where(inside == lower[:, None], radii, INF).min(axis=1)
    if not small:
        tops = np.maximum(tops, _limits_at_infinity(tab, params))
    return list(zip(lower.tolist(), r_star.tolist(), tops.tolist(), r_max[:, 0].tolist()))


def _centered_result(row: tuple[float, float, float, float], rel_tol: float) -> NormResult:
    """A :func:`_centered_tops` row as a result: truncated when top beats L by rel_tol."""
    value, r_star, top, _ = row
    return NormResult(value, Ball(0.0, r_star), truncated=top > value * (1.0 + rel_tol))


def _centered_suprema(fs, params: SpaceParams, rel_tol: float) -> list[NormResult]:
    """Each f's centered supremum L (:func:`_centered_tops`) as a result, argmax (0, r*)."""
    return [_centered_result(row, rel_tol) for row in _centered_tops(fs, params)]


def _piece_mass(c, gamma, a, b):
    """Integral of c |x|^(gamma - n) over a <= |x| < b, over |S^(n-1)|, elementwise.

    As c a^gamma expm1(gamma log(b / a)) / gamma when gamma < 0, and
    c b^gamma expm1(-gamma log(b / a)) / -gamma when gamma > 0 (which
    takes a = 0), so no difference of two powers loses digits as gamma
    -> 0 or b -> a; c log(b / a) at gamma = 0.  log(b / a) is taken as
    log1p((b - a) / a), which keeps its digits as b -> a, and is 0 where
    b = a (a level set that underflowed to [0, 0) is empty).  No
    warnings: callers run under np.errstate(all="ignore").
    """
    log, k = np.log1p(np.where(b > a, (b - a) / a, 0.0)), -np.abs(gamma)
    return c * np.where(
        gamma == 0.0, log, np.where(gamma > 0.0, b, a) ** gamma * np.expm1(k * log) / k)


def _last_sum(x: np.ndarray) -> np.ndarray:
    """The sum over x's last axis, left to right, so that trailing zeros change no bit."""
    return np.cumsum(x, axis=-1)[..., -1]


@np.errstate(all="ignore")
def _bathtub_bounds(fs, params: SpaceParams) -> tuple[np.ndarray, np.ndarray]:
    """The bathtub bounds (U_win, U_all) of each f of fs, of finite norm and not zero.

    See the module docstring.  U_win takes the measure m over f's search
    window, [v_n r_min^n, v_n r_max^n], and U_all over every radius of
    the mode, limits included.  A row whose levels of |f|^p, or the
    measure or integral of one of its level sets, leave the float range
    declines: its U is infinity.

    One vectorized pass serves the batch, on tables padded to its widest
    f: (f, piece), fs's :func:`_table`; (f, level) for mu, G and the stretch
    ends; (f, stretch between levels, piece) for the exponential sums of H,
    and of mu - m at the window's ends, whose roots come from
    :func:`~morreyconst.exact1d.exp_sum_roots`, one call each; and (f,
    candidate) for the bound m^(1/q - 1/p) Phi^(1/p), taken as
    (Phi m^(p/q - 1))^(1/p), whose one rounded exponent multiplies
    log Phi m^(-kappa), not log m.  Every step is elementwise, or a
    reduction over one f's row in which padding adds exact zeros, so each
    row equals f's alone bit for bit.  So every power takes a base and an
    exponent of one shape: numpy takes another path, which can differ by
    an ulp, for an exponent broadcast along its inner loop, and which
    loop is inner depends on the batch's shapes.
    """
    tab = _table(fs, params)
    count = len(tab)
    if not count:
        return np.empty(0), np.empty(0)
    n, p, q = params.n, params.p, params.q
    kappa = 1.0 - p / q
    vn, area = unit_ball_volume(n), unit_sphere_area(n)
    small = params.mode is Mode.SMALL_MORREY
    rows = np.arange(count)[:, None]
    # per piece, along the last axis, with axis 1 for the levels that
    # broadcast against it: lo, hi, |c|^p, alpha p, gamma, the lowest
    # and the highest level of |f|^p on it, its measure and its integral
    lo, hi, coef, alpha = (x[:, None, :] for x in (tab.lo, tab.hi, tab.coef, tab.alpha))
    real = ~np.isnan(lo)
    c, ap = np.abs(coef) ** p, alpha * p
    gamma, neg = ap + n, ap < 0.0
    ends = np.where(ap == 0.0, c, [c * lo**ap, c * hi**ap])
    bot = np.where(real, ends.min(axis=0), -INF)
    top = np.where(real, ends.max(axis=0), -INF)
    full_m = np.where(real, vn * (hi**n - lo**n), 0.0)
    full_g = np.where(real, _piece_mass(area * c, gamma, lo, hi), 0.0)
    good = ((0.0 < c) & (c < INF) & ((top < INF) | (lo == 0.0) & neg)
            & ((0.0 < bot) | (hi == INF) & neg | (lo == 0.0) & (ap > 0.0)))
    declined = (real & (~good | (hi < INF) & ~(full_m < INF))).any(axis=(1, 2))
    # the search window's measures (:func:`search_window`), and m = v_n,
    # the end of small mode's radii
    r_min, r_max = tab.window[:, 0], tab.window[:, 1]
    m_q = np.stack([vn * r_min**n, vn * r_max**n] + [np.full(count, vn)] * small, axis=1)
    queries = m_q.shape[1]

    def level(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """mu(lam) and G(lam) for lam (f, k): the measure of {|f|^p > lam} and the integral over it.

        Only the pieces that a level cuts take powers and logarithms.
        """
        lam = lam[:, :, None]
        skip, full = lam >= top, lam <= bot
        m = np.where(full & ~skip, full_m, 0.0)
        g = np.where(full & ~skip, full_g, 0.0)
        cut = np.nonzero(~skip & ~full)
        at, x = (cut[0], 0, cut[2]), lam[cut[0], cut[1], 0]
        t = np.minimum(np.maximum(np.power(x / c[at], 1.0 / ap[at]), lo[at]), hi[at])
        a, b = np.where(neg[at], lo[at], t), np.where(neg[at], t, hi[at])
        m[cut] = vn * (b**n - a**n)
        g[cut] = _piece_mass(area * c[at], gamma[at], a, b)
        return _last_sum(m), _last_sum(g)

    # the levels, highest first, padded with infinity (mu = G = 0 there);
    # sorted in Python: a few per f
    found = [sorted({v for v in row if 0.0 < v < INF}, reverse=True)
             for row in np.concatenate([bot[:, 0], top[:, 0]], axis=1).tolist()]
    count_l = np.array([len(row) for row in found])
    wide = max(1, int(count_l.max()))
    has = np.arange(wide) < count_l[:, None]
    levels = np.array([row + [INF] * (wide - len(row)) for row in found])
    # (m, Phi(m)) at both ends of every level's stretch: Phi is linear on
    # [mu(e), mu(e-)] with slope e, so the bound has no maximum inside;
    # and mu(0), G(0), past which m holds every level set
    m_e, g_e = level(np.concatenate([levels, np.zeros((count, 1))], axis=1))
    (m_e, m_all), (g_e, g_all) = np.split(m_e, [wide], axis=1), np.split(g_e, [wide], axis=1)
    flat = (bot == top) & (bot == levels[:, :, None])
    m_top = m_e + _last_sum(np.where(flat, full_m, 0.0))
    g_top = g_e + _last_sum(np.where(flat, full_g, 0.0))

    # Between consecutive levels lam_hi > lam_lo, in z = log(lam / ref),
    # mu and H / ref are exponential sums: a moving piece's level set
    # ends at t = (lam / c)^(1 / ap), [lo, t) when alpha < 0 and (t, hi)
    # when alpha > 0
    bounds = np.concatenate([np.full((count, 1), INF), levels, np.full((count, 1), INF)], axis=1)
    bounds[np.arange(count), count_l + 1] = 0.0
    lam_hi, lam_lo = bounds[:, :-1], bounds[:, 1:]
    skip = top <= lam_lo[:, :, None]
    fixed = ~skip & (bot >= lam_hi[:, :, None])
    moving = ~skip & ~fixed
    first = c[:, 0][rows, moving.argmax(axis=2)]
    ref = np.where(lam_hi < INF, lam_hi, np.where(lam_lo > 0.0, lam_lo, first))
    rho, sgn, end = n / ap, np.where(neg, 1.0, -1.0), np.where(neg, lo, hi)
    # w = v_n t^n at lam = ref, and log(t / end), on the moving pieces only
    w, log_t = np.zeros((2,) + moving.shape)
    at = np.nonzero(moving)
    piece = (at[0], 0, at[2])
    t = np.minimum(np.maximum(np.power(ref[at[:2]] / c[piece], 1.0 / ap[piece]), lo[piece]),
                   hi[piece])
    w[at], log_t[at] = vn * t**n, np.log(t / end[piece])
    declined |= (moving & ~(w < INF)).any(axis=(1, 2))
    log_g = gamma == 0.0  # G moves as -w ref z, and H / ref gains w + kappa w z
    fixed_m = _last_sum(np.where(fixed, full_m, np.where(moving, -(sgn * vn * end**n), 0.0)))
    fixed_g = _last_sum(np.where(fixed, full_g, np.where(moving, np.where(
        log_g, area * c * log_t, -(sgn * area * c * end**gamma / gamma)), 0.0)))
    segment = moving.any(axis=2) & (np.abs(fixed_m) < INF) & (np.abs(fixed_g) < INF)
    z_lo = np.where(lam_lo > 0.0, np.log(lam_lo) - np.log(ref), -INF)
    z_hi = np.where(lam_hi < INF, np.log(lam_hi) - np.log(ref), INF)

    # Phi at the window's ends (and at v_n): in the first stretch that
    # reaches m, linear; else at the root lam of mu(lam) = m in the
    # segment above it (above 0 past the last stretch), unless m holds
    # every level set; or, where mu is flat there, at the stretch's level.
    # G(lam) + lam (m - mu(lam)) >= Phi(m) for every lam, with equality
    # at the root, so a rounded root errs upward only
    reach = (m_q[:, :, None] <= m_top[:, None, :]) & has[:, None, :]
    inside = reach.any(axis=2)
    j = np.where(inside, reach.argmax(axis=2), count_l[:, None])
    i = np.maximum(np.minimum(j, count_l[:, None] - 1), 0)
    m_j, g_j, e_j = m_e[rows, i], g_e[rows, i], levels[rows, i]
    linear = inside & (m_q > m_j)
    whole = ~inside & (m_q >= m_all)
    rooted = ~linear & ~whole & segment[rows, j]
    lam_q = np.where(linear | whole | rooted, INF, np.where(count_l[:, None] > 0, e_j, np.nan))

    # the roots of H on each segment, and of mu - m at the window's ends
    h_at, q_at = np.nonzero(segment), np.nonzero(rooted)
    q_seg = (q_at[0], j[q_at])
    h_coef = np.where(moving, np.where(log_g, w, sgn * w * p * (alpha + n / q) / gamma), 0.0)
    h_lin = _last_sum(np.where(moving & log_g, kappa * w, 0.0))
    col, z = exp_sum_roots(
        np.vstack([h_coef[h_at].T, fixed_m[h_at], -kappa * fixed_g[h_at] / ref[h_at]]),
        np.vstack([np.where(moving & ~log_g, 1.0 + rho, 0.0)[h_at].T, np.ones(h_at[0].size),
                   np.zeros(h_at[0].size)]),
        h_lin[h_at], z_lo[h_at], z_hi[h_at])
    owner = h_at[0][col]
    slot = runs(owner)
    q_col, z_q = exp_sum_roots(
        np.vstack([np.where(moving, sgn * w, 0.0)[q_seg].T, fixed_m[q_seg] - m_q[q_at]]),
        np.vstack([np.where(moving, rho, 0.0)[q_seg].T, np.zeros(q_at[0].size)]),
        np.zeros(q_at[0].size), z_lo[q_seg], z_hi[q_seg])
    # a column's first root (mu is monotone, so it has at most one)
    lead = np.flatnonzero(np.diff(q_col, prepend=-1))
    z_first = np.zeros(q_at[0].size)
    z_first[q_col[lead]] = z_q[lead]
    # any level gives a true point (mu, Phi(mu)), so clipping z where
    # ref e^z would overflow costs no soundness
    lam_q[q_at] = ref[q_seg] * np.exp(np.minimum(z_first, 700.0))
    lam = np.full((count, slot.max(initial=-1) + 1 + queries), INF)
    lam[owner, slot] = ref[h_at][col] * np.exp(np.minimum(z, 700.0))
    lam[:, -queries:] = lam_q
    m, g = level(lam)
    m_l, g_l = m[:, -queries:], g[:, -queries:]
    phi = np.where(linear, g_j + e_j * (m_q - m_j),
                   np.where(whole, g_all, g_l + lam_q * (m_q - m_l)))

    # the bound over every candidate (m, Phi(m)), reduced per f
    m = np.concatenate([m_e, m_top, m[:, :-queries], m_q], axis=1)
    g = np.concatenate([g_e, g_top, g[:, :-queries], phi], axis=1)
    column = np.arange(m.shape[1])
    at_end = column >= m.shape[1] - queries
    point = np.concatenate([has, has, np.ones((count, m.shape[1] - 2 * wide), bool)], axis=1)
    point &= ~at_end
    declined |= ((point | at_end) & (np.isnan(m) | np.isnan(g))).any(axis=1)
    bound = np.where((0.0 < m) & (m < INF),
                     (np.maximum(g, 0.0) * m ** (p / q - 1.0)) ** (1.0 / p), 0.0)
    window = point | at_end & (column < m.shape[1] - small)
    window &= (m_q[:, :1] <= m) & (m <= m_q[:, 1:2])
    u_win = np.where(window, bound, -INF).max(axis=1)
    u_all = np.where((point | at_end) & (m <= vn) if small else point, bound, -INF).max(axis=1)
    # the limits as r -> infinity (:func:`_limits_at_infinity`) and, at a
    # critical first piece, as r -> 0
    if not small:
        u_all = np.maximum(u_all, _limits_at_infinity(tab, params))
    critical = (tab.lo[:, 0] == 0.0) & (tab.alpha[:, 0] == -n / q)
    power = closed_form_power_norm(params) if p < q else 0.0
    u_all = np.maximum(u_all, np.where(critical, np.abs(tab.coef[:, 0]) * power, 0.0))
    return np.where(declined, INF, u_win), np.where(declined, INF, np.maximum(u_all, u_win))


def _certified(fs, params: SpaceParams, rel_tol: float,
               lower: list[NormResult] | None = None) -> list[NormResult | None]:
    """Each f's norm without a search where the bathtub bound certifies it, else None.

    fs (or their :func:`_table`) are of finite norm and not zero.  With L f's
    :func:`_centered_suprema` result (``lower``, when the caller has them
    already) and bar = L.value (1 + rel_tol), f is certified when
    U_win <= bar (:func:`_bathtub_bounds`, one pass for all of fs): no
    ball of the window beats L by more than rel_tol, so L is what the
    search would approximate.  Its ``truncated`` is exact: True when a
    centered ball outside the window or a limit beats bar (L's own flag),
    False when U_all <= bar.  In between, no ball outside the window is
    known to beat bar, none is ruled out, and f is searched (None).  So
    is an f whose bound declines.  A radially nonincreasing |f| is its
    own rearrangement, so U = L (the module docstring): it is certified
    without a bound (``nonincreasing`` of the table).
    """
    tab = _table(fs, params)
    if lower is None:
        lower = _centered_suprema(tab, params, rel_tol)
    certified: list[NormResult | None] = list(lower)
    rest = np.flatnonzero(~tab.nonincreasing)
    bounds = _bathtub_bounds(tab.take(rest), params) if rest.size else ()
    for k, win, every in zip(rest.tolist(), *(u.tolist() for u in bounds)):
        bar = lower[k].value * (1.0 + rel_tol)
        if not (win <= bar < INF and (lower[k].truncated or every <= bar)):
            certified[k] = None
    return certified


def _aligned_balls(f: PiecewiseRadialFunction, r_min: float, r_max: float, d_max: float):
    """Balls whose shell ends |d - r| and d + r lie at 0 or on f's breakpoints.

    The shell |d - r| <= |x| <= d + r of such a ball exactly spans a run
    of f's pieces.  These balls are corners of the (d, r) landscape,
    where the value can peak with a kink that no grid cell sits on.
    Returns (d, r) arrays of those balls inside the search window.
    """
    faces = np.array(sorted({0.0, *f.breakpoints()}))
    u, v = np.broadcast_arrays(np.concatenate([faces, -faces[1:]])[:, None], faces)
    keep = (np.abs(u) <= v) & (u < v)
    u, v = u[keep], v[keep]
    d, r = 0.5 * (u + v), 0.5 * (v - u)
    keep = (r_min <= r) & (r <= r_max) & (d <= d_max)
    return d[keep], r[keep]


def _search_group(
    fs: list[PiecewiseRadialFunction],
    params: SpaceParams,
    integ: IntegrationSettings,
    search_rest=None,
) -> list[NormResult]:
    """Norms of the functions fs, every pass on their one :func:`_table`.

    The zero function, a function of infinite norm and one that the
    bathtub bound certifies (:func:`_certified`) need no search: the
    centered suprema L and the bounds of all the others come from one
    :func:`_centered_tops` pass and one :func:`_bathtub_bounds` pass.
    For n = 1 the rest take the exact path
    (:func:`~morreyconst.exact1d.exact_norms`) in one pass, which takes
    each window's r_max from :func:`_centered_tops`; for n >= 2 they are
    searched (:func:`_search`), by ``search_rest`` when given: it takes
    the list of them and returns their results in order (a pool's
    chunks, say).
    """
    rel_tol = integ.rel_tol
    tab = _table(fs, params)
    zero, infinite = tab.sizes == 0, _infinite(tab, params)
    results: list[NormResult | None] = [
        NormResult(0.0, None) if z else NormResult(INF, None) if inf else None
        for z, inf in zip(zero.tolist(), infinite.tolist())]
    finite = np.flatnonzero(~zero & ~infinite)
    tab = tab.take(finite)
    tops = _centered_tops(tab, params)
    lower = [_centered_result(row, rel_tol) for row in tops]
    certified = _certified(tab, params, rel_tol, lower)
    todo = [k for k, result in enumerate(certified) if result is None]
    for i, result in zip(finite.tolist(), certified):
        results[i] = result
    if not todo:
        return results
    rest = tab.take(todo)
    if params.n == 1:
        found = [NormResult(value, Ball(d, r), truncated=truncated) for value, d, r, truncated
                 in exact_norms(rest, params, rel_tol, [tops[k] for k in todo])]
    else:
        found = search_rest(list(rest.fs)) if search_rest else _search_chunk(
            list(rest.fs), params, integ)
    for k, result in zip(todo, found):
        results[finite[k]] = result
    return results


def _search_chunk(
    fs: list[PiecewiseRadialFunction], params: SpaceParams, integ: IntegrationSettings
) -> list[NormResult]:
    """:func:`_search` of each f of fs, in order: one pool task."""
    return [_search(f, params, integ) for f in fs]


def _search(
    f: PiecewiseRadialFunction, params: SpaceParams, integ: IntegrationSettings
) -> NormResult:
    """The norm of f, of finite norm and not zero, by the (d, r) search (n >= 2).

    The grid, the aligned balls, each zoom round and the final
    re-evaluation are one kernel call each.  Row s of a zoom round holds
    start s's two patches.
    """
    p, n = params.p, params.n
    scout = replace(integ, rel_tol=max(integ.rel_tol, _SCOUT_REL_TOL))
    tol_ok = True  # every scout probe met its tolerance

    def evaluate(d, r) -> np.ndarray:
        """Norm quantity of many balls at the scout tolerance."""
        nonlocal tol_ok
        ints, ok = ball_integrals(f, p, n, d, r, scout)
        tol_ok = tol_ok and bool(ok.all())
        return _weight(params, r) * ints ** (1.0 / p)

    # The whole grid, the exact d = 0 row included, is one kernel call.
    r_min, r_max, d_max = search_window(f, params.mode)
    radii = np.geomspace(r_min, r_max, _N_RADII)
    centers = np.linspace(0.0, d_max, _N_CENTERS)
    grid = evaluate(centers[:, None], radii[None, :])
    if np.isinf(grid).any():
        return NormResult(INF, None, tol_ok=tol_ok)
    col_max = grid.max(axis=0)
    # Margin sits above quadrature scout noise but far below any genuine
    # boundary climb (the witness profiles move by >= 1e-4 per grid step).
    truncated = bool(col_max[-1] > col_max[-2] * (1.0 + 1e-7))

    # Starts: the best grid cells and the best breakpoint-aligned balls.
    gi, gj = np.unravel_index(np.argsort(grid, axis=None)[::-1][:_STARTS], grid.shape)
    seed_d, seed_r = _aligned_balls(f, r_min, r_max, d_max)
    top = np.argsort(evaluate(seed_d, seed_r))[::-1][:_STARTS]
    d_cur = np.concatenate([centers[gi], seed_d[top]])
    r_cur = np.concatenate([radii[gj], seed_r[top]])

    # Zoom: one patch in (d, log r) and one in (u, v) = (d - r, d + r)
    # around every start, all evaluated in one kernel call per round, for
    # all _ROUNDS rounds.  The (u, v) patch follows ridges where a face
    # of the ball hugs a breakpoint and (d, r) must move diagonally.  Each
    # patch spans one grid cell at first.
    step_d, step_log_r = float(centers[1] - centers[0]), math.log(radii[1] / radii[0])
    x, y = (o.ravel() for o in np.meshgrid(_OFFSETS, _OFFSETS, indexing="ij"))
    rows = np.arange(d_cur.size)
    for k in range(_ROUNDS):
        scale = _SHRINK**k
        h_uv = np.minimum(step_d, r_cur[:, None] * step_log_r) * scale
        u = (d_cur - r_cur)[:, None] + h_uv * x
        v = (d_cur + r_cur)[:, None] + h_uv * y
        d = np.hstack([d_cur[:, None] + step_d * scale * x, 0.5 * (u + v)])
        r = np.hstack([r_cur[:, None] * np.exp(step_log_r * scale * y), 0.5 * (v - u)])
        d = np.minimum(np.maximum(d, 0.0), d_max)
        r = np.minimum(np.maximum(r, r_min), r_max)
        vals = evaluate(d, r)
        best = best_in_rows(vals, d, r)
        d_cur, r_cur, v_cur = d[rows, best], r[rows, best], vals[rows, best]

    # The scout tolerance guided the search; the reported value is the
    # winning ball re-evaluated at the requested tolerance.
    win = best_in_rows(v_cur, d_cur, r_cur)
    best_d, best_r = float(d_cur[win]), float(r_cur[win])
    value, ok = ball_integrals(f, p, n, best_d, best_r, integ)
    if value == INF:
        return NormResult(INF, None, tol_ok=tol_ok)
    return NormResult(
        value=_weight(params, best_r) * float(value) ** (1.0 / p),
        argmax=Ball(best_d, best_r),
        truncated=truncated,
        tol_ok=tol_ok and bool(ok),
    )


def _shape(f: PiecewiseRadialFunction) -> tuple[PiecewiseRadialFunction, float]:
    """f's norm shape (s, c): |f| = c s with c > 0 and s's first coefficient 1.

    s is canonical, so pieces of |f| that f's signs kept apart merge.
    f's pieces are canonical already (sorted and disjoint), so s is built
    from them directly: a piece merges into its left neighbour exactly
    when they touch and their (coefficient, exponent) are equal, as in
    :func:`~morreyconst.model.canonicalize`.  When some quotient
    |coef| / c is not a normal float (it overflowed, or underflowed and
    lost digits), s is |f| and c is 1: such a function only misses the
    dedupe.  The zero function is (f, 1.0).
    """
    if f.is_zero:
        return f, 1.0
    c = abs(f.pieces[0].coef)
    coefs = [abs(pc.coef) / c for pc in f.pieces]
    if not all(sys.float_info.min <= x < INF for x in coefs):
        coefs, c = [abs(pc.coef) for pc in f.pieces], 1.0
    if coefs == [pc.coef for pc in f.pieces]:  # f is a shape already
        return f, 1.0
    pieces: list[RadialPiece] = []
    for pc, x in zip(f.pieces, coefs):
        last = pieces[-1] if pieces else None
        if last is not None and (last.hi, last.coef, last.alpha) == (pc.lo, x, pc.alpha):
            pieces[-1] = RadialPiece(last.lo, pc.hi, x, pc.alpha)
        else:
            pieces.append(RadialPiece(pc.lo, pc.hi, x, pc.alpha))
    return PiecewiseRadialFunction(tuple(pieces)), c


def even_chunks(fs: list, parts: int = 1) -> list[list]:
    """fs cut, in order, into at most ``parts`` chunks of near-equal size.

    One chunk per pool process: each process then takes one task.
    """
    size = max(1, -(-len(fs) // parts))
    return [fs[k:k + size] for k in range(0, len(fs), size)]


class NormTable:
    """A command's norms, searched once per shape, here or on a process pool.

    ``evaluate`` returns the norms of its functions, in order.  Each
    function f is searched as its shape s, with |f| = c s
    (:func:`_shape`), and its result is the shape's with ``value``
    multiplied by c; ``argmax``, ``truncated`` and ``tol_ok`` are the
    shape's.  This is sound because the norm depends only on |f| and
    ||c s|| = c ||s||, and no decision of the search depends on the scale
    of f: the certificate compares two bounds that both scale with c, the
    scout tolerance and the truncation margin are relative, the zoom's
    rounds are fixed, and the window and the aligned balls come from the
    breakpoints alone.  The breakpoints of s are those of |f|:
    a merge drops only a point where |f| is the same power on both
    sides, which f's signs alone made a breakpoint.  So searching s is
    searching |f| up to the rounding of its coefficients (an ulp each).

    The table keeps each shape's result in a dict of its own, in the
    calling process, for as long as the table lives, so each distinct
    norm shape is evaluated once per table; a command owns one table.
    The shapes of a batch that the table has not seen go through
    :func:`_search_group` here, in first-seen order: the certificate,
    and for n = 1 the exact path, run in this process, and only the
    uncertified n >= 2 shapes are searched on the pool.  With
    ``workers`` > 1 a process pool is created at the first batch with two
    or more such shapes, with min(workers, CPU count, that count)
    processes, and then searches every batch with two or more of them
    until ``close``, one chunk per process (:func:`even_chunks`); a batch
    with one is searched here.  So n = 1 never makes a pool: its exact
    path costs less than the pool's round trips.  The pool forks where
    the platform can, since a spawned worker would first import numpy
    and the package again; fork copies only the calling thread, so the
    caller must not be running threads of its own then.  The pool's
    ``map`` keeps input order and every norm is a pure function of its
    inputs, so each result equals the search alone bit for bit, whatever
    ``workers`` is.
    """

    def __init__(
        self,
        params: SpaceParams,
        integ: IntegrationSettings = IntegrationSettings(),
        workers: int = 1,
    ) -> None:
        self._params = params
        self._integ = integ
        self._workers = workers
        self._results: dict[PiecewiseRadialFunction, NormResult] = {}
        self._pool = None
        self._pool_size = 0

    def evaluate(self, functions: Iterable[PiecewiseRadialFunction]) -> list[NormResult]:
        shapes = [_shape(f) for f in functions]
        todo = [s for s in dict.fromkeys(s for s, _ in shapes) if s not in self._results]
        self._results.update(
            zip(todo, _search_group(todo, self._params, self._integ, self._search_rest)))
        return [self._results[s].scaled(c) for s, c in shapes]

    def _search_rest(self, fs: list[PiecewiseRadialFunction]) -> list[NormResult]:
        """The searches of fs (n >= 2), on the pool when there are two or more."""
        if len(fs) >= 2 and self._pool is None:
            self._start_pool(len(fs))
        if len(fs) < 2 or self._pool is None:
            return _search_chunk(fs, self._params, self._integ)
        chunks = even_chunks(fs, self._pool_size)
        done = self._pool.map(_search_chunk, chunks, repeat(self._params), repeat(self._integ))
        return [result for chunk in done for result in chunk]

    def _start_pool(self, batch: int) -> None:
        """Create the pool for a batch of this many searches, unless it would have one process."""
        workers = min(self._workers, os.cpu_count() or 1, batch)
        if workers < 2:
            return
        # imported here, so that commands without a pool do not load them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if fork else None)
        self._pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        self._pool_size = workers

    def close(self) -> None:
        """Shut the pool down and wait for its processes to exit."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "NormTable":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def norm(
    f: PiecewiseRadialFunction,
    params: SpaceParams,
    integ: IntegrationSettings = IntegrationSettings(),
) -> NormResult:
    """The norm of f in the space of params, Morrey or small by its mode.

    A pool-less :class:`NormTable` of one, so each call starts cold:
    callers that want many norms to share work evaluate them through one
    table, in batches.
    """
    return NormTable(params, integ).evaluate([f])[0]
