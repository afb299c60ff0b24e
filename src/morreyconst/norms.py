"""Ball-averaged sup norms of piecewise radial power functions.

The norm is  sup over balls B(a, r)  of  |B|^(1/q - 1/p) (int_B |f|^p)^(1/p),
with radii unrestricted (Morrey mode) or confined to (0, 1) (small mode).
By radial symmetry the supremum over centers a reduces to a supremum over
the center distance d = |a|, leaving a 2-parameter search in (d, r):
a coarse log-r x linear-d grid, filled by one batched kernel call, then
a zoom.  The zoom starts from the best grid cells and from the best
balls whose faces d - r and d + r both sit on breakpoints of f (or at
the origin); each round evaluates a small patch in (d, log r) and one in
(d - r, d + r) around every start in one kernel call, moves each start
to its best ball and shrinks the patches.  Centered balls (d = 0) are
exact.

Whether the norm is infinite is decided analytically from the piece
exponents before any search runs; a growth heuristic on the r-grid backs
this up for anything the analysis might miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from morreyconst.geometry import unit_ball_volume
from morreyconst.integrate import (
    IntegrationSettings,
    ball_integrals,
    centered_integrals,
    integrate_abs_pow_ball,
)
from morreyconst.model import Ball, Mode, PiecewiseRadialFunction, SpaceParams

__all__ = [
    "SearchSettings",
    "NormResult",
    "centered_norm_profile",
    "norm",
    "closed_form_power_norm",
    "norm_is_infinite",
]

INF = math.inf

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


@dataclass(frozen=True)
class SearchSettings:
    """Supremum-search window and grid.

    ``r_max`` defaults by mode: 1e6 for Morrey, 1 - 1e-6 for small.
    ``d_max`` defaults to 10 + the function's largest finite breakpoint.
    """

    r_min: float = 1e-3
    r_max: float | None = None
    d_max: float | None = None
    n_radii: int = 64
    n_centers: int = 33

    def __post_init__(self) -> None:
        if not self.r_min > 0.0:
            raise ValueError(f"r_min must be > 0, got {self.r_min}")
        if self.r_max is not None and not (self.r_min < self.r_max < INF):
            raise ValueError(f"r_max must be finite and > r_min = {self.r_min}, got {self.r_max}")
        if self.d_max is not None and not (0.0 <= self.d_max < INF):
            raise ValueError(f"d_max must be finite and >= 0, got {self.d_max}")
        if self.n_radii < 2 or self.n_centers < 2:
            raise ValueError("grid sizes must be >= 2")

    def resolved_r_max(self, mode: Mode) -> float:
        if self.r_max is not None:
            if mode is Mode.SMALL_MORREY and self.r_max >= 1.0:
                raise ValueError(f"small mode needs r_max < 1, got {self.r_max}")
            return self.r_max
        return 1e6 if mode is Mode.MORREY else 1.0 - 1e-6

    def resolved_d_max(self, f: PiecewiseRadialFunction) -> float:
        if self.d_max is not None:
            return self.d_max
        finite = [b for b in f.breakpoints() if b > 0.0]
        return 10.0 + (max(finite) if finite else 0.0)

    def resolved_r_min(self, f: PiecewiseRadialFunction) -> float:
        """Shrink r_min when f lives on a much smaller scale.

        A function supported inside (0, eps) has its best balls at radii
        comparable to eps; a fixed r_min would overlook them entirely.
        """
        finite = [b for b in f.breakpoints() if b > 0.0]
        if not finite:
            return self.r_min
        return min(self.r_min, 0.1 * min(finite))


@dataclass(frozen=True)
class NormResult:
    """Computed norm with the best ball found and diagnostic flags.

    ``truncated`` marks suprema still climbing at the search boundary
    (r -> infinity, or r -> 1 in small mode): the value is then a lower
    estimate with an analytically known deficit.  ``tol_ok`` is False
    when some probe integral missed its tolerance budget.
    """

    value: float
    argmax: Ball | None
    truncated: bool = False
    tol_ok: bool = True

    @property
    def infinite(self) -> bool:
        return self.value == INF


def _weight(params: SpaceParams, r) -> float | np.ndarray:
    """|B(a, r)|^(1/q - 1/p), the shrinking factor of the norm."""
    vol = unit_ball_volume(params.n) * r**params.n
    return vol ** (1.0 / params.q - 1.0 / params.p)


def centered_norm_profile(f: PiecewiseRadialFunction, params: SpaceParams, r):
    """Norm quantity of the centered balls of radii r (exact closed form).

    r may be a number or an array; the result has r's shape.
    """
    r = np.asarray(r, dtype=float)
    if params.mode is Mode.SMALL_MORREY and not (r < 1.0).all():
        raise ValueError(f"small mode requires radius < 1, got {r}")
    integrals = centered_integrals(f, params.p, params.n, r)
    with np.errstate(over="ignore"):
        return _weight(params, r) * integrals ** (1.0 / params.p)


def closed_form_power_norm(params: SpaceParams) -> float:
    """Reference norm of the pure power |x|^(-n/q): v_n^(1/q) (1 - p/q)^(-1/p).

    The centered profile of that power is this constant for every radius,
    and the 2-D search confirms no off-center ball beats it.
    """
    params.require_strict()
    vn = unit_ball_volume(params.n)
    return vn ** (1.0 / params.q) * (1.0 - params.p / params.q) ** (-1.0 / params.p)


def norm_is_infinite(f: PiecewiseRadialFunction, params: SpaceParams) -> bool:
    """Analytic membership test.

    Near the origin (balls of radius -> 0 are allowed in both modes) a
    piece c t^alpha supported down to radius 0 makes the norm infinite
    when alpha < -n/q (the profile r^(alpha + n/q) blows up) or when
    alpha p + n <= 0 (the integral itself diverges).  At infinity, an
    unbounded-support piece diverges when alpha > -n/q in Morrey mode
    (big centered balls) or alpha > 0 in small mode (far-away centers).
    """
    n, p, q = params.n, params.p, params.q
    for pc in f.pieces:
        if pc.lo == 0.0 and (pc.alpha + n / q < 0.0 or pc.alpha * p + n <= 0.0):
            return True
        if pc.hi == INF:
            tail_threshold = -n / q if params.mode is Mode.MORREY else 0.0
            if pc.alpha > tail_threshold:
                return True
    return False


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


def _best_in_rows(values: np.ndarray, d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Column of each row's best ball: largest value, ties to the smaller (d, r).

    Three reductions instead of a sort: the largest value, then the
    smallest d among the balls that reach it, then the first smallest r
    among those.
    """
    top = values == values.max(axis=-1, keepdims=True)
    d_top = np.where(top, d, INF)
    top &= d_top == d_top.min(axis=-1, keepdims=True)
    return np.where(top, r, INF).argmin(axis=-1)


def _search(
    f: PiecewiseRadialFunction,
    params: SpaceParams,
    search: SearchSettings,
    integ: IntegrationSettings,
) -> NormResult:
    if f.is_zero:
        return NormResult(0.0, None)
    if norm_is_infinite(f, params):
        return NormResult(INF, None)

    r_min = search.resolved_r_min(f)
    r_max = search.resolved_r_max(params.mode)
    if not r_min < r_max:
        r_min = r_max / 2.0
    d_max = search.resolved_d_max(f)

    rs = np.geomspace(r_min, r_max, search.n_radii)
    ds = np.linspace(0.0, d_max, search.n_centers)

    scout = replace(integ, rel_tol=max(integ.rel_tol, _SCOUT_REL_TOL))
    tol_ok = True

    def evaluate(d: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Norm quantity of many balls at the scout tolerance."""
        nonlocal tol_ok
        ints, ok = ball_integrals(f, params.p, params.n, d, r, scout)
        tol_ok = tol_ok and bool(ok.all())
        return _weight(params, r) * ints ** (1.0 / params.p)

    # The whole grid, the exact d = 0 row included, is one kernel call.
    grid = evaluate(ds[:, None], rs[None, :])

    if np.isinf(grid).any():
        return NormResult(INF, None, tol_ok=tol_ok)

    # Backstop divergence heuristic: still climbing a full factor of 10
    # over the final decade of radii signals an unbounded profile that
    # slipped past the analytic test.
    col_max = grid.max(axis=0)
    last = float(col_max[-1])
    if last > 0.0 and r_max / 10.0 > r_min:
        j_ref = int(np.searchsorted(rs, r_max / 10.0))
        tail = col_max[j_ref:]
        if last >= 10.0 * float(col_max[j_ref]) and np.all(np.diff(tail) > 0.0):
            return NormResult(INF, None, tol_ok=tol_ok)

    # Starts: the best grid cells and the best breakpoint-aligned balls.
    flat = np.argsort(grid, axis=None)[::-1][:_STARTS]
    i, j = np.unravel_index(flat, grid.shape)
    seed_d, seed_r = _aligned_balls(f, r_min, r_max, d_max)
    top = np.argsort(evaluate(seed_d, seed_r))[::-1][:_STARTS]
    d_cur = np.concatenate([ds[i], seed_d[top]])
    r_cur = np.concatenate([rs[j], seed_r[top]])

    # Zoom: one patch in (d, log r) and one in (u, v) = (d - r, d + r)
    # around every start, all evaluated in one kernel call per round.
    # The (u, v) patch follows ridges where a face of the ball hugs a
    # breakpoint and (d, r) must move diagonally.  Each patch spans one
    # grid cell at first.  Row s of d, r and vals holds start s's patches.
    x, y = (o.ravel() for o in np.meshgrid(_OFFSETS, _OFFSETS, indexing="ij"))
    step_d = float(ds[1] - ds[0])
    step_log_r = math.log(rs[1] / rs[0])
    rows = np.arange(d_cur.size)
    for k in range(_ROUNDS):
        scale = _SHRINK**k
        h_uv = np.minimum(step_d, r_cur * step_log_r)[:, None] * scale
        u = (d_cur - r_cur)[:, None] + h_uv * x
        v = (d_cur + r_cur)[:, None] + h_uv * y
        d = np.hstack([d_cur[:, None] + step_d * scale * x, 0.5 * (u + v)])
        r = np.hstack([r_cur[:, None] * np.exp(step_log_r * scale * y), 0.5 * (v - u)])
        d, r = np.clip(d, 0.0, d_max), np.clip(r, r_min, r_max)
        vals = evaluate(d, r)
        best = _best_in_rows(vals, d, r)
        d_cur, r_cur, v_cur = d[rows, best], r[rows, best], vals[rows, best]

    win = _best_in_rows(v_cur, d_cur, r_cur)
    best_d, best_r = float(d_cur[win]), float(r_cur[win])

    # The scout tolerance guided the search; the reported value is the
    # winning ball re-evaluated at the requested tolerance.
    final = integrate_abs_pow_ball(f, params.p, params.n, Ball(best_d, best_r), integ)
    if final.value == INF:
        return NormResult(INF, None, tol_ok=tol_ok)
    value = _weight(params, best_r) * final.value ** (1.0 / params.p)

    # Margin sits above quadrature scout noise but far below any genuine
    # boundary climb (the witness profiles move by >= 1e-4 per grid step).
    truncated = bool(col_max[-1] > col_max[-2] * (1.0 + 1e-7))
    return NormResult(
        value=value,
        argmax=Ball(best_d, best_r),
        truncated=truncated,
        tol_ok=tol_ok and final.tol_ok,
    )


@lru_cache(maxsize=4096)
def _search_cached(f, params, search, integ) -> NormResult:
    return _search(f, params, search, integ)


def norm(
    f: PiecewiseRadialFunction,
    params: SpaceParams,
    search: SearchSettings = SearchSettings(),
    integ: IntegrationSettings = IntegrationSettings(),
) -> NormResult:
    """Norm in the mode carried by params (dispatches on params.mode).

    Results are memoized on (f, params, search, integ), so callers that
    ask one ratio or one kind at a time share their norms.
    """
    return _search_cached(f, params, search, integ)

