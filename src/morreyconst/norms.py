"""Ball-averaged sup norms of piecewise radial power functions.

The norm is  sup over balls B(a, r)  of  |B|^(1/q - 1/p) (int_B |f|^p)^(1/p),
with radii unrestricted (Morrey mode) or confined to (0, 1) (small mode).
By radial symmetry the supremum over centers a reduces to a supremum over
the center distance d = |a|, leaving a 2-parameter search in (d, r):
a coarse log-r x linear-d grid, filled by one batched kernel call, then
a zoom.  The zoom starts from the best grid cells and from the best
balls whose faces d - r and d + r both sit on breakpoints of f (or at
the origin); each round evaluates a small patch in (d, log r) and one in
(d - r, d + r) around every start, moves each start to its best ball
and shrinks the patches.  Centered balls (d = 0) are exact.  A
function leaves the zoom once its best ball has moved in three rounds
with a gain of at most 1e-13 relative each, counted since its last
larger gain; rounds in which the best ball stands still do not count,
because a ball that rests says nothing about the gains still to come
(near the window's edge the best ball can rest for a few rounds before
it climbs again).  The winner is then re-evaluated at the requested
tolerance, as after a full zoom.

Norms are searched in lockstep groups (:func:`norm_batch`): each
function has its own grid call, and then the aligned balls, every zoom
round and the final re-evaluation of the whole group are one kernel call
each (:func:`~morreyconst.integrate.group_ball_integrals`), so the
per-call cost of numpy is paid once per round for the group.  A row of
those calls is one (function, start) pair with its function's own window
and steps, and every ball's value is independent of the group, so a
norm comes out bit for bit the same in any group; :func:`norm` is the
batch of one.

The norm depends only on |f| and ||c f|| = |c| ||f||, so a search runs
once per norm shape, |f| over the magnitude of its first coefficient
(:func:`_shape`): a function's norm is its shape's norm times that
magnitude.  :func:`norm_batch` memoizes results per shape in the
calling process; the workers of a caller's pool only search.

Whether the norm is infinite is decided analytically from the piece
exponents before any search runs (:func:`norm_is_infinite`, exact on
this function class).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable
from itertools import repeat

import numpy as np

from morreyconst.geometry import unit_ball_volume
from morreyconst.integrate import (
    IntegrationSettings,
    centered_integrals,
    group_ball_integrals,
)
from morreyconst.model import (
    Ball,
    Mode,
    PiecewiseRadialFunction,
    RadialPiece,
    SpaceParams,
    canonicalize,
)

__all__ = [
    "search_window",
    "NormResult",
    "centered_norm_profile",
    "norm",
    "norm_batch",
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

# A function leaves the zoom after _STOP_ROUNDS rounds in which its best
# ball moved and gained at most _STOP_GAIN relative (see the zoom loop).
_STOP_GAIN = 1e-13
_STOP_ROUNDS = 3

# Functions searched in lockstep: a group's aligned balls, each zoom
# round and the final re-evaluation are one kernel call each.  Larger
# groups amortize the per-call overhead further but hold larger arrays.
_GROUP = 8


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
    """
    finite = [b for b in f.breakpoints() if b > 0.0]
    b = max(finite, default=0.0)
    r_min = min(1e-3, 0.1 * min(finite, default=INF))
    r_max = 1.0 - 1e-6 if mode is Mode.SMALL_MORREY else max(1e6, 10.0 * b)
    return r_min, r_max, 10.0 + b


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

    def scaled(self, c: float) -> "NormResult":
        """The result of c times the function, for c > 0: only the value moves."""
        return self if c == 1.0 else replace(self, value=self.value * c)


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
    n, p, q = params.n, params.p, params.q
    for pc in f.pieces:
        if pc.lo == 0.0 and (pc.alpha + n / q < 0.0 or pc.alpha * p + n <= 0.0):
            return True
        if pc.hi == INF:
            if params.mode is Mode.SMALL_MORREY:
                if pc.alpha > 0.0:
                    return True
            elif pc.alpha > -n / q or (p == q and pc.alpha * p + n >= 0.0):
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


def _search_group(
    fs: list[PiecewiseRadialFunction],
    params: SpaceParams,
    integ: IntegrationSettings,
) -> list[NormResult]:
    """Norms of the functions fs, searched in lockstep.

    Each function gets its own window and grid call.  Those that survive
    their grid then share one kernel call for the aligned balls, one per
    zoom round and one for the final re-evaluation.  A row of a shared
    call is one (function, start) pair and carries its function's window
    and steps, and a ball's value does not depend on the group it is
    evaluated in, so every result equals the function's search alone
    bit for bit.
    """
    p, n = params.p, params.n
    scout = replace(integ, rel_tol=max(integ.rel_tol, _SCOUT_REL_TOL))
    results: list[NormResult | None] = [None] * len(fs)
    tol_ok = np.ones(len(fs), dtype=bool)  # every scout probe met its tolerance

    def evaluate(members: list[int], which, d, r) -> np.ndarray:
        """Norm quantity of many balls at the scout tolerance.

        Ball k belongs to fs[members[which[k]]]; see group_ball_integrals.
        """
        group = tuple(fs[i] for i in members)
        ints, ok = group_ball_integrals(group, p, n, which, d, r, scout)
        if not ok.all():
            tol_ok[np.asarray(members)[np.broadcast_to(which, ok.shape)[~ok]]] = False
        return _weight(params, r) * ints ** (1.0 / p)

    # per function that survives its grid: its index in fs, zoom window,
    # best grid cells, breakpoint-aligned balls and truncation flag
    members, windows, grid_starts, aligned, truncated = [], [], [], [], []
    for i, f in enumerate(fs):
        if f.is_zero:
            results[i] = NormResult(0.0, None)
            continue
        if norm_is_infinite(f, params):
            results[i] = NormResult(INF, None)
            continue

        r_min, r_max, d_max = search_window(f, params.mode)
        rs = np.geomspace(r_min, r_max, _N_RADII)
        ds = np.linspace(0.0, d_max, _N_CENTERS)

        # The whole grid, the exact d = 0 row included, is one kernel call.
        grid = evaluate([i], 0, ds[:, None], rs[None, :])

        if np.isinf(grid).any():
            results[i] = NormResult(INF, None, tol_ok=bool(tol_ok[i]))
            continue

        col_max = grid.max(axis=0)
        flat = np.argsort(grid, axis=None)[::-1][:_STARTS]
        gi, gj = np.unravel_index(flat, grid.shape)
        members.append(i)
        # the zoom's first steps: one grid cell in d and in log r
        windows.append((float(ds[1] - ds[0]), math.log(rs[1] / rs[0]), r_min, r_max, d_max))
        grid_starts.append((ds[gi], rs[gj]))
        aligned.append(_aligned_balls(f, r_min, r_max, d_max))
        # Margin sits above quadrature scout noise but far below any genuine
        # boundary climb (the witness profiles move by >= 1e-4 per grid step).
        truncated.append(bool(col_max[-1] > col_max[-2] * (1.0 + 1e-7)))
    if not members:
        return results

    # Starts: each function's best grid cells and best breakpoint-aligned
    # balls, the aligned balls of the whole group scored in one call.
    seed_d, seed_r = zip(*aligned)
    counts = [s.size for s in seed_d]
    seed_vals = evaluate(
        members,
        np.repeat(np.arange(len(members)), counts),
        np.concatenate(seed_d),
        np.concatenate(seed_r),
    )
    starts_d, starts_r = [], []
    for (grid_d, grid_r), sd, sr, vals in zip(
        grid_starts, seed_d, seed_r, np.split(seed_vals, np.cumsum(counts)[:-1])
    ):
        top = np.argsort(vals)[::-1][:_STARTS]
        starts_d.append(np.concatenate([grid_d, sd[top]]))
        starts_r.append(np.concatenate([grid_r, sr[top]]))

    # Zoom: one patch in (d, log r) and one in (u, v) = (d - r, d + r)
    # around every live start, all evaluated in one kernel call per round.
    # The (u, v) patch follows ridges where a face of the ball hugs a
    # breakpoint and (d, r) must move diagonally.  Each patch spans one
    # grid cell at first.  Row s of d, r and vals holds start s's
    # patches; the rows come function by function, and each carries its
    # function's steps and window.
    n_rows = np.array([s.size for s in starts_d])
    row_fn = np.repeat(np.arange(len(members)), n_rows)
    window = [np.array(col)[row_fn][:, None] for col in zip(*windows)]
    d_cur, r_cur = np.concatenate(starts_d), np.concatenate(starts_r)
    v_cur = np.empty(d_cur.size)
    x, y = (o.ravel() for o in np.meshgrid(_OFFSETS, _OFFSETS, indexing="ij"))

    # Each function's best row, from a table of 2 * _STARTS row indices
    # per function.  A function with fewer aligned balls fills its table
    # by repeating its first row, whose ball is already in the running,
    # so the winning ball is the one its own rows give.
    first = np.cumsum(n_rows) - n_rows
    pick = first[:, None] + np.arange(2 * _STARTS)
    pick = np.where(pick < (first + n_rows)[:, None], pick, first[:, None])
    fns = np.arange(len(members))

    # The stop rule, after every round: a round in which a function's
    # best ball moved and gained at most _STOP_GAIN relative counts, a
    # larger gain resets the count, and a round in which the best ball
    # stood still leaves it as it is.  A ball that rests says nothing
    # about the gains to come: near the window's edge the best ball can
    # rest for a few rounds before it climbs again.  After _STOP_ROUNDS
    # counted rounds the function's rows keep their balls and leave the
    # kernel calls, so each function's rounds depend on its own values.
    lead_d = lead_r = lead_v = np.full(len(members), np.nan)
    calm = np.zeros(len(members), dtype=int)
    n_stopped = 0
    # every row is live until a function stops
    live, at, fn_rows = slice(None), np.arange(d_cur.size), row_fn[:, None]
    step_d, step_log_r, r_min, r_max, d_max = window
    for k in range(_ROUNDS):
        scale = _SHRINK**k
        dl, rl = d_cur[live], r_cur[live]
        h_uv = np.minimum(step_d, rl[:, None] * step_log_r) * scale
        u = (dl - rl)[:, None] + h_uv * x
        v = (dl + rl)[:, None] + h_uv * y
        d = np.hstack([dl[:, None] + step_d * scale * x, 0.5 * (u + v)])
        r = np.hstack([rl[:, None] * np.exp(step_log_r * scale * y), 0.5 * (v - u)])
        # np.clip's result, without its slow path for array bounds
        d = np.minimum(np.maximum(d, 0.0), d_max)
        r = np.minimum(np.maximum(r, r_min), r_max)
        vals = evaluate(members, fn_rows, d, r)
        best = _best_in_rows(vals, d, r)
        d_cur[live], r_cur[live], v_cur[live] = d[at, best], r[at, best], vals[at, best]

        win = pick[fns, _best_in_rows(v_cur[pick], d_cur[pick], r_cur[pick])]
        moved = (d_cur[win] != lead_d) | (r_cur[win] != lead_r)
        gain = v_cur[win] - lead_v  # NaN in round 0, which resets
        lead_d, lead_r, lead_v = d_cur[win], r_cur[win], v_cur[win]
        calm = np.where(moved, np.where(gain <= _STOP_GAIN * lead_v, calm + 1, 0), calm)
        stopped = np.count_nonzero(calm >= _STOP_ROUNDS)
        if stopped == len(members):
            break
        if stopped > n_stopped:
            n_stopped = stopped
            live = np.flatnonzero(calm[row_fn] < _STOP_ROUNDS)
            at, fn_rows = np.arange(live.size), row_fn[live][:, None]
            step_d, step_log_r, r_min, r_max, d_max = (w[live] for w in window)

    # The scout tolerance guided the search; the reported value is the
    # winning ball re-evaluated at the requested tolerance.
    group = tuple(fs[i] for i in members)
    final, final_ok = group_ball_integrals(
        group, p, n, np.arange(len(members)), d_cur[win], r_cur[win], integ
    )
    for i, best_d, best_r, value, ok, trunc in zip(
        members, d_cur[win].tolist(), r_cur[win].tolist(), final.tolist(), final_ok.tolist(),
        truncated,
    ):
        if value == INF:
            results[i] = NormResult(INF, None, tol_ok=bool(tol_ok[i]))
            continue
        results[i] = NormResult(
            value=_weight(params, best_r) * value ** (1.0 / p),
            argmax=Ball(best_d, best_r),
            truncated=trunc,
            tol_ok=bool(tol_ok[i]) and ok,
        )
    return results


def _shape(f: PiecewiseRadialFunction) -> tuple[PiecewiseRadialFunction, float]:
    """f's norm shape (s, c): |f| = c s with c > 0 and s's first coefficient 1.

    s is canonical, so pieces of |f| that f's signs kept apart merge.
    When some quotient |coef| / c is not a normal float (it overflowed,
    or underflowed and lost digits), s is |f| and c is 1: such a
    function only misses the dedupe.  The zero function is (f, 1.0).
    """
    if f.is_zero:
        return f, 1.0
    c = abs(f.pieces[0].coef)
    coefs = [abs(pc.coef) / c for pc in f.pieces]
    if not all(sys.float_info.min <= x < INF for x in coefs):
        coefs, c = [abs(pc.coef) for pc in f.pieces], 1.0
    if coefs == [pc.coef for pc in f.pieces]:  # f is a shape already
        return f, 1.0
    s = canonicalize(RadialPiece(pc.lo, pc.hi, x, pc.alpha) for pc, x in zip(f.pieces, coefs))
    return s, c


def lockstep_chunks(fs: list, parts: int = 1) -> list[list]:
    """fs cut, in order, into chunks of at most one lockstep group.

    The chunks are cut evenly when fs is too short to give each of
    ``parts`` consumers (pool workers, say) a whole group, so that every
    consumer gets a share.
    """
    size = max(1, min(_GROUP, -(-len(fs) // parts)))
    return [fs[k:k + size] for k in range(0, len(fs), size)]


class _SearchMemo:
    """Finished searches keyed by (shape, params, integ), oldest use first.

    Holds at most ``maxsize`` results and drops the least recently used;
    ``cache_clear`` empties it.
    """

    def __init__(self, maxsize: int) -> None:
        self._maxsize = maxsize
        self._results: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key) -> NormResult | None:
        with self._lock:
            result = self._results.get(key)
            if result is not None:
                self._results.move_to_end(key)
            return result

    def put(self, key, result: NormResult) -> None:
        with self._lock:
            self._results[key] = result
            self._results.move_to_end(key)
            if len(self._results) > self._maxsize:
                self._results.popitem(last=False)

    def cache_clear(self) -> None:
        with self._lock:
            self._results.clear()


_search_cached = _SearchMemo(maxsize=4096)


def norm_batch(
    fs: Iterable[PiecewiseRadialFunction],
    params: SpaceParams,
    integ: IntegrationSettings = IntegrationSettings(),
    pool_for: Callable[[int], tuple[Callable, int]] | None = None,
) -> list[NormResult]:
    """The norm of every function of fs, in order.

    Each function f is searched as its shape s, with |f| = c s
    (:func:`_shape`), and its result is the shape's with ``value``
    multiplied by c; ``argmax``, ``truncated`` and ``tol_ok`` are the
    shape's.  This is sound because the norm depends only on |f| and
    ||c s|| = c ||s||, and no decision of the search depends on the scale
    of f: the scout tolerance, the zoom's stop gain and the truncation
    margin are all relative, and the window and the aligned balls come
    from the breakpoints alone.  The breakpoints of s are those of |f|:
    a merge drops only a point where |f| is the same power on both
    sides, which f's signs alone made a breakpoint.  So searching s is
    searching |f| up to the rounding of its coefficients (an ulp each).

    Results are memoized on (s, params, integ) in this process.  The
    shapes not in the memo, k >= 1 of them, are searched in first-seen
    order in chunks of :func:`lockstep_chunks`.  ``pool_for(k)``, when
    given, returns (map, parts): the chunks are cut for parts consumers
    and searched with that map, which keeps their order as
    ``Executor.map`` does.  Each result equals :func:`norm`'s bit for bit.
    """
    fs = list(fs)
    shapes = [_shape(f) for f in fs]
    found = {s: _search_cached.get((s, params, integ)) for s, _ in shapes}
    todo = [s for s, result in found.items() if result is None]
    if todo:
        run, parts = pool_for(len(todo)) if pool_for else (map, 1)
        chunks = lockstep_chunks(todo, parts)
        searched = run(_search_group, chunks, repeat(params), repeat(integ))
        for group, results in zip(chunks, searched):
            for s, result in zip(group, results):
                _search_cached.put((s, params, integ), result)
                found[s] = result
    return [found[s].scaled(c) for s, c in shapes]


def norm(
    f: PiecewiseRadialFunction,
    params: SpaceParams,
    integ: IntegrationSettings = IntegrationSettings(),
) -> NormResult:
    """The norm of f in the space of params, Morrey or small by its mode.

    The memoized batch of one: callers that ask one ratio or one kind at
    a time share their norms with each other and with :func:`norm_batch`.
    """
    return norm_batch([f], params, integ)[0]
