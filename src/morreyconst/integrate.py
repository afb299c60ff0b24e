"""Integrals of |f|^p over balls, for piecewise radial power f.

* Centered balls: exact closed form from power-function antiderivatives.
* Every ball when n = 1, where the ball is the interval [d - r, d + r]:
  exact, from antiderivative tables of |f|^p built once per call for a
  batch of functions (:func:`group_ball_integrals_n1`).  A ball costs
  one searchsorted and one power per shell end |d - r| and d + r.
* Off-center balls when n >= 2: the spheres of radius t <= r - d lie
  inside the ball and give a closed-form core; the shell
  |d - r| <= t <= d + r contributes through the spherical cap fraction.
  The shell integral is taken in the cap angle theta, with
  t = max(d, r) - min(d, r) cos(theta), which smooths the square-root
  behaviour of the cap fraction at both shell ends.  One adaptive
  Gauss-Kronrod loop, vectorized over many balls, subdivides each shell
  until its error estimate meets rel_tol of the whole ball integral.
* Monte Carlo: an independent stochastic route used to cross-check the
  quadrature, never as the primary evaluator.

The kernels read a batch's :class:`PieceTable`.  The exact n = 1 path
calls :func:`group_ball_integrals_n1` on whole batches;
:func:`ball_integrals` takes many balls of one function (for n = 1, a
one-function :func:`group_ball_integrals_n1` call), and
:func:`integrate_abs_pow_ball` is its one-ball form.

Divergent integrals are detected analytically (a power t^alpha with
alpha*p + n <= 0 supported down to radius 0, inside the ball) and
reported as the value math.inf rather than by raising.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from morreyconst.geometry import cap_fraction_radii, unit_ball_volume, unit_sphere_area
from morreyconst.model import Ball, PiecewiseRadialFunction

__all__ = [
    "IntegrationSettings",
    "BallIntegral",
    "PieceTable",
    "centered_integrals",
    "group_centered_integrals",
    "ball_integrals",
    "group_ball_integrals_n1",
    "integrate_abs_pow_ball",
    "mc_integrate",
]

INF = math.inf

# The panel budget of one shell integral: a shell that holds this many
# panels stops subdividing and reports tol_ok False.
_MAX_PANELS = 2000


@dataclass(frozen=True)
class IntegrationSettings:
    """Quadrature tolerance shared by the norm and constant engines."""

    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")


@dataclass(frozen=True)
class BallIntegral:
    """Value of an integral plus whether the error target was met.

    ``tol_ok`` is False only when the subdivision budget ran out before
    the requested relative tolerance; the value is still the best
    available estimate.  Divergent integrals carry value inf with
    ``tol_ok`` True (the divergence is established analytically).
    """

    value: float
    tol_ok: bool = True


@dataclass(eq=False)
class PieceTable:
    """A batch of functions fs for |f|^p in dimension n, packed in one walk over their pieces.

    Row s is fs[s], column j its piece j, NaN past its last: ``lo``, ``hi``,
    ``coef``, ``alpha``, ``gamma`` = alpha p + n and ``cp`` = |coef|^p by
    Python's power (numpy's array power can be an ulp off).  Per row:
    ``sizes``; ``divergent``, a piece from 0 with gamma <= 0;
    ``nonincreasing``, |f| radially nonincreasing in floats (from 0, no
    positive exponent, no gap, no upward jump of log|c| + alpha log t by
    ``math.log`` at a breakpoint); and ``window``, its (r_min, r_max,
    d_max) of :func:`~morreyconst.norms.search_window`, in small mode when
    ``small``.  The table is the sequence of its functions.
    """

    fs: tuple[PiecewiseRadialFunction, ...]
    sizes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    coef: np.ndarray
    alpha: np.ndarray
    gamma: np.ndarray
    cp: np.ndarray
    divergent: np.ndarray
    nonincreasing: np.ndarray
    window: np.ndarray

    @classmethod
    def of(cls, fs, p: float = 1.0, n: int = 1, small: bool = False) -> "PieceTable":
        """The table of the functions fs, or fs itself when it is a table already."""
        if isinstance(fs, cls):
            return fs
        fs = tuple(fs)
        sizes = [len(f.pieces) for f in fs]
        count, width = len(fs), max(1, max(sizes, default=0))
        # the one walk: each piece as it is, at its (row, column); |c|^p,
        # log|c| and log lo by Python's float arithmetic
        pieces = [pc for f in fs for pc in f.pieces]
        at = [s * width + j for s, size in enumerate(sizes) for j in range(size)]
        columns = [[pc.lo for pc in pieces], [pc.hi for pc in pieces],
                   [pc.coef for pc in pieces], [pc.alpha for pc in pieces]]
        mags = list(map(abs, columns[2]))
        columns += [[x ** p for x in mags], [math.log(x) if x else -INF for x in mags],
                    [math.log(x) if x > 0.0 else -INF for x in columns[0]]]
        table = np.full((7, count, width), np.nan)
        table.reshape(7, -1)[:, at] = columns
        lo, hi, coef, alpha, cp, log_c, log_lo = table
        gamma = alpha * p + n
        # an upward jump from piece j - 1 to piece j, at lo_j = hi_(j-1), in
        # Python's float arithmetic, which warns of nothing
        with np.errstate(over="ignore", invalid="ignore"):
            rise = log_c[:, 1:] + alpha[:, 1:] * log_lo[:, 1:] > (
                log_c[:, :-1] + alpha[:, :-1] * log_lo[:, 1:])
        broken = ~np.isnan(lo[:, 1:]) & ((hi[:, :-1] != lo[:, 1:]) | rise)
        nonincreasing = (lo[:, 0] == 0.0) & ~((alpha > 0.0).any(axis=1) | broken.any(axis=1))
        faces = np.concatenate([lo, hi], axis=1)
        inner = (0.0 < faces) & (faces < INF)
        b = np.where(inner, faces, 0.0).max(axis=1)
        r_min = np.minimum(1e-3, 0.1 * np.where(inner, faces, INF).min(axis=1))
        r_max = np.full(count, 1.0 - 1e-6) if small else np.maximum(1e6, 10.0 * b)
        return cls(fs, np.array(sizes, dtype=int), lo, hi, coef, alpha, gamma, cp,
                   (lo[:, 0] == 0.0) & (gamma[:, 0] <= 0.0), nonincreasing,
                   np.array([r_min, r_max, 10.0 + b]).T)

    def __len__(self) -> int:
        return len(self.fs)

    def __iter__(self):
        return iter(self.fs)

    def take(self, rows) -> "PieceTable":
        """The table of the functions fs[rows], rows sorted and distinct, padded to the widest."""
        if len(rows) == len(self):
            return self
        rows = np.asarray(rows, dtype=int)
        width = max(1, self.sizes[rows].max(initial=0))
        return PieceTable(tuple(self.fs[k] for k in rows.tolist()), *(
            x[rows, :width] if x.ndim == 2 and x is not self.window else x[rows]
            for x in list(vars(self).values())[1:]))


def _centered_term(t, lo, factor, gamma: float):
    """factor (t^gamma - lo^gamma) / gamma, or factor log(t / lo) when gamma = 0.

    Both powers come from np.power, so the term is exactly 0 at t = lo.
    """
    if gamma == 0.0:
        return factor * np.log(t / lo)
    return factor * ((np.power(t, gamma) - np.power(lo, gamma)) / gamma)


def group_centered_integrals(fs, p: float, n: int, which, rs) -> np.ndarray:
    """Exact integrals of |f|^p over centered balls of a group of functions, in one pass.

    fs is a sequence of functions or their :class:`PieceTable`.  Ball k
    has radius rs[k] (any shape) and belongs to fs[which[k]]; which
    broadcasts against rs, in any order.  Every (ball, piece) term takes
    one np.power per distinct gamma = alpha p + n, with gamma a number, so
    every value equals its function's own call bit for bit (an array
    exponent is an ulp off for about 5 % of t at gamma = 0.5, 2 or -1),
    and a ball's terms are summed in piece order.  A function with a
    divergent piece at the origin gives INF.
    """
    rs = np.asarray(rs, dtype=float)
    if not (rs > 0.0).all():
        raise ValueError(f"radii must be > 0, got {rs}")
    tab = PieceTable.of(fs, p, n)
    factor = unit_sphere_area(n) * tab.cp
    live = ~np.isnan(tab.lo) & ~tab.divergent[:, None]
    which = np.broadcast_to(which, rs.shape).reshape(-1)
    ball, slot = np.nonzero(live[which])
    lo, hi, fac, gam = (x[which[ball], slot] for x in (tab.lo, tab.hi, factor, tab.gamma))
    top = np.minimum(np.maximum(rs.reshape(-1)[ball], lo), hi)
    # column 0 stays 0, so each ball's sum starts from 0 as a running sum does
    terms = np.zeros((which.size, tab.lo.shape[1] + 1))
    for gamma in dict.fromkeys(tab.gamma[live].tolist()):  # each gamma on its own terms
        at = gam == gamma
        terms[ball[at], slot[at] + 1] = _centered_term(top[at], lo[at], fac[at], gamma)
    out = np.cumsum(terms, axis=1)[:, -1]
    out[tab.divergent[which]] = INF
    return out.reshape(rs.shape)


def centered_integrals(
    f: PiecewiseRadialFunction, p: float, n: int, rs: np.ndarray
) -> np.ndarray:
    """Exact integrals of |f|^p over the centered balls of radii rs (any shape).

    The one-function form of :func:`group_centered_integrals`.
    """
    return group_centered_integrals((f,), p, n, 0, rs)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature, vectorized over panels and rows.
#
# 15-point Kronrod rule with embedded 7-point Gauss rule; the standard
# abscissae/weights for the interval [-1, 1].

_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])            # 15 ascending nodes
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])          # matching weights
_GAUSS_W = np.zeros(15)
_GAUSS_W[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])      # Gauss nodes sit at odd slots


_POINTS_PER_CALL = 1 << 13  # bounds the temporary arrays of a GK15 pass


def _gk15_panels(func, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray):
    """Apply the 15-point rule to each panel [lo_i, hi_i] of row rows_i.

    Returns (values, errors) per panel.  The error estimate follows the
    usual practice of sharpening |K15 - G7| by the panel's total
    variation measure, so it stays meaningful near endpoint
    singularities.  func(x, rows) takes the points x and the row of
    each; it sees at most ``_POINTS_PER_CALL`` points per call.
    """
    step = _POINTS_PER_CALL // len(_NODES)
    if lo.size > step:
        parts = [
            _gk15_panels(func, lo[a:a + step], hi[a:a + step], rows[a:a + step])
            for a in range(0, lo.size, step)
        ]
        return tuple(np.concatenate(x) for x in zip(*parts))
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = center[:, None] + half[:, None] * _NODES[None, :]
    fv = func(pts.ravel(), np.repeat(rows, len(_NODES))).reshape(pts.shape)
    # Row sums, not BLAS products, whose rounding of a panel depends on
    # its position in the call: a row's result must not depend on others.
    resk = (fv * _KRONROD_W).sum(axis=1)
    resg = (fv * _GAUSS_W).sum(axis=1)
    values = resk * half
    resasc = (np.abs(fv - 0.5 * resk[:, None]) * _KRONROD_W).sum(axis=1) * half
    raw = np.abs(resk - resg) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    errors = np.where((resasc > 0.0) & (raw > 0.0), scaled, raw)
    return values, errors


def _adaptive_quadrature(
    func, cuts: np.ndarray, offset: np.ndarray, settings: IntegrationSettings
):
    """Globally adaptive GK15 over the rows of cuts at once: (values, tol_ok).

    Row i integrates func(x, rows) over the union of the panels
    [cuts[i, j], cuts[i, j+1]], its cuts NaN-padded on the right.  Each
    round finishes every row whose summed error estimate is below
    rel_tol * |integral + offset| (tol_ok True) or that holds
    ``_MAX_PANELS`` panels (False), and splits the worst panels of
    the others, all in one GK15 pass.  ``offset`` is a known part of the
    quantity a row belongs to (the closed-form core of a ball), so a
    small piece of a large total is judged against the total.
    """
    n_rows = len(cuts)
    values, tol_ok = np.zeros(n_rows), np.zeros(n_rows, dtype=bool)
    pending = np.ones(n_rows, dtype=bool)
    owner, slot = np.nonzero(~np.isnan(cuts[:, 1:]))
    lo, hi = cuts[owner, slot], cuts[owner, slot + 1]
    vals, errs = _gk15_panels(func, lo, hi, owner)
    while True:
        total, err, count = (np.bincount(owner, w, n_rows) for w in (vals, errs, None))
        tol = settings.rel_tol * np.maximum(np.abs(total + offset), 1e-300)
        met = err <= tol
        done = pending & (met | (count >= _MAX_PANELS))
        values[done], tol_ok[done] = total[done], met[done]
        pending &= ~done
        if not pending.any():
            return values, tol_ok
        # Rank each row's panels worst first, so the panels above the
        # row's share of its target lead; split the first of them, at
        # least one and at most the row's remaining budget.
        order = np.lexsort((-errs, owner))
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size) - (np.cumsum(count) - count)[owner[order]]
        over = np.bincount(owner, errs > tol[owner] / count[owner], n_rows)
        quota = np.minimum(np.maximum(over, 1), _MAX_PANELS - count)
        split = pending[owner] & (rank < quota[owner])
        keep = pending[owner] & ~split
        mid = 0.5 * (lo[split] + hi[split])
        new = [np.tile(owner[split], 2), np.concatenate([lo[split], mid]),
               np.concatenate([mid, hi[split]])]
        new += _gk15_panels(func, new[1], new[2], new[0])
        owner, lo, hi, vals, errs = (
            np.concatenate([x[keep], y]) for x, y in zip((owner, lo, hi, vals, errs), new)
        )


# ---------------------------------------------------------------------------
# Off-center balls: closed-form core plus a shell integral in the cap angle.


def _shell_integrand(f, p, n, theta, d, r):
    """Shell integrand of |S^(n-1)| |f|^p t^(n-1) cap(t) in the cap angle theta.

    With c = max(d, r) and h = min(d, r), the sphere radius is
    t = c - h cos(theta), which lies 2 h sin^2(theta / 2) above the inner
    shell end |d - r| and 2 h cos^2(theta / 2) below the outer end d + r,
    and dt = h sin(theta) d(theta).  The cap fraction takes those two
    gaps as they are: gaps formed from t would carry t's rounding, about
    ulp(d), which on a thin ball far out is a large part of its width
    2 h.  d and r broadcast against theta.
    """
    two_h = 2.0 * np.minimum(d, r)
    half = 0.5 * theta
    s, c = np.sin(half), np.cos(half)
    two_hs = two_h * s
    inner, outer = two_hs * s, two_h * c * c
    t = np.abs(d - r) + inner
    vals = unit_sphere_area(n) * np.abs(f.evaluate_radii(t)) ** p
    return vals * t ** (n - 1) * cap_fraction_radii(n, inner, outer, d, r) * (two_hs * c)


_HALF_TURNS = np.array([0.0, 0.5 * math.pi, math.pi])


def _shell_cuts(f: PiecewiseRadialFunction, d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Panel boundaries in theta, one row per ball, NaN-padded on the right.

    Each row runs from 0 to pi, is cut at pi/2 (one 15-point panel over
    the whole half turn is too coarse for the Gauss error estimate) and
    wherever the sphere radius crosses one of f's breakpoints.
    """
    t_lo, t_hi = np.abs(d - r), d + r
    cols = [np.broadcast_to(_HALF_TURNS, d.shape + (3,))]
    for b in f.breakpoints():
        inside = (t_lo < b) & (b < t_hi)
        if inside.any():
            frac = np.clip((b - t_lo) / (2.0 * np.minimum(d, r)), 0.0, 1.0)
            cols.append(np.where(inside, 2.0 * np.arcsin(np.sqrt(frac)), np.nan)[:, None])
    if len(cols) == 1:
        return cols[0]
    return np.sort(np.concatenate(cols, axis=-1), axis=-1)


def _powers(t: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """P(t) = t^gamma, or log t where gamma = 0, of each entry of t, its gamma in gammas.

    gammas has t's shape.  One power per distinct exponent, taken as a
    number, as in :func:`group_centered_integrals`: numpy then computes
    t^0.5 as sqrt(t) and t^2 as t * t, correctly rounded, where the array
    power is an ulp off for about 5 % of t.  Knots and shell ends take
    their powers here alike, so a shell end on a knot has the knot's
    power bit for bit.
    """
    out = np.empty_like(t)
    for gamma in dict.fromkeys(gammas.ravel().tolist()):
        at = gammas == gamma
        out[at] = np.log(t[at]) if gamma == 0.0 else t[at] ** gamma
    return out


@dataclass(frozen=True)
class _N1Table:
    """Antiderivative tables of |f|^p on the line, row s for fs[s] of a batch fs.

    The cells j = 1..K of row s are the intervals [knot_(j-1), knot_j)
    (knot_K = inf), which tile [0, inf); support gaps are cells with
    w = 0.  On cell j the integral of |f|^p from u to v is
    w[s, j] (P_j(v) - P_j(u)), with P_j(t) = t^gamma_j (or log t when
    gamma_j = 0), gamma_j = ``gammas[s, j]`` = alpha p + 1 (1 on gaps and
    pads, where w = 0) and w = |c|^p / gamma_j (|c|^p when gamma_j = 0).
    Every power of the table and of its balls takes its cell's exponent
    as a number, once per distinct exponent (:func:`_powers`).
    p_lo[s, j] and p_hi[s, j] are P_j at the cell's two knots.
    between[s, i, j] is the integral over the whole cells strictly
    between i and j, summed term by term: a difference of two prefix sums
    would lose the digits of a small middle after a large earlier cell.
    between[s, 0, j] is the integral from 0 up to knot_(j-1).  Cell 0
    pads every row in front, and cells past K pad the shorter rows
    behind.  ``knots`` holds the knots of all rows, sorted, and ``keys``
    each row's knots as the exact integers s (len(knots) + 1) + (the
    knot's first rank in knots), sorted, so that searchsorted finds each
    radius's cell in its own row.

    Radii below ``floor[s]``, the start of the support, are raised to
    powers as ``floor[s]`` (w = 0 there), so radius 0 never meets a
    gamma <= 0 power unless f lives at the origin.  ``divergent[s]``
    marks such a piece: the balls that reach it are INF, and the table
    entries only they would read (P at 0, between from 0) hold finite
    stand-ins.
    """

    knots: np.ndarray
    keys: np.ndarray
    floor: np.ndarray
    divergent: np.ndarray
    gammas: np.ndarray
    w: np.ndarray
    p_lo: np.ndarray
    p_hi: np.ndarray
    between: np.ndarray

    def cells(self, which, t: np.ndarray) -> np.ndarray:
        """The cell of each radius t in its row which, from the rank of the last knot <= t."""
        row = which * (self.knots.size + 1)
        key = row + np.searchsorted(self.knots, t, side="right") - 1
        return np.searchsorted(self.keys, key, side="right") - np.searchsorted(self.keys, row)


def _n1_table(tab: PieceTable) -> _N1Table:
    """The :class:`_N1Table` of the functions of tab (n = 1), from its arrays."""
    count, width = tab.lo.shape
    real = ~np.isnan(tab.lo)
    # piece j of a row is its cell 1 + j + (the gaps up to piece j), a gap
    # before it the cell before, and a gap past the last piece the last cell
    edge = np.concatenate([np.zeros((count, 1)), tab.hi[:, :-1]], axis=1)
    gap = real & (tab.lo > edge)
    cell = np.arange(1, width + 1) + np.cumsum(gap, axis=1)
    end = np.where(tab.sizes > 0, tab.hi[np.arange(count), np.maximum(tab.sizes - 1, 0)], 0.0)
    size, tail = tab.sizes + gap.sum(axis=1), np.flatnonzero(end < INF)
    low, high, gammas, amp = np.ones((4, count, (size + (end < INF)).max(initial=0) + 1))
    amp[:] = 0.0
    at = np.nonzero(real)[0], cell[real]
    low[at], high[at], gammas[at], amp[at] = (x[real] for x in (tab.lo, tab.hi, tab.gamma, tab.cp))
    at = np.nonzero(gap)[0], cell[gap] - 1
    low[at], high[at] = edge[gap], tab.lo[gap]
    low[tail, size[tail] + 1], high[tail, size[tail] + 1] = end[tail], INF
    is_cell = (np.arange(low.shape[1]) > 0) & (np.arange(low.shape[1]) <= size[:, None])
    is_cell[tail, size[tail] + 1] = True
    knots = low[is_cell]
    # radius 1 stands in where no power is read: the pads, the infinite
    # end of the last cell, and the origin end of a divergent piece
    high[high == INF] = 1.0
    low[tab.divergent, 1] = 1.0
    floor = np.where(tab.sizes > 0, tab.lo[:, 0], 0.0)
    p_lo = _powers(np.maximum(low, floor[:, None]), gammas)
    p_hi = _powers(np.maximum(high, floor[:, None]), gammas)

    w = amp / np.where(gammas == 0.0, 1.0, gammas)
    cells = np.arange(w.shape[1])
    upper = np.where(cells > cells[:, None], (w * (p_hi - p_lo))[:, None, :], 0.0)
    between = np.zeros_like(upper)
    between[:, :, 1:] = np.cumsum(upper, axis=2)[:, :, :-1]
    ordered = np.sort(knots)
    keys = np.nonzero(is_cell)[0] * (ordered.size + 1) + np.searchsorted(ordered, knots)
    return _N1Table(ordered, keys, floor, tab.divergent, gammas, w, p_lo, p_hi, between)


def group_ball_integrals_n1(fs, p: float, which, d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Exact n = 1 integrals of |f|^p over the balls (d, r) of a group of functions, 1-d.

    Ball k belongs to fs[which[k]] (fs or their :class:`PieceTable`);
    which broadcasts against d, in any order, and all of fs share one
    :class:`_N1Table`.  The ball is the
    interval [d - r, d + r]; by symmetry its integral is the integral
    over the shell t_lo = |d - r| <= t <= t_hi = d + r, plus 2 G(t_lo)
    when d < r, where G(t) is the integral from 0 to t.  Each shell end
    is located (:meth:`_N1Table.cells`) and raised to one power.  A
    shell inside one cell is w (P(t_hi) - P(t_lo)) directly, never a
    difference of two sums that both hold the cell, which would lose the
    digits of a tiny far ball.  Every step is elementwise, so each value
    equals its function's own call bit for bit.
    """
    tab = _n1_table(PieceTable.of(fs, p, 1))
    diff = d - r
    t_lo, t_hi = np.abs(diff), d + r
    c_lo, c_hi = tab.cells(which, t_lo), tab.cells(which, t_hi)
    divergent = tab.divergent.any()
    with np.errstate(divide="ignore", invalid="ignore") if divergent else nullcontext():
        pw_lo, pw_hi = (_powers(np.maximum(t, tab.floor[which]), tab.gammas[which, c])
                        for t, c in ((t_lo, c_lo), (t_hi, c_hi)))
        # within one cell w_hi (pw_hi - pw_lo), across cells
        # w_hi (pw_hi - p_lo) + between + w_lo (p_hi - pw_lo)
        w_lo, w_hi = tab.w[which, c_lo], tab.w[which, c_hi]
        out = np.where(c_lo == c_hi, (pw_hi - pw_lo) * w_hi,
                       (pw_hi - tab.p_lo[which, c_hi]) * w_hi + tab.between[which, c_lo, c_hi]
                       + (tab.p_hi[which, c_lo] - pw_lo) * w_lo)
        # plus, when d < r, twice the core below |d - r|
        core = (pw_lo - tab.p_lo[which, c_lo]) * w_lo + tab.between[which, 0, c_lo]
        out = np.where(diff < 0.0, out + 2.0 * core, out)
    if divergent:  # a divergent piece meets radius 0 where d = r: those balls are INF
        out[(diff <= 0.0) & tab.divergent[which]] = INF
    return out


def ball_integrals(
    f: PiecewiseRadialFunction,
    p: float,
    n: int,
    d,
    r,
    settings: IntegrationSettings = IntegrationSettings(),
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of |f|^p over many balls (center distances d, radii r).

    d and r broadcast against each other.  Returns (values, tol_ok)
    arrays of their common shape, with the meaning of
    :class:`BallIntegral`.  For n = 1 every value is closed form, from a
    one-function :func:`group_ball_integrals_n1` call.  For n >= 2 the
    closed-form cores are vectorized, and the off-center shells go
    through one :func:`_adaptive_quadrature` call, whose GK15 passes see
    at most ``_POINTS_PER_CALL`` points each.  Each value depends on its
    own ball only.
    """
    d, r = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(r, dtype=float))
    if (d < 0.0).any() or (r <= 0.0).any():
        raise ValueError("need center distances >= 0 and radii > 0")
    shape = d.shape
    d, r = d.reshape(-1), r.reshape(-1)
    if n == 1:
        values = group_ball_integrals_n1((f,), p, 0, d, r)
        return values.reshape(shape), np.ones(shape, dtype=bool)
    values, tol_ok = _ball_integrals_nd(f, p, n, d, r, settings)
    return values.reshape(shape), tol_ok.reshape(shape)


def _ball_integrals_nd(f, p, n, d, r, settings):
    """:func:`ball_integrals` of one function for n >= 2, on 1-d d and r."""
    tol_ok = np.ones(d.shape, dtype=bool)
    if f.is_zero:
        return np.zeros(d.shape), tol_ok
    tab = PieceTable.of((f,), p, n)
    diverges = (d <= r) & tab.divergent[0]
    values = np.where(diverges, INF, 0.0)
    core = (d < r) & ~diverges
    if core.any():
        values[core] = group_centered_integrals(tab, p, n, 0, (r - d)[core])

    k = np.flatnonzero((d > 0.0) & ~diverges)
    if k.size:
        dk, rk = d[k], r[k]
        shell, tol_ok[k] = _adaptive_quadrature(
            lambda theta, rows: _shell_integrand(f, p, n, theta, dk[rows], rk[rows]),
            _shell_cuts(f, dk, rk),
            values[k],
            settings,
        )
        values[k] += shell
    return values, tol_ok


def integrate_abs_pow_ball(
    f: PiecewiseRadialFunction,
    p: float,
    n: int,
    ball: Ball,
    settings: IntegrationSettings = IntegrationSettings(),
) -> BallIntegral:
    """Integral of |f|^p over one ball: a one-ball :func:`ball_integrals` call."""
    values, tol_ok = ball_integrals(f, p, n, ball.d, ball.r, settings)
    return BallIntegral(float(values), bool(tol_ok))


# ---------------------------------------------------------------------------
# Monte Carlo cross-check route.

_MC_CHUNK = 1 << 17


def mc_integrate(
    f: PiecewiseRadialFunction,
    p: float,
    n: int,
    ball: Ball,
    n_samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of the ball integral of |f|^p.

    Returns (estimate, standard error).  Sampling is uniform in the
    ball: Gaussian direction, radius r * U^(1/n).  The generator is
    counter-based with one key per fixed-size chunk, and chunks are
    accumulated in index order, so the result depends only on
    (seed, n_samples) -- not on how the work is scheduled.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    vol = unit_ball_volume(n) * ball.r**n
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < n_samples:
        m = min(_MC_CHUNK, n_samples - done)
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) + chunk_index))
        x = rng.standard_normal((m, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        radii = ball.r * rng.random(m) ** (1.0 / n)
        x *= radii[:, None]
        x[:, 0] += ball.d
        t = np.linalg.norm(x, axis=1)
        y = np.abs(f.evaluate_radii(t)) ** p
        total += float(y.sum())
        total_sq += float((y * y).sum())
        done += m
        chunk_index += 1
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) / (n_samples - 1)
    return vol * mean, vol * math.sqrt(var)
