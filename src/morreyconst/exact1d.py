"""The exact n = 1 norm of a piecewise radial power function.

The candidate classes, and why they hold the supremum, are in the
:mod:`morreyconst.norms` module docstring.  Here every free-end class
becomes a table of brackets, one column each (rows :data:`_ROWS`): an
exponential sum in z = log x, the z range where its root would be a
ball, and how the ball's two ends follow from z.  The sums' slopes
change sign at most once, in closed form, so each bracket splits into
two monotone ones; those with a sign change and a bound that beats L
take safeguarded Newton steps together (:func:`_newton`), and the roots
become candidate balls next to the corners and caps.  No scipy.
"""

from __future__ import annotations

import math

import numpy as np

from morreyconst.integrate import ball_integrals
from morreyconst.model import Mode, PiecewiseRadialFunction, SpaceParams

__all__ = ["best_in_rows", "exact_norms"]

INF = math.inf

# The cap on Newton steps, and the z = log x range of a bracket, clipped
# so that e^z stays a normal float.
_NEWTON_STEPS = 100
_Z_RANGE = 700.0
# A sum below this at a bracket end, relative to its largest term, is
# zero there to rounding.
_END_ZERO = 1e-13

# The rows of a bracket table (:func:`exact_norms`): the owner; the sum
# P(z) = a0 + a1 e^(e1 z) + a2 e^(e2 z) + lin z; the bracket [lo, hi] in
# z; the cap radius rho (0 off the cap); the free end x = e^z, in a
# piece where G(x) = k + amp x^gam / gam; and the other end, either
# x = sgn e^(shift + slope z) in a piece with (ok, oamp, ogam), or,
# where sgn = 0, the fixed point x0 with G(x0) = og.
_ROWS = ("own", "a0", "a1", "e1", "a2", "e2", "lin", "lo", "hi", "rho", "k", "amp", "gam",
         "sgn", "shift", "slope", "x0", "ok", "oamp", "ogam", "og")


def best_in_rows(values: np.ndarray, d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Column of each row's best ball: largest value, ties to the smaller (d, r).

    Three reductions instead of a sort: the largest value, then the
    smallest d among the balls that reach it, then the first smallest r
    among those.
    """
    top = values == values.max(axis=-1, keepdims=True)
    d_top = np.where(top, d, INF)
    top &= d_top == d_top.min(axis=-1, keepdims=True)
    return np.where(top, r, INF).argmin(axis=-1)


def _rows(mask: np.ndarray, **cols) -> np.ndarray:
    """The bracket table (rows :data:`_ROWS`, 0 where not given) of cols where mask holds.

    Each col is a number or an array of mask's number of dimensions that
    broadcasts against it.
    """
    where = np.nonzero(mask)
    table = np.zeros((len(_ROWS), where[0].size))
    for i, name in enumerate(_ROWS):
        if name in cols:
            col = np.asarray(cols[name])
            table[i] = col[tuple(w if size > 1 else 0 for w, size in zip(where, col.shape))]
    return table


def _antiderivative(k, amp, gam, w):
    """G = k + amp e^(gam w) / gam (k + amp w where gam = 0), and |k| + |amp term|.

    G is the integral of |f|^p from 0 to e^w on a piece; the second
    value bounds the scale of G's rounding.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        term = amp * np.where(gam == 0.0, w, np.exp(gam * w) / gam)
    return k + term, np.abs(k) + np.abs(term)


def _bracket_ends(t: dict, z: np.ndarray):
    """(x, G, G's rounding scale) of the free and the other end of the brackets t at z."""
    x = np.exp(z)
    g, scale = _antiderivative(t["k"], t["amp"], t["gam"], z)
    w = t["shift"] + t["slope"] * z
    free = t["sgn"] != 0.0
    og, oscale = _antiderivative(t["ok"], t["oamp"], t["ogam"], w)
    with np.errstate(over="ignore"):
        ox = np.where(free, t["sgn"] * np.exp(w), t["x0"])
    return (x, g, scale), (ox, np.where(free, t["sgn"] * og, t["og"]),
                           np.where(free, oscale, np.abs(t["og"])))


def _exp_sums(coef: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(z) and P'(z) for each column (a0, a1, e1, a2, e2, lin) of coef, times one factor.

    P = a0 + a1 e^(e1 z) + a2 e^(e2 z) + lin z.  The positive factor is
    e^(-top), top the largest log-magnitude of a term, so that no term
    overflows however far out z lies; signs and P / P' are P's own.
    """
    a0, a1, e1, a2, e2, lin = coef
    signed = np.stack([a0, a1, a2, lin * z])
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.abs(signed))
        logs[1] += e1 * z
        logs[2] += e2 * z
        top = logs.max(axis=0)
        top[~np.isfinite(top)] = 0.0
        terms = np.copysign(np.exp(logs - top), signed)
        drift = np.copysign(np.exp(np.minimum(np.log(np.abs(lin)) - top, 700.0)), lin)
    return terms.sum(axis=0), e1 * terms[1] + e2 * terms[2] + drift


def _newton(coef: np.ndarray, lo: np.ndarray, hi: np.ndarray, sign_lo: np.ndarray) -> np.ndarray:
    """The root of each column's sum (see :func:`_exp_sums`) in [lo, hi].

    P is monotone on each bracket and changes sign there, P(lo) having
    sign_lo.  Every bracket takes safeguarded Newton steps at once: each
    evaluation shrinks the bracket to the side where P changes sign, and
    a step that would leave the bracket, or that is not half the one
    before, bisects it instead.  A sum a0 + a e^(e z) starts at its
    closed-form root.
    """
    a0, a1, e1, a2, e2, lin = coef
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(a2 == 0.0, np.log(-a0 / a1) / e1, np.log(-a0 / a2) / e2)
    z = np.where((lo < z) & (z < hi) & (lin == 0.0), z, 0.5 * (lo + hi))
    lo, hi = lo.copy(), hi.copy()
    last = hi - lo
    live = np.arange(z.size)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        at = z[live]
        value, slope = _exp_sums(coef[:, live], at)
        below = np.sign(value) == sign_lo[live]
        lo[live] = a = np.where(below, at, lo[live])
        hi[live] = b = np.where(below, hi[live], at)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = at - value / slope
        newton = (a <= step) & (step <= b) & (np.abs(step - at) <= 0.5 * last[live])
        nxt = np.where(value == 0.0, at, np.where(newton, step, 0.5 * (a + b)))
        last[live] = np.abs(nxt - at)
        tol = 1e-14 * np.maximum(1.0, np.abs(at))
        done = (last[live] <= tol) | (b - a <= tol) | (nxt == a) | (nxt == b)
        z[live] = nxt
        live = live[~done]
    return z


def _solve(t: np.ndarray, kappa: float, bar: np.ndarray):
    """(owner, d, r) of the balls at the roots of the bracket table t.

    Each bracket splits at the turn of its sum's slope into two monotone
    ones.  Those whose sum changes sign and whose bound on value^p can
    reach bar[owner] (L^p of the owner) are solved by :func:`_newton`.
    """
    coef = t[1:7]
    a0, a1, e1, a2, e2, _ = coef
    for a, e in ((a1, e1), (a2, e2)):  # constant terms into a0, equal exponents merged
        fold = e == 0.0
        a0[fold] += a[fold]
        a[fold] = 0.0
    fold = e1 == e2
    a1[fold] += a2[fold]
    a2[fold] = 0.0
    z_a = np.maximum(t[7], -_Z_RANGE)
    z_b = np.minimum(t[8], _Z_RANGE)
    ok = (z_a < z_b) & np.isfinite(coef).all(axis=0)
    t, coef, z_a, z_b = t[:, ok], coef[:, ok], z_a[ok], z_b[ok]

    # P' = s1 e^(e1 z) + s2 e^(e2 z) + lin has at most one sign change,
    # in closed form (lin != 0 only beside a single exponential), which
    # splits each bracket into two monotone ones
    s1, s2, lin = coef[1] * coef[2], coef[3] * coef[4], coef[5]
    with np.errstate(all="ignore"):
        turn = np.where(lin == 0.0, np.log(-s2 / s1) / (coef[2] - coef[4]),
                        np.where(s2 == 0.0, np.log(-lin / s1) / coef[2],
                                 np.log(-lin / s2) / coef[4]))
    turn = np.minimum(np.maximum(np.where(np.isnan(turn), z_b, turn), z_a), z_b)
    # A bracket end where P is zero to rounding is a root there (a free end
    # at its fixed end, say): that ball is a corner or a cap already, and
    # P takes the sign of its slope just inside
    (at_a, rise_a), at_turn, (at_b, rise_b) = (_exp_sums(coef, z) for z in (z_a, turn, z_b))
    sign_a = np.where(np.abs(at_a) <= _END_ZERO, np.sign(rise_a), np.sign(at_a))
    sign_b = np.where(np.abs(at_b) <= _END_ZERO, -np.sign(rise_b), np.sign(at_b))
    signs = [sign_a, np.where(turn == z_b, sign_b, np.where(turn == z_a, sign_a,
                                                           np.sign(at_turn[0]))), sign_b]
    left = np.flatnonzero(signs[0] * signs[1] < 0.0)
    right = np.flatnonzero(signs[1] * signs[2] < 0.0)
    cols = np.concatenate([left, right])
    z_a = np.concatenate([z_a[left], turn[right]])
    z_b = np.concatenate([turn[left], z_b[right]])
    sign_a = np.concatenate([signs[0][left], signs[1][right]])
    t = t[:, cols]

    # Prune: on a bracket, u >= u_lo and v <= v_hi, so value^p is at most
    # length^(-kappa) (G(v_hi) - G(u_lo)), with the length at least the
    # gap between the ranges of the ends (2 rho on a cap)
    rows = dict(zip(_ROWS, t))
    ends = [*_bracket_ends(rows, z_a), *_bracket_ends(rows, z_b)]
    xs, gs, scales = (np.stack(e) for e in zip(*ends))
    free, other = xs[0::2], xs[1::2]
    with np.errstate(all="ignore"):
        gap = np.maximum(free.min(axis=0) - other.max(axis=0), other.min(axis=0) - free.max(axis=0))
        length = np.where(rows["rho"] > 0.0, 2.0 * rows["rho"], gap)
        bound = length ** -kappa * (gs.max(axis=0) - gs.min(axis=0) + 1e-12 * scales.sum(axis=0))
    live = ~(bound < bar[rows["own"].astype(int)])
    t, z_a, z_b, sign_a = t[:, live], z_a[live], z_b[live], sign_a[live]

    rows = dict(zip(_ROWS, t))
    z = _newton(t[1:7], z_a, z_b, sign_a)
    (x, _, _), (ox, _, _) = _bracket_ends(rows, z)
    r = np.where(rows["rho"] > 0.0, rows["rho"], 0.5 * np.abs(x - ox))
    return rows["own"].astype(int), 0.5 * np.abs(x + ox), r


def exact_norms(
    fs: list[PiecewiseRadialFunction],
    params: SpaceParams,
    rel_tol: float,
    centered: list[tuple[float, float, float]],
    r_max: list[float],
) -> list[tuple[float, float, float, bool]]:
    """(value, d, r, truncated) of each n = 1 shape f of fs, finite and not zero.

    centered holds each f's centered supremum (L, r*, top), and r_max its
    window's largest radius.  The candidates of the
    :mod:`morreyconst.norms` docstring are built for all of fs at once, on
    tables padded to the widest f: corners, caps, and the brackets of every free-end class, of which
    those whose bound cannot beat L are pruned and the rest solved
    (:func:`_solve`).  Each f's candidate balls then take one
    :func:`~morreyconst.integrate.ball_integrals` call.  (d, r) is the
    best ball of the window, ties going to the smaller (d, r)
    (:func:`best_in_rows`), and truncated is True when the best over
    every radius of the mode beats its value by more than rel_tol.
    """
    p = params.p
    kappa = 1.0 - p / params.q
    small = params.mode is Mode.SMALL_MORREY
    count, width = len(fs), max(len(f.pieces) for f in fs)
    own = np.arange(count)[:, None]
    lower, r_star, top = (np.array(col) for col in zip(*centered))
    table = np.full((4, count, width), np.nan)
    for s, f in enumerate(fs):
        table[:, s, :len(f.pieces)] = np.array([(pc.lo, pc.hi, pc.coef, pc.alpha)
                                                for pc in f.pieces]).T
    lo, hi, coef, alpha = table
    amp, beta = np.abs(coef) ** p, alpha * p
    gam = beta + 1.0
    real = amp > 0.0  # the padding is NaN
    with np.errstate(all="ignore"):
        z_lo, z_hi = np.log(lo), np.log(hi)
        at_lo = np.where(gam == 0.0, z_lo, lo**gam / gam)
        mass = np.where(real, amp * (np.where(gam == 0.0, z_hi, hi**gam / gam) - at_lo), 0.0)
        # G(x) = k + amp x^gam / gam on a piece; H(w) = g(x) x - kappa G(x)
        # at x = e^w is h_exp e^(gam w) + h_const + h_lin w
        g_lo = np.zeros_like(mass)
        g_lo[:, 1:] = np.cumsum(mass[:, :-1], axis=1)
        k = g_lo - amp * at_lo
        h_exp = np.where(gam == 0.0, 0.0, amp * (1.0 - kappa / gam))
        h_const = np.where(gam == 0.0, amp, 0.0) - kappa * k
        h_lin = np.where(gam == 0.0, -kappa * amp, 0.0)

        # Fixed points: the breakpoints, and where a power piece Y meets
        # the level of a constant piece X (both ends free, X's end free
        # alone); with their G.
        points = np.concatenate([lo, hi], axis=1)
        g_points = np.concatenate([g_lo, g_lo + mass], axis=1)
        keep = (points > 0.0) & (points < INF)
        keep[:, width:-1] &= hi[:, :-1] != lo[:, 1:]
        level = (amp[:, :, None] / amp[:, None, :]) ** (1.0 / beta[:, None, :])
        meets = ((beta[:, :, None] == 0.0) & real[:, :, None] & (beta[:, None, :] != 0.0)
                 & (lo[:, None, :] < level) & (level < hi[:, None, :]))
        g_level = _antiderivative(k[:, None, :], amp[:, None, :], gam[:, None, :],
                                  np.log(level))[0]
    points = np.concatenate([points, level.reshape(count, -1)], axis=1)
    g_points = np.concatenate([g_points, g_level.reshape(count, -1)], axis=1)
    keep = np.concatenate([keep, meets.reshape(count, -1)], axis=1)
    first = np.argsort(~keep, axis=1, kind="stable")[:, :max(1, keep.sum(axis=1).max())]
    keep = np.take_along_axis(keep, first, axis=1)
    points = np.where(keep, np.take_along_axis(points, first, axis=1), np.nan)
    g_points = np.take_along_axis(g_points, first, axis=1)
    zero = np.zeros((count, 1))
    x0 = np.concatenate([-points, zero, points], axis=1)
    g0 = np.concatenate([-g_points, zero, g_points], axis=1)

    caps = np.array([[r, *([1.0] if small else [])] for r in r_max])
    # Balls that need no root: corners [u, v] with u, v fixed points,
    # v > 0 and -v <= u (mirror images give the same value), and caps
    # [x0, x0 + 2 rho].
    u, v = x0[:, :, None], points[:, None, :]
    corner = (-v <= u) & (u < v)
    owners = [np.broadcast_to(own[:, :, None], corner.shape)[corner]]
    ds, rs = [0.5 * (u + v)[corner]], [0.5 * (v - u)[corner]]
    rho = np.broadcast_to(caps[:, None, :], x0.shape + caps.shape[1:])
    on_cap = np.broadcast_to(~np.isnan(x0)[:, :, None], rho.shape)
    owners.append(np.broadcast_to(own[:, :, None], rho.shape)[on_cap])
    ds.append(np.abs(x0[:, :, None] + rho)[on_cap])
    rs.append(rho[on_cap])

    # Brackets.  One end fixed at x0, the other free at e^z on a piece
    # (mirror images give the rest): P = H(z) - x0 g(e^z) + kappa G(x0).
    cut = ~np.isnan(x0)[:, :, None] & real[:, None, :]
    pc = {name: a[:, None, :] for name, a in (("k", k), ("amp", amp), ("gam", gam))}
    blocks = [_rows(cut, own=own[:, :, None], a0=(h_const[:, None, :] + kappa * g0[:, :, None]),
                    a1=h_exp[:, None, :], e1=gam[:, None, :],
                    a2=-x0[:, :, None] * amp[:, None, :], e2=beta[:, None, :],
                    lin=h_lin[:, None, :], lo=z_lo[:, None, :], hi=z_hi[:, None, :],
                    x0=x0[:, :, None], og=g0[:, :, None], **pc)]
    # Both ends free: u = sgn |u| on piece A, v = e^z on piece B (A before
    # B, by mirror images), g(u) = g(v) makes log |u| = shift + slope z,
    # and P = H_B(z) - sgn H_A(log |u|); on a cap, P = e^z - u - 2 rho.
    a_, b_ = (slice(None), slice(None), None, None), (slice(None), None, None, slice(None))
    sgn = np.array([1.0, -1.0])[None, None, :, None]
    pair = np.broadcast_to(real[a_] & real[b_] & (beta[a_] != 0.0) & (beta[b_] != 0.0)
                           & (np.arange(width)[:, None, None] < np.arange(width)),
                           (count, width, 2, width))
    with np.errstate(all="ignore"):
        shift = np.log(amp[b_] / amp[a_]) / beta[a_]
        slope = beta[b_] / beta[a_]
        w_lo, w_hi = (z_lo[a_] - shift) / slope, (z_hi[a_] - shift) / slope
        span = dict(own=own[:, :, None, None], shift=shift, slope=slope, sgn=sgn,
                    lo=np.maximum(z_lo[b_], np.where(slope > 0.0, w_lo, w_hi)),
                    hi=np.minimum(z_hi[b_], np.where(slope > 0.0, w_hi, w_lo)),
                    k=k[b_], amp=amp[b_], gam=gam[b_], ok=k[a_], oamp=amp[a_], ogam=gam[a_])
        blocks.append(_rows(pair, a0=h_const[b_] - sgn * (h_const[a_] + h_lin[a_] * shift),
                            a1=h_exp[b_], e1=gam[b_], e2=gam[a_] * slope,
                            a2=-sgn * h_exp[a_] * np.exp(gam[a_] * shift),
                            lin=h_lin[b_] - sgn * h_lin[a_] * slope, **span))
        for c in range(caps.shape[1]):
            cap = caps[:, c, None, None, None]
            blocks.append(_rows(pair, a0=-2.0 * cap, a1=1.0, e1=1.0, a2=-sgn * np.exp(shift),
                                e2=slope, rho=cap, **span))
    owner, d, r = _solve(np.concatenate(blocks, axis=1), kappa, lower**p)
    owners.append(owner)
    ds.append(d)
    rs.append(r)

    # Each f's candidate balls in one kernel call, then each f's best in a
    # padded one-row-per-f table, its centered supremum (0, r*) included
    owners, ds, rs = (np.concatenate(a) for a in (owners, ds, rs))
    ok = (rs > 0.0) & np.isfinite(ds) & np.isfinite(rs)
    order = np.argsort(owners[ok], kind="stable")
    owners, ds, rs = owners[ok][order], ds[ok][order], rs[ok][order]
    cuts = np.searchsorted(owners, np.arange(count + 1))
    ints = [ball_integrals(f, p, 1, ds[a:b], rs[a:b])[0] for f, a, b in zip(fs, cuts, cuts[1:])]
    with np.errstate(over="ignore", invalid="ignore"):
        values = (2.0 * rs) ** (1.0 / params.q - 1.0 / p) * np.concatenate(ints) ** (1.0 / p)
    values[np.isnan(values)] = -INF
    slot = np.arange(owners.size) - cuts[owners]
    reach = np.full((count, np.diff(cuts).max() + 1), -INF)
    reach[owners, slot] = values if not small else np.where(rs <= 1.0, values, -INF)
    table = np.full((3,) + reach.shape, INF)
    table[0] = -INF
    table[:, owners, slot] = np.where(rs <= caps[owners, 0], values, -INF), ds, rs
    table[:, np.arange(count), -1] = lower, np.zeros(count), r_star
    best = best_in_rows(*table)
    value, d, r = (table[k][np.arange(count), best].tolist() for k in range(3))
    truncated = np.maximum(reach.max(axis=1), top) > np.array(value) * (1.0 + rel_tol)
    return list(zip(value, d, r, truncated.tolist()))
