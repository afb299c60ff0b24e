"""The exact n = 1 norm of a piecewise radial power function.

The candidate classes, and why they hold the supremum, are in the
:mod:`morreyconst.norms` module docstring.  Here every free-end class
becomes a block of brackets, one column each: an exponential sum in
z = log x, the z range where its root would be a ball (:data:`_SUMS`),
and how the ball's two ends follow from z (:data:`_ENDS`).  The sums'
slopes change sign at most once, in closed form, so each bracket splits
into two monotone ones; only those with a sign change gather their
ends, and those whose bound beats L take safeguarded Newton steps
together (:func:`_newton`).  Their roots join the corners and caps.  No scipy.

The same solver, generalized to any number of terms
(:func:`exp_sum_roots`), finds every root of the bathtub bound of
:mod:`morreyconst.norms`.
"""

from __future__ import annotations

import math

import numpy as np

from morreyconst.integrate import PieceTable, group_ball_integrals_n1
from morreyconst.model import Mode, SpaceParams

__all__ = ["best_in_rows", "exact_norms", "exp_sum_roots", "runs"]

INF = math.inf

# The cap on Newton steps, and the z = log x range of a bracket, clipped
# so that e^z stays a normal float.
_NEWTON_STEPS = 100
_Z_RANGE = 700.0
# A sum below this at a bracket end, relative to its largest term, is
# zero there to rounding.
_END_ZERO = 1e-13

# The rows of a bracket (:func:`_solve`): the sum P(z) = a0 + a1 e^(e1 z)
# + a2 e^(e2 z) + lin z and the bracket [lo, hi] in z (_SUMS); the owner;
# the cap radius rho (0 off the cap); the free end x = e^z, in a piece
# where G(x) = k + amp x^gam / gam; and the other end, either
# x = sgn e^(shift + slope z) in a piece with (ok, oamp, ogam), or, where
# sgn = 0, the fixed point x0 with G(x0) = og (_ENDS).
_SUMS = ("a0", "a1", "e1", "a2", "e2", "lin", "lo", "hi")
_ENDS = ("own", "rho", "k", "amp", "gam", "sgn", "shift", "slope", "x0", "ok", "oamp", "ogam",
         "og")


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


def _rows(where: tuple, cols: dict, names: tuple[str, ...]) -> np.ndarray:
    """Rows ``names`` of the brackets at the indices ``where`` of their mask, 0 where cols has none.

    Each col is a number or an array, with the mask's number of
    dimensions, that broadcasts against the mask.
    """
    table = np.zeros((len(names), where[0].size))
    for i, name in enumerate(names):
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


def _exp_sums(a: np.ndarray, e: np.ndarray, lin: np.ndarray, z: np.ndarray):
    """P(z) and P'(z) for each column of P = sum over k of a[k] e^(e[k] z), plus lin z.

    Both come times one positive factor, e^(-top) with top the largest
    log-magnitude of a term, so that no term overflows however far out z
    lies; signs and P / P' are P's own.  z is finite.
    """
    signed = np.concatenate([a, (lin * z)[None]])
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.abs(signed))
        logs[:-1] += e * z
        top = logs.max(axis=0)
        top[~np.isfinite(top)] = 0.0
        terms = np.copysign(np.exp(logs - top), signed)
        drift = np.copysign(np.exp(np.minimum(np.log(np.abs(lin)) - top, 700.0)), lin)
    return terms.sum(axis=0), (e * terms[:-1]).sum(axis=0) + drift


def _newton(a, e, lin, lo: np.ndarray, hi: np.ndarray, sign_lo: np.ndarray,
            z: np.ndarray) -> np.ndarray:
    """The root of each column's sum (see :func:`_exp_sums`) in [lo, hi], from z.

    P is monotone on each finite bracket and changes sign there, P(lo)
    having sign_lo.  A start z outside (lo, hi), or beside a linear
    term, is the midpoint instead.  Every bracket takes safeguarded
    Newton steps at once: each evaluation shrinks the bracket to the side
    where P changes sign, and a step that would leave the bracket, or
    that is not half the one before, bisects it instead.
    """
    z = np.where((lo < z) & (z < hi) & (lin == 0.0), z, 0.5 * (lo + hi))
    lo, hi = lo.copy(), hi.copy()
    last = hi - lo
    live = np.arange(z.size)
    for _ in range(_NEWTON_STEPS):
        if not live.size:
            break
        at = z[live]
        value, slope = _exp_sums(a[:, live], e[:, live], lin[live], at)
        below = np.sign(value) == sign_lo[live]
        lo[live] = x = np.where(below, at, lo[live])
        hi[live] = y = np.where(below, hi[live], at)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = at - value / slope
        newton = (x <= step) & (step <= y) & (np.abs(step - at) <= 0.5 * last[live])
        nxt = np.where(value == 0.0, at, np.where(newton, step, 0.5 * (x + y)))
        last[live] = np.abs(nxt - at)
        tol = 1e-14 * np.maximum(1.0, np.abs(at))
        done = (last[live] <= tol) | (y - x <= tol) | (nxt == x) | (nxt == y)
        z[live] = nxt
        live = live[~done]
    return z


def _two_term_root(a0, e0, a1, e1):
    """The root of a0 e^(e0 z) + a1 e^(e1 z), NaN where the signs agree."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(-a0 / a1) / (e1 - e0)


def _packed(a: np.ndarray, e: np.ndarray):
    """Each column's nonzero terms (a, e) moved, in order, to its first rows; and their count."""
    live = a != 0.0
    count = live.sum(axis=0)
    rank = np.cumsum(live, axis=0, dtype=float)[live].astype(int) - 1
    col = np.nonzero(live)[1]
    out = np.zeros((2, max(2, int(count.max(initial=0))), a.shape[1]))
    out[0][rank, col], out[1][rank, col] = a[live], e[live]
    return out[0], out[1], count


def _merged(a: np.ndarray, e: np.ndarray):
    """Each column's terms (a, e), equal exponents merged, in their order, then zero terms.

    Returns (a, e, count), count the number of nonzero terms per column.
    """
    a, e, count = _packed(a, e)
    merged = False
    for k in range(1, len(a)):
        for j in range(k):
            same = (e[j] == e[k]) & (a[j] != 0.0) & (a[k] != 0.0)
            if same.any():
                a[k] = np.where(same, a[j] + a[k], a[k])
                a[j][same] = 0.0
                merged = True
    return _packed(a, e) if merged else (a, e, count)


def _limit_sign(a, e, lin, up: bool) -> np.ndarray:
    """The sign of each merged column's sum (see :func:`_merged`) as z -> +-infinity.

    The dominant term decides: the fastest growing exponential, else the
    linear term, else the slowest decaying exponential or the constant.
    """
    key = np.where(a != 0.0, e, -INF if up else INF)
    k, cols = key.argmax(axis=0) if up else key.argmin(axis=0), np.arange(lin.size)
    grows = e[k, cols] > 0.0 if up else e[k, cols] < 0.0
    return np.where(grows | (lin == 0.0), np.sign(a[k, cols]), np.sign(lin) * (1.0 if up else -1.0))


def _outward(a, e, lin, start, toward: float, sign) -> np.ndarray:
    """The first z = start + toward 2^k, k >= 0, where each column's sum has sign (NaN if none)."""
    z = np.full(start.size, np.nan)
    live = np.arange(start.size)
    step = 1.0
    while live.size and step < 1e300:
        at = start[live] + toward * step
        hit = np.sign(_exp_sums(a[:, live], e[:, live], lin[live], at)[0]) == sign[live]
        z[live[hit]] = at[hit]
        live = live[~hit]
        step *= 2.0
    return z


def _by_column(col: np.ndarray, rank: np.ndarray, columns: int, *values):
    """col and values reordered by column, then by rank within the column (no sort)."""
    count = np.bincount(col, minlength=columns)
    at = (np.cumsum(count) - count)[col] + rank
    out = [np.empty_like(v) for v in (col, *values)]
    for o, v in zip(out, (col, *values)):
        o[at] = v
    return out


def runs(col: np.ndarray) -> np.ndarray:
    """The position of each entry of col, which is sorted, within its run of equal values."""
    start = np.diff(col, prepend=-1) != 0
    run = np.cumsum(start, dtype=float).astype(int) - 1
    return np.arange(col.size) - np.flatnonzero(start)[run]


def exp_sum_roots(a, e, lin, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """The roots in (lo, hi) of each column's P(z) = sum over k of a[k] e^(e[k] z), plus lin z.

    a and e are (terms, columns), lin, lo and hi one value per column;
    lo and hi may be infinite.  Returns (column, z) of every root, by
    column and then by z.  Terms of equal exponent merge first.  Two
    terms have their one root in closed form.  Otherwise Rolle's theorem
    splits the bracket: P, divided by its slowest exponential when it has
    neither a constant nor a linear term (which changes no sign), is
    monotone between consecutive roots of its derivative, a sum with one
    term fewer (or, beside lin z, with the constant lin), found the same
    way.  Each such stretch holds at most one root, bracketed by a sign
    change and found by :func:`_newton`; an infinite end takes the sign of
    P's dominant term there and moves in to where P has that sign
    (:func:`_outward`).
    """
    a, e, count = _merged(np.asarray(a, dtype=float), np.asarray(e, dtype=float))
    columns = count.size
    # as a difference of logarithms, so that no quotient of coefficients
    # overflows (exact_norms keeps its own form, _two_term_root)
    two = (count == 2) & (lin == 0.0) & (np.sign(a[0]) != np.sign(a[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        z2 = (np.log(np.abs(a[0])) - np.log(np.abs(a[1]))) / (e[1] - e[0])
    two = np.flatnonzero(two & (lo < z2) & (z2 < hi))
    col, z = two, z2[two]
    deep = np.flatnonzero(((count > 2) | (lin != 0.0)) & (lo < hi))
    if deep.size:
        a, e, lin, lo, hi = a[:, deep], e[:, deep], lin[deep], lo[deep], hi[deep]
        const = ((e == 0.0) & (a != 0.0)).any(axis=0)
        slowest = np.where(a != 0.0, e, INF).min(axis=0)
        e = np.where(a != 0.0, e - np.where((lin == 0.0) & ~const, slowest, 0.0), 0.0)
        zero = np.zeros((1, deep.size))
        t_col, t_z = exp_sum_roots(np.concatenate([a * e, lin[None]]),
                                   np.concatenate([e, zero]), zero[0], lo, hi)
        # [lo, turns..., hi] per column, then the stretches between them
        ends = np.arange(deep.size)
        at_col, at = _by_column(np.concatenate([ends, t_col, ends]),
                                np.concatenate([0 * ends, 1 + runs(t_col), 1 + np.bincount(
                                    t_col, minlength=deep.size)]), deep.size,
                                np.concatenate([lo, t_z, hi]))
        sign = np.empty_like(at)
        inf = np.isinf(at)
        for up in (False, True):
            end = inf & ((at > 0.0) == up)
            sign[end] = _limit_sign(a, e, lin, up)[at_col[end]]
        fin, c = ~inf, at_col[~inf]
        sign[fin] = np.sign(_exp_sums(a[:, c], e[:, c], lin[c], at[fin])[0])
        pair = np.flatnonzero((at_col[:-1] == at_col[1:]) & (sign[:-1] * sign[1:] < 0.0))
        c, z_a, z_b, s_a = at_col[pair], at[pair], at[pair + 1], sign[pair]
        a, e, lin = a[:, c], e[:, c], lin[c]
        low, high = z_a == -INF, z_b == INF
        z_a[low] = _outward(a[:, low], e[:, low], lin[low],
                            np.where(z_b[low] < INF, z_b[low], 0.0), -1.0, s_a[low])
        z_b[high] = _outward(a[:, high], e[:, high], lin[high], z_a[high], 1.0, -s_a[high])
        ok = ~(np.isnan(z_a) | np.isnan(z_b))
        roots = _newton(a[:, ok], e[:, ok], lin[ok], z_a[ok], z_b[ok], s_a[ok],
                        np.full(ok.sum(), np.nan))
        # a column has either a closed-form root or these, by rising z
        col, z = _by_column(np.concatenate([col, deep[c[ok]]]),
                            np.concatenate([0 * col, runs(c[ok])]), columns,
                            np.concatenate([z, roots]))
    return col, z


def _solve(blocks: list[tuple[np.ndarray, dict]], kappa: float, bar: np.ndarray):
    """(owner, d, r) of the balls at the roots of the brackets of blocks.

    A block (mask, cols) has a bracket at each index where mask holds,
    its rows taken from cols (:func:`_rows`).  Only the sums
    (:data:`_SUMS`) of every bracket are gathered, and then dropped from
    cols; each bracket splits at the turn of its sum's slope into two
    monotone ones, and the halves whose sum changes sign gather the rest
    (:data:`_ENDS`), so a pass over a whole batch holds few full rows.
    The halves whose bound on value^p can reach bar[owner] (L^p of the
    owner) are solved by :func:`_newton`.
    """
    wheres = [np.nonzero(mask) for mask, _ in blocks]
    t = np.concatenate([_rows(w, cols, _SUMS) for w, (_, cols) in zip(wheres, blocks)], axis=1)
    for _, cols in blocks:
        for name in _SUMS:
            cols.pop(name, None)
    for k in (1, 3):  # constant terms (a_k with e_k = 0) into a0, then equal exponents merged
        fold = t[k + 1] == 0.0
        t[0, fold] += t[k, fold]
        t[k, fold] = 0.0
    fold = t[2] == t[4]
    t[1, fold] += t[3, fold]
    t[3, fold] = 0.0
    z_a, z_b = np.maximum(t[6], -_Z_RANGE), np.minimum(t[7], _Z_RANGE)
    ok = np.flatnonzero((z_a < z_b) & np.isfinite(t[:6]).all(axis=0))
    coef, z_a, z_b = t[:6, ok], z_a[ok], z_b[ok]
    del t  # the sums of the brackets that take no further part

    # P' = s1 e^(e1 z) + s2 e^(e2 z) + lin has at most one sign change,
    # in closed form (lin != 0 only beside a single exponential), which
    # splits each bracket into two monotone ones
    a0, a1, e1, a2, e2, lin = coef
    s1, s2, zero = a1 * e1, a2 * e2, np.zeros_like(lin)
    turn = np.where(lin == 0.0, _two_term_root(s2, e2, s1, e1),
                    np.where(s2 == 0.0, _two_term_root(lin, zero, s1, e1),
                             _two_term_root(lin, zero, s2, e2)))
    turn = np.minimum(np.maximum(np.where(np.isnan(turn), z_b, turn), z_a), z_b)
    # A bracket end where P is zero to rounding is a root there (a free end
    # at its fixed end, say): that ball is a corner or a cap already, and
    # P takes the sign of its slope just inside
    sums = (np.stack([a0, a1, a2]), np.stack([zero, e1, e2]), lin)
    (at_a, rise_a), at_turn, (at_b, rise_b) = (_exp_sums(*sums, z) for z in (z_a, turn, z_b))
    sign_a = np.where(np.abs(at_a) <= _END_ZERO, np.sign(rise_a), np.sign(at_a))
    sign_b = np.where(np.abs(at_b) <= _END_ZERO, -np.sign(rise_b), np.sign(at_b))
    signs = [sign_a, np.where(turn == z_b, sign_b, np.where(turn == z_a, sign_a,
                                                           np.sign(at_turn[0]))), sign_b]
    left = np.flatnonzero(signs[0] * signs[1] < 0.0)
    right = np.flatnonzero(signs[1] * signs[2] < 0.0)
    half = np.concatenate([left, right])
    # the rest of the rows, block by block, for these halves only
    at, ends = ok[half], np.zeros((len(_ENDS), half.size))
    start = np.cumsum([0] + [w[0].size for w in wheres])
    for where, (_, cols), lo, hi in zip(wheres, blocks, start, start[1:]):
        mine = (lo <= at) & (at < hi)
        ends[:, mine] = _rows(tuple(w[at[mine] - lo] for w in where), cols, _ENDS)
    t = np.concatenate([coef[:, half], ends, [
        np.concatenate([z_a[left], turn[right]]), np.concatenate([turn[left], z_b[right]]),
        np.concatenate([signs[0][left], signs[1][right]])]])

    # Prune: on a bracket, u >= u_lo and v <= v_hi, so value^p is at most
    # length^(-kappa) (G(v_hi) - G(u_lo)), with the length at least the
    # gap between the ranges of the ends (2 rho on a cap)
    rows, (z_a, z_b, sign_a) = dict(zip(_SUMS[:6] + _ENDS, t)), t[-3:]
    ends = [*_bracket_ends(rows, z_a), *_bracket_ends(rows, z_b)]
    xs, gs, scales = (np.stack(e) for e in zip(*ends))
    free, other = xs[0::2], xs[1::2]
    with np.errstate(all="ignore"):
        gap = np.maximum(free.min(axis=0) - other.max(axis=0), other.min(axis=0) - free.max(axis=0))
        length = np.where(rows["rho"] > 0.0, 2.0 * rows["rho"], gap)
        bound = length ** -kappa * (gs.max(axis=0) - gs.min(axis=0) + 1e-12 * scales.sum(axis=0))
    t = t[:, ~(bound < bar[rows["own"].astype(int)])]

    rows, (z_a, z_b, sign_a) = dict(zip(_SUMS[:6] + _ENDS, t)), t[-3:]
    a0, a1, e1, a2, e2, lin = t[:6]
    zero = np.zeros_like(lin)
    # a sum a0 + a e^(e z) starts at its closed-form root
    start = np.where(a2 == 0.0, _two_term_root(a0, zero, a1, e1), _two_term_root(a0, zero, a2, e2))
    z = _newton(np.stack([a0, a1, a2]), np.stack([zero, e1, e2]), lin, z_a, z_b, sign_a, start)
    (x, _, _), (ox, _, _) = _bracket_ends(rows, z)
    r = np.where(rows["rho"] > 0.0, rows["rho"], 0.5 * np.abs(x - ox))
    return rows["own"].astype(int), 0.5 * np.abs(x + ox), r


def exact_norms(fs, params: SpaceParams, rel_tol: float,
                centered: list[tuple[float, float, float, float]]
                ) -> list[tuple[float, float, float, bool]]:
    """(value, d, r, truncated) of each n = 1 shape f of fs, finite and not zero.

    fs are functions or their ``PieceTable``.  centered holds each f's
    centered supremum and window (L, r*, top, r_max).  The candidates of
    the :mod:`morreyconst.norms` docstring are built for all of fs at
    once, on tables padded to the widest f:
    corners, caps, and the brackets of every free-end class, of which
    those whose bound cannot beat L are pruned and the rest solved
    (:func:`_solve`).  The candidate balls of all of fs then take one
    :func:`~morreyconst.integrate.group_ball_integrals_n1` call.  (d, r)
    is the best ball of the window, ties going to the smaller (d, r)
    (:func:`best_in_rows`), and truncated is True when the best over
    every radius of the mode beats its value by more than rel_tol.
    """
    p = params.p
    kappa = 1.0 - p / params.q
    small = params.mode is Mode.SMALL_MORREY
    tab = PieceTable.of(fs, p, 1)
    (count, width), lo, hi, coef, alpha = tab.lo.shape, tab.lo, tab.hi, tab.coef, tab.alpha
    own = np.arange(count)[:, None]
    lower, r_star, top, r_max = (np.array(col) for col in zip(*centered))
    amp, beta, gam = np.abs(coef) ** p, alpha * p, tab.gamma
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
    blocks = [(cut, dict(own=own[:, :, None], a0=(h_const[:, None, :] + kappa * g0[:, :, None]),
                         a1=h_exp[:, None, :], e1=gam[:, None, :],
                         a2=-x0[:, :, None] * amp[:, None, :], e2=beta[:, None, :],
                         lin=h_lin[:, None, :], lo=z_lo[:, None, :], hi=z_hi[:, None, :],
                         x0=x0[:, :, None], og=g0[:, :, None], **pc))]
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
        blocks.append((pair, dict(a0=h_const[b_] - sgn * (h_const[a_] + h_lin[a_] * shift),
                                  a1=h_exp[b_], e1=gam[b_], e2=gam[a_] * slope,
                                  a2=-sgn * h_exp[a_] * np.exp(gam[a_] * shift),
                                  lin=h_lin[b_] - sgn * h_lin[a_] * slope, **span)))
        for c in range(caps.shape[1]):
            cap = caps[:, c, None, None, None]
            blocks.append((pair, dict(a0=-2.0 * cap, a1=1.0, e1=1.0, a2=-sgn * np.exp(shift),
                                      e2=slope, rho=cap, **span)))

    # Every candidate ball, roots included, in one kernel call; then each
    # f's best in a padded one-row-per-f table, with its centered (0, r*)
    owners, ds, rs = (np.concatenate([*found, roots]) for found, roots
                      in zip((owners, ds, rs), _solve(blocks, kappa, lower**p)))
    ok = (rs > 0.0) & np.isfinite(ds) & np.isfinite(rs)
    order = np.argsort(owners[ok], kind="stable")
    owners, ds, rs = owners[ok][order], ds[ok][order], rs[ok][order]
    cuts = np.searchsorted(owners, np.arange(count + 1))
    ints = group_ball_integrals_n1(tab, p, owners, ds, rs)
    with np.errstate(over="ignore", invalid="ignore"):
        values = (2.0 * rs) ** (1.0 / params.q - 1.0 / p) * ints ** (1.0 / p)
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
