"""Integrals of |f|^p over balls, for piecewise radial power f.

* Centered balls, and every ball when n = 1 (where the cap fraction is
  piecewise constant): exact closed form from power-function
  antiderivatives.
* Off-center balls when n >= 2: the spheres of radius t <= r - d lie
  inside the ball and give a closed-form core; the shell
  |d - r| <= t <= d + r contributes through the spherical cap fraction.
  The shell integral is taken in the cap angle theta, with
  t = max(d, r) - min(d, r) cos(theta), which smooths the square-root
  behaviour of the cap fraction at both shell ends.  Gauss-Kronrod
  quadrature, vectorized over many balls, gives the value and an error
  estimate judged against the whole ball integral (core plus shell);
  balls that miss it go on to adaptive subdivision.
* Monte Carlo: an independent stochastic route used to cross-check the
  quadrature, never as the primary evaluator.

Every ball goes through the vectorized :func:`ball_integrals`;
:func:`integrate_abs_pow_ball` is its one-ball form.

Divergent integrals are detected analytically (a power t^alpha with
alpha*p + n <= 0 supported down to radius 0, inside the ball) and
reported as the value math.inf rather than by raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from morreyconst.geometry import cap_fraction_radii, unit_ball_volume, unit_sphere_area
from morreyconst.model import Ball, PiecewiseRadialFunction

__all__ = [
    "IntegrationSettings",
    "BallIntegral",
    "centered_integrals",
    "ball_integrals",
    "integrate_abs_pow_ball",
    "mc_integrate",
]

INF = math.inf


@dataclass(frozen=True)
class IntegrationSettings:
    """Quadrature and sampling knobs shared by the norm and constant engines."""

    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


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


def _singular_at_origin(f: PiecewiseRadialFunction, p: float, n: int) -> bool:
    """True iff some power of f with alpha*p + n <= 0 reaches radius 0."""
    return any(pc.lo == 0.0 and pc.alpha * p + n <= 0.0 for pc in f.pieces)


def centered_integrals(
    f: PiecewiseRadialFunction, p: float, n: int, rs: np.ndarray
) -> np.ndarray:
    """Exact integrals of |f|^p over the centered balls of radii rs (any shape)."""
    rs = np.asarray(rs, dtype=float)
    if not (rs > 0.0).all():
        raise ValueError(f"radii must be > 0, got {rs}")
    area = unit_sphere_area(n)
    out = np.zeros(rs.shape, dtype=float)
    for pc in f.pieces:
        gamma = pc.alpha * p + n
        if pc.lo == 0.0 and gamma <= 0.0:
            out[...] = INF
            return out
        top = np.clip(rs, pc.lo, pc.hi)
        if gamma == 0.0:
            seg = np.log(top / pc.lo)
        else:
            lo_pow = 0.0 if pc.lo == 0.0 else pc.lo**gamma
            seg = (top**gamma - lo_pow) / gamma
        out += area * abs(pc.coef) ** p * seg
    return out


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature, vectorized over panels.
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


def _gk15_panels(func, lo: np.ndarray, hi: np.ndarray):
    """Apply the 15-point rule to each panel [lo_i, hi_i].

    Returns (values, errors) per panel.  The error estimate follows the
    usual practice of sharpening |K15 - G7| by the panel's total
    variation measure, so it stays meaningful near endpoint
    singularities.
    """
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = center[:, None] + half[:, None] * _NODES[None, :]
    fv = func(pts.ravel()).reshape(pts.shape)
    resk = fv @ _KRONROD_W
    resg = fv @ _GAUSS_W
    values = resk * half
    resasc = (np.abs(fv - 0.5 * resk[:, None]) @ _KRONROD_W) * half
    raw = np.abs(resk - resg) * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    errors = np.where((resasc > 0.0) & (raw > 0.0), scaled, raw)
    return values, errors


def _adaptive_quadrature(
    func, cuts: list[float], settings: IntegrationSettings, offset: float = 0.0
):
    """Globally adaptive GK15 over the union of [cuts[i], cuts[i+1]].

    Returns (value, tol_ok).  Splits the worst panels until the summed
    error estimate is below rel_tol * |integral + offset| or the panel
    budget is exhausted.  ``offset`` is a known part of the quantity the
    integral belongs to (the closed-form core of a ball), so a small
    piece of a large total is judged against the total.
    """
    lo = np.array(cuts[:-1], dtype=float)
    hi = np.array(cuts[1:], dtype=float)
    values, errors = _gk15_panels(func, lo, hi)
    while True:
        total = float(values.sum())
        tol = settings.rel_tol * max(abs(total + offset), 1e-300)
        if float(errors.sum()) <= tol:
            return total, True
        budget = settings.max_subdivisions - len(lo)
        if budget <= 0:
            return total, False
        # split every panel whose error exceeds its fair share of the target
        bad = np.flatnonzero(errors > tol / max(len(lo), 1))
        if bad.size == 0:
            bad = np.array([int(np.argmax(errors))])
        if bad.size > budget:
            bad = bad[np.argsort(errors[bad])[::-1][:budget]]
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], mid])
        new_hi = np.concatenate([mid, hi[bad]])
        new_vals, new_errs = _gk15_panels(func, new_lo, new_hi)
        keep = np.ones(len(lo), dtype=bool)
        keep[bad] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        values = np.concatenate([values[keep], new_vals])
        errors = np.concatenate([errors[keep], new_errs])


# ---------------------------------------------------------------------------
# Off-center balls: closed-form core plus a shell integral in the cap angle.


def _shell_integrand(f, p, n, area, theta, d, r):
    """Shell integrand of area * |f|^p t^(n-1) cap(t) in the cap angle theta.

    With c = max(d, r) and h = min(d, r), the sphere radius is
    t = c - h cos(theta) = |d - r| + 2 h sin^2(theta / 2) (the second
    form keeps t's digits near the inner shell end), and dt = h sin(theta)
    d(theta).  d and r broadcast against theta.
    """
    h = np.minimum(d, r)
    s = np.sin(0.5 * theta)
    t = np.abs(d - r) + 2.0 * h * s * s
    vals = np.abs(f.evaluate_radii(t)) ** p
    return area * vals * t ** (n - 1) * cap_fraction_radii(n, t, d, r) * h * np.sin(theta)


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


# Balls per vectorized GK15 pass: bounds the pass's temporary arrays.
_BALLS_PER_PASS = 256


def _shells(f, p, n, d, r, inner, settings):
    """Shell integrals of off-center balls (1-D d, r), with tolerance flags.

    One GK15 pass covers the initial theta panels of every ball; a ball
    whose summed error estimate misses rel_tol * |inner + shell| goes on
    to adaptive subdivision.
    """
    area = unit_sphere_area(n)
    cuts = _shell_cuts(f, d, r)
    owner, slot = np.nonzero(~np.isnan(cuts[:, 1:]))
    at = np.repeat(owner, len(_NODES))
    panel_vals, panel_errs = _gk15_panels(
        lambda theta: _shell_integrand(f, p, n, area, theta, d[at], r[at]),
        cuts[owner, slot],
        cuts[owner, slot + 1],
    )
    shell = np.bincount(owner, panel_vals, minlength=d.size)
    err = np.bincount(owner, panel_errs, minlength=d.size)
    ok = err <= settings.rel_tol * np.maximum(np.abs(inner + shell), 1e-300)
    for k in np.flatnonzero(~ok):
        dk, rk = float(d[k]), float(r[k])
        row = cuts[k]
        shell[k], ok[k] = _adaptive_quadrature(
            lambda theta: _shell_integrand(f, p, n, area, theta, dk, rk),
            row[~np.isnan(row)].tolist(),
            settings,
            offset=float(inner[k]),
        )
    return shell, ok


def _ball_integrals_n1(f, p, d, r):
    """Exact n = 1 ball integrals: the cap fraction is 1/2 on the open shell."""
    out = np.zeros(d.shape, dtype=float)
    t_lo = np.abs(d - r)
    t_hi = d + r
    inner_top = r - d  # spheres below this radius lie fully inside

    for pc in f.pieces:
        gamma = pc.alpha * p + 1.0
        amp = 2.0 * abs(pc.coef) ** p

        def seg(lo_arr, hi_arr):
            lo_c = np.maximum(lo_arr, pc.lo)
            hi_c = np.minimum(hi_arr, pc.hi)
            mask = hi_c > lo_c
            lo_c = np.where(mask, lo_c, 1.0)
            hi_c = np.where(mask, hi_c, 1.0)
            if gamma == 0.0:
                val = np.log(hi_c / lo_c)
            else:
                val = (hi_c**gamma - lo_c**gamma) / gamma
            return np.where(mask, val, 0.0)

        if pc.lo == 0.0 and gamma <= 0.0:
            # divergent at the origin: infinite wherever the ball reaches
            # it, plain shell contribution wherever it does not
            shell = amp * 0.5 * seg(np.where(t_lo > 0.0, t_lo, 1.0), t_hi)
            out = np.where(d <= r, INF, out + shell)
        else:
            out += amp * (seg(np.zeros_like(r), inner_top) + 0.5 * seg(t_lo, t_hi))
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
    :class:`BallIntegral`.  For n = 1 every value is closed form.  For
    n >= 2 the closed-form cores are vectorized, and the off-center
    shells go through :func:`_shells` in blocks of ``_BALLS_PER_PASS``.
    """
    d, r = np.broadcast_arrays(np.asarray(d, dtype=float), np.asarray(r, dtype=float))
    if (d < 0.0).any() or (r <= 0.0).any():
        raise ValueError("need center distances >= 0 and radii > 0")
    tol_ok = np.ones(d.shape, dtype=bool)
    if f.is_zero:
        return np.zeros(d.shape), tol_ok
    if n == 1:
        return _ball_integrals_n1(f, p, d, r), tol_ok

    diverges = (d <= r) & _singular_at_origin(f, p, n)
    values = np.where(diverges, INF, 0.0)
    core = (d < r) & ~diverges
    if core.any():
        values[core] = centered_integrals(f, p, n, (r - d)[core])

    idx = np.flatnonzero((d > 0.0) & ~diverges)
    for start in range(0, idx.size, _BALLS_PER_PASS):
        k = idx[start:start + _BALLS_PER_PASS]
        inner = values.flat[k]
        shell, ok = _shells(f, p, n, d.flat[k], r.flat[k], inner, settings)
        values.flat[k] = inner + shell
        tol_ok.flat[k] = ok
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
