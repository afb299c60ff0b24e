"""The exact n = 1 norm against an independent oracle.

The oracle knows nothing of the stationarity equations: it samples the
intervals [u, v] densely, on a grid that holds every breakpoint and its
mirror image, and refines the best samples by a shrinking patch search,
with its own antiderivatives of |f|^p.  The argmax is re-evaluated in
40-digit mpmath.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

import morreyconst.norms as norms_mod
from morreyconst.constants import _sums, random_pair
from morreyconst.integrate import IntegrationSettings
from morreyconst.model import Mode, SpaceParams, canonicalize

INF = math.inf
REL_TOL = IntegrationSettings().rel_tol


def _antiderivative(f, p):
    """G(x) = sign(x) times the integral of |f|^p from 0 to |x|, vectorized."""
    pieces = [(pc.lo, pc.hi, abs(pc.coef) ** p, pc.alpha * p + 1.0) for pc in f.pieces]

    def G(x):
        t = np.abs(x)
        out = np.zeros_like(t)
        for lo, hi, amp, gam in pieces:
            top = np.clip(t, lo, hi)
            with np.errstate(divide="ignore", invalid="ignore"):
                if gam == 0.0:
                    out += np.where(top > lo, amp * np.log(top / lo), 0.0)
                else:
                    out += amp * (top**gam - lo**gam) / gam
        return np.sign(x) * out

    return G


def _oracle(f, sp, rho):
    """The largest value over intervals of length at most 2 rho that the search finds."""
    p, q = sp.p, sp.q
    G = _antiderivative(f, p)

    def value(u, v):
        v = np.minimum(v, u + 2.0 * rho)
        length = v - u
        with np.errstate(all="ignore"):
            out = length ** (1.0 / q - 1.0 / p) * np.maximum(G(v) - G(u), 0.0) ** (1.0 / p)
        return np.where(length > 0.0, out, -1.0), v

    faces = np.array(sorted({0.0, *f.breakpoints()}))
    top = max(faces[-1], 1.0)
    reach = 4.0 * top if rho < 10.0 else 1e4 * max(top, rho ** 0.5)
    pos = np.unique(np.concatenate([
        np.geomspace(min(faces[1:], default=1.0) * 1e-4, reach, 240), faces, [min(rho, reach)]]))
    xs = np.unique(np.concatenate([-pos, pos]))
    u, v = np.meshgrid(xs, xs, indexing="ij")
    vals, v = value(u, v)
    vals = np.where(v > np.abs(u) * (1.0 - 1e-15), vals, -1.0)
    starts = np.argsort(vals, axis=None)[::-1][:6]
    u, v = u.ravel()[starts], v.ravel()[starts]
    # each start's patch spans half its largest |end| at first, then shrinks
    h = 0.5 * np.maximum(np.abs(u), np.abs(v)) + 1e-300
    offsets = np.linspace(-1.0, 1.0, 21)
    du, dv = (o.ravel() for o in np.meshgrid(offsets, offsets, indexing="ij"))
    best = vals.ravel()[starts]
    for _ in range(60):
        cu, cv = u[:, None] + h[:, None] * du, v[:, None] + h[:, None] * dv
        pv, cv = value(cu, cv)
        k = pv.argmax(axis=1)
        rows = np.arange(u.size)
        better = pv[rows, k] >= best
        u, v = np.where(better, cu[rows, k], u), np.where(better, cv[rows, k], v)
        best = np.maximum(best, pv[rows, k])
        h = h * 0.55
    return float(best.max())


def _limit(f, sp):
    """The Morrey profile's limit as r -> infinity: a critical tail's 2^(1-kappa)/kappa."""
    kappa = 1.0 - sp.p / sp.q
    tail = f.pieces[-1]
    if tail.hi == INF and tail.alpha == -1.0 / sp.q:
        return abs(tail.coef) * (2.0 ** (1.0 - kappa) / kappa) ** (1.0 / sp.p)
    return 0.0


def _mp_value(f, sp, d, r):
    """The norm quantity of the interval [d - r, d + r] in 40-digit mpmath."""
    with mpmath.workdps(40):
        p = mpmath.mpf(sp.p)

        def G(x):
            total = mpmath.mpf(0)
            for pc in f.pieces:
                lo, hi = mpmath.mpf(pc.lo), mpmath.mpf(pc.hi) if pc.hi < INF else mpmath.inf
                t = min(abs(x), hi)
                if t <= lo:
                    continue
                amp, gam = abs(mpmath.mpf(pc.coef)) ** p, mpmath.mpf(pc.alpha) * p + 1
                total += amp * (mpmath.log(t / lo) if gam == 0 else (t**gam - lo**gam) / gam)
            return total if x >= 0 else -total

        u, v = mpmath.mpf(d) - mpmath.mpf(r), mpmath.mpf(d) + mpmath.mpf(r)
        weight = (v - u) ** (1 / mpmath.mpf(sp.q) - 1 / p)
        return float(weight * (G(v) - G(u)) ** (1 / p))


def _functions(sp, count, key):
    """Seeded random pairs with their sums, as norm shapes of finite norm."""
    rng = np.random.Generator(np.random.Philox(key=key))
    fs = []
    while len(fs) < count:
        x, y = random_pair(rng, sp)
        for f in (x, y, *(_sums(x, y) or ())):
            s = norms_mod._shape(f)[0]
            if not s.is_zero and not norms_mod.norm_is_infinite(s, sp) and s not in fs:
                fs.append(s)
    return fs[:count]


# n = 1, p = 1, q = 2: a constant piece (beta = 0) that |f| jumps up to,
# and a beta = -1 piece, next to critical ones
MIXED = canonicalize([(0.0, 0.3, 0.8, -0.2), (0.3, 0.7, 2.0, 0.0), (0.9, 2.5, 3.0, -1.0),
                      (2.5, INF, 1.0, -0.5)])
THIN_ANNULUS = canonicalize([(0.018431, 0.019073, 1.0, -0.5)])
# Functions whose supremum each free-end class alone attains: a steep
# annulus, whose best ball starts on its inner face and ends where
# g(v) (v - u) = kappa Phi; a narrow bump, whose best small-mode ball has
# both ends free at one level of |f|^p; a wide bump, whose best
# small-mode ball has r -> 1 with both ends at one level
STEEP = canonicalize([(1.0, 10.0, 1.0, -6.0)])
BUMP = canonicalize([(1.0, 2.0, 1.0, 2.0), (2.0, 3.0, 256.0, -6.0)])
WIDE_BUMP = canonicalize([(1.0, 3.0, 1.0, 2.0), (3.0, 6.0, 81.0, -2.0)])
EDGE_CLIMBER = canonicalize([
    (0.0, 0.001618142811732442, 1.0, -0.5),
    (0.001618142811732442, 0.2916292316364876, 0.0817621428993378, -0.5),
    (0.2916292316364876, INF, 4.794727917282848, -0.5),
])


def _cases():
    cases = []
    for mode in Mode:
        for p, q, count in ((1.0, 2.0, 6), (2.0, 3.0, 4)):
            sp = SpaceParams(1, p, q, mode)
            cases += [(sp, f) for f in _functions(sp, count, key=31)]
        for sp in (SpaceParams(1, 1.0, 2.0, mode), SpaceParams(1, 2.0, 3.0, mode)):
            cases += [(sp, MIXED), (sp, STEEP), (sp, BUMP), (sp, WIDE_BUMP)]
        sp = SpaceParams(1, 1.0, 2.0, mode)
        cases += [(sp, THIN_ANNULUS), (sp, EDGE_CLIMBER)]
    return cases


@pytest.mark.parametrize("sp, f", _cases())
def test_exact_path_meets_the_oracle(monkeypatch, sp, f):
    # every function takes the exact path, the certificate bypassed
    monkeypatch.setattr(norms_mod, "_certified", lambda fs, *args: [None] * len(fs))
    res = norms_mod._search_group([f], sp, IntegrationSettings())[0]
    lower = norms_mod._centered_suprema([f], sp, REL_TOL)[0].value
    u_all = norms_mod._bathtub_bounds([f], sp)[1][0]
    r_max = norms_mod.search_window(f, sp.mode)[1]
    assert res.tol_ok and res.argmax.r <= r_max
    assert res.value >= lower
    assert res.value <= u_all * (1.0 + 1e-13), (res, u_all)
    assert res.value >= _oracle(f, sp, r_max) * (1.0 - REL_TOL), res
    assert _mp_value(f, sp, res.argmax.d, res.argmax.r) == pytest.approx(res.value, rel=1e-13)
    if sp.mode is Mode.SMALL_MORREY:
        full = _oracle(f, sp, 1.0)
    else:
        full = max(_oracle(f, sp, 1e12), _limit(f, sp))
    assert res.truncated == (full > res.value * (1.0 + REL_TOL)), (res, full)


def test_thin_annulus_is_its_own_ball():
    # [DERIVED] the ball [a, b] gives 2 (b^(1/2) - a^(1/2)) / (b - a)^(1/2)
    sp = SpaceParams(1, 1.0, 2.0, Mode.SMALL_MORREY)
    res = norms_mod.norm(THIN_ANNULUS, sp)
    a, b = THIN_ANNULUS.breakpoints()
    assert res.argmax.d == pytest.approx(0.5 * (a + b), rel=1e-15)
    assert res.argmax.r == pytest.approx(0.5 * (b - a), rel=1e-12)
    assert res.value == pytest.approx(2.0 * (b**0.5 - a**0.5) / (b - a) ** 0.5, rel=1e-13)
