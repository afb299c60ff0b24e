"""Ball integrals of |f|^p: closed forms, quadrature, divergence, Monte Carlo."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

import morreyconst.integrate as integrate_mod
from morreyconst.geometry import cap_fraction_radii, unit_ball_volume, unit_sphere_area
from morreyconst.integrate import (
    BallIntegral,
    IntegrationSettings,
    _adaptive_quadrature,
    ball_integrals,
    centered_integrals,
    group_ball_integrals_n1,
    integrate_abs_pow_ball,
    mc_integrate,
)
from morreyconst.model import Ball, canonicalize

INF = math.inf

POWER_HALF = canonicalize([(0.0, INF, 1.0, -0.5)])  # |x|^{-1/2}
POWER_ONE = canonicalize([(0.0, INF, 1.0, -1.0)])  # |x|^{-1}


class TestSettings:
    def test_defaults(self):
        assert IntegrationSettings().rel_tol == 1e-10
        assert integrate_mod._MAX_PANELS == 2000

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            IntegrationSettings(rel_tol=0.0)


class TestDivergence:
    def test_origin_inside_negative_power(self):
        f = canonicalize([(0.0, 1.0, 1.0, -2.0)])
        # alpha*p + n = -2 + 1 <= 0 and the ball reaches the origin
        assert integrate_abs_pow_ball(f, 1.0, 1, Ball(0.5, 1.0)).value == INF

    def test_origin_on_boundary_still_diverges(self):
        f = canonicalize([(0.0, 1.0, 1.0, -2.0)])
        assert integrate_abs_pow_ball(f, 1.0, 1, Ball(1.0, 1.0)).value == INF

    def test_origin_outside_converges(self):
        f = canonicalize([(0.0, 1.0, 1.0, -2.0)])
        assert math.isfinite(integrate_abs_pow_ball(f, 1.0, 1, Ball(2.0, 0.5)).value)

    def test_integrable_power_converges(self):
        # alpha*p + n = -1/2 + 1 > 0
        assert math.isfinite(integrate_abs_pow_ball(POWER_HALF, 1.0, 1, Ball(0.0, 1.0)).value)

    def test_support_away_from_origin_converges(self):
        f = canonicalize([(0.5, 1.0, 1.0, -5.0)])
        assert math.isfinite(integrate_abs_pow_ball(f, 1.0, 1, Ball(0.0, 2.0)).value)

    def test_ball_integral_reports_inf(self):
        f = canonicalize([(0.0, 1.0, 1.0, -2.0)])
        res = integrate_abs_pow_ball(f, 1.0, 1, Ball(0.5, 1.0))
        assert res.value == INF and res.tol_ok


class TestCenteredClosedForm:
    def test_power_half_n1(self):
        # [DERIVED] int over [-1,1] of |x|^{-1/2} = 2 * 2 = 4, frozen
        assert centered_integrals(POWER_HALF, 1.0, 1, 1.0) == pytest.approx(4.0)

    def test_power_half_n1_p2_log(self):
        # p=2 makes the exponent -1: gamma = 0, divergent at the origin
        assert centered_integrals(POWER_HALF, 2.0, 1, 1.0) == INF

    def test_constant_gives_volume(self):
        f = canonicalize([(0.0, INF, 1.0, 0.0)])
        for n in (1, 2, 3):
            got = centered_integrals(f, 1.0, n, 2.0)
            assert got == pytest.approx(unit_ball_volume(n) * 2.0**n, rel=1e-13)

    def test_truncated_support(self):
        # [DERIVED] n=2, f = chi_{1<=|x|<2}: area pi(4-1) = 3 pi, frozen
        f = canonicalize([(1.0, 2.0, 1.0, 0.0)])
        assert centered_integrals(f, 1.0, 2, 5.0) == pytest.approx(
            3.0 * math.pi, rel=1e-13
        )

    def test_vectorized_matches_scalar(self):
        # [DERIVED] 2 pi (2^1.5 min(r, 1)^1.25 / 1.25 + 2 max(sqrt(r) - 1, 0)),
        # evaluated per radius in 30-digit mpmath
        f = canonicalize([(0.0, 1.0, 2.0, -0.5), (1.0, INF, 1.0, -1.0)])
        rs = np.array([0.25, 0.5, 1.0, 2.0, 10.0])
        vec = centered_integrals(f, 1.5, 2, rs)
        with mpmath.workdps(30):
            for r, v in zip(rs, vec):
                t = mpmath.mpf(float(r))
                inner = mpmath.mpf(2) ** mpmath.mpf("1.5") * min(t, 1) ** mpmath.mpf("1.25")
                outer = 2 * max(mpmath.sqrt(t) - 1, 0)
                ref = 2 * mpmath.pi * (inner / mpmath.mpf("1.25") + outer)
                assert v == pytest.approx(float(ref), rel=1e-13)

    def test_zero_at_first_breakpoint(self):
        # [DERIVED] a ball of radius lo misses a function supported past lo
        # (Python's scalar power against numpy's array power left 1088 of
        # these 20,000 nonzero, 506 of them negative)
        rng = np.random.default_rng(7)
        for _ in range(20000):
            n, p = int(rng.integers(1, 4)), float(rng.choice([1.0, 1.5, 2.0]))
            lo = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
            hi = lo * float(np.exp(rng.uniform(0.01, 3.0)))
            coef, alpha = float(rng.uniform(0.2, 3.0)), float(rng.uniform(-3.0 * n, 2.0))
            f = canonicalize([(lo, hi, coef, alpha)])
            assert centered_integrals(f, p, n, np.array([lo, hi]))[0] == 0.0, (f, p, n)

    def test_vectorized_divergent(self):
        f = canonicalize([(0.0, 1.0, 1.0, -3.0)])
        assert np.isinf(centered_integrals(f, 1.0, 2, np.array([0.5, 1.0]))).all()


def _quad(func, cuts, settings, offset=0.0):
    """One row through the row-vectorized driver: (value, tol_ok)."""
    values, ok = _adaptive_quadrature(
        lambda t, rows: func(t), np.array([cuts], dtype=float), np.array([offset]), settings
    )
    return float(values[0]), bool(ok[0])


class TestAdaptiveQuadrature:
    def test_polynomial_exact_in_one_panel(self):
        # GK15 integrates degree-22 polynomials exactly
        value, ok = _quad(lambda t: 23.0 * t**22, [0.0, 1.0], IntegrationSettings())
        assert ok and value == pytest.approx(1.0, rel=1e-14)

    def test_matches_scipy_on_oscillatory(self):
        f = lambda t: np.cos(10.0 * t) * np.exp(-t)
        value, ok = _quad(f, [0.0, 5.0], IntegrationSettings())
        ref, _ = scipy.integrate.quad(lambda t: math.cos(10.0 * t) * math.exp(-t), 0, 5)
        assert ok and value == pytest.approx(ref, rel=1e-10)

    def test_endpoint_singularity(self):
        # t^{-1/2} on (0, 1]: integrable endpoint singularity
        value, ok = _quad(lambda t: 1.0 / np.sqrt(t), [1e-12, 1.0], IntegrationSettings())
        assert value == pytest.approx(2.0, rel=1e-5)

    def test_offset_sets_the_target(self, monkeypatch):
        # one panel, no subdivision: sqrt(t) on [0, 1] misses the target
        # on its own but meets it as a small part of a large total
        monkeypatch.setattr(integrate_mod, "_MAX_PANELS", 1)
        _, alone = _quad(np.sqrt, [0.0, 1.0], IntegrationSettings())
        value, part = _quad(np.sqrt, [0.0, 1.0], IntegrationSettings(), offset=1e9)
        assert not alone and part
        assert value == pytest.approx(2.0 / 3.0, rel=1e-3)

    def test_budget_exhaustion_flags(self, monkeypatch):
        monkeypatch.setattr(integrate_mod, "_MAX_PANELS", 2)
        tight = IntegrationSettings(rel_tol=1e-14)
        _, ok = _quad(lambda t: 1.0 / np.sqrt(np.abs(t - 0.3) + 1e-9), [0.0, 1.0], tight)
        assert not ok

    def test_rows_are_independent(self, monkeypatch):
        # different integrands, cuts, offsets and panel counts in one call;
        # with a 40-panel budget the kink at 0.3 runs out of budget while
        # the smooth rows converge
        integrands = [
            lambda t: np.cos(10.0 * t) * np.exp(-t),
            lambda t: 1.0 / np.sqrt(np.abs(t - 0.3) + 1e-9),
            np.sqrt,
            lambda t: 1.0 / np.sqrt(t),
            lambda t: 23.0 * t**22,
        ]
        cuts = np.array([
            [0.0, 2.5, 5.0, np.nan],
            [0.0, 1.0, np.nan, np.nan],
            [0.0, 0.25, 0.5, 1.0],
            [1e-12, 1.0, np.nan, np.nan],
            [0.0, 1.0, np.nan, np.nan],
        ])
        offset = np.array([0.0, 0.0, 1e3, 0.0, -0.5])
        monkeypatch.setattr(integrate_mod, "_MAX_PANELS", 40)
        settings = IntegrationSettings(rel_tol=1e-12)

        def func(t, rows):
            out = np.empty_like(t)
            for i, g in enumerate(integrands):
                out[rows == i] = g(t[rows == i])
            return out

        values, ok = _adaptive_quadrature(func, cuts, offset, settings)
        assert not ok[1] and ok[[0, 2, 4]].all()
        for i, g in enumerate(integrands):
            row = cuts[i][~np.isnan(cuts[i])].tolist()
            alone = _quad(g, row, settings, offset=offset[i])
            assert (float(values[i]), bool(ok[i])) == alone, i


class TestBallIntegralN1:
    def test_offcenter_shell_exact(self):
        # [DERIVED] f=|x|^{-1/2}, n=1, ball center 2 radius 1: the shell
        # [1,3] contributes with cap fraction 1/2, giving
        # int_1^3 t^{-1/2} dt = 2(sqrt(3)-1), frozen 1.4641016151377544
        res = integrate_abs_pow_ball(POWER_HALF, 1.0, 1, Ball(2.0, 1.0))
        assert res.tol_ok
        assert res.value == pytest.approx(1.4641016151377544, rel=1e-14)

    def test_origin_inside_combines_core_and_shell(self):
        # d < r: closed core [0, r-d] plus half-weighted shell [r-d, r+d]
        res = integrate_abs_pow_ball(POWER_HALF, 1.0, 1, Ball(0.5, 1.0))
        expected = 2.0 * 2.0 * math.sqrt(0.5) + 0.5 * 2.0 * (
            2.0 * math.sqrt(1.5) - 2.0 * math.sqrt(0.5)
        )
        assert res.value == pytest.approx(expected, rel=1e-14)

    def test_interval_endpoints(self):
        # constant 1 on ball(d=5, r=2) in R^1 is just the interval length
        f = canonicalize([(0.0, INF, 1.0, 0.0)])
        res = integrate_abs_pow_ball(f, 1.0, 1, Ball(5.0, 2.0))
        assert res.value == pytest.approx(4.0, rel=1e-14)

    def test_half_power_correctly_rounded(self):
        # [DERIVED] |x|^{-1/2}, p = 1 (gamma = 1/2): the centered ball is
        # 4 sqrt(r) and the tangent ball 2 sqrt(2r), exact but for the one
        # rounding of sqrt, so the kernel must take its powers as sqrt
        r = np.geomspace(1e-6, 1e6, 401)
        centered, _ = ball_integrals(POWER_HALF, 1.0, 1, 0.0, r)
        tangent, _ = ball_integrals(POWER_HALF, 1.0, 1, r, r)
        assert (centered == 4.0 * np.sqrt(r)).all()
        assert (tangent == 2.0 * np.sqrt(2.0 * r)).all()


class TestGroupBallIntegralsN1:
    """One kernel call for the balls of many functions equals each function's own call."""

    @staticmethod
    def _functions(p):
        """Pieces whose gamma = alpha p + 1 is 0.5, 2 (numpy special-cases both as a
        number power), 0 (the log form), 1/3, mixed, or -0.5 at the origin
        (divergent); with support gaps, supports above 0 and the zero function.
        Every knot is dyadic, so a ball spanning two faces has its shell ends
        exactly on them."""
        def alpha(gamma):
            return (gamma - 1.0) / p

        return [
            canonicalize([(0.0, 0.25, 1.3, alpha(0.5)), (0.25, 2.0, -0.7, alpha(0.5)),
                          (2.0, INF, 0.4, alpha(0.5))]),
            canonicalize([(0.125, 0.5, 2.0, alpha(2.0)), (0.75, 1.5, 0.3, alpha(2.0))]),
            canonicalize([(0.25, 0.75, 1.0, alpha(0.0)), (0.75, 3.0, 0.5, alpha(0.0))]),
            canonicalize([(0.0, 1.0, 0.8, alpha(1.0 / 3.0)), (1.5, 4.0, 1.1, alpha(1.0 / 3.0))]),
            canonicalize([(0.0, 0.5, 1.0, alpha(0.5)), (0.5, 2.0, -1.5, alpha(0.0)),
                          (2.0, 4.0, 0.8, alpha(2.0)), (5.0, INF, 0.3, alpha(1.0 / 3.0))]),
            canonicalize([(0.0, 0.375, 1.0, alpha(-0.5)), (0.375, 1.0, 2.0, alpha(0.5))]),
            canonicalize([(0.0, 1.0, 1.0, alpha(0.0))]),
            canonicalize([]),
        ]

    @staticmethod
    def _balls(f, rng):
        """Random balls, d < r cores, d = r, and every ball spanning two faces."""
        faces = np.array(sorted({0.0, *f.breakpoints()}))
        u, v = np.broadcast_arrays(np.concatenate([faces, -faces[1:]])[:, None], faces)
        face = (-v <= u) & (u < v)
        d = np.concatenate([rng.uniform(0.0, 6.0, 60), rng.uniform(0.0, 1.0, 20),
                            [0.3, 1.0, 2.0], 0.5 * (u + v)[face]])
        r = np.concatenate([np.exp(rng.uniform(np.log(1e-3), np.log(10.0), 60)),
                            rng.uniform(1.0, 3.0, 20), [0.3, 1.0, 2.0], 0.5 * (v - u)[face]])
        return d, r

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_batch_equals_alone(self, p):
        rng = np.random.Generator(np.random.Philox(key=23))
        fs = self._functions(p)
        balls = [self._balls(f, rng) for f in fs]
        alone = [ball_integrals(f, p, 1, d, r)[0] for f, (d, r) in zip(fs, balls)]
        # the divergent pieces give INF balls, every other ball is finite
        assert np.isinf(alone[5]).any() and np.isinf(alone[6]).any()
        assert all(np.isfinite(a).all() for a in alone[:5] + alone[7:])
        for _ in range(4):  # batch order and ball order permuted
            order = rng.permutation(len(fs))
            which = np.concatenate([np.full(balls[k][0].size, s) for s, k in enumerate(order)])
            d, r, want = (np.concatenate([x[k] for k in order])
                          for x in ([b[0] for b in balls], [b[1] for b in balls], alone))
            mix = rng.permutation(which.size)
            got = group_ball_integrals_n1(tuple(fs[k] for k in order), p, which[mix],
                                          d[mix], r[mix])
            assert got.tobytes() == want[mix].tobytes()

    def test_one_exponent_batch_equals_alone(self):
        # a batch whose functions all share gamma = 0.5 takes the number power throughout
        rng = np.random.Generator(np.random.Philox(key=29))
        fs = [self._functions(1.0)[0], POWER_HALF,
              canonicalize([(0.5, 1.5, 3.0, -0.5), (2.0, 4.0, -0.2, -0.5)])]
        balls = [self._balls(f, rng) for f in fs]
        which = np.concatenate([np.full(b[0].size, s) for s, b in enumerate(balls)])
        got = group_ball_integrals_n1(tuple(fs), 1.0, which,
                                      *(np.concatenate(x) for x in zip(*balls)))
        want = np.concatenate([ball_integrals(f, 1.0, 1, d, r)[0] for f, (d, r) in zip(fs, balls)])
        assert got.tobytes() == want.tobytes()


def _mp_ball_n1(f, p, d, r):
    """30-digit n = 1 ball integral of |f|^p from per-piece antiderivatives."""
    with mpmath.workdps(30):
        p, d, r = mpmath.mpf(p), mpmath.mpf(float(d)), mpmath.mpf(float(r))

        def between(u, v):  # integral of |f|^p over radii [u, v]
            total = mpmath.mpf(0)
            for pc in f.pieces:
                hi = mpmath.inf if pc.hi == INF else mpmath.mpf(pc.hi)
                lo, top = max(u, mpmath.mpf(pc.lo)), min(v, hi)
                if top > lo:
                    gamma = mpmath.mpf(pc.alpha) * p + 1
                    amp = abs(mpmath.mpf(pc.coef)) ** p
                    if gamma == 0:
                        total += amp * mpmath.log(top / lo)
                    else:
                        total += amp * (top**gamma - lo**gamma) / gamma
            return total

        t_lo = abs(d - r)
        value = between(t_lo, d + r) + (2 * between(0, t_lo) if d < r else 0)
        return float(value)


class TestBallIntegralN1Reference:
    """The n = 1 table kernel against 30-digit mpmath, piece layouts and ball kinds."""

    FUNCS = {
        # support gaps at [0, 0.1), [0.5, 1) and [2, inf)
        "gaps": (canonicalize([(0.1, 0.5, 1.3, -0.5), (1.0, 2.0, -0.7, -0.5)]), 1.0),
        "mixed": (
            canonicalize([(0.0, 0.5, 1.0, 0.4), (0.5, 2.0, -1.5, -0.3), (2.0, 4.0, 0.8, -2.0)]),
            1.0,
        ),
        # alpha = -1/p on [1, 3): gamma = 0, the log antiderivative
        "log_piece": (
            canonicalize([(0.0, 1.0, 1.0, 0.5), (1.0, 3.0, 2.0, -0.5), (3.0, 5.0, 0.3, 0.25)]),
            2.0,
        ),
        "tail": (canonicalize([(0.0, 2.0, 1.5, -0.5), (2.0, INF, 0.5, -2.0)]), 1.0),
        # one shared gamma = -1 off the origin: radius 0 has no finite power
        "shared_negative": (canonicalize([(0.5, 2.0, 1.0, -2.0), (3.0, 4.0, 2.0, -2.0)]), 1.0),
        # a large early integral (about 1e6) ahead of small later pieces:
        # a shell beyond it must not be a difference of two prefix sums
        "steep": (
            canonicalize([(0.01, 4.0, 1.8, -2.0), (4.0, 5.0, 1.0, -0.3), (5.0, INF, 0.1, -0.6)]),
            2.0,
        ),
    }
    # (d, r): centered, covering the origin, tangent, and shells across
    # 0, 1 and 2 or more of the knots 0.01, 0.1, 0.5, 1, 2, 3, 4, 5
    BALLS = [
        (0.0, 0.3), (0.0, 2.5), (0.0, 7.0),
        (0.2, 0.7), (1.0, 3.0), (0.05, 0.06),
        (0.6, 0.6), (1.5, 1.5), (3.0, 3.0),
        (0.3, 0.1), (1.5, 0.2), (2.5, 0.3), (6.0, 0.5),
        (0.5, 0.2), (1.0, 0.3), (2.2, 0.5),
        (1.5, 1.2), (2.5, 2.0), (4.0, 3.5), (8.0, 6.0), (8.5, 4.0),
    ]
    # tiny far balls, r / d = 1e-5, inside intervals and across knots
    TINY = [(d, 1e-5 * d) for d in (0.3, 0.5, 0.75, 1.0, 1.7, 2.0, 3.0, 4.5, 12.0)]

    @pytest.mark.parametrize("name", sorted(FUNCS))
    def test_matches_mpmath(self, name):
        f, p = self.FUNCS[name]
        balls = self.BALLS + self.TINY
        d = np.array([b[0] for b in balls])
        r = np.array([b[1] for b in balls])
        values, tol_ok = ball_integrals(f, p, 1, d, r)
        assert tol_ok.all()
        for k, (dk, rk) in enumerate(balls):
            ref = _mp_ball_n1(f, p, dk, rk)
            rel = 1e-12 if rk >= 1e-3 * dk else 1e-10
            assert values[k] == pytest.approx(ref, rel=rel, abs=1e-300), (dk, rk)
            one = integrate_abs_pow_ball(f, p, 1, Ball(dk, rk)).value
            assert one == pytest.approx(ref, rel=rel, abs=1e-300), (dk, rk)

    def test_divergent_first_piece(self):
        # |x|^{-1} on [0, 1) diverges at the origin; balls that keep off it
        # are finite, and their shells span the knots 1 and 2
        f = canonicalize([(0.0, 1.0, 1.0, -1.0), (1.0, 2.0, 0.5, -0.5), (2.0, 4.0, 2.0, -0.25)])
        balls = [(2.0, 1.5), (2.5, 1.0), (3.0, 2.5), (0.9, 0.2), (1.5, 0.9), (2.0, 2e-5)]
        d = np.array([b[0] for b in balls] + [1.0, 0.5])
        r = np.array([b[1] for b in balls] + [1.0, 2.0])
        values, _ = ball_integrals(f, 1.0, 1, d, r)
        for k, (dk, rk) in enumerate(balls):
            rel = 1e-12 if rk >= 1e-3 * dk else 1e-10
            assert values[k] == pytest.approx(_mp_ball_n1(f, 1.0, dk, rk), rel=rel), (dk, rk)
        assert np.isinf(values[-2:]).all()  # tangent, and covering the origin


class TestBallIntegralHigherDim:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_constant_recovers_ball_volume(self, n):
        f = canonicalize([(0.0, INF, 1.0, 0.0)])
        res = integrate_abs_pow_ball(f, 1.0, n, Ball(0.7, 1.3))
        assert res.tol_ok
        assert res.value == pytest.approx(unit_ball_volume(n) * 1.3**n, rel=1e-9)

    def test_matches_scipy_dblquad_n2(self):
        # independent 2-D route: integrate |x|^{-1/2} over a disc directly
        d, r = 1.0, 0.8

        def polar(t, phi):
            return t ** (-0.5) * t  # |x|^{-1/2} times the Jacobian

        def t_range(phi):
            # chord of the disc (center (d,0), radius r) along direction phi
            disc = r * r - d * d * math.sin(phi) * math.sin(phi)
            root = math.sqrt(max(disc, 0.0))
            return d * math.cos(phi) - root, d * math.cos(phi) + root

        half_angle = math.asin(r / d) if r < d else math.pi
        ref, _ = scipy.integrate.dblquad(
            polar,
            -half_angle,
            half_angle,
            lambda phi: t_range(phi)[0],
            lambda phi: t_range(phi)[1],
            epsabs=1e-12,
            epsrel=1e-12,
        )
        res = integrate_abs_pow_ball(POWER_HALF, 1.0, 2, Ball(d, r))
        assert res.tol_ok
        assert res.value == pytest.approx(ref, rel=1e-9)

    def test_matches_radial_quad_n3(self):
        # independent route: scipy quad over the same radial reduction
        f = canonicalize([(0.0, 2.0, 1.5, -1.0), (2.0, INF, 0.5, 0.25)])
        d, r = 1.2, 2.5
        area = unit_sphere_area(3)

        def integrand(t):
            cap = float(cap_fraction_radii(3, t - (r - d), (d + r) - t, d, r))
            return abs(f.evaluate(t)) * area * t**2 * cap

        core = float(centered_integrals(f, 1.0, 3, r - d))
        ref, _ = scipy.integrate.quad(
            integrand, r - d, r + d, points=[2.0], epsabs=1e-12, epsrel=1e-12, limit=200
        )
        res = integrate_abs_pow_ball(f, 1.0, 3, Ball(d, r))
        assert res.tol_ok
        assert res.value == pytest.approx(core + ref, rel=1e-8)

    def test_tangent_ball_singular_endpoint(self):
        # d = r puts the shell's lower end at the origin where the
        # integrand is t^{gamma-1} with gamma = 3/2
        res = integrate_abs_pow_ball(POWER_HALF, 1.0, 2, Ball(1.0, 1.0))
        assert res.tol_ok
        assert res.value > 0.0

    @pytest.mark.parametrize(
        "d, r, expected",
        [
            # [DERIVED] thin shell far out: the integral of 2 phi(t) over
            # [4.99, 5.01], phi the half arc angle, by 30-digit tanh-sinh
            # quadrature, frozen
            (5.0, 0.01, 6.28318844877695246e-05),
            # [DERIVED] tangent disc through the origin: in polar
            # coordinates int_{-pi/2}^{pi/2} 2 cos(phi) dphi = 4, frozen
            (1.0, 1.0, 4.0),
        ],
    )
    def test_inverse_power_over_discs(self, d, r, expected):
        res = integrate_abs_pow_ball(POWER_ONE, 1.0, 2, Ball(d, r))
        assert res.tol_ok
        assert res.value == pytest.approx(expected, rel=1e-12)

    def test_far_ball_no_overlap_zero(self):
        f = canonicalize([(0.0, 1.0, 1.0, 0.0)])
        res = integrate_abs_pow_ball(f, 1.0, 2, Ball(10.0, 2.0))
        assert res.value == 0.0

    @staticmethod
    def _mp_power_ball_n3(c, alpha, p, d, r):
        """[DERIVED] n = 3 ball integral of |c| |x|^alpha to the p, in mpmath.

        For n = 3 the cap fraction is (r^2 - (t - d)^2) / (4 t d), so the
        shell |d - r| <= t <= d + r gives (pi |c|^p / d) times the integral
        of t^e ((r^2 - d^2) + 2 d t - t^2), e = alpha p + 1: three power
        integrals, which cancel like (d / r)^2 on a thin far ball, hence
        60 digits.  A ball around the origin adds the centered core of
        radius r - d.
        """
        with mpmath.workdps(60):
            d, r, p = mpmath.mpf(d), mpmath.mpf(r), mpmath.mpf(p)
            cp = abs(mpmath.mpf(c)) ** p
            e = mpmath.mpf(alpha) * p + 1
            lo, hi = abs(d - r), d + r

            def power(k):
                return (hi ** (e + k + 1) - lo ** (e + k + 1)) / (e + k + 1)

            shell = mpmath.pi * cp / d * ((r * r - d * d) * power(0) + 2 * d * power(1) - power(2))
            core = 4 * mpmath.pi * cp * (r - d) ** (e + 2) / (e + 2) if d < r else 0
            return shell + core

    @pytest.mark.parametrize(
        "d, r",
        [
            (2200.0, 1e-3),   # thin and far: the shell is 2e-3 wide at t = 2200
            (50.0, 1e-3),
            (10.0, 1e-3),
            (7.0, 0.01),
            (1.0, 1.0),       # tangent to the origin
            (0.3, 1.0),       # around the origin: core plus shell
            (2.0, 0.7),
        ],
    )
    def test_n3_power_matches_mpmath(self, d, r):
        # 1.3 |x|^-0.8 with p = 1.5; the quadrature's own error is far
        # below rel_tol, so rounding in the integrand must stay below 1e-13
        f = canonicalize([(0.0, INF, 1.3, -0.8)])
        values, tol_ok = ball_integrals(f, 1.5, 3, d, r)
        assert bool(tol_ok)
        expected = float(self._mp_power_ball_n3(1.3, -0.8, 1.5, d, r))
        assert float(values) == pytest.approx(expected, rel=1e-13)


class TestBatchedBallIntegrals:
    BALLS = [
        (5.0, 0.01),      # thin shell far from the origin
        (20.0, 1e-3),
        (1.0, 1.0),       # tangent: the shell starts at the origin
        (0.25, 0.25),
        (1e-5, 1e5),      # d << r: tiny shell around a large core
        (0.01, 3.0),
        (1.2, 2.5),       # shell [1.3, 3.7] crosses the breakpoint 2
        (2.0, 0.5),       # shell [1.5, 2.5] crosses it too
    ]
    F = canonicalize([(0.0, 2.0, 1.5, -0.5), (2.0, INF, 0.5, 0.25)])

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "settings, budget",
        [(IntegrationSettings(), 2000), (IntegrationSettings(rel_tol=1e-13), 3)],
        ids=["settings0", "settings1"],
    )
    def test_matches_single_ball(self, monkeypatch, n, settings, budget):
        monkeypatch.setattr(integrate_mod, "_MAX_PANELS", budget)
        d = np.array([b[0] for b in self.BALLS])
        r = np.array([b[1] for b in self.BALLS])
        values, tol_ok = ball_integrals(self.F, 1.0, n, d, r, settings)
        for k, (dk, rk) in enumerate(self.BALLS):
            single = integrate_abs_pow_ball(self.F, 1.0, n, Ball(dk, rk), settings)
            assert values[k] == single.value  # a ball's bits do not depend on its block
            assert tol_ok[k] == single.tol_ok

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_block_calls_the_integrand_once_per_round(self, monkeypatch, n):
        # every ball of a block subdivides in the same rounds: the block
        # makes no more integrand calls than its slowest ball alone
        calls = []
        shell = integrate_mod._shell_integrand

        def counting(*args):
            calls.append(1)
            return shell(*args)

        monkeypatch.setattr(integrate_mod, "_shell_integrand", counting)
        settings = IntegrationSettings(rel_tol=1e-13)
        alone = []
        for dk, rk in self.BALLS:
            calls.clear()
            ball_integrals(self.F, 1.0, n, dk, rk, settings)
            alone.append(len(calls))
        assert sum(c > 1 for c in alone) >= 2  # two or more balls subdivide
        calls.clear()
        d, r = np.array(self.BALLS).T
        ball_integrals(self.F, 1.0, n, d, r, settings)
        assert len(calls) <= max(alone)

    def test_blocks_do_not_change_values(self, monkeypatch):
        d, r = np.meshgrid(np.linspace(0.1, 4.0, 9), np.geomspace(0.01, 10.0, 7))
        whole = ball_integrals(self.F, 1.0, 3, d, r)
        monkeypatch.setattr(integrate_mod, "_POINTS_PER_CALL", 3 * 15)
        blocks = ball_integrals(self.F, 1.0, 3, d, r)
        np.testing.assert_allclose(blocks[0], whole[0], rtol=1e-15)
        assert (blocks[1] == whole[1]).all()

    def test_grid_shape_and_special_balls(self):
        f = canonicalize([(0.0, 1.0, 1.0, -2.0)])  # diverges at the origin
        d = np.array([[0.0], [0.5], [3.0]])
        r = np.array([[1.0, 2.5]])
        values, tol_ok = ball_integrals(f, 1.0, 2, d, r)
        assert values.shape == tol_ok.shape == (3, 2)
        assert np.isinf(values[:2]).all()
        assert values[2, 0] == 0.0          # the ball misses the support
        assert values[2, 1] > 0.0 and tol_ok.all()

    def test_n1_closed_form(self):
        values, tol_ok = ball_integrals(POWER_HALF, 1.0, 1, [2.0, 0.5], [1.0, 1.0])
        assert values[0] == pytest.approx(1.4641016151377544, rel=1e-14)
        # [DERIVED] int over [-0.5, 1.5] of |x|^{-1/2} = 2 sqrt(0.5) + 2 sqrt(1.5)
        assert values[1] == pytest.approx(3.863703305156273, rel=1e-14)
        assert tol_ok.all()


class TestMonteCarlo:
    def test_reproducible(self):
        a = mc_integrate(POWER_HALF, 1.0, 2, Ball(1.0, 0.5), 40_000, seed=7)
        b = mc_integrate(POWER_HALF, 1.0, 2, Ball(1.0, 0.5), 40_000, seed=7)
        assert a == b

    def test_seed_changes_estimate(self):
        a = mc_integrate(POWER_HALF, 1.0, 2, Ball(1.0, 0.5), 40_000, seed=7)
        b = mc_integrate(POWER_HALF, 1.0, 2, Ball(1.0, 0.5), 40_000, seed=8)
        assert a != b

    def test_chunking_invariant(self):
        # crossing several chunk boundaries must not disturb chunk k's draws
        small = mc_integrate(POWER_HALF, 1.0, 2, Ball(1.0, 0.5), (1 << 17) + 17, seed=3)
        assert small[1] > 0.0

    def test_constant_exact_mean(self):
        f = canonicalize([(0.0, INF, 2.0, 0.0)])
        est, err = mc_integrate(f, 1.0, 3, Ball(0.4, 1.0), 10_000, seed=1)
        assert err == pytest.approx(0.0, abs=1e-12)
        assert est == pytest.approx(2.0 * unit_ball_volume(3), rel=1e-12)

    @pytest.mark.parametrize(
        "n, d, r",
        [(1, 2.0, 1.0), (2, 0.7, 1.3), (3, 1.2, 2.5)],
    )
    def test_agrees_with_quadrature(self, n, d, r):
        f = canonicalize([(0.0, 2.0, 1.0, -0.25), (2.0, INF, 0.5, 0.1)])
        est, err = mc_integrate(f, 1.0, n, Ball(d, r), 200_000, seed=42)
        ref = integrate_abs_pow_ball(f, 1.0, n, Ball(d, r)).value
        assert abs(est - ref) < 4.0 * err
