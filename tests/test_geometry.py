"""Ball/sphere measures and the spherical cap fraction."""

from __future__ import annotations

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from morreyconst.geometry import (
    cap_fraction_radii,
    unit_ball_volume,
    unit_sphere_area,
)


def shell_gaps(t, d, r):
    """t - |d - r| and d + r - t of the sphere radius t on the ball (d, r).

    On a far ball (d > 2r) t - d is exact, so (t - d) + r and (d - t) + r
    round once and do not carry the rounding of d - r or d + r.
    """
    t, d, r = (np.asarray(x, dtype=float) for x in (t, d, r))
    far = d > 2.0 * r
    inner = np.where(far, (t - d) + r, t - np.abs(d - r))
    outer = np.where(far, (d - t) + r, (d + r) - t)
    return inner, outer


def cap_fraction_at(n, t, d, r):
    """The cap fraction at sphere radii t, given to the routine as shell gaps."""
    return cap_fraction_radii(n, *shell_gaps(t, d, r), d, r)


def cap_fraction(n, t, d, r):
    """One sphere radius through the vectorized routine."""
    (frac,) = cap_fraction_at(n, np.array([t]), d, r)
    return float(frac)


class TestVolumes:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (1, 2.0),                 # [TRIVIAL] interval length
            (2, math.pi),             # [TRIVIAL] disc area
            (3, 4.0 * math.pi / 3.0), # [TRIVIAL]
            (4, math.pi**2 / 2.0),    # [DERIVED] pi^2/2, frozen
        ],
    )
    def test_unit_ball_volume(self, n, expected):
        assert unit_ball_volume(n) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "n, expected",
        [(1, 2.0), (2, 2.0 * math.pi), (3, 4.0 * math.pi)],
    )
    def test_unit_sphere_area(self, n, expected):
        assert unit_sphere_area(n) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "n, expected",
        [(1, 2.0), (2, math.pi), (3, 4.188790204786391), (4, 4.934802200544679)],
    )
    def test_low_dimensions_bit_for_bit(self, n, expected):
        # the doubles the earlier pi^(n/2) / Gamma(n/2 + 1) form gave, which
        # every report for n <= 4 was computed with
        assert unit_ball_volume(n) == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_within_half_ulp(self, n):
        # [DERIVED] correctly rounded: pi^(n/2) / Gamma(n/2 + 1) at 40 digits
        with mpmath.workdps(40):
            exact = mpmath.pi ** mpmath.mpf(n / 2) / mpmath.gamma(mpmath.mpf(n / 2) + 1)
            v = unit_ball_volume(n)
            assert abs(mpmath.mpf(v) - exact) <= 0.5 * math.ulp(v)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestCapFraction:
    def test_all_inside(self):
        assert cap_fraction(3, 0.5, 0.2, 1.0) == 1.0

    def test_all_outside(self):
        assert cap_fraction(3, 5.0, 0.2, 1.0) == 0.0

    def test_ball_strictly_inside_sphere(self):
        # sphere radius far exceeds d + r: sphere misses the ball entirely
        assert cap_fraction(2, 10.0, 1.0, 2.0) == 0.0

    def test_equilateral_configuration(self):
        # [DERIVED] n=2, t=d=r=1: cos(theta)=1/2, arc is 1/3 of the circle
        assert cap_fraction(2, 1.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_n3_closed_form(self):
        # [DERIVED] n=3 cap fraction is (1 - cos theta)/2
        t, d, r = 1.0, 0.8, 0.7
        c = (t * t + d * d - r * r) / (2 * t * d)
        assert cap_fraction(3, t, d, r) == pytest.approx((1.0 - c) / 2.0, rel=1e-12)

    def test_n2_matches_arc_angle(self):
        # fraction of the circle = theta / pi
        t, d, r = 1.0, 0.9, 0.5
        c = (t * t + d * d - r * r) / (2 * t * d)
        assert cap_fraction(2, t, d, r) == pytest.approx(math.acos(c) / math.pi, rel=1e-12)

    def test_n1_transition_is_half(self):
        # one endpoint of {-t, +t} inside the ball, the other outside
        assert cap_fraction(1, 1.0, 0.8, 0.5) == 0.5
        assert cap_fraction(1, 0.4, 0.8, 0.5) == 0.5

    def test_centered_ball(self):
        assert cap_fraction(3, 0.5, 0.0, 1.0) == 1.0
        assert cap_fraction(3, 1.5, 0.0, 1.0) == 0.0

    def test_t_zero_inside(self):
        assert cap_fraction(3, 0.0, 0.3, 1.0) == 1.0

    def test_vector_matches_scalar(self):
        ts = np.linspace(0.0, 3.0, 50)
        vec = cap_fraction_at(4, ts, 0.7, 1.2)
        for t, v in zip(ts, vec):
            assert v == cap_fraction(4, float(t), 0.7, 1.2)

    def test_broadcasts_over_balls(self):
        # one call serving several balls gives each ball's own fractions
        ts = np.array([0.3, 0.9, 1.6, 2.5])
        ds = np.array([0.2, 0.7, 1.0, 2.0])
        rs = np.array([1.0, 0.5, 1.0, 0.6])
        vec = cap_fraction_at(3, ts, ds, rs)
        for t, d, r, v in zip(ts, ds, rs, vec):
            assert v == cap_fraction(3, float(t), float(d), float(r))

    def test_thin_cap_keeps_digits(self):
        # [DERIVED] n=2, t=4.991 on the ball (d, r) = (5, 0.01): cos(phi)
        # = 1 - 3.8e-7, where 1 - cos^2 loses six digits.  phi / pi from
        # 30-digit arithmetic on the same floats, frozen
        assert cap_fraction(2, 4.991, 5.0, 0.01) == pytest.approx(
            2.777462183092438e-04, rel=1e-12
        )

    def test_far_ball_inner_end_keeps_digits(self):
        # [DERIVED] n=2, t=4.99000001, 1e-8 above the inner shell end of
        # the ball (d, r) = (5, 0.01), where d - r = 4.99 is inexact.
        # phi / pi from 40-digit mpmath on the same floats, frozen
        assert cap_fraction(2, 4.99000001, 5.0, 0.01) == pytest.approx(
            9.0121776587134723e-07, rel=1e-12
        )
        # all-scalar arguments broadcast to a 0-d result
        inner, outer = (float(g) for g in shell_gaps(4.99000001, 5.0, 0.01))
        frac = cap_fraction_radii(2, inner, outer, 5.0, 0.01)
        assert np.ndim(frac) == 0
        assert float(frac) == pytest.approx(9.0121776587134723e-07, rel=1e-12)

    def test_n3_thin_cap_keeps_digits(self):
        # [DERIVED] n=3, t=4.99000001 on the ball (d, r) = (5, 0.01):
        # (1 - cos(phi)) / 2 = 2.0e-12, where 1 - sqrt(1 - s2) cancels.
        # From 40-digit mpmath on the same floats, frozen
        assert cap_fraction(3, 4.99000001, 5.0, 0.01) == pytest.approx(
            2.0040070405923957388e-12, rel=1e-12, abs=0.0
        )

    @pytest.mark.parametrize(
        "n, expected",
        [(2, 2.8397862424345968629e-09), (3, 1.9898074649394063997e-17)],
    )
    def test_far_ball_outer_end_keeps_digits(self, n, expected):
        # [DERIVED] t=5.0099999999999, 1e-13 below the outer shell end of
        # the ball (d, r) = (5, 0.01), where d + r = 5.01 is inexact.
        # From 40-digit mpmath on the same floats, frozen
        assert cap_fraction(n, 5.0099999999999, 5.0, 0.01) == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )

    def test_obtuse_cap_complement(self):
        # d small, r just below d + t: almost the whole sphere is covered
        frac = cap_fraction(3, 1.0, 0.2, 1.19)
        assert 0.9 < frac < 1.0


def betainc_cap_fraction(n, t, d, r):
    """Reference: the routine's sin^2 theta, through scipy's incomplete beta.

    s2 is formed from the same gaps and in the same order as in the
    routine, so the comparison checks the half-cap maps alone: near
    theta = pi/2 they amplify an ulp of s2 by about 1 / (2 cos theta).
    """
    inner, outer = shell_gaps(t, d, r)
    d, r = (np.asarray(x, dtype=float) for x in (d, r))
    diff, total = d - r, d + r
    t = np.abs(diff) + inner
    two_td = 2.0 * t * d
    s2 = (inner * outer / two_td) * ((t + np.abs(diff)) * (t + total) / two_td)
    half_cap = 0.5 * betainc(0.5 * (n - 1), 0.5, np.clip(s2, 0.0, 1.0))
    return np.where(t * t + diff * total >= 0.0, half_cap, 1.0 - half_cap)


class TestClosedFormsMatchBetainc:
    """n = 2 and 3 use arcsin and sqrt forms; betainc stays the reference."""

    # a few ulp of the dtype: the two routes round differently
    REL = 1e-14

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=0.01, max_value=5.0),
    )
    def test_random_balls(self, n, t, d, r):
        if t + d <= r or abs(t - d) >= r:
            return  # not a partial cap: neither route is used
        assert cap_fraction(n, t, d, r) == pytest.approx(
            float(betainc_cap_fraction(n, t, d, r)), rel=self.REL, abs=0.0
        )

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d, r", [(5.0, 0.01), (0.3, 0.2), (1.0, 1.0)])
    def test_thin_caps(self, n, d, r):
        # both shell ends, with s2 from about 1e-14 up to 1e-7
        s2 = np.logspace(-14, -7, 36)
        gap = s2 * d * d / (2.0 * r)
        t = np.concatenate([d + r - gap, abs(d - r) + gap])
        got = cap_fraction_at(n, t, d, r)
        ref = betainc_cap_fraction(n, t, d, r)
        assert (got > 0.0).all()
        np.testing.assert_allclose(got, ref, rtol=self.REL, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_obtuse_complement(self, n):
        # cos(theta) < 0: the ball covers more than half the sphere
        # t^2 < r^2 - d^2 and t + d > r: 0.99 < t < 1.173
        t = np.linspace(1.0, 1.17, 35)
        got = cap_fraction_at(n, t, 0.2, 1.19)
        ref = betainc_cap_fraction(n, t, 0.2, 1.19)
        assert ((got > 0.5) & (got < 1.0)).all()
        np.testing.assert_allclose(got, ref, rtol=self.REL, atol=0.0)


def test_scipy_loaded_only_for_n_at_least_4():
    """An n = 3 norm runs without scipy; an n = 4 cap fraction imports it."""
    code = "\n".join([
        "import sys",
        "from morreyconst.cli import run",
        "assert run(['norm', '--function', '0 inf 1 -1.5', '--n', '3',"
        " '--p', '1', '--q', '2']) == 0",
        "assert 'scipy' not in sys.modules, 'n = 3 loaded scipy'",
        "from morreyconst.geometry import cap_fraction_radii",
        "cap_fraction_radii(4, 0.5, 0.9, 0.7, 1.2)",
        "assert 'scipy' in sys.modules, 'n = 4 did not load scipy'",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.01, max_value=5.0),
)
def test_cap_fraction_in_unit_interval(n, t, d, r):
    frac = cap_fraction(n, t, d, r)
    assert 0.0 <= frac <= 1.0


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.1, max_value=2.0),
)
def test_cap_fraction_monotone_in_r(n, t, d):
    rs = np.linspace(0.05, t + d + 0.5, 40)
    fracs = [cap_fraction(n, t, d, float(r)) for r in rs]
    assert all(b >= a - 1e-12 for a, b in zip(fracs, fracs[1:]))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_cap_fraction_montecarlo(n, t, d, r):
    """Cross-check the cap fraction against direct sphere sampling."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((20000, n))
    x *= t / np.linalg.norm(x, axis=1, keepdims=True)
    center = np.zeros(n)
    center[0] = d
    hit = (np.linalg.norm(x - center, axis=1) <= r).mean()
    assert cap_fraction(n, t, d, r) == pytest.approx(hit, abs=0.02)
