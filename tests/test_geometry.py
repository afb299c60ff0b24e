"""Ball/sphere measures and the spherical cap fraction."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreyconst.geometry import (
    ball_volume,
    cap_fraction_radii,
    unit_ball_volume,
    unit_sphere_area,
)


def cap_fraction(n, t, d, r):
    """One sphere radius through the vectorized routine."""
    (frac,) = cap_fraction_radii(n, np.array([t]), d, r)
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

    def test_ball_volume_scaling(self):
        assert ball_volume(3, 2.0) == pytest.approx(8.0 * unit_ball_volume(3), rel=1e-14)

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
        vec = cap_fraction_radii(4, ts, 0.7, 1.2)
        for t, v in zip(ts, vec):
            assert v == cap_fraction(4, float(t), 0.7, 1.2)

    def test_broadcasts_over_balls(self):
        # one call serving several balls gives each ball's own fractions
        ts = np.array([0.3, 0.9, 1.6, 2.5])
        ds = np.array([0.2, 0.7, 1.0, 2.0])
        rs = np.array([1.0, 0.5, 1.0, 0.6])
        vec = cap_fraction_radii(3, ts, ds, rs)
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
        frac = cap_fraction_radii(2, 4.99000001, 5.0, 0.01)
        assert np.ndim(frac) == 0
        assert float(frac) == pytest.approx(9.0121776587134723e-07, rel=1e-12)

    def test_obtuse_cap_complement(self):
        # d small, r just below d + t: almost the whole sphere is covered
        frac = cap_fraction(3, 1.0, 0.2, 1.19)
        assert 0.9 < frac < 1.0


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
    """Cross-check the beta closed form against direct sphere sampling."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((20000, n))
    x *= t / np.linalg.norm(x, axis=1, keepdims=True)
    center = np.zeros(n)
    center[0] = d
    hit = (np.linalg.norm(x - center, axis=1) <= r).mean()
    assert cap_fraction(n, t, d, r) == pytest.approx(hit, abs=0.02)
