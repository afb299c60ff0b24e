"""Norm engine: centered profiles, closed forms, and the 2-D sup search."""

from __future__ import annotations

import math

import numpy as np
import pytest

import morreyconst.integrate as integrate_mod
import morreyconst.norms as norms_mod
from morreyconst.constants import _sums, random_pair, witness_pair_morrey
from morreyconst.geometry import unit_ball_volume
from morreyconst.integrate import IntegrationSettings
from morreyconst.model import (
    Mode,
    SpaceParams,
    add,
    canonicalize,
    scale,
    subtract,
    truncate,
)
from morreyconst.norms import (
    centered_norm_profile,
    closed_form_power_norm,
    norm,
    norm_is_infinite,
    search_window,
)

INF = math.inf
TWO_SQRT2 = 2.8284271247461903

M112 = SpaceParams(1, 1.0, 2.0, Mode.MORREY)
S112 = SpaceParams(1, 1.0, 2.0, Mode.SMALL_MORREY)

POWER = canonicalize([(0.0, INF, 1.0, -0.5)])             # |x|^{-1/2}
POWER_IN = truncate(POWER, 0.0, 1.0)                      # restricted to (0,1)
POWER_OUT = subtract(POWER, POWER_IN)                     # restricted to [1,inf)


class TestSearchSettings:
    """The search window that search_window works out from f and the mode."""

    def test_defaults(self):
        assert search_window(POWER, Mode.MORREY) == (1e-3, 1e6, 10.0)
        assert (norms_mod._N_RADII, norms_mod._N_CENTERS) == (64, 33)

    def test_mode_defaults(self):
        assert search_window(POWER, Mode.SMALL_MORREY) == (1e-3, 1.0 - 1e-6, 10.0)

    def test_morrey_r_max_follows_breakpoints(self):
        # ten times the largest finite breakpoint, never below 1e6
        narrow = canonicalize([(0.0, 3.5, 1.0, 0.0)])
        assert search_window(narrow, Mode.MORREY)[1] == 1e6
        wide = canonicalize([(2.0, 4e5, 1.0, 0.0), (4e5, INF, 1.0, -1.0)])
        assert search_window(wide, Mode.MORREY)[1] == 4e6
        assert search_window(wide, Mode.SMALL_MORREY)[1] == 1.0 - 1e-6

    def test_d_max_follows_breakpoints(self):
        f = canonicalize([(0.0, 3.5, 1.0, 0.0)])
        assert search_window(f, Mode.MORREY)[2] == 13.5

    def test_r_min_shrinks_to_function_scale(self):
        f = canonicalize([(0.0, 1e-4, 1.0, -0.5)])
        assert search_window(f, Mode.SMALL_MORREY)[0] == pytest.approx(1e-5)


class TestCenteredProfile:
    @pytest.mark.parametrize("r", [1e-3, 0.1, 1.0, 17.0, 1e5])
    def test_pure_power_profile_constant(self, r):
        # [DERIVED] (2r)^{-1/2} * 4 sqrt(r) = 2 sqrt(2) for every radius
        assert centered_norm_profile(POWER, M112, r) == pytest.approx(
            TWO_SQRT2, rel=1e-13
        )

    @pytest.mark.parametrize("r", [1.5, 2.0, 10.0, 1e4])
    def test_outer_tail_profile(self, r):
        # [DERIVED] profile of the |x| >= 1 restriction: 2 sqrt(2) (1 - r^{-1/2})
        expected = TWO_SQRT2 * (1.0 - r**-0.5)
        assert centered_norm_profile(POWER_OUT, M112, r) == pytest.approx(
            expected, rel=1e-13
        )

    def test_outer_tail_profile_zero_inside(self):
        assert centered_norm_profile(POWER_OUT, M112, 0.5) == 0.0

    def test_zero_function(self):
        assert centered_norm_profile(canonicalize([]), M112, 1.0) == 0.0

    def test_infinite_propagates(self):
        f = canonicalize([(0.0, 1.0, 1.0, -2.0)])
        assert centered_norm_profile(f, M112, 0.5) == INF

    def test_small_mode_rejects_large_radius(self):
        with pytest.raises(ValueError):
            centered_norm_profile(POWER, S112, 1.5)

    def test_vectorized_matches_scalar(self):
        # [DERIVED] 2 sqrt(2) (1 - r^{-1/2}) for r >= 1, and 0 below
        for rs in (np.array([0.01, 0.3, 2.0, 50.0]), np.array(2.0)):
            vec = centered_norm_profile(POWER_OUT, M112, rs)
            assert np.shape(vec) == rs.shape
            expected = np.where(rs >= 1.0, TWO_SQRT2 * (1.0 - rs**-0.5), 0.0)
            np.testing.assert_allclose(vec, expected, rtol=1e-13, atol=0.0)
            for r, v in zip(rs.ravel(), np.ravel(vec)):
                assert v == centered_norm_profile(POWER_OUT, M112, r)


class TestClosedFormPowerNorm:
    @pytest.mark.parametrize(
        "n, p, q, expected",
        [
            (1, 1.0, 2.0, 2.8284271247461903),  # [DERIVED] 2 sqrt(2), frozen
            (2, 1.0, 2.0, 3.5449077018110318),  # [DERIVED] 2 sqrt(pi), frozen
            (1, 2.0, 3.0, 2.1822472719434427),  # [DERIVED] 2^{1/3} sqrt(3), frozen
            (3, 2.0, 4.0, 2.023192237970963),   # [DERIVED] (4 pi/3)^{1/4} sqrt(2), frozen
        ],
    )
    def test_frozen_values(self, n, p, q, expected):
        got = closed_form_power_norm(SpaceParams(n, p, q))
        assert got == pytest.approx(expected, rel=1e-14)

    def test_rejects_p_equal_q(self):
        with pytest.raises(ValueError):
            closed_form_power_norm(SpaceParams(1, 2.0, 2.0))


class TestInfiniteDetection:
    def test_tail_grows(self):
        # alpha = 0 > -n/q: big centered balls blow up
        f = canonicalize([(0.0, INF, 1.0, 0.0)])
        assert norm_is_infinite(f, M112)
        assert norm(f, M112).infinite

    def test_constant_finite_in_small_mode(self):
        f = canonicalize([(0.0, INF, 1.0, 0.0)])
        assert not norm_is_infinite(f, S112)
        # sup over r < 1 of (2r)^{1/2 - 1} * (2r)^{1} = (2r)^{1/2} -> sqrt(2)
        res = norm(f, S112)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-4)
        assert res.truncated

    def test_small_mode_tail_above_zero_grows(self):
        f = canonicalize([(0.0, INF, 1.0, 0.1)])
        assert norm_is_infinite(f, S112)

    def test_origin_too_singular(self):
        # alpha < -n/q: tiny centered balls blow up
        f = canonicalize([(0.0, 1.0, 1.0, -0.75)])
        assert norm_is_infinite(f, M112)
        assert norm_is_infinite(f, S112)

    def test_divergent_integral(self):
        # alpha p + n <= 0 at the origin
        f = canonicalize([(0.0, 1.0, 1.0, -0.5)])
        sp = SpaceParams(1, 2.0, 2.0, Mode.MORREY)
        assert norm_is_infinite(f, sp)

    def test_borderline_power_is_finite(self):
        assert not norm_is_infinite(POWER, M112)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_wide_bounded_support_is_finite(self, n):
        # [DERIVED] f = 1 on |x| < 1e7, p = 1, q = 2: a ball inside the
        # support gives |B|^(1/2 - 1) |B| = |B|^(1/2), a larger ball holds
        # no more of f, so the norm is the centered ball of radius 1e7,
        # (v_n 1e7^n)^(1/2).  The window reaches 10 x 1e7, past it
        f = canonicalize([(0.0, 1e7, 1.0, 0.0)])
        sp = SpaceParams(n, 1.0, 2.0, Mode.MORREY)
        assert not norm_is_infinite(f, sp)
        assert search_window(f, Mode.MORREY)[1] == 1e8
        res = norm(f, sp)
        expected = math.sqrt(unit_ball_volume(n) * 1e7**n)
        assert res.value == pytest.approx(expected, rel=1e-9)
        assert not res.truncated
        assert res.tol_ok

    def test_logarithmic_tail_diverges_when_p_equals_q(self):
        # [DERIVED] p = q = 1, n = 1: the weight is 1, and |x|^{-1} on
        # [1, inf) gives the centered balls 2 log r -> infinity
        f = canonicalize([(1.0, INF, 1.0, -1.0)])
        sp = SpaceParams(1, 1.0, 1.0, Mode.MORREY)
        assert norm_is_infinite(f, sp)
        assert norm(f, sp).infinite
        # a faster tail is in L^1, and small mode never sees r -> infinity
        assert not norm_is_infinite(canonicalize([(1.0, INF, 1.0, -1.5)]), sp)
        assert not norm_is_infinite(f, sp.with_mode(Mode.SMALL_MORREY))


class TestMorreyNormSearch:
    def test_pure_power(self):
        res = norm(POWER, M112)
        assert res.value == pytest.approx(TWO_SQRT2, rel=1e-3)
        assert res.argmax.d == pytest.approx(0.0, abs=1e-6)
        assert not res.truncated

    def test_inner_truncation_same_norm(self):
        res = norm(POWER_IN, M112)
        assert res.value == pytest.approx(TWO_SQRT2, rel=1e-3)

    def test_outer_tail_truncation_deficit(self):
        # [DERIVED] sup only as r -> inf; at r_max = 1e6 the value is
        # 2 sqrt(2) (1 - 1e-3), frozen 2.825598697621444
        res = norm(POWER_OUT, M112)
        assert res.value == pytest.approx(2.825598697621444, rel=1e-6)
        assert res.truncated

    def test_sign_flip_same_norm(self):
        k = subtract(POWER_IN, POWER_OUT)
        res = norm(k, M112)
        assert res.value == pytest.approx(TWO_SQRT2, rel=1e-3)

    def test_zero_function(self):
        res = norm(canonicalize([]), M112)
        assert res.value == 0.0 and res.argmax is None

    @pytest.mark.parametrize(
        "n, p, q, alpha",
        [(2, 1.0, 2.0, -1.0), (1, 2.0, 3.0, -1.0 / 3.0), (3, 2.0, 4.0, -0.75)],
    )
    def test_higher_dim_power_matches_closed_form(self, n, p, q, alpha):
        sp = SpaceParams(n, p, q, Mode.MORREY)
        f = canonicalize([(0.0, INF, 1.0, alpha)])
        res = norm(f, sp)
        assert res.value == pytest.approx(closed_form_power_norm(sp), rel=1e-3)
        assert res.argmax.d <= 1e-3 * (1.0 + res.argmax.r)
        # every probe met its tolerance, including the n = 3 balls whose
        # shell is a sliver of a large core
        assert res.tol_ok


class TestZoomSearch:
    # 1.8|x|^{-1/2} on [0.74, 0.82), 0.565|x|^{-1/2} on [0.82, 1.13)
    TWO_PIECE = canonicalize([(0.74, 0.82, 1.8, -0.5), (0.82, 1.13, 0.565, -0.5)])

    @pytest.mark.parametrize("sp", [M112, S112])
    def test_breakpoint_aligned_corner(self, sp):
        # [DERIVED] the ball spanning [0.74, 0.82] gives
        # 1.8 * 2 (sqrt(0.82) - sqrt(0.74)) / sqrt(0.08), frozen; moving
        # either face loses value, so the supremum sits on that corner
        res = norm(self.TWO_PIECE, sp)
        assert res.value == pytest.approx(0.576651072842332, rel=1e-12)

    @staticmethod
    def _count_kernel_calls(monkeypatch) -> list[str]:
        # every kernel entry the search module holds counts, batched or one-ball
        calls = []

        def counting(kernel):
            def wrapper(*args, **kwargs):
                calls.append(kernel.__name__)
                return kernel(*args, **kwargs)

            return wrapper

        kernels = [
            name
            for name in ("ball_integrals", "group_ball_integrals", "integrate_abs_pow_ball")
            if hasattr(norms_mod, name)
        ]
        assert "group_ball_integrals" in kernels
        for name in kernels:
            monkeypatch.setattr(norms_mod, name, counting(getattr(norms_mod, name)))
        return calls

    def test_kernel_calls_per_cold_norm(self, monkeypatch):
        calls = self._count_kernel_calls(monkeypatch)
        sp = SpaceParams(2, 1.0, 2.0, Mode.MORREY)
        f = canonicalize([(0.0, 1.0, 1.0, -1.0), (1.0, 3.0, 0.5, -1.0)])
        norms_mod._search_cached.cache_clear()
        norm(f, sp)
        assert 0 < len(calls) <= 24

    def test_kernel_calls_per_lockstep_group(self, monkeypatch):
        # G cold n = 1 norms in one group: G grid calls, then one call for
        # the aligned balls, one per zoom round and one final, shared
        calls = self._count_kernel_calls(monkeypatch)
        rng = np.random.Generator(np.random.Philox(key=5))
        fs = list(dict.fromkeys(random_pair(rng, M112)[0] for _ in range(5)))
        monkeypatch.setattr(norms_mod, "_GROUP", len(fs))
        norms_mod._search_cached.cache_clear()
        results = norms_mod.norm_batch(fs, M112)
        assert all(res.argmax is not None for res in results)
        assert len(calls) <= len(fs) + 2 + norms_mod._ROUNDS

    def test_critical_power_stops_early(self, monkeypatch):
        # the best ball of |x|^(-n/q) slides along the flat centered
        # profile with gains at rounding level, so the zoom stops well
        # before its last round: grid, aligned balls, rounds and final
        # re-evaluation take fewer than _ROUNDS calls in all
        calls = self._count_kernel_calls(monkeypatch)
        sp = SpaceParams(2, 1.5, 4.0, Mode.MORREY)
        norms_mod._search_cached.cache_clear()
        res = norm(canonicalize([(0.0, INF, 1.0, -0.5)]), sp)
        assert res.value == pytest.approx(closed_form_power_norm(sp), rel=1e-12)
        assert len(calls) < norms_mod._ROUNDS

    def test_cold_runs_identical(self):
        cases = [
            (
                SpaceParams(2, 1.0, 2.0, Mode.SMALL_MORREY),
                canonicalize([(0.0, 0.5, 1.0, -1.0), (0.5, 2.0, -0.7, -1.0)]),
            ),
            (
                M112,
                canonicalize(
                    [(0.0, 0.05, 1.3, -0.5), (0.2, 0.9, -0.7, -0.5), (0.9, 3.0, 1.9, -0.5),
                     (3.0, INF, -0.4, -0.5)]
                ),
            ),
        ]
        for sp, f in cases:
            # cold: the norm cache and the n = 1 antiderivative tables both empty
            norms_mod._search_cached.cache_clear()
            integrate_mod._n1_table.cache_clear()
            first = norm(f, sp)
            norms_mod._search_cached.cache_clear()
            integrate_mod._n1_table.cache_clear()
            assert norm(f, sp) == first


class TestZoomStop:
    """The zoom's per-function stop against the full _ROUNDS-round zoom."""

    @staticmethod
    def _full_zoom(monkeypatch, fs, sp):
        """The norms of fs with the stop rule off, each searched alone."""
        with monkeypatch.context() as patch:
            patch.setattr(norms_mod, "_STOP_ROUNDS", norms_mod._ROUNDS + 1)
            return [norms_mod._search_group([f], sp, IntegrationSettings())[0]
                    for f in fs]

    @staticmethod
    def _random_set(sp, trials, key=11):
        rng = np.random.Generator(np.random.Philox(key=key))
        fs = []
        for _ in range(trials):
            x, y = random_pair(rng, sp)
            fs += [x, y, *(_sums(x, y) or ())]
        return list(dict.fromkeys(fs))

    @pytest.mark.parametrize(
        "sp, trials",
        [(M112, 25), (S112, 25), (SpaceParams(2, 1.0, 2.0, Mode.MORREY), 2)],
    )
    def test_no_shortfall_against_full_zoom(self, monkeypatch, sp, trials):
        fs = self._random_set(sp, trials)
        full = self._full_zoom(monkeypatch, fs, sp)
        norms_mod._search_cached.cache_clear()
        stopped = norms_mod.norm_batch(fs, sp)
        rel_tol = IntegrationSettings().rel_tol
        for f, a, b in zip(fs, stopped, full):
            assert a.value >= b.value * (1.0 - rel_tol), (f, a, b)
            assert (a.truncated, a.tol_ok) == (b.truncated, b.tol_ok), (f, a, b)

    # Its argmax sits on r = r_max, and its later gains come after two to
    # five rounds in which the best ball stands still: a rule that counted
    # those rounds would stop 1.4e-5 short
    EDGE_CLIMBER = canonicalize([
        (0.0, 0.001618142811732442, -0.34806021310857194, -0.5),
        (0.001618142811732442, 0.2916292316364876, -0.028458411169667297, -0.5),
        (0.2916292316364876, INF, 1.6688837780553598, -0.5),
    ])

    def test_motionless_rounds_do_not_count(self, monkeypatch):
        full = self._full_zoom(monkeypatch, [self.EDGE_CLIMBER], S112)[0]
        # the full zoom's value, frozen
        assert full.value == 2.2982878820760986
        norms_mod._search_cached.cache_clear()
        res = norm(self.EDGE_CLIMBER, S112)
        assert res.value == pytest.approx(full.value, rel=IntegrationSettings().rel_tol)
        assert (res.truncated, res.tol_ok) == (full.truncated, full.tol_ok)


def _same_result(a, b) -> bool:
    """Field for field: value and argmax to the bit, and both flags."""
    def bits(res):
        ball = None if res.argmax is None else (res.argmax.d.hex(), res.argmax.r.hex())
        return res.value.hex(), ball, res.truncated, res.tol_ok

    return bits(a) == bits(b)


class TestLockstepBatch:
    """norm_batch searches groups in lockstep; every result equals the search alone."""

    MIXED = canonicalize([(0.0, 0.5, 1.0, 0.4), (0.5, 2.0, -1.5, -0.3), (2.0, 4.0, 0.8, -2.0)])

    def _alone(self, fs, sp):
        return [norms_mod._search_group([f], sp, IntegrationSettings())[0]
                for f in fs]

    @staticmethod
    def _batches_of_one(fs, sp):
        """norm of each function on a cleared memo: each shape searched alone."""
        results = []
        for f in fs:
            norms_mod._search_cached.cache_clear()
            results.append(norm(f, sp))
        return results

    @pytest.mark.parametrize("group", [1, 3, norms_mod._GROUP])
    @pytest.mark.parametrize("sp", [M112, S112])
    def test_mixed_batch_equals_batches_of_one(self, monkeypatch, sp, group):
        rng = np.random.Generator(np.random.Philox(key=13))
        fs = []
        for _ in range(3):
            x, y = random_pair(rng, sp)
            fs += [x, y, add(x, y), subtract(x, y)]
        fs += [
            canonicalize([]),                         # zero: leaves before the grid
            canonicalize([(0.0, INF, 1.0, 0.5)]),     # infinite norm
            POWER,                                    # no breakpoint-aligned balls
            self.MIXED,                               # gathered exponents
            POWER_OUT,                                # truncated at r_max
        ]
        alone = self._batches_of_one(fs, sp)
        monkeypatch.setattr(norms_mod, "_GROUP", group)
        norms_mod._search_cached.cache_clear()
        batch = norms_mod.norm_batch(fs, sp)
        assert [res.value for res in alone[12:14]] == [0.0, INF]
        assert alone[16].truncated or sp.mode is Mode.SMALL_MORREY
        for k, (a, b) in enumerate(zip(alone, batch)):
            assert _same_result(a, b), (k, a, b)

    @pytest.mark.parametrize("group", [1, 3])
    def test_n2_batch_of_two(self, monkeypatch, group):
        sp = SpaceParams(2, 1.0, 2.0, Mode.MORREY)
        fs = [
            canonicalize([(0.0, 1.0, 1.0, -1.0), (1.0, 3.0, 0.5, -1.0)]),
            canonicalize([(0.0, 0.5, 1.0, -0.5), (0.5, 2.0, -0.7, -1.0)]),
        ]
        alone = self._alone(fs, sp)
        monkeypatch.setattr(norms_mod, "_GROUP", group)
        norms_mod._search_cached.cache_clear()
        for a, b in zip(alone, norms_mod.norm_batch(fs, sp)):
            assert _same_result(a, b), (a, b)

    def test_batch_shares_the_memo_with_norm(self, monkeypatch):
        searched = []
        original = norms_mod._search_group

        def counting(fs, *args):
            searched.extend(fs)
            return original(fs, *args)

        monkeypatch.setattr(norms_mod, "_search_group", counting)
        norms_mod._search_cached.cache_clear()
        first = norm(POWER_IN, M112)
        batch = norms_mod.norm_batch([POWER_OUT, POWER_IN, POWER_OUT], M112)
        assert batch[1] is first and batch[0] is batch[2]
        assert norm(POWER_OUT, M112) is batch[0]
        assert searched == [POWER_IN, POWER_OUT]

    @pytest.mark.parametrize(
        "size, parts, lengths",
        [
            (20, 1, [8, 8, 4]),     # whole groups
            (20, 2, [8, 8, 4]),     # enough for every part
            (5, 2, [3, 2]),         # cut evenly, one chunk per part
            (7, 4, [2, 2, 2, 1]),
            (1, 3, [1]),
            (0, 2, []),
        ],
    )
    def test_lockstep_chunks(self, monkeypatch, size, parts, lengths):
        monkeypatch.setattr(norms_mod, "_GROUP", 8)
        items = list(range(size))
        chunks = norms_mod.lockstep_chunks(items, parts)
        assert [len(c) for c in chunks] == lengths
        assert [x for c in chunks for x in c] == items


class TestNormShape:
    """One search per shape |f| / |first coefficient|, scaled back to f."""

    @staticmethod
    def _searched(monkeypatch):
        searched = []
        original = norms_mod._search_group

        def counting(fs, *args):
            searched.extend(fs)
            return original(fs, *args)

        monkeypatch.setattr(norms_mod, "_search_group", counting)
        norms_mod._search_cached.cache_clear()
        return searched

    def test_witness_pair_norms_equal_bit_for_bit(self):
        # [DERIVED] |k| = f pointwise, so k has f's shape and f's norm
        sp = SpaceParams(3, 2.0, 4.0, Mode.MORREY)
        f, k = witness_pair_morrey(sp)
        norms_mod._search_cached.cache_clear()
        assert norms_mod._shape(k) == (f, 1.0)
        assert _same_result(norm(k, sp), norm(f, sp))

    @pytest.mark.parametrize("c", [2.0, -3.0, None])
    def test_scaled_norm_is_exactly_scaled(self, c):
        # [DERIVED] ||c g|| = |c| ||g||; the coefficients of g are powers of
        # two apart, so c g has g's shape exactly and only the value scales
        g = canonicalize([(0.0, 1.0, 1.0, -0.5), (1.0, 3.0, -0.5, -0.5)])
        if c is None:
            c = 1.0 / norm(POWER, M112).value
        base = norm(g, M112)
        res = norm(scale(g, c), M112)
        assert res.value == abs(c) * base.value
        assert (res.argmax, res.truncated, res.tol_ok) == (
            base.argmax, base.truncated, base.tol_ok)

    def test_sign_flip_searches_merged_abs(self, monkeypatch):
        # [DERIVED] |f| of a sign flip at 1 is one piece: the breakpoint goes
        searched = self._searched(monkeypatch)
        f = canonicalize([(0.0, 1.0, 2.0, -0.5), (1.0, 3.0, -2.0, -0.5)])
        merged = canonicalize([(0.0, 3.0, 1.0, -0.5)])
        assert norms_mod._shape(f) == (merged, 2.0)
        assert norm(f, M112).value == 2.0 * norm(merged, M112).value
        assert searched == [merged]

    @pytest.mark.parametrize("coefs", [(1e-300, -1e300), (-1e300, 1e-300)])
    def test_unrepresentable_quotient_keeps_abs(self, monkeypatch, coefs):
        # 1e300 / 1e-300 overflows and 1e-300 / 1e300 underflows to 0, so
        # the shape is |f| itself, searched as it is
        f = canonicalize([(0.0, 1.0, coefs[0], -0.5), (1.0, 2.0, coefs[1], -0.5)])
        abs_f = canonicalize([(0.0, 1.0, abs(coefs[0]), -0.5), (1.0, 2.0, abs(coefs[1]), -0.5)])
        assert norms_mod._shape(f) == (abs_f, 1.0)
        searched = self._searched(monkeypatch)
        res = norm(f, M112)
        assert searched == [abs_f]
        assert _same_result(res, norms_mod._search_group([abs_f], M112, IntegrationSettings())[0])
        assert 0.0 < res.value < INF

    def test_zero_function_is_its_own_shape(self):
        zero = canonicalize([])
        assert norms_mod._shape(zero) == (zero, 1.0)


class TestBestInRows:
    """The zoom's per-row argmax against the sort it replaced."""

    @staticmethod
    def lexsort_reference(values, d, r):
        return np.lexsort((r, d, -values), axis=-1)[..., 0]

    def check(self, values, d, r):
        values, d, r = (np.asarray(a, dtype=float) for a in (values, d, r))
        best = norms_mod._best_in_rows(values, d, r)
        assert (best == self.lexsort_reference(values, d, r)).all()
        return best

    def test_equal_values_go_to_smaller_d(self):
        assert self.check([1.0, 3.0, 3.0, 2.0], [0.5, 0.7, 0.2, 0.0], [1, 1, 1, 1]) == 2

    def test_equal_values_and_d_go_to_smaller_r(self):
        assert self.check([3.0, 3.0, 3.0, 1.0], [0.2, 0.2, 0.9, 0.0], [0.5, 0.1, 0.01, 0.0]) == 1

    def test_full_ties_go_to_first_column(self):
        assert self.check([2.0, 2.0, 2.0], [0.3, 0.3, 0.3], [0.1, 0.1, 0.1]) == 0

    def test_rows_are_independent(self):
        values = [[1.0, 4.0, 4.0, 4.0], [5.0, 5.0, 0.0, 5.0], [0.0, 0.0, 0.0, 0.0]]
        d = [[0.0, 0.3, 0.1, 0.1], [0.2, 0.2, 0.0, 0.2], [1.0, 0.5, 0.5, 0.7]]
        r = [[9.0, 1.0, 2.0, 1.5], [0.4, 0.3, 0.1, 0.3], [0.1, 0.2, 0.1, 0.3]]
        assert list(self.check(values, d, r)) == [3, 1, 2]

    def test_planted_ties_in_random_rows(self):
        # coarse integer grids make ties in value, in d and in r common
        rng = np.random.default_rng(7)
        for _ in range(200):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 99)))
            values, d, r = (rng.integers(0, 3, shape) for _ in range(3))
            self.check(values, d, r)


class TestSmallNormSearch:
    def test_pure_power_in_unit_ball(self):
        res = norm(POWER_IN, S112)
        assert res.value == pytest.approx(TWO_SQRT2, rel=1e-3)

    def test_tail_part_approaches_limit(self):
        # [DERIVED] h for eps = 0.25: profile 2 sqrt(2)(1 - 0.5 r^{-1/2}),
        # sup as r -> 1^- equals sqrt(2)
        g = truncate(POWER_IN, 0.0, 0.25)
        h = subtract(POWER_IN, g)
        res = norm(h, S112)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-3)
        assert res.truncated

    def test_tiny_scale_truncation_found(self):
        # support (0, 1e-4) sits far below the default r_min; the search
        # window must adapt or the norm would be grossly underestimated
        g = truncate(POWER_IN, 0.0, 1e-4)
        res = norm(g, S112)
        assert res.value == pytest.approx(TWO_SQRT2, rel=1e-3)

    def test_argmax_radius_below_one(self):
        res = norm(POWER_IN, S112)
        assert 0.0 < res.argmax.r < 1.0


class TestNormAxioms:
    FUNCS = [
        POWER,
        POWER_IN,
        POWER_OUT,
        canonicalize([(0.5, 2.0, 1.5, -0.3), (2.0, 4.0, -0.5, -0.3)]),
        canonicalize([(0.0, 1.0, 1.0, -0.4), (1.0, INF, 0.7, -0.5)]),
    ]

    @pytest.mark.parametrize("idx", range(len(FUNCS)))
    @pytest.mark.parametrize("c", [0.5, -2.0])
    def test_homogeneity(self, idx, c):
        f = self.FUNCS[idx]
        base = norm(f, M112).value
        scaled = norm(scale(f, c), M112).value
        assert scaled == pytest.approx(abs(c) * base, rel=2e-10 + 1e-6)

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (1, 2)])
    def test_triangle_inequality(self, i, j):
        # pairs chosen so the sum stays representable (shared exponents)
        f, g = self.FUNCS[i], self.FUNCS[j]
        s = f + g
        assert norm(s, M112).value <= norm(f, M112).value + norm(g, M112).value + 1e-9

    @pytest.mark.parametrize("idx", range(len(FUNCS)))
    def test_small_norm_dominated(self, idx):
        f = self.FUNCS[idx]
        small = norm(f, S112).value
        big = norm(f, M112).value
        assert small <= big * (1.0 + 1e-9) + 1e-12

    @pytest.mark.parametrize("idx", range(len(FUNCS)))
    def test_centered_profile_is_lower_bound(self, idx):
        f = self.FUNCS[idx]
        value = norm(f, M112).value
        for r in (0.01, 0.5, 1.0, 30.0):
            assert value >= centered_norm_profile(f, M112, r) - 1e-9


class TestDegradedAccuracyFlag:
    def test_budget_exhaustion_reported(self, monkeypatch):
        sp = SpaceParams(2, 1.0, 2.0, Mode.MORREY)
        f = canonicalize([(0.0, INF, 1.0, -1.0)])
        monkeypatch.setattr(integrate_mod, "_MAX_PANELS", 2)
        monkeypatch.setattr(norms_mod, "_N_RADII", 8)
        monkeypatch.setattr(norms_mod, "_N_CENTERS", 3)
        # a fresh memo, so that no result of the small budget outlives the test
        monkeypatch.setattr(norms_mod, "_search_cached", norms_mod._SearchMemo(maxsize=16))
        res = norm(f, sp, IntegrationSettings(rel_tol=1e-13))
        assert not res.tol_ok
