"""Norm engine: centered profiles, closed forms, and the 2-D sup search."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import morreyconst.exact1d as exact1d_mod
import morreyconst.integrate as integrate_mod
import morreyconst.norms as norms_mod
from morreyconst.constants import _sums, random_pair, witness_pair_morrey
from morreyconst.geometry import unit_ball_volume
from morreyconst.integrate import IntegrationSettings
from morreyconst.model import (
    Mode,
    RadialPiece,
    SpaceParams,
    add,
    canonicalize,
    scale,
    subtract,
    truncate,
)
from morreyconst.norms import (
    NormTable,
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
        assert norms_mod._certified([f], S112, IntegrationSettings().rel_tol)[0] is not None
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
        assert norms_mod._certified([f], sp, IntegrationSettings().rel_tol)[0] is not None
        res = norm(f, sp)
        assert res.argmax == norms_mod.Ball(0.0, 1e7)
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
        assert abs(res.value - closed_form_power_norm(M112)) <= 2 * math.ulp(TWO_SQRT2)
        assert res.argmax.d == 0.0
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
        expected = closed_form_power_norm(sp)
        assert abs(res.value - expected) <= 2 * math.ulp(expected)
        assert res.argmax.d == 0.0
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

        for module in (norms_mod, exact1d_mod):
            kernels = [
                name for name in ("ball_integrals", "group_ball_integrals_n1",
                                  "integrate_abs_pow_ball")
                if hasattr(module, name)
            ]
            assert {"ball_integrals", "group_ball_integrals_n1"} & set(kernels), module
            for name in kernels:
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
        return calls

    def test_kernel_calls_per_cold_norm(self, monkeypatch):
        calls = self._count_kernel_calls(monkeypatch)
        sp = SpaceParams(2, 1.0, 2.0, Mode.MORREY)
        # |f| jumps up past a gap, and the bathtub bound does not certify f
        f = canonicalize([(0.0, 1.0, 1.0, -1.0), (1.5, 3.0, 2.0, -1.0)])
        assert norms_mod._certified([f], sp, IntegrationSettings().rel_tol)[0] is None
        norm(f, sp)
        # grid, aligned balls, every zoom round and the final re-evaluation
        assert len(calls) == 1 + 1 + norms_mod._ROUNDS + 1

    def test_kernel_calls_per_searched_norm(self, monkeypatch):
        # G cold n = 2 norms in one batch, G = 1 and 3: each is searched on
        # its own, with one call for its grid, one for its aligned balls,
        # one per zoom round and one final.  Only functions that the
        # bathtub bound does not certify are searched
        calls = self._count_kernel_calls(monkeypatch)
        sp = SpaceParams(2, 1.0, 2.0, Mode.SMALL_MORREY)
        rng = np.random.Generator(np.random.Philox(key=5))
        rel_tol = IntegrationSettings().rel_tol
        for size in (1, 3):
            fs = []
            while len(fs) < size:
                f = random_pair(rng, sp)[0]
                if f not in fs and norms_mod._certified([f], sp, rel_tol)[0] is None:
                    fs.append(f)
            calls.clear()
            results = NormTable(sp).evaluate(fs)
            assert all(res.argmax is not None for res in results)
            assert len(calls) == size * (1 + 1 + norms_mod._ROUNDS + 1), size

    def test_n1_makes_one_kernel_call_per_exact_pass(self, monkeypatch):
        # the exact n = 1 path evaluates the candidate balls of every
        # searched shape of a batch in one call, and a batch that the
        # bound certifies entirely makes none
        calls = self._count_kernel_calls(monkeypatch)
        rng = np.random.Generator(np.random.Philox(key=5))
        rel_tol = IntegrationSettings().rel_tol
        fs = [f for _ in range(10) for f in random_pair(rng, M112)]
        shapes = {norms_mod._shape(f)[0] for f in fs}
        searched = [s for s in shapes if not s.is_zero and not norm_is_infinite(s, M112)
                    and norms_mod._certified([s], M112, rel_tol)[0] is None]
        assert len(searched) >= 2
        NormTable(M112).evaluate(fs)
        assert calls == ["group_ball_integrals_n1"]
        calls.clear()
        certified = [f for f in fs if norms_mod._shape(f)[0] not in searched]
        assert certified
        NormTable(M112).evaluate(certified)
        assert calls == []

    def test_critical_power_full_zoom(self, monkeypatch):
        # the best ball of |x|^(-n/q) slides along the flat centered
        # profile, and the zoom still runs every round: grid, aligned
        # balls, _ROUNDS rounds and the final re-evaluation.  The bathtub
        # bound certifies the power, so the search is forced here
        monkeypatch.setattr(norms_mod, "_certified", lambda fs, *args: [None] * len(fs))
        calls = self._count_kernel_calls(monkeypatch)
        sp = SpaceParams(2, 1.5, 4.0, Mode.MORREY)
        res = norm(canonicalize([(0.0, INF, 1.0, -0.5)]), sp)
        assert res.value == pytest.approx(closed_form_power_norm(sp), rel=1e-12)
        assert len(calls) == norms_mod._ROUNDS + 3

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
            # cold: each norm() call has a table of its own
            first = norm(f, sp)
            assert norm(f, sp) == first

    # Its argmax sits on r = r_max, and its later gains come after two to
    # five rounds in which the best ball stands still, so a zoom that
    # stopped on small gains would fall 1.4e-5 short
    EDGE_CLIMBER = canonicalize([
        (0.0, 0.001618142811732442, -0.34806021310857194, -0.5),
        (0.001618142811732442, 0.2916292316364876, -0.028458411169667297, -0.5),
        (0.2916292316364876, INF, 1.6688837780553598, -0.5),
    ])

    def test_edge_climber_full_zoom(self, monkeypatch):
        # the bathtub bound is bypassed, so the exact n = 1 path runs, and
        # its value is frozen.  The 20-round zoom that it replaced read
        # 2.2982878820760986, 1.9e-12 below it, within rel_tol.  The
        # argmax sits on r_max and the value still climbs as r -> 1
        monkeypatch.setattr(norms_mod, "_certified", lambda fs, *args: [None] * len(fs))
        res = norms_mod._search_group([self.EDGE_CLIMBER], S112, IntegrationSettings())[0]
        assert res.value == 2.2982878820805674
        rel_tol = IntegrationSettings().rel_tol
        assert res.value * (1.0 - rel_tol) <= 2.2982878820760986 <= res.value
        assert res.argmax.r == search_window(self.EDGE_CLIMBER, Mode.SMALL_MORREY)[1]
        assert (res.truncated, res.tol_ok) == (True, True)


def _same_result(a, b) -> bool:
    """Field for field: value and argmax to the bit, and both flags."""
    def bits(res):
        ball = None if res.argmax is None else (res.argmax.d.hex(), res.argmax.r.hex())
        return res.value.hex(), ball, res.truncated, res.tol_ok

    return bits(a) == bits(b)


class TestLockstepBatch:
    """NormTable evaluates batches; every result equals the function's alone."""

    MIXED = canonicalize([(0.0, 0.5, 1.0, 0.4), (0.5, 2.0, -1.5, -0.3), (2.0, 4.0, 0.8, -2.0)])

    def _alone(self, fs, sp):
        return [norms_mod._search_group([f], sp, IntegrationSettings())[0]
                for f in fs]

    @staticmethod
    def _batches_of_one(fs, sp):
        """norm of each function, each a cold table of one: each shape searched alone."""
        results = []
        for f in fs:
            results.append(norm(f, sp))
        return results

    @pytest.mark.parametrize("batches", [1, 3, 8])
    @pytest.mark.parametrize("sp", [M112, S112])
    def test_mixed_batch_equals_batches_of_one(self, sp, batches):
        # the functions, in their order and shuffled, are dealt into this
        # many NormTable batches, so that each exact n = 1 pass holds
        # another mix of shapes; every result equals the function's alone
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
        assert [res.value for res in alone[12:14]] == [0.0, INF]
        assert alone[16].truncated or sp.mode is Mode.SMALL_MORREY
        for order in (np.arange(len(fs)), rng.permutation(len(fs))):
            table, batch = NormTable(sp), {}
            for part in (order[k::batches] for k in range(batches)):
                batch.update(zip(part, table.evaluate([fs[j] for j in part])))
            for k, a in enumerate(alone):
                assert _same_result(a, batch[k]), (k, a, batch[k])

    @pytest.mark.parametrize("parts", [1, 3])
    def test_n2_batch_of_two(self, parts):
        # the batch cut into pool-sized chunks, as NormTable cuts it
        sp = SpaceParams(2, 1.0, 2.0, Mode.MORREY)
        fs = [
            canonicalize([(0.0, 1.0, 1.0, -1.0), (1.0, 3.0, 0.5, -1.0)]),
            canonicalize([(0.0, 0.5, 1.0, -0.5), (0.5, 2.0, -0.7, -1.0)]),
        ]
        alone = self._alone(fs, sp)
        chunks = norms_mod.even_chunks(fs, parts)
        batch = [res for chunk in chunks
                 for res in norms_mod._search_group(chunk, sp, IntegrationSettings())]
        for a, b in zip(alone, batch):
            assert _same_result(a, b), (a, b)

    def test_table_keeps_its_results_across_batches(self, monkeypatch):
        searched = []
        original = norms_mod._search_group

        def counting(fs, *args):
            searched.extend(fs)
            return original(fs, *args)

        monkeypatch.setattr(norms_mod, "_search_group", counting)
        table = NormTable(M112)
        [first] = table.evaluate([POWER_IN])
        batch = table.evaluate([POWER_OUT, POWER_IN, POWER_OUT])
        assert batch[1] is first and batch[0] is batch[2]
        assert table.evaluate([POWER_OUT])[0] is batch[0]
        assert searched == [POWER_IN, POWER_OUT]
        # the results go with the table: another one starts cold
        assert _same_result(NormTable(M112).evaluate([POWER_IN])[0], first)
        assert searched == [POWER_IN, POWER_OUT, POWER_IN]

    @pytest.mark.parametrize(
        "size, parts, lengths",
        [
            (20, 1, [20]),          # one chunk here
            (20, 2, [10, 10]),      # one chunk per part
            (5, 2, [3, 2]),         # cut evenly
            (7, 4, [2, 2, 2, 1]),
            (1, 3, [1]),
            (0, 2, []),
        ],
    )
    def test_lockstep_chunks(self, size, parts, lengths):
        items = list(range(size))
        chunks = norms_mod.even_chunks(items, parts)
        assert [len(c) for c in chunks] == lengths
        assert [x for c in chunks for x in c] == items

    def test_certified_functions_leave_no_gaps(self, monkeypatch):
        # certified and searched functions alternate; all 20 searched ones
        # go through one pass of the exact n = 1 path, in their order
        rng = np.random.Generator(np.random.Philox(key=5))
        rel_tol = IntegrationSettings().rel_tol
        searched, certified = [], []
        while len(searched) < 20 or len(certified) < 20:
            f = random_pair(rng, M112)[0]
            if f.is_zero or norm_is_infinite(f, M112):
                continue
            side = searched if norms_mod._certified([f], M112, rel_tol)[0] is None else certified
            if len(side) < 20 and f not in side:
                side.append(f)
        fs = [f for pair in zip(searched, certified) for f in pair]
        passes = []
        original = norms_mod.exact_norms

        def counting(group, *args):
            passes.append(list(group))
            return original(group, *args)

        monkeypatch.setattr(norms_mod, "exact_norms", counting)
        NormTable(M112).evaluate(fs)
        assert passes == [[norms_mod._shape(f)[0] for f in searched]]


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
        return searched

    def test_witness_pair_norms_equal_bit_for_bit(self):
        # [DERIVED] |k| = f pointwise, so k has f's shape and f's norm
        sp = SpaceParams(3, 2.0, 4.0, Mode.MORREY)
        f, k = witness_pair_morrey(sp)
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
        res_f, res_merged = NormTable(M112).evaluate([f, merged])
        assert res_f.value == 2.0 * res_merged.value
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

    @staticmethod
    def _canonical_shape(f):
        """The shape built through canonicalize: the reference for _shape."""
        if f.is_zero:
            return f, 1.0
        c = abs(f.pieces[0].coef)
        coefs = [abs(pc.coef) / c for pc in f.pieces]
        if not all(sys.float_info.min <= x < INF for x in coefs):
            coefs, c = [abs(pc.coef) for pc in f.pieces], 1.0
        return canonicalize(
            RadialPiece(pc.lo, pc.hi, x, pc.alpha) for pc, x in zip(f.pieces, coefs)
        ), c

    @staticmethod
    def _shape_cases(rng):
        """Random pairs with their sums, and functions built to merge and to
        overflow or underflow their coefficient quotients."""
        fs = []
        for sp in (M112, S112):
            for _ in range(40):
                x, y = random_pair(rng, sp)
                fs += [x, y, *(_sums(x, y) or ())]
        for _ in range(200):
            k = int(rng.integers(1, 6))
            cuts = np.sort(rng.uniform(0.0, 5.0, k + 1))
            if rng.random() < 0.5:
                cuts[0] = 0.0
            his = [*cuts[1:-1], INF if rng.random() < 0.5 else cuts[-1]]
            mags = rng.choice([1.0, 2.0], k) * 10.0 ** rng.choice([0, 0, 0, 300, -300, -310], k)
            signs = rng.choice([-1.0, 1.0], k)
            alphas = rng.choice([-0.5, -0.5, -1.0], k)
            fs.append(canonicalize(
                (lo, hi, float(c), float(a))
                for lo, hi, c, a, keep in zip(cuts, his, signs * mags, alphas, rng.random(k))
                if keep > 0.2
            ))
        return fs

    def test_direct_build_equals_canonicalize(self):
        def bits(shape):
            s, c = shape
            return [tuple(float.hex(float(v)) for v in (pc.lo, pc.hi, pc.coef, pc.alpha))
                    for pc in s.pieces], c.hex()

        fs = self._shape_cases(np.random.Generator(np.random.Philox(key=9)))
        fallbacks = merges = 0
        for f in fs:
            got, want = norms_mod._shape(f), self._canonical_shape(f)
            assert bits(got) == bits(want), f
            fallbacks += not f.is_zero and got[1] == 1.0 and abs(f.pieces[0].coef) != 1.0
            merges += len(got[0].pieces) < len(f.pieces)
        # the cases reach both the fallback and the merge
        assert fallbacks >= 5 and merges >= 5, (fallbacks, merges)


def _random_nonincreasing(rng, sp):
    """A random f with |f| radially nonincreasing and a finite norm in sp.

    One to three pieces from the origin with no gaps, exponents <= 0,
    each piece starting at most as high as its left neighbour ends, and
    either a tail to infinity (exponent <= -n/q in Morrey mode, the
    critical -n/q half the time) or a drop to 0.
    """
    n, q = sp.n, sp.q
    k = int(rng.integers(1, 4))
    lo, hi = (1e-3, 1.0) if sp.mode is Mode.SMALL_MORREY else (1e-2, 10.0)
    cuts = [0.0, *np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), k - 1))).tolist()]
    tail = rng.random() < 0.7
    if tail:
        cuts.append(INF)
    else:
        cuts.append(float(cuts[-1] * 10.0 ** rng.uniform(0.1, 1.0)) if k > 1
                    else float(np.exp(rng.uniform(math.log(lo), math.log(hi)))))
    alphas = [float(rng.uniform(-n / q, 0.0))] + [float(rng.uniform(-n, 0.0)) for _ in range(k - 1)]
    if tail and sp.mode is Mode.MORREY:
        alphas[-1] = -n / q if rng.random() < 0.5 else float(rng.uniform(-1.5 * n, -n / q))
        if k == 1:
            alphas[0] = -n / q
    coefs = [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))]
    for j in range(1, k):
        left = abs(coefs[-1]) * cuts[j] ** alphas[j - 1]
        drop = 1.0 if rng.random() < 0.2 else float(rng.uniform(0.1, 1.0))
        coefs.append(float(rng.choice([-1.0, 1.0]) * left * drop / cuts[j] ** alphas[j]))
    return canonicalize(
        (cuts[j], cuts[j + 1], coefs[j], alphas[j]) for j in range(k)
    )


class TestExactCentered:
    """f certified by the bathtub bound takes the centered supremum, not the search.

    A radially nonincreasing |f|^p is its own decreasing rearrangement,
    so its bathtub bound meets its centered supremum and it is certified.
    """

    @staticmethod
    def _no_kernel(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel called on the exact path")

        for module, name in ((integrate_mod, "ball_integrals"), (norms_mod, "ball_integrals"),
                             (integrate_mod, "group_ball_integrals_n1"),
                             (exact1d_mod, "group_ball_integrals_n1")):
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("n, p, q", [(1, 1.0, 2.0), (2, 1.0, 2.0), (3, 2.0, 4.0)])
    def test_pure_power_is_closed_form(self, monkeypatch, n, p, q, mode):
        # [DERIVED] |x|^(-n/q) is radially decreasing and its centered
        # profile is v_n^(1/q) (1 - p/q)^(-1/p) at every radius
        self._no_kernel(monkeypatch)
        sp = SpaceParams(n, p, q, mode)
        res = norm(canonicalize([(0.0, INF, 1.0, -n / q)]), sp)
        expected = closed_form_power_norm(sp)
        assert abs(res.value - expected) <= 2 * math.ulp(expected)
        assert res.argmax.d == 0.0 and res.tol_ok and not res.truncated

    @pytest.mark.parametrize("sp", [M112, S112])
    def test_witness_parts_skip_the_kernel(self, monkeypatch, sp):
        # [DERIVED] the inner truncation keeps the power's profile below
        # r = 1; in small mode that is every radius, so no limit is missed
        self._no_kernel(monkeypatch)
        res = norm(POWER_IN, sp)
        assert res.value == pytest.approx(TWO_SQRT2, rel=1e-15)
        assert res.argmax.d == 0.0 and not res.truncated

    @pytest.mark.parametrize(
        "alpha, r_star, expected",
        [
            # [DERIVED] n = 1, p = 1, q = 2, f = 1 on [0, 1) and |x|^alpha
            # past it.  alpha = -1 (gamma = 0): P(r) = (2 / r)^(1/2)
            # (1 + log r), stationary where 1 + log r = 2, at r = e, with
            # P(e) = 2 (2 / e)^(1/2)
            (-1.0, math.e, 2.0 * math.sqrt(2.0 / math.e)),
            # alpha = -3/4 (gamma = 1/4): P(r) = (2 r)^(-1/2) (8 r^(1/4) - 6),
            # stationary where r^(1/4) = 3/2, at r = 81/16, with P = 4 sqrt(2) / 3
            (-0.75, 81.0 / 16.0, 4.0 * math.sqrt(2.0) / 3.0),
        ],
    )
    def test_interior_root(self, monkeypatch, alpha, r_star, expected):
        self._no_kernel(monkeypatch)
        res = norm(canonicalize([(0.0, 1.0, 1.0, 0.0), (1.0, INF, 1.0, alpha)]), M112)
        assert res.value == pytest.approx(expected, rel=1e-15)
        assert res.argmax.d == 0.0 and res.argmax.r == pytest.approx(r_star, rel=1e-14)
        assert not res.truncated

    def test_tail_still_rising_is_truncated(self):
        # [DERIVED] n = 1, p = q = 1 (weight 1), f = 1 on [0, 1) and
        # |x|^(-2) past it: the centered integral 2 (2 - 1/r) climbs to 4
        # as r -> infinity, so the window's best is r_max = 1e6
        f = canonicalize([(0.0, 1.0, 1.0, 0.0), (1.0, INF, 1.0, -2.0)])
        sp = SpaceParams(1, 1.0, 1.0, Mode.MORREY)
        assert norms_mod._certified([f], sp, IntegrationSettings().rel_tol)[0] is not None
        res = norm(f, sp)
        assert res.value == pytest.approx(4.0 - 2.0 / 1e6, rel=1e-15)
        assert res.argmax == norms_mod.Ball(0.0, 1e6) and res.truncated

    @pytest.mark.parametrize(
        "pieces, expected",
        [
            # [DERIVED] in M112 the bound counts both constant runs at once,
            # U = (2 + 2)^(1/2) = 2, which no ball reaches: the centered
            # ball of radius 2.5 gives 4 / 5^(1/2)
            ([(0.0, 1.0, 1.0, 0.0), (1.5, 2.5, 1.0, 0.0)], False),      # a gap
            # [DERIVED] U = 3 * 2^(1/2) from the 3-run alone, above the
            # centered 4 = 8 / 4^(1/2)
            ([(0.0, 1.0, 1.0, 0.0), (1.0, 2.0, 3.0, 0.0)], False),      # an upward jump
            ([(0.0, 1e-200, 1.0, 0.0), (1e-200, INF, 1.0, -2.0)], False),  # up, past floats
            ([(0.0, 1.0, 1.0, 0.5)], False),                            # alpha > 0
            ([(0.5, INF, 1.0, -0.5)], False),                           # starts past 0
            ([(0.0, 1.0, 1.0, -0.5), (1.0, 3.0, 0.5, -1.0)], True),     # drops, then 0
            ([(0.0, 1.0, 1.0, -0.5), (1.0, INF, -1.0, -0.5)], True),    # a sign flip
            ([(0.0, 2.0, -3.0, 0.0)], True),                            # a constant
            ([], False),                                                # zero
        ],
    )
    def test_nonincreasing_edge_cases(self, pieces, expected):
        # whether the bathtub bound certifies f in M112; the nonincreasing
        # ones must, and these others must not (zero takes its own exit)
        f = canonicalize(pieces)
        rel_tol = IntegrationSettings().rel_tol
        assert (not f.is_zero and norms_mod._certified([f], M112, rel_tol)[0] is not None) is expected

    @pytest.mark.parametrize("sp", [M112, S112, SpaceParams(2, 1.5, 4.0, Mode.MORREY),
                                    SpaceParams(3, 2.0, 4.0, Mode.SMALL_MORREY)])
    def test_shape_keeps_nonincreasing(self, monkeypatch, sp):
        # every draw and its shape are certified, with no kernel call;
        # dividing by the first coefficient lifts a continuous breakpoint
        # by about an ulp, which must not push the shape off the exact path
        rng = np.random.Generator(np.random.Philox(key=7))
        rel_tol = IntegrationSettings().rel_tol
        fs = [_random_nonincreasing(rng, sp) for _ in range(300)]
        for f in fs:
            for g in (f, norms_mod._shape(f)[0]):
                assert norms_mod._certified([g], sp, rel_tol)[0] is not None, g
        # the bathtub bound alone certifies them too (U = L): _certified
        # only skips computing it
        shapes = fs + [norms_mod._shape(f)[0] for f in fs]
        lowers = norms_mod._centered_suprema(shapes, sp, rel_tol)
        for g, lower, u_win, u_all in zip(shapes, lowers, *norms_mod._bathtub_bounds(shapes, sp)):
            bar = lower.value * (1.0 + rel_tol)
            assert u_win <= bar and (lower.truncated or u_all <= bar), g
        self._no_kernel(monkeypatch)
        assert all(res.argmax.d == 0.0 for res in NormTable(sp).evaluate(fs))

    @pytest.mark.parametrize("sp", [M112, S112])
    def test_continuous_breakpoint_skips_the_kernel(self, monkeypatch, sp):
        # its shape's second piece starts 1.1e-16 relative above where the
        # first ends
        f = canonicalize([(0.0, 9.405744996024191, 2.4520874576305247, -0.002632652282787362),
                          (9.405744996024191, INF, 18.765451986047335, -0.9106142091913831)])
        self._no_kernel(monkeypatch)
        res = norm(f, sp)
        assert res.argmax.d == 0.0 and res.tol_ok

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "n, p, q", [(1, 1.0, 2.0), (1, 2.0, 3.0), (2, 1.0, 2.0), (2, 1.5, 4.0),
                    (3, 2.0, 4.0), (3, 1.5, 3.0)],
    )
    def test_agrees_with_forced_search(self, monkeypatch, n, p, q, mode):
        # 9 functions per case, 108 in all, all certified.  The search
        # flags `truncated` when its profile rose by more than 1e-7 over
        # its last grid step, so it misses a limit that beats r_max by
        # less: one critical tail of the n = 3 Morrey set climbs 3.7e-10
        # past r_max, 2.4e-10 of it over the last grid step.  Where the
        # flags differ the exact flag must be that miss, backed by the
        # tail's closed-form limit.
        sp = SpaceParams(n, p, q, mode)
        rng = np.random.Generator(np.random.Philox(key=5, counter=[n, int(2 * p), int(q), 0]))
        fs = []
        while len(fs) < 9:
            f = _random_nonincreasing(rng, sp)
            if not norm_is_infinite(f, sp):
                fs.append(f)
        exact = NormTable(sp).evaluate(fs)
        with monkeypatch.context() as patch:
            patch.setattr(norms_mod, "_certified", lambda fs, *args: [None] * len(fs))
            searched = NormTable(sp).evaluate(fs)
        rel_tol = IntegrationSettings().rel_tol
        for f, a, b in zip(fs, exact, searched):
            assert a.value == pytest.approx(b.value, rel=1e-13), (f, a, b)
            assert a.argmax.d == 0.0 and a.tol_ok
            if a.truncated != b.truncated:
                tail = f.pieces[-1]
                limit = abs(tail.coef) * closed_form_power_norm(sp)
                assert a.truncated and (sp.mode, tail.hi, tail.alpha) == (Mode.MORREY, INF, -n / q)
                assert limit > a.value * (1.0 + rel_tol), (f, a, b)


def _random_mixed(rng, sp):
    """A random f with free exponents, gaps and upward jumps.

    One to four pieces on disjoint intervals, the first from 0 and the
    last to infinity half the time each, with exponents that keep the
    norm finite at 0 and, in Morrey mode, mostly at infinity (callers
    drop the rest with norm_is_infinite).
    """
    n, q = sp.n, sp.q
    k = int(rng.integers(1, 5))
    cuts = np.sort(np.exp(rng.uniform(math.log(1e-2), math.log(10.0), 2 * k))).tolist()
    pieces = []
    for j in range(k):
        lo, hi = cuts[2 * j], cuts[2 * j + 1]
        if j == 0 and rng.random() < 0.5:
            lo = 0.0
        if j == k - 1 and rng.random() < 0.5:
            hi = INF
        if lo == 0.0:
            alpha = float(rng.uniform(-n / q, 1.0))
        elif hi == INF and sp.mode is Mode.MORREY:
            alpha = -n / q - float(rng.uniform(0.0, 1.0)) * (rng.random() < 0.7)
        else:
            alpha = float(rng.uniform(-2.0 * n, 1.0 if hi == INF else 1.5))
        coef = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
        pieces.append((lo, hi, coef, 0.0 if hi == INF and alpha > 0.0 else alpha))
    return canonicalize(pieces)


def _dense_bathtub(f, sp, cells=4000):
    """Lower estimates of (U_win, U_all): |f|^p averaged on geometric cells.

    The cells, sorted by their mean, give sets of measure M holding the
    cells' integral, at most Phi(M), so every estimate is at most U.
    """
    n, p, q = sp.n, sp.p, sp.q
    vn = unit_ball_volume(n)
    measure, mass = [], []
    for pc in f.pieces:
        t = np.geomspace(max(pc.lo, 1e-9), min(pc.hi, 1e9), cells + 1)
        if pc.lo == 0.0:
            t[0] = 0.0
        gamma = pc.alpha * p + n
        measure.append(vn * np.diff(t**n))
        mass.append(n * vn * abs(pc.coef) ** p * np.diff(t**gamma) / gamma)
    measure, mass = np.concatenate(measure), np.concatenate(mass)
    order = np.argsort(-mass / measure)
    m, phi = np.cumsum(measure[order]), np.cumsum(mass[order])
    bound = m ** (1.0 / q - 1.0 / p) * phi ** (1.0 / p)
    r_min, r_max, _ = search_window(f, sp.mode)
    window = (vn * r_min**n <= m) & (m <= vn * r_max**n)
    below = m < vn if sp.mode is Mode.SMALL_MORREY else m < INF
    return bound[window].max(initial=0.0), bound[below].max(initial=0.0)


class TestBathtubBound:
    """The bathtub bound U of the module docstring: L <= ||f|| <= U."""

    REL_TOL = IntegrationSettings().rel_tol

    @staticmethod
    def _random_set(sp, count, key):
        counter = [sp.n, int(2 * sp.p), int(sp.q), 0]
        rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
        fs = []
        while len(fs) < count:
            # the sweeps' shared critical exponent, and free exponents
            f = random_pair(rng, sp)[0] if len(fs) % 2 else _random_mixed(rng, sp)
            if not f.is_zero and not norm_is_infinite(f, sp) and f not in fs:
                fs.append(f)
        return fs

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "n, p, q, count", [(1, 1.0, 2.0, 12), (1, 2.0, 3.0, 8), (2, 1.0, 2.0, 4), (3, 2.0, 4.0, 3)]
    )
    def test_search_never_beats_the_bound(self, monkeypatch, n, p, q, count, mode):
        sp = SpaceParams(n, p, q, mode)
        fs = self._random_set(sp, count, key=13)
        monkeypatch.setattr(norms_mod, "_certified", lambda fs, *args: [None] * len(fs))
        bounds = zip(*norms_mod._bathtub_bounds(fs, sp))
        for f, res, (u_win, u_all) in zip(fs, NormTable(sp).evaluate(fs), bounds):
            lower = norms_mod._centered_suprema([f], sp, self.REL_TOL)[0].value
            assert res.value <= u_win * (1.0 + self.REL_TOL), (f, res, u_win)
            # L and U meet on nonincreasing functions, up to rounding: L's
            # centered integral divides a difference of two powers by
            # gamma, which reached 3.2e-14 relative at a stationary root
            # on a piece with gamma near -0.01
            assert lower <= u_win * (1.0 + 1e-13) and u_win <= u_all, (f, lower, u_win, u_all)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("n, p, q", [(1, 1.0, 2.0), (2, 1.5, 4.0), (3, 2.0, 4.0)])
    def test_bound_covers_dense_rearrangement(self, n, p, q, mode):
        # a missed stationary point would leave U below the cells' estimate
        sp = SpaceParams(n, p, q, mode)
        fs = self._random_set(sp, 20, key=17)
        for f, u_win, u_all in zip(fs, *norms_mod._bathtub_bounds(fs, sp)):
            dense_win, dense_all = _dense_bathtub(f, sp)
            assert u_win >= dense_win * (1.0 - 1e-12), (f, u_win, dense_win)
            assert u_all >= dense_all * (1.0 - 1e-12), (f, u_all, dense_all)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "n, p, q", [(1, 1.0, 2.0), (2, 1.0, 2.0), (2, 1.5, 4.0), (3, 2.0, 4.0)]
    )
    def test_power_bound_is_closed_form(self, n, p, q, mode):
        # [DERIVED] |x|^(-n/q) has g*(m) = (m / v_n)^(-p/q), so
        # Phi(m) = v_n^(p/q) m^(1 - p/q) / (1 - p/q), and
        # m^(1/q - 1/p) Phi(m)^(1/p) = v_n^(1/q) (1 - p/q)^(-1/p) at every m
        sp = SpaceParams(n, p, q, mode)
        expected = closed_form_power_norm(sp)
        for u in norms_mod._bathtub_bounds([canonicalize([(0.0, INF, 1.0, -n / q)])], sp):
            assert abs(u[0] - expected) <= 4 * math.ulp(expected)

    def test_annulus_step_is_searched(self):
        # [DERIVED] n = 1, p = 1, q = 2, f = c on 1 <= |x| < 3 with c = 1.5:
        # g* = c on [0, 2 (b - a)) = [0, 4), and m^(-1/2) Phi(m) = c m^(1/2)
        # up to m = 4, then 4 c m^(-1/2): U = c (2 (b - a))^(1/q) = 3.  The
        # centered profile (2 r)^(-1/2) 2 c (r - 1) rises on [1, 3] and
        # falls past it: L = c 4 / 6^(1/2) = 6^(1/2) < U, so f is searched
        f = canonicalize([(1.0, 3.0, 1.5, 0.0)])
        (u_win,), (u_all,) = norms_mod._bathtub_bounds([f], M112)
        assert u_win == u_all == pytest.approx(3.0, rel=1e-15)
        lower = norms_mod._centered_suprema([f], M112, self.REL_TOL)[0]
        assert lower.value == pytest.approx(math.sqrt(6.0), rel=1e-15)
        assert norms_mod._certified([f], M112, self.REL_TOL)[0] is None
        res = norm(f, M112)
        assert lower.value * (1.0 - self.REL_TOL) <= res.value <= u_win * (1.0 + self.REL_TOL)

    def test_out_of_range_level_is_searched(self):
        # [DERIVED] 1e-170 squared underflows, so the bound declines (U is
        # infinite) and f is searched; 1 on |x| < 1 dominates: (2 r)^(1/4)
        # -> 2^(1/4) as r -> 1 in small mode, n = 1, p = 2, q = 4
        sp = SpaceParams(1, 2.0, 4.0, Mode.SMALL_MORREY)
        f = canonicalize([(0.0, 1.0, 1.0, 0.0), (2.0, 3.0, 1e-170, 0.0)])
        assert [u.tolist() for u in norms_mod._bathtub_bounds([f], sp)] == [[INF], [INF]]
        assert norms_mod._certified([f], sp, self.REL_TOL)[0] is None
        res = norm(f, sp)
        assert res.value == pytest.approx(2.0**0.25, rel=1e-6) and res.truncated

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("n, p, q", [(1, 1.0, 2.0), (1, 2.0, 4.0), (2, 1.5, 4.0),
                                         (3, 2.0, 4.0)])
    def test_batch_equals_alone(self, n, p, q, mode):
        # each row of a mixed batch equals the function's bound alone, to
        # the bit, and a declining row leaves the others alone
        sp = SpaceParams(n, p, q, mode)
        rng = np.random.Generator(np.random.Philox(key=37, counter=[n, int(2 * p), int(q), 0]))
        fs = [canonicalize([(0.0, INF, 1.0, -n / q)]), canonicalize([(0.0, INF, 2.5, -n / q)])]
        draws = (lambda: random_pair(rng, sp)[0], lambda: _random_mixed(rng, sp),
                 lambda: _random_exponents(rng, sp))
        while len(fs) < 32:
            f = draws[len(fs) % 3]()
            if not f.is_zero and not norm_is_infinite(f, sp):
                fs.append(f)
        declines = canonicalize([(0.0, 1.0, 1.0, 0.0), (2.0, 3.0, 1e-170, 0.0)])
        if p == 2.0 and n == 1:
            fs.insert(7, declines)
        for batch in (fs, fs[::-1], fs[3:11]):
            bounds = norms_mod._bathtub_bounds(batch, sp)
            for f, u_win, u_all in zip(batch, *bounds):
                alone = [u[0] for u in norms_mod._bathtub_bounds([f], sp)]
                assert [u_win.hex(), u_all.hex()] == [u.hex() for u in alone], f
                assert (u_win == INF) == (f == declines), f

    @pytest.mark.parametrize("mode", list(Mode))
    def test_bound_keeps_digits_near_gamma_zero(self, mode):
        # a tail piece with gamma = alpha p + n in (-0.03, -0.002): U holds
        # the centered profile at L's argmax, computed in 40-digit mpmath.
        # Its mass as a difference of two powers over gamma read up to
        # 1.2e-14 below it
        import mpmath

        sp = SpaceParams(3, 1.5, 3.0, mode)
        n, p, q = sp.n, mpmath.mpf(sp.p), mpmath.mpf(sp.q)
        rng = np.random.Generator(np.random.Philox(key=31, counter=[int(mode is Mode.MORREY), 0, 0, 0]))
        fs = []
        for _ in range(40):
            b, a0 = float(rng.uniform(0.2, 5.0)), float(rng.uniform(-0.9, 0.5))
            c, g = float(rng.uniform(0.3, 3.0)), float(rng.uniform(-0.03, -0.002))
            fs.append(canonicalize([(0.0, b, 1.0, a0), (b, INF, c, (g - 3.0) / 1.5)]))
        lowers = norms_mod._centered_suprema(fs, sp, self.REL_TOL)
        with mpmath.workdps(40):
            vn = mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1)
            for f, lower, u_win in zip(fs, lowers, norms_mod._bathtub_bounds(fs, sp)[0]):
                r = mpmath.mpf(lower.argmax.r)
                total = mpmath.mpf(0)
                for pc in f.pieces:
                    gamma = mpmath.mpf(pc.alpha) * p + n
                    top = mpmath.mpf(pc.hi) if pc.hi < r else r
                    total += (n * vn * mpmath.mpf(abs(pc.coef)) ** p
                              * (top**gamma - mpmath.mpf(pc.lo) ** gamma) / gamma)
                    if pc.hi >= r:
                        break
                profile = (vn * r**n) ** (1 / q - 1 / p) * total ** (1 / p)
                assert u_win >= profile * (1 - 4 * sys.float_info.epsilon), (f, u_win, profile)

    def test_exponential_sum_roots(self):
        # every sign change on a fine grid holds a root that was found,
        # and every root found is one, for sums with up to 5 terms and a
        # linear term, all solved in one call
        self._check_exp_sum_roots(-4.0, 4.0)

    @pytest.mark.parametrize("lo, hi", [(-INF, INF), (-INF, 4.0), (-4.0, INF)])
    def test_exponential_sum_roots_infinite_ends(self, lo, hi):
        # the same, checked out to 60 past an infinite end
        self._check_exp_sum_roots(lo, hi)

    @staticmethod
    def _check_exp_sum_roots(lo, hi):
        rng = np.random.default_rng(3)
        count = 300
        a = rng.uniform(-2.0, 2.0, (5, count))
        e = np.where(rng.random((5, count)) < 0.5, 0.0, rng.uniform(-3.0, 3.0, (5, count)))
        a[np.arange(5)[:, None] >= rng.integers(1, 6, count)] = 0.0
        lin = np.where(rng.random(count) < 0.3, rng.uniform(-1.0, 1.0, count), 0.0)
        col, roots = exact1d_mod.exp_sum_roots(a, e, lin, np.full(count, lo), np.full(count, hi))
        assert (np.diff(col) >= 0).all() and ((lo < roots) & (roots < hi)).all()
        z = np.linspace(max(lo, -60.0), min(hi, 60.0), 24001)
        for k in range(count):
            terms = [(x, y) for x, y in zip(a[:, k], e[:, k]) if x]
            found = roots[col == k]
            values = sum(x * np.exp(y * z) for x, y in terms) + lin[k] * z
            for j in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0):
                assert any(z[j] <= root <= z[j + 1] for root in found), (terms, lin[k], found)
            for root in found:
                value = sum(x * math.exp(y * root) for x, y in terms) + lin[k] * root
                # the sum's scale over a finite bracket, else at the root
                at = max(-lo, hi) if max(-lo, hi) < INF else None
                scale = (sum(abs(x) * math.exp(abs(y) * at) for x, y in terms) + abs(lin[k]) * at
                         if at else sum(abs(x) * math.exp(y * root) for x, y in terms)
                         + abs(lin[k] * root))
                assert abs(value) <= 1e-12 * scale, (terms, lin[k], root)


def _random_exponents(rng, sp):
    """A random f whose pieces take gamma = alpha p + n from 0.5, 2, -1 or anywhere.

    One to four pieces on disjoint intervals, the first from 0 and the
    last to infinity half the time each; numpy has scalar fast paths at
    the exponents 0.5, 2 and -1.  A piece from 0 keeps gamma > 0, so that
    most draws have a finite norm (callers drop the rest).
    """
    n, p = sp.n, sp.p
    k = int(rng.integers(1, 5))
    cuts = np.sort(np.exp(rng.uniform(math.log(1e-2), math.log(10.0), 2 * k))).tolist()
    pieces = []
    for j in range(k):
        lo, hi = cuts[2 * j], cuts[2 * j + 1]
        if j == 0 and rng.random() < 0.5:
            lo = 0.0
        if j == k - 1 and rng.random() < 0.5:
            hi = INF
        gamma = float(rng.choice([0.5, 2.0, -1.0, rng.uniform(-2.0, 3.0)]))
        if lo == 0.0:
            gamma = abs(gamma)
        # an alpha whose alpha p + n is gamma exactly, where one is near
        alpha = (gamma - n) / p
        alpha = next((a for a in (alpha, math.nextafter(alpha, INF), math.nextafter(alpha, -INF))
                      if a * p + n == gamma), alpha)
        coef = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0))
        pieces.append((lo, hi, coef, alpha))
    return canonicalize(pieces)


class TestBatchedCentered:
    """The centered supremum L of a batch equals each function's own, bit for bit."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("n, p, q", [(1, 1.0, 2.0), (1, 2.0, 3.0), (2, 1.5, 4.0),
                                         (3, 2.0, 4.0)])
    def test_batch_equals_alone(self, n, p, q, mode):
        sp = SpaceParams(n, p, q, mode)
        rng = np.random.Generator(np.random.Philox(key=23, counter=[n, int(2 * p), int(q), 0]))
        rel_tol = IntegrationSettings().rel_tol
        fs = []
        while len(fs) < 40:
            f = _random_exponents(rng, sp) if len(fs) % 3 else random_pair(rng, sp)[0]
            if not f.is_zero and not norm_is_infinite(f, sp):
                fs.append(f)
        # every exponent with a numpy fast path occurs, exactly
        assert {0.5, 2.0, -1.0} <= {pc.alpha * p + n for f in fs for pc in f.pieces}
        # batches that mix exponents, and a batch of one exponent rule
        batches = [fs, fs[::-1], fs[5:13], fs[::3]]
        for batch in batches:
            lowers = norms_mod._centered_suprema(batch, sp, rel_tol)
            certified = norms_mod._certified(batch, sp, rel_tol, lowers)
            for f, lower, cert in zip(batch, lowers, certified):
                alone = norms_mod._centered_suprema([f], sp, rel_tol)[0]
                assert _same_result(lower, alone), (f, lower, alone)
                # the value is the centered profile at the argmax, to the bit
                # (as an array: numpy's 0-d power can be an ulp off the array loop)
                r_star = np.array([lower.argmax.r])
                profile = centered_norm_profile(f, sp.with_mode(Mode.MORREY), r_star)
                assert lower.value == profile[0], (f, lower)
                alone = norms_mod._certified([f], sp, rel_tol)[0]
                assert (cert is None and alone is None) or _same_result(cert, alone)
        # the certified ones through _search_group: a batch and one at a time
        certified = [f for f in fs if norms_mod._certified([f], sp, rel_tol)[0] is not None]
        assert len(certified) >= 5
        batch = norms_mod._search_group(certified, sp, IntegrationSettings())
        for f, res in zip(certified, batch):
            alone = norms_mod._search_group([f], sp, IntegrationSettings())[0]
            assert _same_result(res, alone), (f, res, alone)


    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("n, p, q", [(1, 1.0, 2.0), (1, 2.0, 3.0), (2, 1.5, 4.0),
                                         (3, 2.0, 4.0)])
    def test_float_radius_equals_value(self, n, p, q, mode):
        # a certified norm is its centered profile at the argmax radius,
        # to the bit, whether the radius is a number or an array.  Norm
        # shapes (first coefficient 1), whose value is not rescaled
        sp = SpaceParams(n, p, q, mode)
        rng = np.random.Generator(np.random.Philox(key=29, counter=[n, int(2 * p), int(q), 0]))
        rel_tol = IntegrationSettings().rel_tol
        fs = []
        while len(fs) < 30:
            f = _random_exponents(rng, sp) if len(fs) % 3 else random_pair(rng, sp)[0]
            f = norms_mod._shape(f)[0]
            if (not f.is_zero and not norm_is_infinite(f, sp)
                    and norms_mod._certified([f], sp, rel_tol)[0] is not None):
                fs.append(f)
        for f, res in zip(fs, NormTable(sp).evaluate(fs)):
            r = res.argmax.r
            assert isinstance(r, float)
            assert centered_norm_profile(f, sp, r) == res.value, (f, res)
            assert centered_norm_profile(f, sp, np.array([r]))[0] == res.value, (f, res)


class TestBestInRows:
    """The zoom's per-row argmax against the sort it replaced."""

    @staticmethod
    def lexsort_reference(values, d, r):
        return np.lexsort((r, d, -values), axis=-1)[..., 0]

    def check(self, values, d, r):
        values, d, r = (np.asarray(a, dtype=float) for a in (values, d, r))
        best = norms_mod.best_in_rows(values, d, r)
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

    def test_thin_annulus_far_out(self):
        # [DERIVED] f = c |x|^(-1/2) on a <= |x| < b, n = 1, p = 1, q = 2:
        # the ball [a, b] gives 2 |c| (b^(1/2) - a^(1/2)) / (b - a)^(1/2)
        a, b, c = 0.018431, 0.019073, -0.23137
        res = norm(canonicalize([(a, b, c, -0.5)]), S112)
        aligned = 2.0 * abs(c) * (math.sqrt(b) - math.sqrt(a)) / math.sqrt(b - a)
        assert aligned == pytest.approx(0.042812, rel=1e-5)
        assert res.value >= 0.042812 * (1.0 - 1e-9)


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
        # |f| jumps up past a gap, and the bathtub bound does not certify f
        f = canonicalize([(0.0, 1.0, 1.0, -1.0), (1.5, 3.0, 2.0, -1.0)])
        assert norms_mod._certified([f], sp, IntegrationSettings().rel_tol)[0] is None
        monkeypatch.setattr(integrate_mod, "_MAX_PANELS", 2)
        monkeypatch.setattr(norms_mod, "_N_RADII", 8)
        monkeypatch.setattr(norms_mod, "_N_CENTERS", 3)
        res = norm(f, sp, IntegrationSettings(rel_tol=1e-13))
        assert not res.tol_ok


def _reference_nonincreasing(f) -> bool:
    """Whether |f| is radially nonincreasing, as computed in Python floats piece by piece."""
    pieces = f.pieces
    if pieces[0].lo != 0.0 or any(pc.alpha > 0.0 for pc in pieces):
        return False
    return all(
        a.hi == b.lo and math.log(abs(b.coef)) + b.alpha * math.log(b.lo)
        <= math.log(abs(a.coef)) + a.alpha * math.log(a.hi)
        for a, b in zip(pieces, pieces[1:])
    )


class TestPieceTable:
    """Every pass over a batch's one piece table equals each function's own pass, byte for byte."""

    SPACES = [SpaceParams(n, p, q, mode) for n, p, q in [(1, 1.0, 2.0), (1, 1.5, 4.0),
                                                          (2, 1.0, 2.0), (3, 2.0, 4.0)]
              for mode in Mode]

    @staticmethod
    def _batch(sp):
        """Named shapes and seeded random pairs and sums, permuted; zero and infinite ones too."""
        n, q = sp.n, sp.q
        tail = -n / q - 0.25
        named = [
            canonicalize([(0.0, 1.0, 1.0, -3.5), (1.0, 2.0, 0.5, -0.2)]),   # divergent at 0
            canonicalize([(0.0, 0.5, 1.0, -0.2), (1.0, 2.0, 0.7, -0.2)]),   # a support gap
            canonicalize([(0.3, 1.5, 2.0, -0.4), (1.5, 4.0, -1.0, -0.4)]),  # a support above 0
            canonicalize([(0.0, 0.5, 1.0, 0.4), (0.5, 2.0, -1.5, -0.3),     # mixed exponents
                          (2.0, 4.0, 0.8, tail)]),
            canonicalize([(0.0, 1.0, 2.0, -0.3), (1.0, INF, 1.0, tail)]),   # nonincreasing
            canonicalize([(2.0, 2.5, 1.0, 0.0)]),                           # a thin far annulus
            canonicalize([]),
        ]
        rng = np.random.Generator(np.random.Philox(key=31, counter=[n, int(q), 0, 0]))
        fs = list(named)
        for _ in range(6):
            x, y = random_pair(rng, sp)
            fs += [x, y, add(x, y), subtract(x, y)]
        fs = list(dict.fromkeys(fs))
        return [fs[k] for k in rng.permutation(len(fs))]

    @staticmethod
    def _bytes(x) -> bytes:
        return np.asarray(x, dtype=float).tobytes()

    @pytest.mark.parametrize("sp", SPACES, ids=str)
    def test_windows_and_flags(self, sp):
        # with nonincreasing functions and their shapes, whose breakpoints
        # often join two pieces at one level, where the comparison is tight
        rng = np.random.Generator(np.random.Philox(key=41))
        fs = [_random_nonincreasing(rng, sp) for _ in range(150)]
        fs = self._batch(sp) + fs + [norms_mod._shape(f)[0] for f in fs]
        tab = norms_mod._table(fs, sp)
        for k, f in enumerate(fs):
            assert tuple(tab.window[k].tolist()) == search_window(f, sp.mode), f
            assert bool(norms_mod._infinite(tab, sp)[k]) == norm_is_infinite(f, sp), f
            assert bool(tab.nonincreasing[k]) == (not f.is_zero and _reference_nonincreasing(f))
            assert bool(tab.divergent[k]) == any(pc.lo == 0.0 and pc.alpha * sp.p + sp.n <= 0.0
                                                 for pc in f.pieces)

    @pytest.mark.parametrize("sp", SPACES, ids=str)
    def test_passes_equal_their_one_shape_calls(self, sp):
        fs = self._batch(sp)
        p, n, rel_tol = sp.p, sp.n, IntegrationSettings().rel_tol
        finite = [f for f in fs if not f.is_zero and not norm_is_infinite(f, sp)]
        assert any(norm_is_infinite(f, sp) for f in fs) and len(finite) >= 20
        certified = [c is not None for c in norms_mod._certified(finite, sp, rel_tol)]
        assert any(certified) and not all(certified)
        tops = norms_mod._centered_tops(finite, sp)
        roots = norms_mod._stationary_roots(finite, sp)
        u_win, u_all = norms_mod._bathtub_bounds(finite, sp)
        for k, f in enumerate(finite):
            assert self._bytes(tops[k]) == self._bytes(norms_mod._centered_tops([f], sp)[0]), f
            size = len(f.pieces)
            alone = norms_mod._stationary_roots([f], sp)[0]
            assert self._bytes(roots[k, :size]) == self._bytes(alone), f
            assert np.isnan(roots[k, size:]).all()
            bounds = norms_mod._bathtub_bounds([f], sp)
            assert self._bytes([u_win[k], u_all[k]]) == self._bytes([u[0] for u in bounds]), f
        # centered integrals of every function, the divergent ones included, in one call
        rng = np.random.Generator(np.random.Philox(key=37))
        radii = np.exp(rng.uniform(math.log(1e-3), math.log(20.0), (len(fs), 30)))
        which = np.arange(len(fs))[:, None]
        batch = integrate_mod.group_centered_integrals(tuple(fs), p, n, which, radii)
        assert np.isinf(batch).any()
        for k, f in enumerate(fs):
            alone = integrate_mod.group_centered_integrals((f,), p, n, 0, radii[k])
            assert self._bytes(batch[k]) == self._bytes(alone), f
        if n == 1:
            self._check_exact_path(finite, sp, tops, rng)

    def _check_exact_path(self, fs, sp, tops, rng):
        """exact_norms and the n = 1 kernel on the batch equal their one-shape calls."""
        rel_tol = IntegrationSettings().rel_tol
        batch = exact1d_mod.exact_norms(fs, sp, rel_tol, tops)
        for f, row, found in zip(fs, tops, batch):
            assert self._bytes(found) == self._bytes(exact1d_mod.exact_norms([f], sp, rel_tol,
                                                                             [row])[0]), f
        # the kernel takes every function, the divergent and the zero one included
        fs = self._batch(sp)
        d = np.concatenate([rng.uniform(0.0, 5.0, 400), np.zeros(len(fs))])
        r = np.concatenate([np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 400)),
                            np.ones(len(fs))])
        which = np.concatenate([rng.integers(0, len(fs), 400), np.arange(len(fs))])
        ints = integrate_mod.group_ball_integrals_n1(tuple(fs), sp.p, which, d, r)
        assert np.isinf(ints).any()
        for k, f in enumerate(fs):
            at = which == k
            alone = integrate_mod.group_ball_integrals_n1((f,), sp.p, 0, d[at], r[at])
            assert self._bytes(ints[at]) == self._bytes(alone), f
