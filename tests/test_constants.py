"""Ratio functionals, witness pairs, closed-form bounds, and the estimator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from morreyconst.constants import (
    ConstantKind,
    Family,
    NotInSpace,
    ZeroFunction,
    candidate_pairs,
    estimate_constant,
    estimate_constants,
    pair_ratios,
    random_pair,
    ratio,
    theorem2_lower_bound,
    witness_pair_morrey,
    witness_pair_small_morrey,
)
from morreyconst.model import (
    MixedExponentOverlap,
    Mode,
    RadialPiece,
    SpaceParams,
    add,
    canonicalize,
    scale,
    subtract,
    truncate,
)
from morreyconst.norms import NormTable, norm

INF = math.inf

M112 = SpaceParams(1, 1.0, 2.0, Mode.MORREY)
S112 = SpaceParams(1, 1.0, 2.0, Mode.SMALL_MORREY)

ALL_KINDS = [
    ConstantKind.gen_vnj(1.0),
    ConstantKind.gen_vnj(1.5),
    ConstantKind.gen_vnj(2.0),
    ConstantKind.gen_vnj(3.0),
    ConstantKind.mod_vnj(),
    ConstantKind.gen_mod_vnj(1.0),
    ConstantKind.gen_mod_vnj(2.0),
    ConstantKind.gen_mod_vnj(3.0),
    ConstantKind.zbaganu(),
]


class TestKindValidation:
    def test_s_required_for_power_families(self):
        with pytest.raises(ValueError):
            ConstantKind(Family.GEN_VNJ)
        with pytest.raises(ValueError):
            ConstantKind.gen_vnj(0.5)

    def test_s_forbidden_elsewhere(self):
        with pytest.raises(ValueError):
            ConstantKind(Family.ZBAGANU, 2.0)

    def test_labels(self):
        assert ConstantKind.gen_vnj(2.0).label() == "gen_vnj(s=2)"
        assert ConstantKind.zbaganu().label() == "zbaganu"


class TestTrivialRatios:
    X = canonicalize([(0.0, 1.0, 1.0, -0.5)])

    @pytest.mark.parametrize(
        "kind",
        [ConstantKind.gen_vnj(1.0), ConstantKind.gen_vnj(2.7), ConstantKind.mod_vnj(),
         ConstantKind.gen_mod_vnj(2.0)],
    )
    def test_equal_pair_gives_one(self, kind):
        assert ratio(kind, self.X, self.X, M112) == pytest.approx(1.0, rel=1e-9)

    def test_opposite_pair(self):
        y = scale(self.X, -1.0)
        assert ratio(ConstantKind.gen_vnj(2.0), self.X, y, M112) == pytest.approx(
            1.0, rel=1e-9
        )
        assert ratio(ConstantKind.zbaganu(), self.X, y, M112) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_zero_argument_rejected(self):
        with pytest.raises(ZeroFunction):
            ratio(ConstantKind.gen_vnj(2.0), self.X, canonicalize([]), M112)

    def test_infinite_norm_rejected(self):
        bad = canonicalize([(0.0, INF, 1.0, 0.0)])  # constant: unbounded profile
        with pytest.raises(NotInSpace):
            ratio(ConstantKind.gen_vnj(2.0), self.X, bad, M112)


class TestWitnessPairs:
    def test_morrey_pieces_match(self):
        f, k = witness_pair_morrey(M112)
        assert f.pieces == (RadialPiece(0.0, INF, 1.0, -0.5),)
        assert k.pieces == (
            RadialPiece(0.0, 1.0, 1.0, -0.5),
            RadialPiece(1.0, INF, -1.0, -0.5),
        )

    def test_small_pieces_match(self):
        f, k = witness_pair_small_morrey(S112, 0.25)
        assert f.pieces == (RadialPiece(0.0, 1.0, 1.0, -0.5),)
        assert k.pieces == (
            RadialPiece(0.0, 0.25, 1.0, -0.5),
            RadialPiece(0.25, 1.0, -1.0, -0.5),
        )

    @pytest.mark.parametrize("params", [M112, SpaceParams(2, 1.0, 2.0), SpaceParams(3, 2.0, 4.0)])
    def test_sum_identities_exact(self, params):
        f, k = witness_pair_morrey(params)
        g = truncate(f, 0.0, 1.0)
        h = subtract(f, g)
        assert add(f, k) == scale(g, 2.0)
        assert subtract(f, k) == scale(h, 2.0)

    def test_small_sum_identities_exact(self):
        f, k = witness_pair_small_morrey(S112, 0.1)
        g = truncate(f, 0.0, 0.1)
        assert add(f, k) == scale(g, 2.0)

    def test_norm_of_k_equals_norm_of_f(self):
        f, k = witness_pair_morrey(M112)
        assert norm(k, M112).value == pytest.approx(norm(f, M112).value, rel=1e-9)

    def test_requires_strict_exponents(self):
        with pytest.raises(ValueError):
            witness_pair_morrey(SpaceParams(1, 2.0, 2.0))

    def test_requires_matching_mode(self):
        with pytest.raises(ValueError):
            witness_pair_morrey(S112)
        with pytest.raises(ValueError):
            witness_pair_small_morrey(M112, 0.5)

    def test_small_rejects_bad_eps(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                witness_pair_small_morrey(S112, eps)


class TestWitnessRatios:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_morrey_witness_near_two(self, kind):
        f, k = witness_pair_morrey(M112)
        value = ratio(kind, f, k, M112)
        assert 1.98 <= value <= 2.0 + 1e-9

    def test_morrey_witness_closed_form_deficit(self):
        # [DERIVED] with r_max = 1e6 the outer part's norm carries a
        # factor (1 - 1e-3), so the s-power ratio is 1 + (1 - 1e-3)^s
        f, k = witness_pair_morrey(M112)
        for s in (1.0, 2.0, 3.0):
            expected = 1.0 + (1.0 - 1e-3) ** s
            assert ratio(ConstantKind.gen_vnj(s), f, k, M112) == pytest.approx(
                expected, rel=1e-6
            )

    @pytest.mark.parametrize("eps", [0.5, 0.1, 0.01])
    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0])
    def test_small_witness_meets_bound(self, eps, s):
        kind = ConstantKind.gen_vnj(s)
        f, k = witness_pair_small_morrey(S112, eps)
        value = ratio(kind, f, k, S112)
        assert value >= theorem2_lower_bound(S112, eps, kind) - 1e-3
        assert value <= 2.0 + 1e-9

    def test_small_witness_monotone_in_eps(self):
        kind = ConstantKind.gen_vnj(2.0)
        values = [
            ratio(kind, *witness_pair_small_morrey(S112, eps), S112)
            for eps in (0.5, 0.1, 0.01, 1e-4)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestTheorem2Bound:
    def test_frozen_example(self):
        # [DERIVED] n=1,p=1,q=2, eps=0.01, s=2: 1 + (1 - 0.1)^2 = 1.81
        got = theorem2_lower_bound(S112, 0.01, ConstantKind.gen_vnj(2.0))
        assert got == pytest.approx(1.81, rel=1e-14)

    def test_mod_vnj_uses_s_two(self):
        a = theorem2_lower_bound(S112, 0.01, ConstantKind.mod_vnj())
        b = theorem2_lower_bound(S112, 0.01, ConstantKind.gen_vnj(2.0))
        assert a == b

    def test_product_form(self):
        got = theorem2_lower_bound(S112, 0.01, ConstantKind.zbaganu())
        assert got == pytest.approx(2.0 * 0.9, rel=1e-14)

    def test_eps_limits(self):
        near_zero = theorem2_lower_bound(S112, 1e-12, ConstantKind.gen_vnj(1.0))
        assert near_zero == pytest.approx(2.0, abs=1e-5)
        near_one = theorem2_lower_bound(S112, 1.0 - 1e-12, ConstantKind.gen_vnj(1.0))
        assert near_one == pytest.approx(1.0, abs=1e-5)
        zb_near_one = theorem2_lower_bound(S112, 1.0 - 1e-12, ConstantKind.zbaganu())
        assert zb_near_one == pytest.approx(0.0, abs=1e-5)

    def test_dimension_generalizes(self):
        sp = SpaceParams(2, 1.0, 2.0, Mode.SMALL_MORREY)
        got = theorem2_lower_bound(sp, 1e-4, ConstantKind.gen_vnj(3.0))
        assert got == pytest.approx(1.0 + (1.0 - 1e-4) ** 3, rel=1e-12)


class TestRatioProperties:
    PAIRS = [
        witness_pair_morrey(M112),
        (
            canonicalize([(0.0, 2.0, 1.3, -0.5)]),
            canonicalize([(0.5, 3.0, -0.8, -0.5)]),
        ),
        (
            canonicalize([(0.1, 1.0, 0.7, -0.5), (1.0, 5.0, 1.1, -0.5)]),
            canonicalize([(0.0, 4.0, 0.9, -0.5)]),
        ),
    ]

    @pytest.mark.parametrize("idx", range(len(PAIRS)))
    @pytest.mark.parametrize("kind", [ConstantKind.gen_vnj(2.0), ConstantKind.zbaganu(),
                                      ConstantKind.mod_vnj()])
    def test_symmetry_in_arguments(self, idx, kind):
        x, y = self.PAIRS[idx]
        assert ratio(kind, x, y, M112) == pytest.approx(ratio(kind, y, x, M112), rel=1e-9)

    @pytest.mark.parametrize("idx", range(len(PAIRS)))
    @pytest.mark.parametrize("kind", [ConstantKind.gen_vnj(2.0), ConstantKind.zbaganu(),
                                      ConstantKind.mod_vnj()])
    def test_symmetry_under_negation(self, idx, kind):
        x, y = self.PAIRS[idx]
        assert ratio(kind, x, scale(y, -1.0), M112) == pytest.approx(
            ratio(kind, x, y, M112), rel=1e-9
        )

    @pytest.mark.parametrize("idx", range(len(PAIRS)))
    @pytest.mark.parametrize("c", [0.5, -3.0])
    def test_scale_invariance(self, idx, c):
        x, y = self.PAIRS[idx]
        for kind in (ConstantKind.gen_vnj(2.0), ConstantKind.zbaganu()):
            assert ratio(kind, scale(x, c), scale(y, c), M112) == pytest.approx(
                ratio(kind, x, y, M112), rel=1e-8
            )

    @pytest.mark.parametrize("idx", range(len(PAIRS)))
    def test_product_ratio_dominated(self, idx):
        # ab <= (a^2 + b^2)/2 pointwise
        x, y = self.PAIRS[idx]
        zb = ratio(ConstantKind.zbaganu(), x, y, M112)
        vnj = ratio(ConstantKind.gen_vnj(2.0), x, y, M112)
        assert zb <= vnj + 1e-10

    @pytest.mark.parametrize("idx", range(len(PAIRS)))
    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_normalized_pairs_agree_across_families(self, idx, s):
        # on unit vectors the two s-power ratios coincide
        x, y = self.PAIRS[idx]
        x = scale(x, 1.0 / norm(x, M112).value)
        y = scale(y, 1.0 / norm(y, M112).value)
        a = ratio(ConstantKind.gen_vnj(s), x, y, M112)
        b = ratio(ConstantKind.gen_mod_vnj(s), x, y, M112)
        assert a == pytest.approx(b, rel=2e-9)


def _estimate_over(kind, pairs):
    """The Morrey-mode estimate of kind over exactly these pairs."""
    with NormTable(M112) as table:
        return estimate_constants([kind], pairs, table)[0]


class TestEstimator:
    def test_trivial_candidate_only(self):
        x = canonicalize([(0.0, 1.0, 1.0, -0.5)])
        est = _estimate_over(ConstantKind.gen_vnj(2.0), [(x, x)])
        assert est.best_ratio == pytest.approx(1.0, rel=1e-9)
        assert est.n_pairs_tried == 1 and est.n_skipped == 0

    def test_witnesses_lead(self):
        est = estimate_constant(ConstantKind.gen_vnj(2.0), M112, random_trials=10, seed=5)
        assert est.best_ratio >= 1.99
        assert est.best_index == 0  # nothing random beats the witness pair

    def test_deterministic_given_seed(self):
        a = estimate_constant(ConstantKind.zbaganu(), M112, random_trials=15, seed=9,
                              keep_trace=True)
        b = estimate_constant(ConstantKind.zbaganu(), M112, random_trials=15, seed=9,
                              keep_trace=True)
        assert a == b

    def test_seed_matters(self):
        a = estimate_constant(ConstantKind.zbaganu(), M112, random_trials=15, seed=1,
                              keep_trace=True)
        b = estimate_constant(ConstantKind.zbaganu(), M112, random_trials=15, seed=2,
                              keep_trace=True)
        assert a.trace != b.trace

    def test_skips_und_defined_pairs(self):
        zero = canonicalize([])
        x = canonicalize([(0.0, 1.0, 1.0, -0.5)])
        # x + w mixes exponents on [0.5, 1): the sum is not representable
        w = canonicalize([(0.5, 2.0, 1.0, -0.25)])
        est = _estimate_over(ConstantKind.gen_vnj(2.0), [(x, zero), (x, w), (x, x)])
        assert est.n_skipped == 2
        assert est.best_ratio == pytest.approx(1.0, rel=1e-9)

    def test_no_valid_pairs_raises(self):
        zero = canonicalize([])
        with pytest.raises(ZeroFunction):
            _estimate_over(ConstantKind.gen_vnj(2.0), [(zero, zero)])

    def test_small_mode_ladder_included(self):
        est = estimate_constant(ConstantKind.gen_vnj(1.0), S112, random_trials=0)
        # ladder has 4 witnesses plus the trivial pair
        assert est.n_pairs_tried == 5
        assert est.best_ratio >= theorem2_lower_bound(S112, 1e-4, ConstantKind.gen_vnj(1.0)) - 1e-3

    def test_small_mode_needs_a_ladder(self):
        with pytest.raises(ValueError, match="eps ladder"):
            candidate_pairs(S112, eps_ladder=())

    def test_upper_bound_over_random_trials(self):
        for kind in (ConstantKind.gen_vnj(2.0), ConstantKind.zbaganu()):
            est = estimate_constant(kind, M112, random_trials=25, seed=77)
            assert est.max_ratio_seen <= 2.0 + 5e-10


class TestPairRatios:
    def test_equal_to_ratio_bit_for_bit(self):
        zero = canonicalize([])
        x = canonicalize([(0.0, 1.0, 1.0, -0.5)])
        w = canonicalize([(0.5, 2.0, 1.0, -0.25)])  # x + w is not representable
        outside = canonicalize([(0.0, INF, 1.0, -1.0)])  # infinite norm
        rng = np.random.Generator(np.random.Philox(key=4))
        pairs = [(x, zero), (x, w), (outside, x), (x, x)]
        pairs += [random_pair(rng, M112) for _ in range(4)]
        with NormTable(M112) as table:
            rows = pair_ratios(ALL_KINDS, pairs, table)
        for kind, row in zip(ALL_KINDS, rows):
            for (a, b), value in zip(pairs, row):
                try:
                    expected = ratio(kind, a, b, M112)
                except (ZeroFunction, NotInSpace, MixedExponentOverlap):
                    assert math.isnan(value)
                else:
                    assert value == expected


class TestRandomPairs:
    def test_representable_sums(self):
        rng = np.random.Generator(np.random.Philox(key=123))
        for _ in range(50):
            x, y = random_pair(rng, M112)
            add(x, y)  # must not raise
            subtract(x, y)

    def test_small_mode_functions_in_space(self):
        from morreyconst.norms import norm_is_infinite

        rng = np.random.Generator(np.random.Philox(key=321))
        for _ in range(50):
            x, y = random_pair(rng, S112)
            assert not norm_is_infinite(x, S112)
            assert not norm_is_infinite(y, S112)
