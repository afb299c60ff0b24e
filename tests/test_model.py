"""Piecewise radial function algebra: canonical form, arithmetic, parsing."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreyconst.model import (
    Ball,
    FunctionParseError,
    MixedExponentOverlap,
    Mode,
    PiecewiseRadialFunction,
    RadialPiece,
    SpaceParams,
    add,
    canonicalize,
    format_function,
    parse_function,
    scale,
    subtract,
    truncate,
)

INF = math.inf


class TestValidation:
    def test_space_params_ok(self):
        sp = SpaceParams(2, 1.0, 2.0, Mode.SMALL_MORREY)
        assert sp.strict

    def test_space_params_rejects_bad_order(self):
        with pytest.raises(ValueError):
            SpaceParams(1, 2.0, 1.0)

    def test_space_params_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            SpaceParams(1, 0.5, 2.0)

    def test_space_params_rejects_nonint_dim(self):
        with pytest.raises(ValueError):
            SpaceParams(1.5, 1.0, 2.0)  # type: ignore[arg-type]

    def test_space_params_equal_exponents_not_strict(self):
        sp = SpaceParams(1, 2.0, 2.0)
        assert not sp.strict
        with pytest.raises(ValueError):
            sp.require_strict()

    def test_ball_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Ball(1.0, 0.0)
        with pytest.raises(ValueError):
            Ball(-0.5, 1.0)

    def test_piece_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            RadialPiece(1.0, 1.0, 1.0, 0.0)

    def test_piece_rejects_nonfinite_coef(self):
        with pytest.raises(ValueError):
            RadialPiece(0.0, 1.0, math.nan, 0.0)


class TestCanonicalize:
    def test_merges_identical_pieces(self):
        # [TRIVIAL] two copies of the same piece add coefficients
        f = canonicalize([(0.0, 1.0, 1.0, -0.5), (0.0, 1.0, 1.0, -0.5)])
        assert f.pieces == (RadialPiece(0.0, 1.0, 2.0, -0.5),)

    def test_cancellation_leaves_tail(self):
        # [TRIVIAL] subtracting the inner part of a global power leaves the tail
        f = canonicalize([(0.0, INF, 1.0, -0.5), (0.0, 1.0, -1.0, -0.5)])
        assert f.pieces == (RadialPiece(1.0, INF, 1.0, -0.5),)

    def test_mixed_exponent_overlap_raises(self):
        with pytest.raises(MixedExponentOverlap):
            canonicalize([(0.0, 2.0, 1.0, -0.5), (1.0, 3.0, 1.0, -0.25)])

    def test_mixed_exponent_disjoint_ok(self):
        f = canonicalize([(0.0, 1.0, 1.0, -0.5), (1.0, 3.0, 1.0, -0.25)])
        assert len(f.pieces) == 2

    def test_zero_coef_dropped_before_overlap_check(self):
        # a vacuous piece must not trigger the exponent conflict
        f = canonicalize([(0.0, 2.0, 1.0, -0.5), (1.0, 3.0, 0.0, -0.25)])
        assert f.pieces == (RadialPiece(0.0, 2.0, 1.0, -0.5),)

    def test_total_cancellation_gives_zero(self):
        f = canonicalize([(0.0, 1.0, 1.0, -0.5), (0.0, 1.0, -1.0, -0.5)])
        assert f.is_zero

    def test_adjacent_equal_pieces_merge(self):
        f = canonicalize([(0.0, 1.0, 1.0, -0.5), (1.0, 2.0, 1.0, -0.5)])
        assert f.pieces == (RadialPiece(0.0, 2.0, 1.0, -0.5),)

    def test_adjacent_unequal_pieces_stay_split(self):
        f = canonicalize([(0.0, 1.0, 1.0, -0.5), (1.0, 2.0, 2.0, -0.5)])
        assert len(f.pieces) == 2

    def test_breakpoints(self):
        f = canonicalize([(0.0, 1.0, 1.0, -0.5), (2.0, INF, 3.0, -1.0)])
        assert f.breakpoints() == [0.0, 1.0, 2.0]

    def test_idempotent(self):
        f = canonicalize([(0.0, 2.0, 1.0, -0.5), (1.0, 3.0, 1.5, -0.5)])
        again = canonicalize(f.pieces)
        assert again == f


class TestEvaluate:
    def test_pure_power(self):
        # [TRIVIAL] |x|^{-1/2} at radius 4
        f = canonicalize([(0.0, INF, 1.0, -0.5)])
        assert f.evaluate(4.0) == pytest.approx(0.5)

    def test_half_open_intervals(self):
        f = canonicalize([(0.0, 1.0, 1.0, 0.0), (1.0, 2.0, 5.0, 0.0)])
        assert f.evaluate(1.0) == 5.0
        assert f.evaluate(0.999999) == 1.0
        assert f.evaluate(2.0) == 0.0

    def test_outside_support_zero(self):
        f = canonicalize([(1.0, 2.0, 3.0, 1.0)])
        assert f.evaluate(0.5) == 0.0
        assert f.evaluate(2.5) == 0.0

    def test_rejects_nonpositive_radius(self):
        f = canonicalize([(0.0, 1.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            f.evaluate(0.0)

    def test_vectorized_matches_scalar(self):
        import numpy as np

        f = canonicalize([(0.0, 1.0, 2.0, -0.5), (1.0, 3.0, -1.0, 1.0)])
        ts = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        vec = f.evaluate_radii(ts)
        for t, v in zip(ts, vec):
            assert v == f.evaluate(float(t))


def witness_quadruple():
    """f = |x|^{-1/2} on (0, inf); g its restriction to (0,1); h = f - g; k = g - h."""
    f = canonicalize([(0.0, INF, 1.0, -0.5)])
    g = truncate(f, 0.0, 1.0)
    h = subtract(f, g)
    k = subtract(g, h)
    return f, g, h, k


class TestWitnessAlgebra:
    def test_k_value(self):
        # [TRIVIAL] k = g - h equals -|x|^{-1/2} for |x| >= 1
        _, _, _, k = witness_quadruple()
        assert k.evaluate(2.0) == pytest.approx(-(2.0**-0.5))
        assert k.evaluate(0.25) == pytest.approx(2.0)

    def test_sum_identity_exact(self):
        # f + k = 2 g must hold piece-for-piece, not just approximately
        f, g, _, k = witness_quadruple()
        assert add(f, k) == scale(g, 2.0)

    def test_difference_identity_exact(self):
        f, g, h, k = witness_quadruple()
        assert subtract(f, k) == scale(h, 2.0)

    def test_abs_k_equals_f_piecewise(self):
        # |k| and f have identical (|coef|, alpha) structure piece by piece
        f, _, _, k = witness_quadruple()
        abs_k = canonicalize(
            RadialPiece(pc.lo, pc.hi, abs(pc.coef), pc.alpha) for pc in k.pieces
        )
        assert abs_k == f


class TestHash:
    RAW = [(0.0, 1.0, 1.0, -0.5), (1.0, 2.5, -3.0, 0.25), (4.0, INF, 0.5, -1.0)]

    def test_equal_functions_hash_equal(self):
        f, g = canonicalize(self.RAW), canonicalize(reversed(self.RAW))
        assert f is not g and f == g and hash(f) == hash(g)
        assert hash(f) == hash((f.pieces,))  # the dataclass's own hash
        assert {f: 1}[g] == 1

    def test_hash_is_of_the_pieces(self):
        f = canonicalize(self.RAW)
        assert f != scale(f, 2.0) and hash(f) != hash(scale(f, 2.0))
        assert hash(PiecewiseRadialFunction()) == hash(canonicalize([]))

    def test_pieces_hashed_once(self, monkeypatch):
        f = canonicalize(self.RAW)
        calls = []
        original = RadialPiece.__hash__

        def counting(pc):
            calls.append(pc)
            return original(pc)

        monkeypatch.setattr(RadialPiece, "__hash__", counting)
        for _ in range(3):
            hash(f)
        assert len(calls) == len(f.pieces)

    def test_pickle_round_trip(self):
        # the process pool's path: a function comes back equal, with its hash
        f = canonicalize(self.RAW)
        hash(f)  # cached before pickling, and not
        for g in (f, canonicalize(self.RAW)):
            back = pickle.loads(pickle.dumps(g))
            assert back == f and hash(back) == hash(f) and back.pieces == f.pieces


class TestTextRecord:
    def test_roundtrip(self):
        f = canonicalize([(0.0, 1.0, 2.0, -0.5), (1.0, INF, -1.0, -0.5)])
        assert parse_function(format_function(f)) == f

    def test_parse_inf(self):
        f = parse_function("0 inf 1 -0.5")
        assert f.pieces == (RadialPiece(0.0, INF, 1.0, -0.5),)

    def test_parse_multiline(self):
        f = parse_function("0 1 1 -0.5\n1 inf 1 -0.5")
        assert f.pieces == (RadialPiece(0.0, INF, 1.0, -0.5),)

    def test_parse_empty_is_zero(self):
        assert parse_function("").is_zero
        assert parse_function(" ; ; ").is_zero

    def test_parse_error_wrong_arity(self):
        with pytest.raises(FunctionParseError, match="piece 1"):
            parse_function("0 1 1")

    def test_parse_error_bad_token(self):
        with pytest.raises(FunctionParseError, match="token 3"):
            parse_function("0 1 spam -0.5")

    def test_parse_error_bad_interval(self):
        with pytest.raises(FunctionParseError, match="piece 2"):
            parse_function("0 1 1 0; 3 2 1 0")


# -- property tests ---------------------------------------------------------

finite_pieces = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.25, max_value=4.0),
        st.floats(min_value=-3.0, max_value=3.0).filter(lambda c: abs(c) > 1e-9 or c == 0.0),
    ).map(lambda t: (t[0], t[0] + t[1], t[2], -0.5)),
    min_size=0,
    max_size=5,
)


@settings(max_examples=100, deadline=None)
@given(finite_pieces)
def test_canonicalize_idempotent(raw):
    f = canonicalize(raw)
    assert canonicalize(f.pieces) == f


@settings(max_examples=100, deadline=None)
@given(finite_pieces, st.floats(min_value=0.05, max_value=5.0))
def test_canonical_form_preserves_values(raw, t):
    f = canonicalize(raw)
    direct = math.fsum(
        coef * t**alpha for lo, hi, coef, alpha in raw if lo <= t < hi
    )
    assert f.evaluate(t) == pytest.approx(direct, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(finite_pieces, finite_pieces, st.floats(min_value=0.05, max_value=5.0))
def test_add_is_pointwise(raw_a, raw_b, t):
    a, b = canonicalize(raw_a), canonicalize(raw_b)
    assert add(a, b).evaluate(t) == pytest.approx(
        a.evaluate(t) + b.evaluate(t), abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(finite_pieces, st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.05, max_value=5.0))
def test_scale_is_pointwise(raw, c, t):
    f = canonicalize(raw)
    assert scale(f, c).evaluate(t) == pytest.approx(c * f.evaluate(t), abs=1e-12)


def _reference_canonicalize(raw) -> PiecewiseRadialFunction:
    """canonicalize as a scan of every piece on every segment, for comparison."""
    pieces = [pc if isinstance(pc, RadialPiece) else RadialPiece(*pc) for pc in raw]
    pieces = [pc for pc in pieces if pc.coef != 0.0]
    cuts = sorted({x for pc in pieces for x in (pc.lo, pc.hi)})
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        active = [pc for pc in pieces if pc.lo <= lo and pc.hi >= hi]
        if not active:
            continue
        if len({pc.alpha for pc in active}) > 1:
            raise MixedExponentOverlap("mixed")
        coef = math.fsum(pc.coef for pc in active)
        if coef == 0.0:
            continue
        alpha = active[0].alpha
        if out and out[-1].hi == lo and out[-1].coef == coef and out[-1].alpha == alpha:
            out[-1] = RadialPiece(out[-1].lo, hi, coef, alpha)
        else:
            out.append(RadialPiece(lo, hi, coef, alpha))
    return PiecewiseRadialFunction(tuple(out))


class TestCanonicalSweep:
    """canonicalize sweeps the pieces once; add and subtract merge two canonical functions."""

    @staticmethod
    def _raw(rng, exponents, count):
        # ends on a coarse grid, so that pieces touch, share ends, overlap
        # exactly, cancel and leave gaps; some reach infinity
        out = []
        for _ in range(count):
            lo, hi = sorted(rng.choice(9, size=2, replace=False) * 0.5)
            hi = INF if rng.random() < 0.2 else float(hi)
            coef = float(rng.choice([1.0, -1.0, 0.5, 2.0, -0.25, 1.5, 0.0]))
            out.append((float(lo), hi, coef, float(rng.choice(exponents))))
        return out

    @staticmethod
    def _outcome(make):
        try:
            return make()
        except (MixedExponentOverlap, OverflowError) as exc:
            return type(exc)

    @pytest.mark.parametrize("exponents", [(-0.5,), (-0.5, 0.0, 1.0)])
    def test_equals_scan(self, exponents):
        rng = np.random.Generator(np.random.Philox(key=29))
        kinds = set()
        for _ in range(1500):
            raw = self._raw(rng, exponents, int(rng.integers(1, 7)))
            want = self._outcome(lambda: _reference_canonicalize(raw))
            assert self._outcome(lambda: canonicalize(raw)) == want, raw
            kinds.add(want if isinstance(want, type) else "zero" if want.is_zero else "sum")
        assert kinds == ({"zero", "sum", MixedExponentOverlap} if len(exponents) > 1
                         else {"zero", "sum"})

    @pytest.mark.parametrize("exponents", [(-0.5,), (-0.5, 0.0, 1.0)])
    def test_add_and_subtract_equal_canonicalize(self, exponents):
        rng = np.random.Generator(np.random.Philox(key=31))
        kinds = set()
        for _ in range(1500):
            f, g = (self._outcome(lambda: canonicalize(self._raw(rng, exponents,
                                                                int(rng.integers(0, 4)))))
                    for _ in range(2))
            if isinstance(f, type) or isinstance(g, type):
                continue  # raw pieces that overlap with mixed exponents
            neg = [(pc.lo, pc.hi, -pc.coef, pc.alpha) for pc in g.pieces]
            for op, other in ((add, list(g.pieces)), (subtract, neg)):
                want = self._outcome(lambda: _reference_canonicalize(list(f.pieces) + other))
                assert self._outcome(lambda: op(f, g)) == want, (op.__name__, f, g)
                kinds.add(want if isinstance(want, type) else "zero" if want.is_zero else "sum")
        assert kinds == ({"zero", "sum", MixedExponentOverlap} if len(exponents) > 1
                         else {"zero", "sum"})

    def test_overflowing_coefficient_raises_as_fsum(self):
        f = canonicalize([(0.0, 2.0, 1.5e308, -0.5)])
        g = canonicalize([(1.0, 3.0, 1.5e308, -0.5)])
        for make in (lambda: _reference_canonicalize(list(f.pieces) + list(g.pieces)),
                     lambda: add(f, g), lambda: subtract(f, -1.0 * g)):
            with pytest.raises(OverflowError):
                make()

    def test_touching_pieces_and_gaps(self):
        f = canonicalize([(0.0, 1.0, 1.0, -0.5), (2.0, 3.0, 1.0, -0.5)])
        g = canonicalize([(1.0, 2.0, 1.0, -0.5)])
        assert add(f, g).pieces == (RadialPiece(0.0, 3.0, 1.0, -0.5),)
        assert subtract(add(f, g), g) == f
        assert subtract(f, f).is_zero and add(f, canonicalize([])) == f
