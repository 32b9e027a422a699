import math

import numpy as np
import pairref
import pytest
from gradcheck import finite_diff_grad, max_rel_error
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from botaclip.encoders import Gelu
from botaclip.errors import NonFinite, ZeroRow
from botaclip.numerics import Rng, l2_normalize_rows, log_sigmoid, sigmoid


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_unit_row_unchanged(self):
        row = np.zeros((1, 8))
        row[0, 0] = 1.0
        np.testing.assert_array_equal(l2_normalize_rows(row), row)

    def test_zero_row_raises(self):
        with pytest.raises(ZeroRow):
            l2_normalize_rows(np.zeros((2, 3)))

    def test_idempotent(self):
        gen = Rng(7).substream("l2")
        m = gen.normal(size=(12, 5))
        once = l2_normalize_rows(m)
        twice = l2_normalize_rows(once)
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_output_norms_are_one(self):
        gen = Rng(3).substream("l2b")
        out = l2_normalize_rows(gen.normal(size=(30, 9)) * 1e3)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


class TestActivations:
    def test_gelu_at_zero(self):
        assert Gelu().forward(np.zeros((1, 1)))[0, 0] == 0.0

    def test_gelu_exact_cdf_form(self):
        # x * Phi(x) via the error function, checked at a few points
        for x in (-3.0, -0.5, 0.7, 2.0):
            expected = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
            got = Gelu().forward(np.array([[x]]))[0, 0]
            assert abs(float(got) - expected) < 1e-15

    def test_sigmoid_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_at_one(self):
        # frozen from a high-precision scalar evaluation of 1/(1+e^-1)
        assert abs(float(sigmoid(1.0)) - 0.7310585786300049) < 1e-12

    def test_log_sigmoid_deep_negative(self):
        assert abs(float(log_sigmoid(-100.0)) - (-100.0)) < 1e-9

    def test_log_sigmoid_extreme_range_is_finite(self):
        vals = log_sigmoid(np.array([-1e4, -50.0, 0.0, 50.0, 1e4]))
        assert np.all(np.isfinite(vals))
        assert abs(float(log_sigmoid(0.0)) + math.log(2.0)) < 1e-15

    def test_log_sigmoid_complement_identity(self):
        xs = np.linspace(-50.0, 50.0, 401)
        lhs = log_sigmoid(xs) + log_sigmoid(-xs)
        rhs = np.log(sigmoid(xs) * sigmoid(-xs))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


# the branch points and the edges of exp's range: signed zeros, infinities,
# NaN, the smallest subnormal and |x| where exp(-|x|) underflows (> 745)
_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
          2.2e-308, -2.2e-308, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2,
          746.0, -746.0, 1e4, -1e4, 1.7e308, -1.7e308]
_ANY_FLOAT = st.one_of(st.sampled_from(_EDGES),
                       st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True),
                       st.floats(-800.0, 800.0))


class TestActivationBits:
    """The branch-free activations against the frozen two-branch forms in
    tests/pairref.py, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 40), elements=_ANY_FLOAT))
    def test_arrays_match_two_branch_forms(self, x):
        for f, ref in ((sigmoid, pairref.sigmoid),
                       (log_sigmoid, pairref.log_sigmoid)):
            assert f(x).tobytes() == ref(x).tobytes(), f.__name__

    @pytest.mark.parametrize("x", _EDGES)
    def test_scalars_match_two_branch_forms(self, x):
        for f, ref in ((sigmoid, pairref.sigmoid),
                       (log_sigmoid, pairref.log_sigmoid)):
            got, want = f(x), ref(x)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_sigmoid_in_place(self):
        x = np.array([-800.0, -1.0, -0.0, 0.0, 2.0, 746.0])
        want = pairref.sigmoid(x)
        assert sigmoid(x, out=x) is x
        assert x.tobytes() == want.tobytes()


class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda v: float(v[0] ** 2), np.array([3.0]), h=1e-5)
        assert abs(g[0] - 6.0) < 1e-6

    def test_constant(self):
        g = finite_diff_grad(lambda v: 4.2, np.ones(5))
        np.testing.assert_array_equal(g, np.zeros(5))

    def test_sum(self):
        g = finite_diff_grad(lambda v: float(np.sum(v)), np.arange(4.0))
        np.testing.assert_allclose(g, np.ones(4), atol=1e-9)

    def test_non_finite_evaluation(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(NonFinite):
                finite_diff_grad(lambda v: float(np.log(v[0])),
                                 np.array([0.0]))

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.ones(1), h=1e-3)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).substream("x", 3).random(10)
        b = Rng(42).substream("x", 3).random(10)
        np.testing.assert_array_equal(a, b)

    def test_substreams_independent_of_request_order(self):
        rng = Rng(5)
        first = rng.substream("a").random(4)
        rng2 = Rng(5)
        rng2.substream("b").random(100)
        np.testing.assert_array_equal(first, rng2.substream("a").random(4))

    def test_distinct_purposes_differ(self):
        rng = Rng(0)
        assert not np.array_equal(rng.substream("p", 0).random(8),
                                  rng.substream("p", 1).random(8))


def test_max_rel_error_zero_for_equal():
    assert max_rel_error(np.ones(3), np.ones(3)) == 0.0
