import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pairref
import pytest
from gradcheck import finite_diff_grad, max_rel_error
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import botaclip
from botaclip import numerics
from botaclip.cli import main
from botaclip.encoders import Gelu
from botaclip.errors import NumericError
from botaclip.numerics import (Rng, erf, l2_normalize_rows, log_sigmoid,
                               normal_cdf, sigmoid)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_unit_row_unchanged(self):
        row = np.zeros((1, 8))
        row[0, 0] = 1.0
        np.testing.assert_array_equal(l2_normalize_rows(row), row)

    def test_zero_row_raises(self):
        with pytest.raises(NumericError, match="row 0 has norm"):
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


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _erf_edges():
    """Both sides of each branch point (|v| = 1 and 6) and the special
    values, with both signs."""
    pts = [0.0, 5e-324, 2.2250738585072014e-308, 1e-300, math.inf, 1.0, 6.0]
    for p in (1.0, 6.0):
        lo, hi = p, p
        for _ in range(3):
            lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
            pts += [lo, hi]
    pts = np.array(pts)
    return np.concatenate([pts, -pts, [math.nan, -math.nan]])


class TestErf:
    """erf and normal_cdf against scipy.special.erf, the Cephes code the
    numpy version reproduces, bit for bit."""

    @pytest.fixture(autouse=True)
    def _scipy_erf(self):
        self.ref = pytest.importorskip("scipy.special").erf

    def assert_same_bits(self, v):
        v = np.asarray(v, dtype=np.float64)
        got, want = erf(v), self.ref(v)
        assert got.shape == v.shape
        bad = np.flatnonzero(_bits(got) != _bits(want))
        assert bad.size == 0, (v.ravel()[bad[:5]], got.ravel()[bad[:5]],
                               want.ravel()[bad[:5]])
        cdf = normal_cdf(v)
        assert cdf.tobytes() == (0.5 * (1.0 + self.ref(v / np.sqrt(2.0)))
                                 ).tobytes()

    def test_edges(self):
        v = _erf_edges()
        self.assert_same_bits(v)
        assert _bits(erf(np.array([-0.0]))) == _bits(-0.0)
        assert list(erf(np.array([-math.inf, math.inf]))) == [-1.0, 1.0]

    def test_nan_is_the_quiet_nan_whatever_its_payload(self):
        v = np.array([0x7FF8000000000123, 0xFFF0000000000001,
                      0x7FF0000000000001], dtype=np.uint64).view(np.float64)
        with np.errstate(invalid="ignore"):   # two signalling NaNs
            assert np.all(_bits(erf(v)) == _bits(np.nan))
            self.assert_same_bits(v)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=30),
                      elements=st.one_of(
                          st.floats(allow_nan=True, allow_infinity=True,
                                    allow_subnormal=True),
                          st.floats(-9.0, 9.0))))
    def test_any_float(self, v):
        self.assert_same_bits(v)

    def test_dense_sweep_of_the_exp_branch(self, monkeypatch):
        # 1 < |v| < 6 evaluates exp(-v^2); numpy's exp and libm's round a few
        # percent of these arguments differently. The sweep is dense enough
        # that taking numpy's exp everywhere changes some results, and the
        # libm recomputation puts every one of them right.
        v = np.linspace(1.0, 6.0, 400_001)[1:-1]
        v = np.concatenate([v, -v])
        self.assert_same_bits(v)
        monkeypatch.setattr(numerics, "_EXP_2ULP", -1.0)
        assert np.any(_bits(erf(v)) != _bits(self.ref(v)))

    def test_desk_checkpoint_bytes_match_the_scipy_erf(self, tmp_path,
                                                        monkeypatch):
        # a desk-sized train-botaclip (d=64, 192 plots x 4 views, hidden 96):
        # the checkpoint from the numpy erf is the one scipy's erf trains
        assert main(["synth", "--out-dir", str(tmp_path / "data"),
                     "--pairs", "192", "--views", "4", "--img-dim", "64",
                     "--n-species", "64", "--latent-dim", "8",
                     "--noise", "1.6", "--n-eval-species", "6",
                     "--cell-size", "50000", "--seed", "11"]) == 0
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({
            "seed": 11,
            "data": {"embeddings": str(tmp_path / "data" / "images.emb"),
                     "covers": str(tmp_path / "data" / "covers.csv"),
                     "locations": str(tmp_path / "data" / "locations.csv")},
            "model": {"botania_hidden": 96, "botania_classes": 8},
            "train": {"max_epochs": 100, "patience": 100}}))

        def checkpoint(name):
            assert main(["train-botaclip", "--config", str(cfg),
                         "--out-dir", str(tmp_path / name)]) == 0
            return (tmp_path / name / "model.ckpt").read_bytes()

        ours = checkpoint("numpy")
        monkeypatch.setattr(numerics, "erf", self.ref)
        assert checkpoint("scipy") == ours


class TestNoScipyAtRuntime:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(botaclip.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, botaclip.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_runtime_dependencies_are_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
        assert any(d.startswith("scipy")
                   for d in project["optional-dependencies"]["test"])


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
            with pytest.raises(NumericError, match="non-finite evaluation"):
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
