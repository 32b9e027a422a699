import math

import numpy as np
import pytest

from botaclip.errors import AllZeroDifferences, ShapeMismatch
from botaclip.numerics import Rng
from botaclip.stats import (
    ablation_report,
    chi2_sf,
    friedman_test,
    gammaincc_regularized,
    holm_adjust,
    wilcoxon_signed_rank,
)


class TestChiSquared:
    def test_df2_is_exponential(self):
        # chi2 survival with 2 df is exp(-x/2); 20-digit reference for x=6:
        # e^-3 = 0.049787068367863942979
        assert abs(chi2_sf(6.0, 2) - 0.049787068367863942979) < 1e-10

    def test_at_zero(self):
        assert chi2_sf(0.0, 3) == 1.0

    def test_series_and_cf_agree_at_crossover(self):
        for df in (1, 2, 5, 10):
            a = df / 2.0
            x = a + 1.0
            below = gammaincc_regularized(a, x - 1e-9)
            above = gammaincc_regularized(a, x + 1e-9)
            assert abs(below - above) < 1e-8

    def test_against_exponential_identity_df2(self):
        for x in (0.5, 1.0, 2.0, 10.0, 40.0):
            assert abs(chi2_sf(x, 2) - math.exp(-x / 2.0)) < 1e-12


class TestFriedman:
    def test_identical_ordering_hand_case(self):
        scores = np.array([[1.0, 2.0, 3.0],
                           [0.1, 0.5, 0.9],
                           [10.0, 20.0, 30.0]])
        res = friedman_test(scores)
        assert abs(res.statistic - 6.0) < 1e-12
        assert abs(res.p_value - math.exp(-3.0)) < 1e-10

    def test_identical_columns(self):
        scores = np.tile(np.arange(4.0)[:, None], (1, 3))
        res = friedman_test(scores)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_column_permutation_invariance(self):
        gen = Rng(0).substream("fried")
        scores = gen.normal(size=(8, 4))
        base = friedman_test(scores).statistic
        perm = gen.permutation(4)
        assert abs(friedman_test(scores[:, perm]).statistic - base) < 1e-12


class TestWilcoxon:
    def test_exact_hand_case(self):
        res = wilcoxon_signed_rank(np.array([2.0, 4.0, 6.0]),
                                   np.array([1.0, 2.0, 3.0]))
        assert res.statistic == 0.0
        assert res.p_value == 0.25
        assert res.method == "wilcoxon-exact"

    def test_all_zero_differences(self):
        with pytest.raises(AllZeroDifferences):
            wilcoxon_signed_rank(np.ones(4), np.ones(4))

    def test_sign_flip_symmetry(self):
        gen = Rng(1).substream("w")
        a = gen.normal(size=20)
        b = gen.normal(size=20)
        r1 = wilcoxon_signed_rank(a, b)
        r2 = wilcoxon_signed_rank(b, a)
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 7.0])
        b = np.array([0.0, 0.0, 0.0, 7.0])
        res = wilcoxon_signed_rank(a, b)
        assert res.p_value == 0.25  # same as the three-point case

    def test_exact_matches_enumeration_with_ties(self):
        # duplicate |d| values: null distribution enumerated over 2^n
        a = np.array([1.0, 1.0, 2.0, 3.0, 0.5])
        b = np.zeros(5)
        res = wilcoxon_signed_rank(a, b)
        assert res.method == "wilcoxon-exact"
        assert 0.0 < res.p_value <= 1.0

    def test_normal_approx_used_beyond_cutover(self):
        gen = Rng(2).substream("w")
        a = gen.normal(size=30)
        b = a + gen.normal(size=30) * 0.5
        res = wilcoxon_signed_rank(a, b)
        assert res.method == "wilcoxon-normal"
        assert 0.0 <= res.p_value <= 1.0

    def test_normal_approx_close_to_exact_near_cutover(self):
        gen = Rng(3).substream("w")
        a = gen.normal(size=12)
        b = gen.normal(size=12)
        exact = wilcoxon_signed_rank(a, b)
        # recompute with the approximation by padding to n=13 cancels the
        # comparison, so instead check the exact p against the normal
        # formula on the same data
        d = a - b
        from botaclip.metrics import rankdata_average
        ranks = rankdata_average(np.abs(d))
        w = min(ranks[d > 0].sum(), ranks[d < 0].sum())
        n = 12
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        z = (w - mean + 0.5) / math.sqrt(var)
        approx = min(1.0, 2.0 * 0.5 * math.erfc(z / math.sqrt(2.0) * -1.0))
        assert abs(exact.p_value - approx) < 0.05

    def test_strong_dominance_small_p(self):
        n = 40
        a = np.arange(1.0, n + 1.0)
        res = wilcoxon_signed_rank(a + 0.1, a)
        assert res.statistic == 0.0
        assert res.p_value < 1e-6


class TestHolm:
    def test_step_down_hand_case(self):
        adj = holm_adjust([0.01, 0.04, 0.03])
        np.testing.assert_allclose(adj, [0.03, 0.06, 0.06], atol=1e-15)

    def test_single_p_unchanged(self):
        np.testing.assert_array_equal(holm_adjust([0.2]), [0.2])

    def test_all_ones(self):
        np.testing.assert_array_equal(holm_adjust([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0])

    def test_bounded_by_bonferroni(self):
        gen = Rng(4).substream("holm")
        for _ in range(20):
            p = gen.random(6)
            adj = holm_adjust(p)
            assert np.all(adj >= p - 1e-15)
            assert np.all(adj <= np.minimum(1.0, 6 * p) + 1e-15)

    def test_monotone_in_raw_order(self):
        gen = Rng(5).substream("holm")
        p = gen.random(8)
        adj = holm_adjust(p)
        order = np.argsort(p, kind="stable")
        assert np.all(np.diff(adj[order]) >= -1e-15)


class TestAblationReport:
    def test_identical_models_no_winner(self):
        scores = Rng(6).substream("ab").random(20)
        report = ablation_report({"a": scores, "b": scores.copy()},
                                 alpha=0.05)
        assert report.friedman.p_value == 1.0
        assert report.best_model is None
        assert report.comparisons == []

    def test_uniform_improvement(self):
        gen = Rng(7).substream("ab")
        base = gen.random(40)
        report = ablation_report({"a": base, "b": base + 0.1}, alpha=0.05)
        assert report.best_model == "b"
        row = report.comparisons[0]
        assert abs(row.median_diff - 0.1) < 1e-12
        assert row.p_value < 1e-6
        assert row.statistic == 0.0
        assert row.comparison == "b vs a"

    def test_pct_change_relative_to_baseline(self):
        base = np.full(30, 0.5) + Rng(8).substream("n").normal(size=30) * 1e-3
        report = ablation_report({"base": base, "new": base + 0.05},
                                 alpha=0.05)
        row = report.comparisons[0]
        assert abs(row.pct_change - 100.0 * row.median_diff
                   / abs(np.median(base))) < 1e-9

    def test_lower_is_better(self):
        gen = Rng(9).substream("ab")
        base = gen.random(30) + 1.0
        report = ablation_report({"big": base + 0.2, "small": base},
                                 alpha=0.05, higher_is_better=False)
        assert report.best_model == "small"

    def test_adjusted_ps_present_and_ordered(self):
        gen = Rng(10).substream("ab")
        base = gen.random(35)
        report = ablation_report({
            "a": base,
            "b": base + 0.2,
            "c": base + gen.normal(size=35) * 0.01,
        }, alpha=0.05)
        assert report.best_model == "b"
        for row in report.comparisons:
            assert row.p_adjusted >= row.p_value - 1e-15
