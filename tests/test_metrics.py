import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botaclip.errors import Degenerate
from botaclip.metrics import (
    BOYCE_N_WINDOWS,
    BOYCE_WINDOW_FRACTION,
    ConfusionCounts,
    boyce_index,
    classification_metrics,
    cluster_indices,
    confusion_counts,
    knn_overlap,
    mae,
    rankdata_average,
    spearman_rho,
)
from botaclip.numerics import Rng, l2_normalize_rows


class TestClassificationMetrics:
    def test_perfect_classifier(self):
        m = classification_metrics(ConfusionCounts(tp=10, fp=0, tn=10, fn=0))
        assert m["tss"] == 1.0 and m["f1"] == 1.0 and m["sensitivity"] == 1.0

    def test_hand_counted_confusion(self):
        m = classification_metrics(ConfusionCounts(tp=8, fn=2, tn=6, fp=4))
        assert abs(m["sensitivity"] - 0.8) < 1e-15
        assert abs(m["specificity"] - 0.6) < 1e-15
        assert abs(m["tss"] - 0.4) < 1e-15
        assert abs(m["f1"] - 8.0 / 11.0) < 1e-15

    def test_random_coin_near_zero_tss(self):
        gen = Rng(0).substream("coin")
        y = (gen.random(10000) < 0.5).astype(int)
        pred = (gen.random(10000) < 0.5).astype(int)
        m = classification_metrics(confusion_counts(y, pred))
        assert abs(m["tss"]) < 0.1

    def test_undefined_without_positives(self):
        with pytest.raises(Degenerate, match="no positives"):
            classification_metrics(ConfusionCounts(tp=0, fn=0, tn=5, fp=5))

    def test_tss_symmetric_under_class_swap(self):
        gen = Rng(1).substream("swap")
        for _ in range(20):
            c = ConfusionCounts(*(int(v) for v in gen.integers(1, 50, size=4)))
            swapped = ConfusionCounts(tp=c.tn, fp=c.fn, tn=c.tp, fn=c.fp)
            a = classification_metrics(c)["tss"]
            b = classification_metrics(swapped)["tss"]
            assert abs(a - b) < 1e-12

    def test_matches_per_sample_oracle_exactly(self):
        gen = Rng(2).substream("oracle")
        for _ in range(100):
            n = int(gen.integers(10, 200))
            y = (gen.random(n) < 0.5).astype(int)
            pred = (gen.random(n) < 0.5).astype(int)
            if y.min() == y.max():
                continue
            # brute-force per-sample counter, kept independent of the
            # ConfusionCounts path
            tp = fp = tn = fn = 0
            for yi, pi in zip(y, pred):
                if yi and pi:
                    tp += 1
                elif yi and not pi:
                    fn += 1
                elif not yi and pi:
                    fp += 1
                else:
                    tn += 1
            got = classification_metrics(confusion_counts(y, pred))
            assert got["sensitivity"] == tp / (tp + fn)
            assert got["specificity"] == tn / (tn + fp)
            assert got["tss"] == tp / (tp + fn) + tn / (tn + fp) - 1.0
            assert got["f1"] == 2 * tp / (2 * tp + fp + fn)


class TestMaeSpearman:
    def test_identical_vectors(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mae(y, y) == 0.0
        assert spearman_rho(y, y) == 1.0

    def test_reversed_ranking(self):
        y = np.arange(10.0)
        assert abs(spearman_rho(y, y[::-1]) + 1.0) < 1e-12

    def test_rank_formula_hand_case(self):
        # 1 - 6 * sum(d^2) / (n(n^2-1)) with d^2 = (0, 0, 1, 1)
        rho = spearman_rho(np.array([1.0, 2, 3, 4]), np.array([1.0, 2, 4, 3]))
        assert abs(rho - 0.8) < 1e-12

    def test_matches_rank_formula_oracle(self):
        gen = Rng(3).substream("sp")
        for _ in range(30):
            n = int(gen.integers(5, 40))
            y = gen.permutation(n).astype(float)       # tie-free
            z = gen.permutation(n).astype(float)
            d = rankdata_average(y) - rankdata_average(z)
            expected = 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))
            assert abs(spearman_rho(y, z) - expected) < 1e-12

    def test_zero_variance(self):
        with pytest.raises(Degenerate, match="constant rank vector"):
            spearman_rho(np.ones(5), np.arange(5.0))


def _boyce_oracle(pres, bg, n_windows=100, fraction=0.1):
    """Loop-based window enumeration, independent of the vectorized path."""
    lo = min(min(pres), min(bg))
    hi = max(max(pres), max(bg))
    width = (hi - lo) * fraction
    step = (hi - width - lo) / (n_windows - 1)
    ratios, centers = [], []
    for i in range(n_windows):
        c = lo + width / 2.0 + i * step
        wlo, whi = c - width / 2.0, c + width / 2.0
        if i == n_windows - 1:
            p = sum(1 for v in pres if wlo <= v <= whi)
            b = sum(1 for v in bg if wlo <= v <= whi)
        else:
            p = sum(1 for v in pres if wlo <= v < whi)
            b = sum(1 for v in bg if wlo <= v < whi)
        if b == 0:
            continue
        ratios.append((p / len(pres)) / (b / len(bg)))
        centers.append(c)
    dedup_r, dedup_c = [], []
    for j in range(len(ratios)):
        if j + 1 < len(ratios) and ratios[j] == ratios[j + 1]:
            continue
        dedup_r.append(ratios[j])
        dedup_c.append(centers[j])
    return dedup_r, dedup_c


def _boyce_loop(suitability_presence, suitability_background):
    """boyce_index as it was with one loop pass per window, frozen as the
    reference the vectorized windows must match bit for bit."""
    pres = np.asarray(suitability_presence, dtype=np.float64)
    bg = np.asarray(suitability_background, dtype=np.float64)
    if pres.size == 0 or bg.size == 0:
        raise Degenerate("empty suitability vector")
    if not (np.all(np.isfinite(pres)) and np.all(np.isfinite(bg))):
        raise ValueError("suitability values must be finite")
    lo = min(pres.min(), bg.min())
    hi = max(pres.max(), bg.max())
    if hi <= lo:
        raise Degenerate("suitability range has zero width")
    width = (hi - lo) * BOYCE_WINDOW_FRACTION
    centers = np.linspace(lo + width / 2.0, hi - width / 2.0, BOYCE_N_WINDOWS)

    ratios = []
    kept_centers = []
    for i, c in enumerate(centers):
        wlo, whi = c - width / 2.0, c + width / 2.0
        if i == BOYCE_N_WINDOWS - 1:
            p_in = np.sum((pres >= wlo) & (pres <= whi))
            b_in = np.sum((bg >= wlo) & (bg <= whi))
        else:
            p_in = np.sum((pres >= wlo) & (pres < whi))
            b_in = np.sum((bg >= wlo) & (bg < whi))
        if b_in == 0:
            continue
        ratios.append((p_in / pres.size) / (b_in / bg.size))
        kept_centers.append(c)
    if len(ratios) < 3:
        raise Degenerate(f"only {len(ratios)} windows have background mass")
    ratios = np.asarray(ratios)
    kept_centers = np.asarray(kept_centers)
    if np.all(ratios == ratios[0]):
        raise Degenerate("all window ratios equal")

    # collapse runs of equal consecutive ratios, keeping the last window
    keep = np.append(ratios[:-1] != ratios[1:], True)
    ratios = ratios[keep]
    kept_centers = kept_centers[keep]
    return spearman_rho(ratios, kept_centers)


@st.composite
def _boyce_cases(draw):
    """Presence and background scores; few distinct values give ties, and
    some scores sit exactly on a window's lower or upper bound."""
    values = draw(st.sampled_from([
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]),
        st.floats(0.0, 1.0),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)]))
    pres = draw(st.lists(values, min_size=1, max_size=30))
    bg = draw(st.lists(values, min_size=1, max_size=60))
    lo, hi = min(pres + bg), max(pres + bg)
    width = (hi - lo) * BOYCE_WINDOW_FRACTION
    centers = np.linspace(lo + width / 2.0, hi - width / 2.0, BOYCE_N_WINDOWS)
    on_edges = draw(st.lists(st.tuples(
        st.sampled_from([0, 1, 2, 50, 97, 98, 99]) | st.integers(0, 99),
        st.booleans(), st.booleans()), max_size=12))
    for i, upper, to_bg in on_edges:
        edge = centers[i] + width / 2.0 if upper else centers[i] - width / 2.0
        # kept within [lo, hi], so the windows stay where they were
        (bg if to_bg else pres).append(float(min(max(edge, lo), hi)))
    return np.array(pres), np.array(bg)


def _outcome(fn, pres, bg):
    try:
        return float(fn(pres, bg)).hex()
    except Degenerate as exc:
        return f"Degenerate: {exc}"


@settings(max_examples=300, deadline=None)
@given(_boyce_cases())
def test_boyce_matches_frozen_loop(case):
    pres, bg = case
    assert _outcome(boyce_index, pres, bg) == _outcome(_boyce_loop, pres, bg)


BG_TOP = np.arange(0.03, 0.94, 0.1)          # 10 points, spacing 0.1
PRES_TOP = np.array([0.93, 0.96, 0.99])      # clustered at the top
BG_BOT = np.arange(0.07, 0.98, 0.1)
PRES_BOT = np.array([0.01, 0.04, 0.07])


class TestBoyce:
    def test_top_loaded_presences_give_one(self):
        assert boyce_index(PRES_TOP, BG_TOP) == 1.0

    def test_bottom_loaded_presences_give_minus_one(self):
        assert boyce_index(PRES_BOT, BG_BOT) == -1.0

    def test_matches_window_enumeration_oracle(self):
        for pres, bg in ((PRES_TOP, BG_TOP), (PRES_BOT, BG_BOT)):
            ratios, _ = _boyce_oracle(list(pres), list(bg))
            # monotone ratio sequence is what makes the index hit +-1
            diffs = np.diff(ratios)
            assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_uniform_presences_near_zero(self):
        # overlapping windows leave ~10 effective degrees of freedom, so a
        # single draw can reach |BI| ~ 0.5 under the null; the mean over
        # seeds is the stable quantity
        vals = []
        for seed in range(10):
            gen = Rng(seed).substream("boyce")
            bg = gen.uniform(0, 1, size=1000)
            pres = gen.choice(bg, size=200, replace=False)
            vals.append(boyce_index(pres, bg))
        assert abs(np.mean(vals)) < 0.3
        assert np.max(np.abs(vals)) < 0.8

    def test_scale_invariance_exact(self):
        base = boyce_index(PRES_TOP, BG_TOP)
        assert boyce_index(2.0 * PRES_TOP, 2.0 * BG_TOP) == base
        assert boyce_index(0.5 * PRES_TOP, 0.5 * BG_TOP) == base

    def test_shift_invariance(self):
        base = boyce_index(PRES_TOP, BG_TOP)
        assert boyce_index(PRES_TOP + 5.0, BG_TOP + 5.0) == base

    def test_monotone_transform_at_desk_scale(self):
        gen = Rng(42).substream("boyce")
        bg = gen.uniform(0, 1, size=500)
        pres = np.clip(gen.normal(0.7, 0.15, size=100), 0, 1)
        raw = boyce_index(pres, bg)
        squashed = boyce_index(np.sqrt(pres), np.sqrt(bg))
        assert (raw > 0.5) == (squashed > 0.5)

    def test_degenerate_range(self):
        with pytest.raises(Degenerate, match="zero width"):
            boyce_index(np.ones(5), np.ones(7))

    def test_zero_variance_ratios(self):
        # presences mirror the background everywhere: all ratios equal 1
        bg = np.arange(0.05, 1.0, 0.1)
        with pytest.raises(Degenerate, match="all window ratios equal"):
            boyce_index(bg.copy(), bg)


class TestClusterIndices:
    def test_two_cluster_hand_case(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        out = cluster_indices(X, labels)
        assert abs(out["davies_bouldin"] - 0.1) < 1e-9
        assert abs(out["calinski_harabasz"] - 200.0) < 1e-9

    def test_coincident_centroids(self):
        X = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0],
                      [0.5, 0.5]])
        labels = np.array([0, 0, 1, 1, 0])
        X2 = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(Degenerate, match="share a centroid"):
            cluster_indices(X2, np.array([0, 0, 1, 1]))

    def test_db_decreases_as_clusters_separate(self):
        base = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
        labels = np.array([0, 0, 1, 1])
        near = cluster_indices(base, labels)["davies_bouldin"]
        far_points = base.copy()
        far_points[2:, 0] += 10.0
        far = cluster_indices(far_points, labels)["davies_bouldin"]
        assert far < near

    def test_requires_more_points_than_clusters(self):
        with pytest.raises(Degenerate, match="more points than clusters"):
            cluster_indices(np.eye(2), np.array([0, 1]))


class TestKnnOverlap:
    def test_identical_embeddings(self):
        gen = Rng(4).substream("knn")
        x = gen.normal(size=(30, 5))
        assert knn_overlap(x, x, k=5) == 1.0

    def test_unrelated_embeddings_low_overlap(self):
        gen = Rng(5).substream("knn")
        a = l2_normalize_rows(gen.normal(size=(100, 8)))
        b = l2_normalize_rows(gen.normal(size=(100, 8)))
        assert knn_overlap(a, b, k=10) < 0.35

    def test_k_bound(self):
        with pytest.raises(ValueError):
            knn_overlap(np.eye(3), np.eye(3), k=3)
