"""Ecological evaluation metrics and cluster-quality indices.

The continuous Boyce index follows the usual ecology-toolbox convention:
moving windows of width range/10 with 100 evenly spaced centers, half-open
except the topmost (so the maximum score belongs to a window), windows with
no background mass dropped, consecutive runs of equal P/E ratios collapsed
to their last window, and a Spearman correlation of the remaining ratios
against the window centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, Degenerate

BOYCE_WINDOW_FRACTION = 0.1
BOYCE_N_WINDOWS = 100


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


def confusion_counts(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    y_true = np.asarray(y_true).astype(bool)
    y_pred = np.asarray(y_pred).astype(bool)
    if y_true.shape != y_pred.shape:
        raise DataError("label vectors differ in length")
    return ConfusionCounts(
        tp=int(np.sum(y_true & y_pred)),
        fp=int(np.sum(~y_true & y_pred)),
        tn=int(np.sum(~y_true & ~y_pred)),
        fn=int(np.sum(y_true & ~y_pred)),
    )


def classification_metrics(c: ConfusionCounts) -> dict:
    """Sensitivity, specificity, their sum minus one (TSS) and F1."""
    if c.tp + c.fn == 0:
        raise Degenerate("no positives: sensitivity undefined")
    if c.tn + c.fp == 0:
        raise Degenerate("no negatives: specificity undefined")
    if c.tp + c.fp + c.fn == 0:
        raise Degenerate("no positive predictions or labels: F1 undefined")
    sens = c.tp / (c.tp + c.fn)
    spec = c.tn / (c.tn + c.fp)
    return {
        "sensitivity": sens,
        "specificity": spec,
        "tss": sens + spec - 1.0,
        "f1": 2.0 * c.tp / (2.0 * c.tp + c.fp + c.fn),
    }


def mae(y: np.ndarray, yhat: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise DataError("vectors differ in length")
    return float(np.mean(np.abs(y - yhat)))


def rankdata_average(x: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, ties receiving the average of their positions."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_rho(y: np.ndarray, yhat: np.ndarray) -> float:
    """Pearson correlation of average-tie ranks."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise DataError("vectors differ in length")
    if y.size < 2:
        raise Degenerate("need at least two points")
    ra = rankdata_average(y)
    rb = rankdata_average(yhat)
    da = ra - ra.mean()
    db = rb - rb.mean()
    va = float(np.sum(da * da))
    vb = float(np.sum(db * db))
    if va == 0.0 or vb == 0.0:
        raise Degenerate("constant rank vector")
    return float(np.sum(da * db) / np.sqrt(va * vb))


def boyce_index(suitability_presence: np.ndarray,
                suitability_background: np.ndarray) -> float:
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
    wlo, whi = centers - width / 2.0, centers + width / 2.0

    def inside(x):  # each window's count of x, the last window closed
        hit = (x[:, None] >= wlo) & (x[:, None] < whi)
        hit[:, -1] = (x >= wlo[-1]) & (x <= whi[-1])
        return np.count_nonzero(hit, axis=0)

    p_in, b_in = inside(pres), inside(bg)
    kept = b_in != 0
    ratios = (p_in[kept] / pres.size) / (b_in[kept] / bg.size)
    kept_centers = centers[kept]
    if len(ratios) < 3:
        raise Degenerate(f"only {len(ratios)} windows have background mass")
    if np.all(ratios == ratios[0]):
        raise Degenerate("all window ratios equal")

    # collapse runs of equal consecutive ratios, keeping the last window
    keep = np.append(ratios[:-1] != ratios[1:], True)
    ratios = ratios[keep]
    kept_centers = kept_centers[keep]
    return spearman_rho(ratios, kept_centers)


def cluster_indices(X: np.ndarray, labels: np.ndarray) -> dict:
    """Davies-Bouldin (mean-distance dispersion) and Calinski-Harabasz."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    k = uniq.size
    n = X.shape[0]
    if k < 2:
        raise Degenerate("need at least two clusters")
    if n <= k:
        raise Degenerate("need more points than clusters")
    centroids = np.vstack([X[labels == u].mean(axis=0) for u in uniq])
    sigmas = np.array([
        np.mean(np.linalg.norm(X[labels == u] - centroids[i], axis=1))
        for i, u in enumerate(uniq)])

    db_terms = np.empty(k)
    for i in range(k):
        worst = -np.inf
        for j in range(k):
            if i == j:
                continue
            dist = np.linalg.norm(centroids[i] - centroids[j])
            if dist == 0.0:
                raise Degenerate(
                    f"clusters {uniq[i]} and {uniq[j]} share a centroid")
            worst = max(worst, (sigmas[i] + sigmas[j]) / dist)
        db_terms[i] = worst
    davies_bouldin = float(db_terms.mean())

    overall = X.mean(axis=0)
    between = sum(np.sum(labels == u) * np.sum((centroids[i] - overall) ** 2)
                  for i, u in enumerate(uniq))
    within = sum(np.sum((X[labels == u] - centroids[i]) ** 2)
                 for i, u in enumerate(uniq))
    if within == 0.0:
        raise Degenerate("zero within-cluster scatter")
    calinski_harabasz = float((between / (k - 1)) / (within / (n - k)))
    return {"davies_bouldin": davies_bouldin,
            "calinski_harabasz": calinski_harabasz}


def knn_overlap(a: np.ndarray, b: np.ndarray, k: int = 10) -> float:
    """Mean fraction of shared k-nearest-neighbor sets between two embeddings
    of the same samples (Euclidean, self excluded)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise DataError("row counts differ")
    n = a.shape[0]
    if k >= n:
        raise ValueError("k must be smaller than the number of samples")

    def neighbor_sets(m):
        d2 = (np.sum(m * m, axis=1)[:, None]
              + np.sum(m * m, axis=1)[None, :] - 2.0 * (m @ m.T))
        np.fill_diagonal(d2, np.inf)
        return np.argsort(d2, axis=1, kind="stable")[:, :k]

    na = neighbor_sets(a)
    nb = neighbor_sets(b)
    overlap = [len(set(na[i]) & set(nb[i])) / k for i in range(n)]
    return float(np.mean(overlap))
