"""Nonparametric test battery: Friedman across models, paired signed-rank
tests with step-down multiple-comparison adjustment, and the report that
ties them together.

The chi-squared survival function is computed from the regularized upper
incomplete gamma, series expansion below x = a+1 and a Lentz continued
fraction above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, Degenerate
from .metrics import rankdata_average

WILCOXON_EXACT_MAX_N = 12


@dataclass
class StatResult:
    statistic: float
    p_value: float
    method: str


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for x < a + 1."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(1000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for x >= a + 1 (Lentz)."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gammaincc_regularized(a: float, x: float) -> float:
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_gamma_series(a, x)
    return _upper_gamma_cf(a, x)


def chi2_sf(x: float, df: int) -> float:
    """Survival function of the chi-squared distribution."""
    return gammaincc_regularized(df / 2.0, x / 2.0)


def normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def friedman_test(scores: np.ndarray) -> StatResult:
    """Friedman rank test over an (subjects x models) score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise DataError("scores must be subjects x models")
    n, k = scores.shape
    if n < 2 or k < 2:
        raise DataError("need at least 2 subjects and 2 models")
    ranks = np.vstack([rankdata_average(row) for row in scores])
    col_sums = ranks.sum(axis=0)
    stat = (12.0 / (n * k * (k + 1))) * float(np.sum(col_sums ** 2)) \
        - 3.0 * n * (k + 1)
    stat = max(stat, 0.0)
    return StatResult(stat, chi2_sf(stat, k - 1), "friedman-chi2")


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray) -> StatResult:
    """Two-sided paired signed-rank test, statistic min(W+, W-).

    Zero differences are dropped; absolute differences get average-tie
    ranks. Exact p by enumeration of all sign patterns up to n = 12,
    normal approximation with tie and continuity correction beyond.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("paired samples differ in length")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise Degenerate("all paired differences are zero")
    ranks = rankdata_average(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    stat = min(w_plus, w_minus)

    if n <= WILCOXON_EXACT_MAX_N:
        total = float(ranks.sum())
        patterns = np.arange(2 ** n, dtype=np.uint64)
        bits = (patterns[:, None] >> np.arange(n, dtype=np.uint64)) & 1
        wp = bits.astype(np.float64) @ ranks
        hits = np.minimum(wp, total - wp) <= stat + 1e-12
        return StatResult(stat, float(np.mean(hits)), "wilcoxon-exact")

    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(tie_counts ** 3 - tie_counts))
    var = (n * (n + 1) * (2 * n + 1) - tie_term / 2.0) / 24.0
    z = (stat - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * normal_sf(-z))
    return StatResult(stat, p, "wilcoxon-normal")


def holm_adjust(p_values) -> np.ndarray:
    """Step-down adjustment: sorted p_(j) scaled by (m - j + 1), running
    maximum enforced, capped at 1, returned in the original order."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        return p.copy()
    if p.min() < 0 or p.max() > 1:
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = np.empty(m)
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, min(1.0, (m - rank) * p[idx]))
        adjusted[idx] = running
    return adjusted


@dataclass
class ComparisonRow:
    comparison: str
    statistic: float
    p_value: float
    p_adjusted: float
    median_diff: float
    pct_change: float


@dataclass
class AblationReport:
    friedman: StatResult
    best_model: str | None
    model_names: list[str]
    comparisons: list[ComparisonRow]


def ablation_report(scores_by_model: dict[str, np.ndarray], *, alpha: float,
                    higher_is_better: bool = True) -> AblationReport:
    """Global Friedman test plus best-vs-others signed-rank comparisons.

    A winner is declared only when the Friedman test is significant at
    `alpha`; median_diff is median(best - other) and pct_change expresses
    it relative to the other model's median.
    """
    names = list(scores_by_model)
    if len(names) < 2:
        raise DataError("need at least two models")
    matrix = np.column_stack([np.asarray(scores_by_model[m], dtype=np.float64)
                              for m in names])
    fried = friedman_test(matrix)

    oriented = matrix if higher_is_better else -matrix
    mean_ranks = np.vstack([rankdata_average(row) for row in oriented]).mean(axis=0)
    best_idx = int(np.argmax(mean_ranks))

    if fried.p_value >= alpha:
        return AblationReport(fried, None, names, [])

    best = names[best_idx]
    rows = []
    raw_ps = []
    for j, other in enumerate(names):
        if j == best_idx:
            continue
        try:
            res = wilcoxon_signed_rank(matrix[:, best_idx], matrix[:, j])
        except Degenerate:
            res = StatResult(0.0, 1.0, "wilcoxon-degenerate")
        diff = float(np.median(matrix[:, best_idx] - matrix[:, j]))
        base = float(np.median(matrix[:, j]))
        pct = 100.0 * diff / abs(base) if base != 0.0 else math.nan
        rows.append(ComparisonRow(f"{best} vs {other}", res.statistic,
                                  res.p_value, math.nan, diff, pct))
        raw_ps.append(res.p_value)
    adjusted = holm_adjust(raw_ps)
    for row, adj in zip(rows, adjusted):
        row.p_adjusted = float(adj)
    return AblationReport(fried, best, names, rows)
