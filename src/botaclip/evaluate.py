"""Downstream task runners: fixed random-forest predictors over embeddings,
evaluated per species (presence tasks) or per trophic group (abundance).

Units (species or groups) run in order, one after another, in the calling
thread; each draws from its own substream, so a unit's result never depends
on the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataprep import (
    CoverMatrix,
    TrophicTable,
    balance_downsample,
    binarize_presence,
    filter_by_support,
    make_pseudo_absences,
    normalize_soil,
    stratify_by_elevation,
)
from .errors import DataError, Degenerate, ZeroVariance
from .fileio import read_csv, row_error, typed_columns, write_csv
from .forest import ForestConfig, fit_classifier, fit_regressor, predict
from .metrics import boyce_index, classification_metrics, confusion_counts, mae, spearman_rho
from .numerics import Rng
from .spatial import FoldAssignment, buffered_split, stratified_kfold

REPORT_HEADER = ["task", "unit", "fold", "seed", "metric", "value"]


@dataclass
class MetricReport:
    """Long-format per-unit scores: one row per (unit, fold, seed, metric)."""
    task: str
    rows: list = field(default_factory=list)  # (unit, fold, seed, metric, value)

    def add(self, unit, fold, seed, metric, value):
        self.rows.append((unit, int(fold), int(seed), metric, float(value)))

    def to_csv(self, path):
        write_csv(path, REPORT_HEADER,
                  ([self.task, *row] for row in self.rows))

    @classmethod
    def from_csv(cls, path):
        header, rows = read_csv(path)
        if header != REPORT_HEADER:
            raise DataError(f"{path}: bad report header")
        task = rows[0][0] if rows else ""
        fold_seed = typed_columns(path, header, rows, slice(2, 4), np.int64)
        values = typed_columns(path, header, rows, 5, nan_ok=True)
        for k, r in enumerate(rows):
            if r[0] != task:
                raise row_error(path, k, f"task {r[0]!r} in a {task!r} report")
        return cls(task, [(r[1], fold, seed, r[4], value)
                          for r, (fold, seed), value
                          in zip(rows, fold_seed.tolist(), values.tolist())])

    def scores_for(self, metric: str) -> dict[str, float]:
        """Mean value per unit over folds and seeds."""
        acc: dict[str, list] = {}
        for unit, _, _, m, value in self.rows:
            if m == metric:
                acc.setdefault(unit, []).append(value)
        return {u: float(np.mean(v)) for u, v in acc.items()}

    def pretty(self) -> str:
        by_metric: dict[str, list] = {}
        for _, _, _, metric, value in self.rows:
            by_metric.setdefault(metric, []).append(value)
        lines = [f"task: {self.task} ({len(self.rows)} rows)"]
        for metric in sorted(by_metric):
            vals = np.array(by_metric[metric])
            lines.append(f"  {metric:<12} mean={vals.mean():+.4f} "
                         f"std={vals.std():.4f} n={vals.size}")
        return "\n".join(lines)


def _balanced(y, idx, gen):
    """Downsample the majority side of idx to balance labels."""
    pres = idx[y[idx] == 1]
    absn = idx[y[idx] == 0]
    if pres.size == 0 or absn.size == 0:
        return None
    if absn.size >= pres.size:
        absn = balance_downsample(pres, absn, gen)
    else:
        pres = balance_downsample(absn, pres, gen)
    return np.concatenate([pres, absn])


def _classify_fold(X, y, train_idx, val_idx, n_trees, threshold, tree_seed,
                   gen):
    train = _balanced(y, train_idx, gen)
    val = _balanced(y, val_idx, gen)
    if train is None or val is None or train.size < 4 or val.size < 4:
        return None
    forest = fit_classifier(X[train], y[train],
                            ForestConfig(n_trees=n_trees, seed=tree_seed))
    proba = predict(forest, X[val])
    pred = (proba >= threshold).astype(np.int64)
    out = classification_metrics(confusion_counts(y[val], pred))
    out["_proba"] = proba
    out["_val_labels"] = y[val]
    return out


def eval_plant(embeddings: np.ndarray, covers: CoverMatrix,
               assignment: FoldAssignment, fold: int, *, n_trees: int,
               threshold: float, min_presences: int,
               max_presences: int | None, seeds) -> MetricReport:
    """Presence prediction per plant species on the buffered spatial fold.

    Embedding rows must align with the cover-matrix plots. Covers are
    binarized, species outside the support range dropped, classes balanced
    by downsampling on both sides of the split.
    """
    if embeddings.shape[0] != covers.values.shape[0]:
        raise DataError("embedding rows must match cover-matrix plots")
    binary = binarize_presence(covers.values)
    kept = filter_by_support(binary, min_presences, max_presences)
    train_idx, val_idx = buffered_split(assignment, fold)
    report = MetricReport("plant")
    for seed in map(int, seeds):
        for j in map(int, kept):
            gen = Rng(seed).substream("plant", j)
            res = _classify_fold(embeddings, binary[:, j], train_idx, val_idx,
                                 n_trees, threshold, seed * 100003 + j, gen)
            if res is None:
                continue
            for metric in ("tss", "f1", "sensitivity", "specificity"):
                report.add(covers.species_ids[j], fold, seed, metric,
                           res[metric])
    return report


def eval_butterfly(embeddings: np.ndarray, occurrences: dict,
                   row_index: dict, *, n_folds: int, cell_size: float,
                   n_trees: int, threshold: float, seeds) -> MetricReport:
    """Presence-only evaluation with pseudo-absences and a buffered spatial
    k-fold per species; suitability ranking scored against the validation
    background.

    row_index maps each species to (presence_rows, candidate_rows) in the
    embedding matrix, aligned with its OccurrenceSet arrays.
    """
    if embeddings.shape[0] != sum(len(p) + len(c)
                                  for p, c in row_index.values()):
        raise DataError("embedding rows must match occurrence rows")
    report = MetricReport("butterfly")
    for seed in map(int, seeds):
        for i, (species, occ) in enumerate(occurrences.items()):
            pres_rows, cand_rows = (np.asarray(r) for r in row_index[species])
            gen = Rng(seed).substream("butterfly-abs", i)
            coords, labels, picked = make_pseudo_absences(occ, gen)
            emb_rows = np.concatenate([pres_rows, cand_rows[picked]])
            X = embeddings[emb_rows]
            try:
                fa = FoldAssignment.build(
                    coords, n_folds, Rng(seed).substream("butterfly-folds"),
                    cell_size)
            except DataError:
                continue
            for fold in range(n_folds):
                try:
                    train_idx, val_idx = buffered_split(fa, fold)
                    res = _classify_fold(
                        X, labels, train_idx, val_idx, n_trees, threshold,
                        seed * 100003 + fold,
                        Rng(seed).substream("butterfly", fold))
                except DataError:
                    continue
                if res is None:
                    continue
                row = {m: res[m] for m in ("tss", "f1", "sensitivity",
                                           "specificity")}
                try:
                    pres_scores = res["_proba"][res["_val_labels"] == 1]
                    bg_scores = res["_proba"][res["_val_labels"] == 0]
                    row["boyce"] = boyce_index(pres_scores, bg_scores)
                except (Degenerate, ZeroVariance):
                    pass
                for metric, value in row.items():
                    report.add(species, fold, seed, metric, value)
    return report


def eval_soil(embeddings: np.ndarray, soil: TrophicTable, *, n_folds: int,
              n_strata: int, n_trees: int, seeds) -> MetricReport:
    """Per-group abundance regression under elevation-stratified k-fold CV."""
    if embeddings.shape[0] != soil.values.shape[0]:
        raise DataError("embedding rows must match soil samples")
    table = normalize_soil(soil)
    strata = stratify_by_elevation(table.elevations, n_strata)
    report = MetricReport("soil")
    groups = table.group_ids or [f"g{j + 1}" for j in range(table.values.shape[1])]

    for seed in map(int, seeds):
        for j in range(table.values.shape[1]):
            y = table.values[:, j]
            folds = stratified_kfold(strata, n_folds,
                                     Rng(seed).substream("soil-folds"))
            for fold in range(n_folds):
                val = np.flatnonzero(folds == fold)
                train = np.flatnonzero(folds != fold)
                if train.size < 2 or val.size < 2:
                    continue
                forest = fit_regressor(
                    embeddings[train], y[train],
                    ForestConfig(n_trees=n_trees, criterion="mse",
                                 seed=seed * 100003 + fold * 1009 + j))
                pred = predict(forest, embeddings[val])
                report.add(groups[j], fold, seed, "mae", mae(y[val], pred))
                try:
                    report.add(groups[j], fold, seed, "spearman",
                               spearman_rho(y[val], pred))
                except ZeroVariance:
                    pass
    return report
