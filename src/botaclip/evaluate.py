"""Downstream task runners: fixed random-forest predictors over embeddings,
evaluated per species (presence tasks) or per trophic group (abundance).

Each task first builds the forest job of every unit (species or group, per
fold and seed) in order, then fits all of them in one forest.fit call on
the embedding matrix, then predicts and scores the units in the same order.
Each unit draws from its own substream, so a unit's result never depends
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
from .errors import DataError, Degenerate
from .fileio import read_csv, row_error, typed_columns, write_csv
from .forest import ForestConfig, Job, fit, predict
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


def _balanced_split(y, train_idx, val_idx, gen):
    """Balanced (train, validation) rows, or None when a side lacks a class
    or holds fewer than 4 rows."""
    train = _balanced(y, train_idx, gen)
    val = _balanced(y, val_idx, gen)
    if train is None or val is None or train.size < 4 or val.size < 4:
        return None
    return train, val


def _classify(forest, X, labels, threshold):
    """Classification metrics of forest on rows X with true labels, and its
    class-1 probabilities."""
    proba = predict(forest, X)
    pred = (proba >= threshold).astype(np.int64)
    return classification_metrics(confusion_counts(labels, pred)), proba


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
    units, jobs = [], []
    for seed in map(int, seeds):
        for j in map(int, kept):
            split = _balanced_split(binary[:, j], train_idx, val_idx,
                                    Rng(seed).substream("plant", j))
            if split is None:
                continue
            train, val = split
            units.append((seed, j, val))
            jobs.append(Job(train, binary[:, j],
                            ForestConfig(n_trees=n_trees,
                                         seed=seed * 100003 + j)))
    report = MetricReport("plant")
    for (seed, j, val), forest in zip(units, fit(embeddings, jobs)):
        res, _ = _classify(forest, embeddings[val], binary[val, j], threshold)
        for metric in ("tss", "f1", "sensitivity", "specificity"):
            report.add(covers.species_ids[j], fold, seed, metric, res[metric])
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
    units, jobs = [], []
    for seed in map(int, seeds):
        for i, (species, occ) in enumerate(occurrences.items()):
            pres_rows, cand_rows = (np.asarray(r) for r in row_index[species])
            gen = Rng(seed).substream("butterfly-abs", i)
            coords, labels, picked = make_pseudo_absences(occ, gen)
            emb_rows = np.concatenate([pres_rows, cand_rows[picked]])
            y = np.zeros(embeddings.shape[0])
            y[emb_rows] = labels
            try:
                fa = FoldAssignment.build(
                    coords, n_folds, Rng(seed).substream("butterfly-folds"),
                    cell_size)
            except DataError:
                continue
            for fold in range(n_folds):
                try:
                    train_idx, val_idx = buffered_split(fa, fold)
                    split = _balanced_split(
                        labels, train_idx, val_idx,
                        Rng(seed).substream("butterfly", fold))
                except DataError:
                    continue
                if split is None:
                    continue
                train, val = split
                units.append((species, fold, seed, emb_rows[val], labels[val]))
                jobs.append(Job(emb_rows[train], y,
                                ForestConfig(n_trees=n_trees,
                                             seed=seed * 100003 + fold)))
    report = MetricReport("butterfly")
    for (species, fold, seed, val, val_labels), forest in zip(
            units, fit(embeddings, jobs)):
        res, proba = _classify(forest, embeddings[val], val_labels, threshold)
        row = {m: res[m] for m in ("tss", "f1", "sensitivity", "specificity")}
        try:
            row["boyce"] = boyce_index(proba[val_labels == 1],
                                       proba[val_labels == 0])
        except Degenerate:
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
    groups = table.group_ids or [f"g{j + 1}" for j in range(table.values.shape[1])]
    units, jobs = [], []
    for seed in map(int, seeds):
        for j in range(table.values.shape[1]):
            folds = stratified_kfold(strata, n_folds,
                                     Rng(seed).substream("soil-folds"))
            for fold in range(n_folds):
                val = np.flatnonzero(folds == fold)
                train = np.flatnonzero(folds != fold)
                if train.size < 2 or val.size < 2:
                    continue
                units.append((j, fold, seed, val))
                jobs.append(Job(train, table.values[:, j], ForestConfig(
                    n_trees=n_trees, criterion="mse",
                    seed=seed * 100003 + fold * 1009 + j)))
    report = MetricReport("soil")
    for (j, fold, seed, val), forest in zip(units, fit(embeddings, jobs)):
        y = table.values[val, j]
        pred = predict(forest, embeddings[val])
        report.add(groups[j], fold, seed, "mae", mae(y, pred))
        try:
            report.add(groups[j], fold, seed, "spearman", spearman_rho(y, pred))
        except Degenerate:
            pass
    return report
