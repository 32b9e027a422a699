"""Grid-cell fold construction with a one-cell buffer between train and
validation.

Buffering uses 8-neighbor (Chebyshev) adjacency: any sample in a cell
touching a validation cell, even diagonally, is excluded from both sides,
which guarantees a worst-case planar separation of one full cell size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySplit, LeakageDetected, TooFewCells

ROLE_TRAIN = "train"
ROLE_VALIDATION = "validation"
ROLE_BUFFER = "buffer-excluded"


def assign_cells(points: np.ndarray, cell_size: float) -> np.ndarray:
    """Integer cell indices (ix, iy) = floor(coordinate / cell_size)."""
    if not 0 < cell_size < np.inf:
        raise ValueError(f"cell_size must be in (0, inf), got {cell_size}")
    points = np.asarray(points, dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise ValueError("coordinates must be finite")
    return np.floor(points / cell_size).astype(np.int64)


def make_folds(cells, k: int, gen: np.random.Generator) -> dict:
    """Deal distinct cells round-robin into k folds after a seeded shuffle."""
    if k < 2:
        raise ValueError("k must be >= 2")
    distinct = sorted({(int(ix), int(iy)) for ix, iy in cells})
    if len(distinct) < k:
        raise TooFewCells(f"{len(distinct)} cells for k={k}")
    order = gen.permutation(len(distinct))
    return {distinct[j]: int(i % k) for i, j in enumerate(order)}


@dataclass
class FoldAssignment:
    cell_size: float
    n_folds: int
    cells: np.ndarray       # (n, 2) per-sample cell indices
    fold_of_cell: dict      # (ix, iy) -> fold id
    fold_ids: np.ndarray    # (n,) per-sample fold id

    @classmethod
    def build(cls, points: np.ndarray, k: int, gen: np.random.Generator,
              cell_size: float) -> "FoldAssignment":
        cells = assign_cells(points, cell_size)
        fold_of_cell = make_folds(cells, k, gen)
        fold_ids = np.array([fold_of_cell[(int(ix), int(iy))]
                             for ix, iy in cells], dtype=np.int64)
        return cls(cell_size, k, cells, fold_of_cell, fold_ids)


def roles_for_fold(assignment: FoldAssignment, fold_id: int) -> np.ndarray:
    """Per-sample role strings for the chosen validation fold.

    Validation samples sit in cells of the requested fold; samples in any of
    the 8 cells adjacent to a validation cell are buffer-excluded;
    everything else trains. Membership in a validation cell wins over
    adjacency. Raises EmptySplit when no sample trains or validates.
    """
    if not 0 <= fold_id < assignment.n_folds:
        raise ValueError(f"fold_id {fold_id} outside [0, {assignment.n_folds})")
    val_cells = {cell for cell, f in assignment.fold_of_cell.items()
                 if f == fold_id}
    buffer_cells = set()
    for ix, iy in val_cells:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx or dy:
                    buffer_cells.add((ix + dx, iy + dy))
    buffer_cells -= val_cells

    roles = np.empty(len(assignment.cells), dtype=object)
    for i, (ix, iy) in enumerate(assignment.cells):
        cell = (int(ix), int(iy))
        if cell in val_cells:
            roles[i] = ROLE_VALIDATION
        elif cell in buffer_cells:
            roles[i] = ROLE_BUFFER
        else:
            roles[i] = ROLE_TRAIN
    n_train = np.count_nonzero(roles == ROLE_TRAIN)
    n_val = np.count_nonzero(roles == ROLE_VALIDATION)
    if n_train == 0 or n_val == 0:
        raise EmptySplit(
            f"fold {fold_id}: {n_train} train / {n_val} validation samples")
    return roles


def buffered_split(assignment: FoldAssignment, fold_id: int):
    """(train, validation) index arrays of the roles_for_fold split; the
    buffer-excluded samples are in neither."""
    roles = roles_for_fold(assignment, fold_id)
    return (np.flatnonzero(roles == ROLE_TRAIN),
            np.flatnonzero(roles == ROLE_VALIDATION))


def check_no_leakage(assignment: FoldAssignment, train_idx, val_idx) -> None:
    """Cell-level audit: every train/validation pair must be at Chebyshev
    cell distance >= 2, so no training cell may lie in the 3x3
    neighbourhood of a validation cell. Each validation cell looks up its
    nine neighbours in the set of training cells. Raises LeakageDetected
    on violation."""
    cells = assignment.cells
    train_cells = set(map(tuple, np.unique(cells[train_idx], axis=0).tolist()))
    for vx, vy in np.unique(cells[val_idx], axis=0).tolist():
        for tx in (vx - 1, vx, vx + 1):
            for ty in (vy - 1, vy, vy + 1):
                if (tx, ty) in train_cells:
                    raise LeakageDetected(
                        f"train cell {(tx, ty)} touches validation cell "
                        f"{(vx, vy)}")


def stratified_kfold(strata: np.ndarray, k: int,
                     gen: np.random.Generator) -> np.ndarray:
    """Per-sample fold ids, dealt round-robin within each stratum."""
    if k < 2:
        raise ValueError("k must be >= 2")
    strata = np.asarray(strata)
    folds = np.empty(strata.size, dtype=np.int64)
    for s in np.unique(strata):
        idx = np.flatnonzero(strata == s)
        idx = idx[gen.permutation(idx.size)]
        folds[idx] = np.arange(idx.size) % k
    return folds
