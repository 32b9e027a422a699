import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from botaclip.errors import DataError
from botaclip.numerics import Rng
from botaclip.spatial import (
    ROLE_BUFFER,
    FoldAssignment,
    assign_cells,
    buffered_split,
    check_no_leakage,
    make_folds,
    roles_for_fold,
    stratified_kfold,
)


class TestAssignCells:
    def test_floor_division(self):
        np.testing.assert_array_equal(
            assign_cells(np.array([[12000.0, 3000.0]]), 5000.0), [[2, 0]])

    def test_negative_coordinates(self):
        np.testing.assert_array_equal(
            assign_cells(np.array([[-1.0, -1.0]]), 5000.0), [[-1, -1]])

    def test_boundary_belongs_to_upper_cell(self):
        np.testing.assert_array_equal(
            assign_cells(np.array([[5000.0, 0.0]]), 5000.0), [[1, 0]])

    def test_translation_consistency(self):
        gen = Rng(0).substream("pts")
        pts = gen.uniform(-5e4, 5e4, size=(200, 2))
        base = assign_cells(pts, 5000.0)
        shifted = assign_cells(pts + 5000.0, 5000.0)
        np.testing.assert_array_equal(shifted, base + 1)


class TestMakeFolds:
    def test_balanced_fold_sizes(self):
        cells = [(i, j) for i in range(5) for j in range(2)]
        folds = make_folds(cells, 5, Rng(1).substream("folds"))
        counts = np.bincount(list(folds.values()), minlength=5)
        np.testing.assert_array_equal(counts, [2, 2, 2, 2, 2])

    def test_deterministic(self):
        cells = [(i, 0) for i in range(7)]
        a = make_folds(cells, 3, Rng(2).substream("folds"))
        b = make_folds(cells, 3, Rng(2).substream("folds"))
        assert a == b

    def test_too_few_cells(self):
        with pytest.raises(DataError, match="2 cells for k=3"):
            make_folds([(0, 0), (1, 1)], 3, Rng(0).substream("folds"))


def _assignment(seed=3, n=400, k=5, cell=5000.0, extent=1e5):
    gen = Rng(seed).substream("pts")
    pts = gen.uniform(0, extent, size=(n, 2))
    return pts, FoldAssignment.build(pts, k, Rng(seed).substream("folds"),
                                     cell_size=cell)


def _excluded(fa, fold):
    return np.flatnonzero(roles_for_fold(fa, fold) == ROLE_BUFFER)


class TestBufferedSplit:
    def test_diagonal_neighbor_excluded(self):
        pts = np.array([[100.0, 100.0], [5100.0, 5100.0], [10100.0, 100.0],
                        [20100.0, 20100.0], [30100.0, 100.0]])
        fa = FoldAssignment.build(pts, 2, Rng(4).substream("folds"), 5000.0)
        fa.fold_of_cell = {(0, 0): 0, (1, 1): 1, (2, 0): 1, (4, 4): 1,
                           (6, 0): 1}
        fa.fold_ids = np.array([0, 1, 1, 1, 1])
        train, val = buffered_split(fa, 0)
        assert 0 in val            # sample in a validation cell
        assert 1 in _excluded(fa, 0)  # diagonal neighbor (1, 1)

    def test_chebyshev_two_trains(self):
        pts = np.array([[100.0, 100.0], [10100.0, 100.0], [30100.0, 30100.0],
                        [45100.0, 100.0]])
        fa = FoldAssignment.build(pts, 2, Rng(5).substream("folds"), 5000.0)
        fa.fold_of_cell = {(0, 0): 0, (2, 0): 1, (6, 6): 1, (9, 0): 1}
        fa.fold_ids = np.array([0, 1, 1, 1])
        train, val = buffered_split(fa, 0)
        assert 0 in val
        assert 1 in train          # cell (2, 0) is two cells away

    def test_partition_is_disjoint_and_complete(self):
        _, fa = _assignment()
        for fold in range(5):
            train, val = buffered_split(fa, fold)
            combined = np.concatenate([train, val, _excluded(fa, fold)])
            assert combined.size == len(fa.cells)
            assert np.unique(combined).size == combined.size

    def test_validation_wins_over_adjacency(self):
        # two adjacent cells in the same fold: both stay validation
        pts = np.array([[100.0, 100.0], [5100.0, 100.0], [30100.0, 100.0],
                        [50100.0, 100.0]])
        fa = FoldAssignment.build(pts, 2, Rng(11).substream("folds"), 5000.0)
        fa.fold_of_cell = {(0, 0): 0, (1, 0): 0, (6, 0): 1, (10, 0): 1}
        fa.fold_ids = np.array([0, 0, 1, 1])
        _, val = buffered_split(fa, 0)
        assert 0 in val and 1 in val

    def test_no_leakage_audit(self):
        _, fa = _assignment(seed=6)
        for fold in range(5):
            train, val = buffered_split(fa, fold)
            check_no_leakage(fa, train, val)

    def test_leakage_detected_on_tampered_split(self):
        _, fa = _assignment(seed=6)
        train, val = buffered_split(fa, 0)
        tampered = np.concatenate([train, _excluded(fa, 0)[:1]])  # buffer
        with pytest.raises(DataError, match="touches validation cell"):
            check_no_leakage(fa, tampered, val)

    def test_min_planar_distance_at_least_cell_size(self):
        pts, fa = _assignment(seed=7, n=600)
        train, val = buffered_split(fa, 0)
        diff = pts[train][:, None, :] - pts[val][None, :, :]
        dmin = np.sqrt((diff ** 2).sum(axis=2)).min()
        assert dmin >= 5000.0

    def test_roles_cover_all_samples(self):
        _, fa = _assignment(seed=8)
        roles = roles_for_fold(fa, 1)
        assert set(roles) <= {"train", "validation", "buffer-excluded"}
        assert all(r is not None for r in roles)


# --- frozen reference: the all-pairs leakage audit ---------------------------

def _ref_check_no_leakage(assignment, train_idx, val_idx):
    train_cells = {(int(ix), int(iy)) for ix, iy in assignment.cells[train_idx]}
    val_cells = {(int(ix), int(iy)) for ix, iy in assignment.cells[val_idx]}
    for vx, vy in val_cells:
        for tx, ty in train_cells:
            if max(abs(vx - tx), abs(vy - ty)) < 2:
                raise DataError(
                    f"train cell {(tx, ty)} touches validation cell "
                    f"{(vx, vy)}")


def _raises_leakage(audit, fa, train, val):
    try:
        audit(fa, train, val)
    except DataError as exc:
        if "touches validation cell" not in str(exc):
            raise
        return True
    return False


@st.composite
def _audit_cases(draw):
    n = draw(st.integers(1, 40))
    # a few cells wide, so that neighbours, shared cells and far pairs mix
    span = draw(st.integers(1, 6))
    cells = draw(hnp.arrays(np.int64, (n, 2),
                            elements=st.integers(-span, span)))
    rows = st.lists(st.integers(0, n - 1), max_size=n)
    fa = FoldAssignment(5000.0, 2, cells, {}, np.zeros(n, dtype=np.int64))
    return fa, np.array(draw(rows), dtype=np.int64), \
        np.array(draw(rows), dtype=np.int64)


class TestLeakageAuditMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_audit_cases())
    def test_raises_on_exactly_the_reference_inputs(self, case):
        fa, train, val = case
        assert _raises_leakage(check_no_leakage, fa, train, val) == \
            _raises_leakage(_ref_check_no_leakage, fa, train, val)


class TestStratifiedKFold:
    def test_each_stratum_spread_over_folds(self):
        strata = np.repeat([0, 1, 2], 10)
        folds = stratified_kfold(strata, 5, Rng(9).substream("kf"))
        for s in range(3):
            counts = np.bincount(folds[strata == s], minlength=5)
            assert max(counts) - min(counts) <= 1

    def test_deterministic(self):
        strata = np.repeat([0, 1], 8)
        a = stratified_kfold(strata, 4, Rng(10).substream("kf"))
        b = stratified_kfold(strata, 4, Rng(10).substream("kf"))
        np.testing.assert_array_equal(a, b)


class TestBufferedSplitSeparation:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60).flatmap(lambda n: hnp.arrays(
               np.float64, (n, 2), elements=st.floats(-1e5, 1e5))),
           st.floats(100.0, 5e4), st.integers(2, 5), st.integers(0, 4),
           st.integers(0, 2**16))
    def test_no_train_sample_in_or_next_to_a_validation_cell(
            self, pts, cell_size, k, fold, seed):
        try:
            fa = FoldAssignment.build(pts, k, Rng(seed).substream("folds"),
                                      cell_size=cell_size)
            train, val = buffered_split(fa, fold % k)
        except DataError as exc:  # too few cells, or an empty fold
            if not re.search(r"cells for k=|validation samples", str(exc)):
                raise
            return
        # cells recomputed from the coordinates, not read from the split
        cells = np.floor(pts / cell_size).astype(np.int64)
        for t in cells[train]:
            assert np.abs(cells[val] - t).max(axis=1).min() >= 2
        check_no_leakage(fa, train, val)
