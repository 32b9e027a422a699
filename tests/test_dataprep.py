import numpy as np
import pytest

from botaclip.dataprep import (
    BRAUN_BLANQUET_PERCENT,
    CoverMatrix,
    OccurrenceSet,
    Releve,
    TrophicTable,
    balance_downsample,
    binarize_presence,
    braun_blanquet_to_percent,
    build_cover_matrix,
    filter_by_support,
    make_pseudo_absences,
    normalize_soil,
    stratify_by_elevation,
)
from botaclip.errors import DataError
from botaclip.numerics import Rng


class TestBraunBlanquet:
    def test_class_five_midpoint(self):
        assert braun_blanquet_to_percent("5") == 87.5

    def test_class_three_midpoint(self):
        assert braun_blanquet_to_percent("3") == 37.5

    def test_unknown_class(self):
        with pytest.raises(DataError, match="unknown cover-abundance class"):
            braun_blanquet_to_percent("x")

    def test_image_within_open_interval(self):
        vals = [braun_blanquet_to_percent(c) for c in BRAUN_BLANQUET_PERCENT]
        assert all(0 < v < 100 for v in vals)

    def test_monotone_in_class_order(self):
        order = ["r", "+", "1", "2", "3", "4", "5"]
        vals = [braun_blanquet_to_percent(c) for c in order]
        assert vals == sorted(vals)


class TestCoverMatrix:
    def test_single_species_row(self):
        rel = Releve("p1", 0.0, 0.0, [("spA", "5")], 3)
        matrix, labels = build_cover_matrix([rel], ["spA", "spB", "spC"])
        np.testing.assert_array_equal(matrix.values, [[87.5, 0.0, 0.0]])
        assert labels[0] == 3

    def test_empty_releve_is_valid(self):
        matrix, _ = build_cover_matrix([Releve("p1", 0, 0, [])], ["spA"])
        np.testing.assert_array_equal(matrix.values, [[0.0]])

    def test_duplicate_species_rejected(self):
        rel = Releve("p1", 0, 0, [("spA", "1"), ("spA", "2")])
        with pytest.raises(DataError, match="species 'spA' recorded twice"):
            build_cover_matrix([rel], ["spA"])

    def test_unknown_species_rejected(self):
        with pytest.raises(DataError, match="species 'spZ' not in index"):
            build_cover_matrix([Releve("p1", 0, 0, [("spZ", "1")])], ["spA"])

    def test_binarize_keeps_every_presence(self):
        gen = Rng(0).substream("cov")
        releves = []
        for i in range(20):
            picks = gen.choice(5, size=int(gen.integers(0, 4)), replace=False)
            releves.append(Releve(
                f"p{i}", 0, 0,
                [(f"sp{j}", str(gen.choice(list("r+12345")))) for j in picks]))
        matrix, _ = build_cover_matrix(releves, [f"sp{j}" for j in range(5)])
        binary = binarize_presence(matrix.values)
        for i, rel in enumerate(releves):
            for sp, _ in rel.species_covers:
                assert binary[i, int(sp[2:])] == 1


class TestBinarize:
    def test_tiny_cover_is_presence(self):
        np.testing.assert_array_equal(binarize_presence(np.array([[0.1]])), [[1]])

    def test_zero_is_absence(self):
        np.testing.assert_array_equal(binarize_presence(np.array([[0.0]])), [[0]])

    def test_idempotent(self):
        b = np.array([[0, 1], [1, 0]])
        np.testing.assert_array_equal(binarize_presence(b), b)


class TestSupportFilter:
    def test_inclusive_bounds(self):
        binary = np.zeros((1001, 4), dtype=np.int64)
        for j, count in enumerate((99, 100, 1000, 1001)):
            binary[:count, j] = 1
        np.testing.assert_array_equal(filter_by_support(binary, 100, 1000),
                                      [1, 2])

    def test_no_bounds_keeps_all(self):
        binary = np.eye(3, dtype=np.int64)
        np.testing.assert_array_equal(filter_by_support(binary, 0), [0, 1, 2])

    def test_all_below_min_gives_empty(self):
        assert filter_by_support(np.zeros((5, 3)), 1).size == 0


class TestBalanceDownsample:
    def test_count_contract(self):
        pres = np.arange(10)
        absn = np.arange(100, 200)
        picked = balance_downsample(pres, absn, Rng(1).substream("d"))
        assert picked.size == 10
        assert np.all(np.isin(picked, absn))
        assert np.unique(picked).size == 10

    def test_equal_sizes_returns_same_set(self):
        pres = np.arange(5)
        absn = np.arange(10, 15)
        picked = balance_downsample(pres, absn, Rng(2).substream("d"))
        np.testing.assert_array_equal(np.sort(picked), absn)

    def test_deterministic_per_seed(self):
        pres = np.arange(7)
        absn = np.arange(50)
        a = balance_downsample(pres, absn, Rng(3).substream("d"))
        b = balance_downsample(pres, absn, Rng(3).substream("d"))
        np.testing.assert_array_equal(a, b)

    def test_insufficient(self):
        with pytest.raises(DataError, match="3 absences for 5 presences"):
            balance_downsample(np.arange(5), np.arange(3), Rng(0).substream("d"))


class TestPseudoAbsences:
    def _occ(self):
        gen = Rng(4).substream("occ")
        return OccurrenceSet("sp1", gen.uniform(0, 100, size=(5, 2)),
                             gen.uniform(0, 100, size=(50, 2)))

    def test_balanced_output(self):
        coords, labels, _ = make_pseudo_absences(self._occ(),
                                                 Rng(5).substream("p"))
        assert coords.shape == (10, 2)
        assert labels.sum() == 5

    def test_coincident_candidate_dropped(self):
        pres = np.array([[1.0, 1.0], [2.0, 2.0]])
        cand = np.vstack([pres[0], np.array([[3.0, 3.0], [4.0, 4.0]])])
        occ = OccurrenceSet("sp", pres, cand)
        coords, labels, picked = make_pseudo_absences(occ, Rng(6).substream("p"))
        absences = coords[labels == 0]
        assert not any((a == pres[0]).all() for a in absences)
        assert 0 not in picked  # the coincident candidate row

    def test_deterministic(self):
        a = make_pseudo_absences(self._occ(), Rng(7).substream("p"))[0]
        b = make_pseudo_absences(self._occ(), Rng(7).substream("p"))[0]
        np.testing.assert_array_equal(a, b)


class TestNormalizeSoil:
    def test_row_proportions(self):
        t = TrophicTable(np.array([[2.0, 2.0]]), np.array([100.0]), ["s0"])
        out = normalize_soil(t)
        # single sample: both columns constant, min-max maps them to 0
        np.testing.assert_array_equal(out.values, [[0.0, 0.0]])

    def test_column_min_max(self):
        vals = np.array([[0.1, 0.9], [0.3, 0.7], [0.5, 0.5]])
        t = TrophicTable(vals, np.arange(3.0), ["a", "b", "c"])
        out = normalize_soil(t)
        np.testing.assert_allclose(out.values[:, 0], [0.0, 0.5, 1.0], atol=1e-12)

    def test_constant_column_is_zero(self):
        vals = np.array([[1.0, 1.0], [2.0, 2.0]])
        out = normalize_soil(TrophicTable(vals, np.arange(2.0), ["a", "b"]))
        np.testing.assert_array_equal(out.values, np.zeros((2, 2)))

    def test_empty_sample_raises(self):
        t = TrophicTable(np.array([[0.0, 0.0]]), np.array([1.0]), ["s"])
        with pytest.raises(DataError, match="sample row 0 sums to zero"):
            normalize_soil(t)

    def test_step_one_rows_sum_to_one(self):
        gen = Rng(8).substream("soil")
        vals = gen.uniform(0.1, 5.0, size=(20, 7))
        rel = vals / vals.sum(axis=1, keepdims=True)
        assert np.max(np.abs(rel.sum(axis=1) - 1.0)) < 1e-12
        out = normalize_soil(TrophicTable(vals, np.arange(20.0),
                                          [str(i) for i in range(20)]))
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0


class TestStratify:
    def test_even_split(self):
        strata = stratify_by_elevation(np.arange(1.0, 11.0), 5)
        assert [int(np.sum(strata == s)) for s in range(5)] == [2, 2, 2, 2, 2]

    def test_all_equal_single_stratum(self):
        strata = stratify_by_elevation(np.full(6, 42.0), 3)
        assert np.all(strata == 0)

    def test_deterministic(self):
        elev = Rng(9).substream("e").uniform(0, 3000, size=31)
        a = stratify_by_elevation(elev, 4)
        b = stratify_by_elevation(elev, 4)
        np.testing.assert_array_equal(a, b)

    def test_sizes_differ_by_at_most_one(self):
        elev = Rng(10).substream("e").uniform(0, 3000, size=33)
        strata = stratify_by_elevation(elev, 5)
        sizes = [int(np.sum(strata == s)) for s in range(5)]
        assert max(sizes) - min(sizes) <= 1
