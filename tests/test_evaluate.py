import numpy as np
import pytest

from botaclip.dataprep import CoverMatrix, TrophicTable
from botaclip.errors import DataError
from botaclip.evaluate import MetricReport, eval_butterfly, eval_plant, eval_soil
from botaclip.fileio import read_occurrences
from botaclip.numerics import Rng, l2_normalize_rows
from botaclip.spatial import FoldAssignment
from botaclip.synth import generate_synthetic


class TestMetricReport:
    def test_csv_round_trip(self, tmp_path):
        report = MetricReport("plant")
        report.add("spA", 1, 0, "tss", 0.41)
        report.add("spA", 1, 0, "f1", 0.62)
        report.add("spB", 1, 0, "tss", 0.38)
        path = tmp_path / "r.csv"
        report.to_csv(path)
        loaded = MetricReport.from_csv(path)
        assert loaded.task == "plant"
        assert loaded.rows == report.rows

    def test_scores_average_over_folds_and_seeds(self):
        report = MetricReport("x")
        report.add("u", 0, 0, "tss", 0.2)
        report.add("u", 1, 0, "tss", 0.4)
        report.add("u", 0, 1, "tss", 0.6)
        assert abs(report.scores_for("tss")["u"] - 0.4) < 1e-12

    def test_pretty_mentions_metrics(self):
        report = MetricReport("soil")
        report.add("g1", 0, 0, "mae", 0.1)
        assert "mae" in report.pretty()


def _synthetic_setup(seed=0):
    data = generate_synthetic(pairs=220, latent_dim=4, img_dim=16,
                              n_species=16, views_per_pair=1, noise=0.3,
                              seed=seed, cell_size=5000.0, n_classes=8,
                              n_eval_species=10)
    ds = data.dataset
    fa = FoldAssignment.build(ds.locations, 5, Rng(seed).substream("folds"),
                              5000.0)
    return data, ds, fa


class TestEvalPlant:
    def test_informative_embeddings_beat_chance(self):
        data, ds, fa = _synthetic_setup()
        covers = CoverMatrix(data.eval_presence.astype(float),
                             ds.plot_ids, data.eval_species_ids)
        rows0 = np.flatnonzero(ds.view_index == 0)
        report = eval_plant(ds.images[rows0], covers, fa, 1, n_trees=15,
                            threshold=0.5, min_presences=1,
                            max_presences=None, seeds=(0,))
        scores = report.scores_for("tss")
        assert len(scores) >= 8
        assert np.mean(list(scores.values())) > 0.15

    def test_support_filter_drops_rare_species(self):
        data, ds, fa = _synthetic_setup()
        values = data.eval_presence.astype(float).copy()
        values[:, 0] = 0.0
        values[0, 0] = 1.0  # one presence only
        covers = CoverMatrix(values, ds.plot_ids, data.eval_species_ids)
        rows0 = np.flatnonzero(ds.view_index == 0)
        report = eval_plant(ds.images[rows0], covers, fa, 1, n_trees=5,
                            threshold=0.5, min_presences=10,
                            max_presences=None, seeds=(0,))
        assert data.eval_species_ids[0] not in report.scores_for("tss")

    def test_row_mismatch_rejected(self):
        data, ds, fa = _synthetic_setup()
        covers = CoverMatrix(data.eval_presence.astype(float), ds.plot_ids,
                             data.eval_species_ids)
        with pytest.raises(DataError):
            eval_plant(ds.images[:10], covers, fa, 1, n_trees=100,
                       threshold=0.5, min_presences=1, max_presences=None,
                       seeds=(0,))

    def test_deterministic(self):
        data, ds, fa = _synthetic_setup()
        covers = CoverMatrix(data.eval_presence.astype(float), ds.plot_ids,
                             data.eval_species_ids)
        rows0 = np.flatnonzero(ds.view_index == 0)
        a, b = (eval_plant(ds.images[rows0], covers, fa, 1, n_trees=8,
                           threshold=0.5, min_presences=1, max_presences=None,
                           seeds=(0,)) for _ in range(2))
        assert a.rows == b.rows


class TestEvalButterfly:
    def _occurrence_file(self, tmp_path, seed=4):
        # suitability depends on the first embedding coordinate
        gen = Rng(seed).substream("b")
        n = 400
        emb = l2_normalize_rows(gen.normal(size=(n, 8)))
        coords = gen.uniform(0, 80000, size=(n, 2))
        lines = ["species_id,x_m,y_m,label"]
        labels = (emb[:, 0] + 0.3 * gen.normal(size=n) > 0.15).astype(int)
        for (x, y), lab in zip(coords, labels):
            lines.append(f"b1,{float(x)!r},{float(y)!r},{int(lab)}")
        path = tmp_path / "occ.csv"
        path.write_text("\n".join(lines) + "\n")
        return emb, path

    def test_signal_recovered(self, tmp_path):
        emb, path = self._occurrence_file(tmp_path)
        occ, row_index = read_occurrences(path)
        report = eval_butterfly(emb, occ, row_index, n_folds=4,
                                cell_size=5000.0, n_trees=15, threshold=0.5,
                                seeds=(0,))
        tss = report.scores_for("tss")
        assert tss and tss["b1"] > 0.2
        boyce = report.scores_for("boyce")
        assert boyce and boyce["b1"] > 0.2

    def test_deterministic(self, tmp_path):
        emb, path = self._occurrence_file(tmp_path, seed=5)
        occ, row_index = read_occurrences(path)
        a, b = (eval_butterfly(emb, occ, row_index, n_folds=3,
                               cell_size=5000.0, n_trees=6, threshold=0.5,
                               seeds=(0,)) for _ in range(2))
        assert a.rows == b.rows


class TestEvalSoil:
    def test_signal_recovered(self):
        gen = Rng(6).substream("soil")
        n, d, g = 240, 10, 4
        emb = l2_normalize_rows(gen.normal(size=(n, d)))
        w = gen.normal(size=(d, g))
        raw = np.exp(emb @ w)  # positive abundances driven by embeddings
        table = TrophicTable(raw, gen.uniform(500, 2500, size=n),
                             [f"s{i}" for i in range(n)],
                             [f"g{j}" for j in range(g)])
        report = eval_soil(emb, table, n_folds=4, n_strata=4, n_trees=15,
                           seeds=(0,))
        rho = report.scores_for("spearman")
        assert len(rho) == g
        assert np.mean(list(rho.values())) > 0.4
        assert all(v >= 0 for v in report.scores_for("mae").values())

    def test_row_mismatch_rejected(self):
        table = TrophicTable(np.ones((5, 2)), np.arange(5.0),
                             [str(i) for i in range(5)], ["a", "b"])
        with pytest.raises(DataError):
            eval_soil(np.ones((4, 3)), table, n_folds=5, n_strata=5,
                      n_trees=100, seeds=(0,))
