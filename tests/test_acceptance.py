"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s or -v to see them). Budgets are asserted
in-test. Run:

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import json
import math
import resource
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import numeric_param_grad, split_like_params
from gradcheck import max_rel_error

from botaclip.cli import main as cli_main
from botaclip.dataprep import CoverMatrix
from botaclip.encoders import (
    AlignmentModel,
    BotaniaMLP,
    BotaSPModel,
    GradientTape,
)
from botaclip.evaluate import eval_plant
from botaclip.losses import (
    ScalarsTauB,
    binary_cross_entropy_with_logits,
    botasp_loss,
    cross_entropy_batch,
    sigmoid_contrastive_loss,
    similarity_regularizer,
)
from botaclip.metrics import (
    boyce_index,
    classification_metrics,
    cluster_indices,
    confusion_counts,
    knn_overlap,
    rankdata_average,
    spearman_rho,
)
from botaclip.numerics import Rng, l2_normalize_rows
from botaclip.spatial import FoldAssignment, buffered_split
from botaclip.stats import friedman_test, holm_adjust, wilcoxon_signed_rank
from botaclip.synth import generate_synthetic
from botaclip.training import TrainConfig, train_botaclip

GRAD_TOL = 1e-5
LN2 = math.log(2.0)

# frozen desk-scale configuration shared by criteria 3, 4 and 9
DESK = dict(pairs=512, latent_dim=8, img_dim=64, n_species=64,
            views_per_pair=4, noise=1.6, cell_size=5000.0, n_classes=8,
            n_eval_species=10)
DESK_EPOCHS = 150


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _train_desk(seed: int, lam: float):
    data = generate_synthetic(seed=seed, **DESK)
    ds = data.dataset
    fa = FoldAssignment.build(ds.locations, 5, Rng(seed).substream("folds"),
                              5000.0)
    cfg = TrainConfig(batch_size=256, max_epochs=DESK_EPOCHS, patience=10,
                      seed=seed, shuffle=True)
    rng = Rng(seed)
    botania = BotaniaMLP(ds.covers.shape[1], 96, DESK["img_dim"], 8, 0.4,
                         gen=rng.substream("init/botania"))
    model = AlignmentModel(
        "botania-linear", d_img=DESK["img_dim"], d_tab=ds.covers.shape[1],
        rng=rng, proj_dim=DESK["img_dim"], botania=botania,
        adapter_noise_variance=1e-4)
    model, log = train_botaclip(model, ds, fa, cfg, fold=1, lam=lam, lr=1e-3,
                                weight_decay=1e-3)
    return data, ds, fa, model, log


class TestCriterion1Gradients:
    """Analytic gradients vs central finite differences: every loss, every
    encoder family, >= 20 random small instances each, rel err < 1e-5."""

    def _check_chain(self, variant, seed):
        rng = Rng(seed)
        n = int(rng.substream("n").integers(2, 5))
        d_img = int(rng.substream("di").integers(3, 9))
        d_tab = int(rng.substream("dt").integers(4, 9))
        botania = None
        if variant == "botania-linear":
            botania = BotaniaMLP(d_tab, 5, d_img, 3, 0.4,
                                 gen=rng.substream("binit"))
        model = AlignmentModel(
            variant, d_img=d_img, d_tab=d_tab, rng=Rng(seed + 1),
            proj_dim=d_img if variant == "botania-linear" else 4,
            botania=botania, adapter_noise_variance=1e-4, mlp_img_hidden=6,
            mlp_tab_hidden=5, attn_model_dim=8)
        model.tau.value, model.bias.value = 0.4, -0.6
        img = l2_normalize_rows(rng.substream("img").normal(size=(n, d_img)))
        covers = rng.substream("cov").uniform(0, 100, size=(n, d_tab))
        lam = float(rng.substream("lam").uniform(0.2, 2.0))
        params = model.params()

        def scalar_fn():
            zi = model.encode_images(img)
            zt = model.encode_tables(covers)
            s = ScalarsTauB(float(model.tau.value), float(model.bias.value))
            return (sigmoid_contrastive_loss(zi, zt, s)[0]
                    + lam * similarity_regularizer(img, zi)[0])

        zi = model.encode_images(img)
        zt = model.encode_tables(covers)
        s = ScalarsTauB(float(model.tau.value), float(model.bias.value))
        _, (d_zi, d_zt, d_tau, d_b) = sigmoid_contrastive_loss(zi, zt, s,
                                                               grad=True)
        _, d_reg = similarity_regularizer(img, zi, grad=True)
        tape = GradientTape()
        model.backward_images(d_zi + lam * d_reg, tape)
        model.backward_tables(d_zt, tape)
        tape.add(model.tau, np.float64(d_tau))
        tape.add(model.bias, np.float64(d_b))
        # h = 1e-5: cover inputs are O(100), so smaller steps are
        # roundoff-dominated in the difference quotient
        numeric = split_like_params(
            numeric_param_grad(scalar_fn, params, h=1e-5), params)
        worst = 0.0
        for p in params:
            worst = max(worst, max_rel_error(tape.get(p), numeric[p.name]))
        assert worst < GRAD_TOL, f"{variant} seed {seed}: {worst:.2e}"
        return worst

    def _check_botania_ce(self, seed):
        rng = Rng(seed)
        n = int(rng.substream("n").integers(2, 5))
        model = BotaniaMLP(6, 5, 4, 3, 0.4, gen=rng.substream("init"))
        covers = rng.substream("cov").uniform(0, 100, size=(n, 6))
        labels = rng.substream("lab").integers(0, 3, size=n)

        def scalar_fn():
            return cross_entropy_batch(model.forward(covers), labels)[0]

        _, dlogits = cross_entropy_batch(model.forward(covers), labels,
                                         grad=True)
        tape = GradientTape()
        model.backward(dlogits, tape)
        numeric = split_like_params(
            numeric_param_grad(scalar_fn, model.params(), h=1e-5),
            model.params())
        worst = max(max_rel_error(tape.get(p), numeric[p.name])
                    for p in model.params())
        assert worst < GRAD_TOL
        return worst

    def _check_botasp(self, seed):
        rng = Rng(seed)
        n = int(rng.substream("n").integers(2, 5))
        d, s_dim = 5, 3
        model = BotaSPModel(d, s_dim, proj_dim=4, hidden=6, dropout_rate=0.4,
                            gen=rng.substream("init"))
        x = l2_normalize_rows(rng.substream("x").normal(size=(n, d)))
        targets = (rng.substream("t").random((n, s_dim)) < 0.5).astype(float)
        z_orig = l2_normalize_rows(rng.substream("zo").normal(size=(n, 4)))
        lam = float(rng.substream("lam").uniform(1.0, 100.0))

        def scalar_fn():
            logits, z, _ = model.forward(x)
            return botasp_loss(logits, targets, z_orig, z, lam)[0]

        logits, z, _ = model.forward(x)
        _, (dlogits, dz) = botasp_loss(logits, targets, z_orig, z, lam,
                                       grad=True)
        tape = GradientTape()
        model.backward(tape, g_logits=dlogits, g_z=dz)
        numeric = split_like_params(
            numeric_param_grad(scalar_fn, model.params()), model.params())
        worst = max(max_rel_error(tape.get(p), numeric[p.name])
                    for p in model.params())
        assert worst < GRAD_TOL
        return worst

    def test_criterion_1(self):
        start = time.time()
        worst = 0.0
        n_checks = 0
        for variant in ("botania-linear", "mlp", "attention"):
            for seed in range(20):
                worst = max(worst, self._check_chain(variant, 1000 + seed))
                n_checks += 1
        for seed in range(20):
            worst = max(worst, self._check_botania_ce(2000 + seed))
            worst = max(worst, self._check_botasp(3000 + seed))
            n_checks += 2
        elapsed = time.time() - start
        assert elapsed < 30.0, f"gradient battery took {elapsed:.1f}s"
        _report("1 gradient-correctness",
                f"{n_checks} instances, worst rel err {worst:.2e}, "
                f"{elapsed:.1f}s")


class TestCriterion2LossUnitValues:
    def test_criterion_2(self):
        # one pair at logit exp(0) * <e1, e2> + 0 = 0
        v1, _ = sigmoid_contrastive_loss(np.array([[1.0, 0.0]]),
                                         np.array([[0.0, 1.0]]),
                                         ScalarsTauB(0.0, 0.0))
        assert abs(v1 - LN2) < 1e-12

        z = np.eye(2)
        v2, _ = sigmoid_contrastive_loss(z, z, ScalarsTauB(0.0, 0.0))
        assert abs(v2 - 0.503204) < 1e-6

        img = np.eye(2)
        collapsed = np.array([[1.0, 0.0], [1.0, 0.0]])
        v3, _ = similarity_regularizer(img, collapsed)
        assert abs(v3 - 0.125) < 1e-12

        gen = Rng(7).substream("z")
        a = l2_normalize_rows(gen.normal(size=(3, 4)))
        b = l2_normalize_rows(gen.normal(size=(3, 4)))
        logits = gen.normal(size=(3, 5))
        targets = (gen.random((3, 5)) < 0.5).astype(float)
        assert botasp_loss(logits, targets, a, b, 0.0) == \
            binary_cross_entropy_with_logits(logits, targets)
        _report("2 loss-unit-values",
                f"ln2={v1:.12f}, two-pair={v2:.6f}, drift={v3:.6f}, "
                f"lambda-0 reduction exact")


class TestCriterion3ForgettingMitigation:
    def test_criterion_3(self):
        start = time.time()
        wins = 0
        details = []
        for seed in range(5):
            overlaps = {}
            for lam in (0.0, 1.0):
                data, ds, _, model, log = _train_desk(seed, lam)
                rows0 = np.flatnonzero(ds.view_index == 0)
                raw = ds.images[rows0]
                overlaps[lam] = knn_overlap(raw, model.encode_images(raw),
                                            k=10)
                if lam == 1.0:
                    assert log.scl[log.best_epoch - 1] < LN2
            wins += overlaps[1.0] > overlaps[0.0]
            details.append(f"{overlaps[0.0]:.3f}<{overlaps[1.0]:.3f}")
        elapsed = time.time() - start
        assert wins >= 4, f"only {wins}/5 seeds showed higher overlap"
        assert elapsed < 180.0, f"{elapsed:.0f}s"
        _report("3 forgetting-mitigation",
                f"{wins}/5 seeds, overlaps {', '.join(details)}, "
                f"{elapsed:.0f}s")


class TestCriterion4AlignmentTransfer:
    def test_criterion_4(self):
        start = time.time()
        wins = 0
        gaps = []
        for seed in range(5):
            data, ds, fa, model, _ = _train_desk(seed, 1.0)
            rows0 = np.flatnonzero(ds.view_index == 0)
            raw = ds.images[rows0]
            adapted = model.encode_images(raw)
            covers = CoverMatrix(data.eval_presence.astype(float),
                                 ds.plot_ids, data.eval_species_ids)
            tss = {}
            for name, X in (("raw", raw), ("adapted", adapted)):
                report = eval_plant(X, covers, fa, 1, n_trees=30,
                                    threshold=0.5, min_presences=1,
                                    max_presences=None, seeds=(seed,))
                tss[name] = float(np.mean(list(
                    report.scores_for("tss").values())))
            gap = tss["adapted"] - tss["raw"]
            gaps.append(gap)
            wins += gap > 0.05
        elapsed = time.time() - start
        assert wins >= 4, f"only {wins}/5 seeds with gap > 0.05: {gaps}"
        assert elapsed < 300.0, f"{elapsed:.0f}s"
        _report("4 alignment-transfer",
                f"{wins}/5 seeds, gaps {[round(g, 3) for g in gaps]}, "
                f"{elapsed:.0f}s")


class TestCriterion5SpatialLeakage:
    def test_criterion_5(self):
        gen = Rng(17).substream("points")
        points = gen.uniform(0.0, 250_000.0, size=(10_000, 2))
        fa = FoldAssignment.build(points, 5, Rng(17).substream("folds"),
                                  5000.0)
        violations = 0
        min_dist = np.inf
        for fold in range(5):
            train_idx, val_idx = buffered_split(fa, fold)
            train_cells = {tuple(c) for c in fa.cells[train_idx]}
            val_cells = {tuple(c) for c in fa.cells[val_idx]}
            for vx, vy in val_cells:
                for tx, ty in train_cells:
                    if max(abs(vx - tx), abs(vy - ty)) < 2:
                        violations += 1
            # exhaustive planar distances, train x validation, chunked
            val_pts = points[val_idx]
            for chunk in np.array_split(points[train_idx], 20):
                d2 = ((chunk[:, None, :] - val_pts[None, :, :]) ** 2).sum(-1)
                min_dist = min(min_dist, float(np.sqrt(d2.min())))
        assert violations == 0
        assert min_dist >= 5000.0
        _report("5 spatial-leakage",
                f"0 cell violations, min train-val distance "
                f"{min_dist:.1f} m over 10k points x 5 folds")


class TestCriterion6MetricOracles:
    def test_criterion_6(self):
        gen = Rng(23).substream("conf")
        checked = 0
        for _ in range(100):
            n = int(gen.integers(20, 400))
            y = (gen.random(n) < 0.5).astype(int)
            pred = (gen.random(n) < 0.5).astype(int)
            if y.min() == y.max():
                continue
            tp = sum(1 for a, b in zip(y, pred) if a == 1 and b == 1)
            fp = sum(1 for a, b in zip(y, pred) if a == 0 and b == 1)
            tn = sum(1 for a, b in zip(y, pred) if a == 0 and b == 0)
            fn = sum(1 for a, b in zip(y, pred) if a == 1 and b == 0)
            got = classification_metrics(confusion_counts(y, pred))
            assert got["sensitivity"] == tp / (tp + fn)
            assert got["tss"] == tp / (tp + fn) + tn / (tn + fp) - 1.0
            assert got["f1"] == 2 * tp / (2 * tp + fp + fn)
            checked += 1

        sp_gen = Rng(24).substream("sp")
        for _ in range(50):
            n = int(sp_gen.integers(5, 60))
            a = sp_gen.permutation(n).astype(float)
            b = sp_gen.permutation(n).astype(float)
            d = rankdata_average(a) - rankdata_average(b)
            expected = 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))
            assert abs(spearman_rho(a, b) - expected) < 1e-12

        bg_top = np.arange(0.03, 0.94, 0.1)
        pres_top = np.array([0.93, 0.96, 0.99])
        bg_bot = np.arange(0.07, 0.98, 0.1)
        pres_bot = np.array([0.01, 0.04, 0.07])
        bi_top = boyce_index(pres_top, bg_top)
        bi_bot = boyce_index(pres_bot, bg_bot)
        assert bi_top == 1.0 and bi_bot == -1.0

        X = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        out = cluster_indices(X, np.array([0, 0, 1, 1]))
        assert abs(out["davies_bouldin"] - 0.1) < 1e-9
        assert abs(out["calinski_harabasz"] - 200.0) < 1e-9
        _report("6 metric-oracles",
                f"{checked} confusion matrices exact, spearman 1e-12, "
                f"boyce +1/-1, db={out['davies_bouldin']:.3f}, "
                f"ch={out['calinski_harabasz']:.1f}")


class TestCriterion7StatisticsOracles:
    def test_criterion_7(self):
        scores = np.array([[1.0, 2.0, 3.0],
                           [0.5, 1.5, 2.5],
                           [2.0, 4.0, 6.0]])
        fried = friedman_test(scores)
        assert abs(fried.statistic - 6.0) < 1e-12
        assert abs(fried.p_value - math.exp(-3.0)) < 1e-10

        wil = wilcoxon_signed_rank(np.array([2.0, 4.0, 6.0]),
                                   np.array([1.0, 2.0, 3.0]))
        assert wil.method == "wilcoxon-exact"
        assert wil.p_value == 0.25

        adj = holm_adjust([0.01, 0.04, 0.03])
        np.testing.assert_allclose(adj, [0.03, 0.06, 0.06], atol=0)
        _report("7 statistics-oracles",
                f"friedman p={fried.p_value:.12f}, wilcoxon p={wil.p_value}, "
                f"holm {[float(v) for v in adj]}")


def _pipeline(base: Path, tag: str, seed: int = 0,
              epochs: int = 20) -> dict[str, str]:
    """synth -> train-botaclip -> embed -> eval -> stats via the CLI;
    returns sha256 of every persistent artifact."""
    data = base / f"data_{tag}"
    run = base / f"run_{tag}"
    assert cli_main(["synth", "--out-dir", str(data), "--pairs", "512",
                     "--latent-dim", "8", "--img-dim", "64",
                     "--n-species", "64", "--views", "4", "--noise", "1.6",
                     "--seed", str(seed)]) == 0
    cfg = {
        "seed": seed,
        "data": {"embeddings": str(data / "images.emb"),
                 "covers": str(data / "covers.csv"),
                 "locations": str(data / "locations.csv")},
        "train": {"max_epochs": epochs, "patience": 10},
        "model": {"botania_hidden": 96, "botania_classes": 8},
    }
    cfg_path = base / f"cfg_{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["train-botaclip", "--config", str(cfg_path),
                     "--out-dir", str(run)]) == 0
    assert cli_main(["embed", "--checkpoint", str(run / "model.ckpt"),
                     "--embeddings", str(data / "images.emb"),
                     "--out", str(run / "adapted.emb")]) == 0
    for name, emb in (("adapted", run / "adapted.emb"),
                      ("raw", data / "images.emb")):
        assert cli_main(["eval", "--task", "plant",
                         "--embeddings", str(emb),
                         "--covers", str(data / "eval_species.csv"),
                         "--split", str(run / "split.csv"),
                         "--out", str(run / f"report_{name}.csv"),
                         "--set", "metrics.n_trees=30"]) == 0
    assert cli_main(["stats",
                     "--reports", str(run / "report_adapted.csv"),
                     str(run / "report_raw.csv"),
                     "--names", "adapted", "raw", "--metric", "tss",
                     "--out", str(run / "stats.csv")]) == 0
    hashes = {}
    for path in sorted(list(data.iterdir()) + list(run.iterdir())):
        if path.name.endswith("manifest.json") or "manifest" in path.name:
            continue  # manifests embed run-specific paths
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


class TestCriterion8Determinism:
    def test_criterion_8(self, tmp_path):
        a = _pipeline(tmp_path, "a", seed=0, epochs=12)
        b = _pipeline(tmp_path, "b", seed=0, epochs=12)
        assert set(a) == set(b)
        diffs = [name for name in a if a[name] != b[name]]
        assert not diffs, f"artifacts differ: {diffs}"
        _report("8 determinism",
                f"{len(a)} artifacts bit-identical across reruns "
                f"(checkpoints, embeddings, logs, reports)")


class TestCriterion9EndToEnd:
    def test_criterion_9(self, tmp_path):
        start = time.time()
        _pipeline(tmp_path, "full", seed=0, epochs=DESK_EPOCHS)
        elapsed = time.time() - start
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert elapsed < 300.0, f"pipeline took {elapsed:.0f}s"
        assert peak_kb < 1024 * 1024, f"peak memory {peak_kb / 1024:.0f} MB"
        _report("9 end-to-end",
                f"synth+train+embed+eval+stats in {elapsed:.0f}s, "
                f"peak RSS {peak_kb / 1024:.0f} MB")
