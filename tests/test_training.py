import hashlib
import math
import tracemalloc
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from botaclip import training
from botaclip.encoders import (AlignmentModel, BotaniaMLP, BotaSPModel,
                               GradientTape, Linear, Param, Sequential)
from botaclip.errors import DataError, NumericError
from botaclip.fileio import read_csv, typed_columns
from botaclip.losses import (ScalarsTauB, sigmoid_contrastive_loss,
                             similarity_regularizer)
from botaclip.numerics import Rng, l2_normalize_rows, row_norms
from botaclip.optim import AdamW, EarlyStopper
from botaclip.spatial import FoldAssignment, buffered_split, check_no_leakage
from botaclip.synth import generate_synthetic
from botaclip.training import (
    TrainConfig,
    TrainLog,
    _check_unit,
    _fit,
    botania_accuracy,
    model_from_state,
    model_state,
    train_botaclip,
    train_botania,
    train_botasp,
)

LN2 = math.log(2.0)
# settings every train_botaclip call below passes but lambda
ALIGN = dict(fold=1, lr=1e-3, weight_decay=1e-3)


def _toy_separable_covers(n=240, seed=0):
    # two cover profiles that a linear layer separates immediately
    gen = Rng(seed).substream("toy")
    labels = (gen.random(n) < 0.5).astype(np.int64)
    covers = np.zeros((n, 6))
    covers[labels == 0, 0] = 50.0 + 10.0 * gen.random(int((labels == 0).sum()))
    covers[labels == 1, 3] = 50.0 + 10.0 * gen.random(int((labels == 1).sum()))
    return covers, labels


def _botania(*, hidden, embed, seed):
    """A fresh classifier of the 6-species, 2-class toy covers, from the
    "init" substream of seed."""
    return BotaniaMLP(6, hidden, embed, 2, 0.4,
                      gen=Rng(seed).substream("init"))


class TestTrainBotania:
    def test_separable_reaches_full_accuracy(self):
        covers, labels = _toy_separable_covers()
        cfg = TrainConfig(batch_size=64, max_epochs=50, patience=20, seed=1,
                          shuffle=True)
        model, log = train_botania(_botania(hidden=8, embed=6, seed=1),
                                   covers, labels, np.arange(180),
                                   np.arange(180, 240), cfg, lr=0.3)
        acc = botania_accuracy(model, covers[180:], labels[180:])
        assert acc == 1.0
        assert log.best_epoch <= 50

    def test_patience_exhaustion_stops_early(self):
        covers, labels = _toy_separable_covers(seed=2)
        cfg = TrainConfig(batch_size=64, max_epochs=300, patience=3, seed=2,
                          shuffle=True)
        model, log = train_botania(_botania(hidden=8, embed=6, seed=2),
                                   covers, labels, np.arange(180),
                                   np.arange(180, 240), cfg, lr=0.3)
        assert log.epochs[-1] < 300
        assert log.best_epoch < log.epochs[-1]

    def test_empty_split_rejected(self):
        covers, labels = _toy_separable_covers()
        with pytest.raises(DataError, match="empty train or validation split"):
            train_botania(_botania(hidden=4, embed=4, seed=0), covers, labels,
                          np.arange(0), np.arange(10),
                          TrainConfig(batch_size=256, max_epochs=1000,
                                      patience=10, seed=0, shuffle=True),
                          lr=0.3)


def _alignment_setup(seed=0, pairs=160, max_epochs=15):
    data = generate_synthetic(pairs=pairs, latent_dim=4, img_dim=16,
                              n_species=12, views_per_pair=2, noise=0.8,
                              seed=seed, cell_size=5000.0, n_classes=8,
                              n_eval_species=10)
    ds = data.dataset
    fa = FoldAssignment.build(ds.locations, 5, Rng(seed).substream("folds"),
                              5000.0)
    cfg = TrainConfig(batch_size=64, max_epochs=max_epochs, patience=10,
                      seed=seed, shuffle=True)
    return data, ds, fa, cfg


def _alignment_model(ds, seed, variant="botania-linear", *,
                     botania_hidden=24, adapter_noise_variance=1e-4, **opts):
    """A fresh alignment model over ds from the keyed substreams of seed:
    for botania-linear a new 8-class cover classifier of botania_hidden
    units and a projection as wide as the images, else an 8-wide
    projection with the mlp_*/attn_* widths of opts."""
    rng = Rng(seed)
    d_img, d_tab = ds.images.shape[1], ds.covers.shape[1]
    linear = variant == "botania-linear"
    botania = (BotaniaMLP(d_tab, botania_hidden, d_img, 8, 0.4,
                          gen=rng.substream("init/botania"))
               if linear else None)
    return AlignmentModel(variant, d_img=d_img, d_tab=d_tab, rng=rng,
                          proj_dim=d_img if linear else 8, botania=botania,
                          adapter_noise_variance=adapter_noise_variance,
                          **opts)


def test_unit_check_rejects_nan_row():
    z = np.eye(3)
    z[2] = np.nan
    with pytest.raises(NumericError, match="left the unit sphere"):
        _check_unit(z, "image projection")


class TestTrainBotaclip:
    def test_validation_loss_below_all_zero_baseline(self):
        _, ds, fa, cfg = _alignment_setup(seed=1, max_epochs=25)
        model, log = train_botaclip(_alignment_model(ds, 1), ds, fa, cfg,
                                    lam=1.0, **ALIGN)
        assert log.scl[log.best_epoch - 1] < LN2

    def test_lambda_zero_logs_drift_without_optimizing_it(self):
        _, ds, fa, cfg = _alignment_setup(seed=2, max_epochs=6)
        model, log = train_botaclip(_alignment_model(ds, 2), ds, fa, cfg,
                                    lam=0.0, **ALIGN)
        assert all(np.isfinite(log.reg))
        assert any(r > 0 for r in log.reg)
        for v, s, r in zip(log.val_loss, log.scl, log.reg):
            assert v == s  # drift logged but not added

    def test_input_embeddings_bit_identical_after_training(self):
        _, ds, fa, cfg = _alignment_setup(seed=4, max_epochs=5)
        before = hashlib.sha256(ds.images.tobytes()).hexdigest()
        train_botaclip(_alignment_model(ds, 4), ds, fa, cfg, lam=1.0,
                       **ALIGN)
        assert hashlib.sha256(ds.images.tobytes()).hexdigest() == before

    def test_deterministic_for_fixed_seed(self):
        _, ds, fa, cfg = _alignment_setup(seed=5, max_epochs=5)
        m1, log1 = train_botaclip(_alignment_model(ds, 5), ds, fa, cfg,
                                  lam=1.0, **ALIGN)
        m2, log2 = train_botaclip(_alignment_model(ds, 5), ds, fa, cfg,
                                  lam=1.0, **ALIGN)
        assert log1.val_loss == log2.val_loss
        assert log1.tau == log2.tau
        for p1, p2 in zip(m1.params(), m2.params()):
            np.testing.assert_array_equal(p1.value, p2.value)

    def test_best_checkpoint_no_worse_than_logged_minimum(self):
        _, ds, fa, cfg = _alignment_setup(seed=6, max_epochs=12)
        model, log = train_botaclip(_alignment_model(ds, 6), ds, fa, cfg,
                                    lam=1.0, **ALIGN)
        assert log.val_loss[log.best_epoch - 1] == min(log.val_loss)

    def test_mlp_and_attention_variants_train(self):
        for variant, opts in (("mlp", {"mlp_img_hidden": 12,
                                       "mlp_tab_hidden": 12}),
                              ("attention", {"mlp_img_hidden": 12,
                                             "attn_model_dim": 8})):
            _, ds, fa, cfg = _alignment_setup(seed=7, max_epochs=4)
            model, log = train_botaclip(
                _alignment_model(ds, 7, variant, **opts), ds, fa, cfg,
                lam=1.0, **ALIGN)
            assert len(log.epochs) == 4
            z = model.encode_images(ds.images[:5])
            np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0,
                                       atol=1e-9)


# --- frozen reference: the contrastive trainer's own epoch loop --------------

def _ref_train_botaclip(pairs, assignment, cfg, variant="botania-linear",
                        regularized=True, fold=1, proj_dim=None,
                        model_options=None, lr=1e-3, weight_decay=1e-3):
    """train_botaclip as it was before the trainers shared one loop, with
    validation on the loss-and-gradient forms; kept as the bit-for-bit
    reference for the shared loop."""
    def batches(order):
        for start in range(0, order.size, cfg.batch_size):
            yield order[start:start + cfg.batch_size]

    def snapshot():
        return {p.name: p.value.copy() for p in model.params()}

    lam = cfg.lam if regularized else 0.0
    rng = Rng(cfg.seed)
    train_p, val_p = buffered_split(assignment, fold)
    check_no_leakage(assignment, train_p, val_p)
    d_img = pairs.images.shape[1]
    d_tab = pairs.covers.shape[1]
    opts = dict(model_options or {})
    b_hidden = opts.pop("botania_hidden", 96)
    b_classes = opts.pop("botania_classes", 8)
    b_dropout = opts.pop("botania_dropout", 0.4)
    botania = None
    if variant == "botania-linear":
        botania = BotaniaMLP(d_tab, b_hidden, proj_dim or d_img, b_classes,
                             b_dropout, gen=rng.substream("init/botania"))
    model = AlignmentModel(variant, d_img=d_img, d_tab=d_tab, rng=rng,
                           proj_dim=proj_dim or d_img, botania=botania,
                           **opts)
    opt = AdamW(model.params(), lr=lr, weight_decay=weight_decay)
    stopper = EarlyStopper(cfg.patience)
    log = TrainLog()
    best = snapshot()
    train_rows = pairs.view_rows_for_pairs(train_p)
    val_rows = pairs.view_rows_for_pairs(val_p, first_view_only=True)

    for epoch in range(1, cfg.max_epochs + 1):
        order = train_rows.copy()
        if cfg.shuffle:
            order = order[rng.substream("shuffle", epoch).permutation(order.size)]
        batch_losses = []
        for bi, batch in enumerate(batches(order)):
            x = pairs.images[batch]
            c = pairs.covers[pairs.pair_index[batch]]
            gen = rng.substream(f"dropout/{epoch}", bi)
            z_img = model.encode_images(x, train=True, gen=gen)
            z_tab = model.encode_tables(c, train=True, gen=gen)
            assert np.abs(row_norms(z_img) - 1.0).max() <= 1e-9
            assert np.abs(row_norms(z_tab) - 1.0).max() <= 1e-9
            s = ScalarsTauB(float(model.tau.value), float(model.bias.value))
            scl, (d_zi, d_zt, d_tau, d_b) = sigmoid_contrastive_loss(
                z_img, z_tab, s, grad=True)
            reg, d_reg = similarity_regularizer(x, z_img, grad=True)
            tape = GradientTape()
            model.backward_images(d_zi + lam * d_reg if lam > 0 else d_zi,
                                  tape)
            model.backward_tables(d_zt, tape)
            tape.add(model.tau, np.float64(d_tau))
            tape.add(model.bias, np.float64(d_b))
            opt.step(tape)
            batch_losses.append(scl + lam * reg)

        scls, regs = [], []
        s = ScalarsTauB(float(model.tau.value), float(model.bias.value))
        for batch in batches(val_rows):
            x = pairs.images[batch]
            z_img = model.encode_images(x)
            z_tab = model.encode_tables(pairs.covers[pairs.pair_index[batch]])
            scls.append(sigmoid_contrastive_loss(z_img, z_tab, s,
                                                 grad=True)[0])
            regs.append(similarity_regularizer(x, z_img, grad=True)[0])
        val_scl, val_reg = float(np.mean(scls)), float(np.mean(regs))
        val_loss = val_scl + lam * val_reg
        log.append(epoch, float(np.mean(batch_losses)), val_loss, val_scl,
                   val_reg, float(model.tau.value), float(model.bias.value))
        stop = stopper.update(epoch, val_loss)
        if stopper.improved:
            best = snapshot()
        if stop:
            break
    log.best_epoch = stopper.best_epoch
    for p in model.params():
        p.value = best[p.name].copy()
    return model, log


_VARIANTS = {
    "botania-linear": {"proj_dim": 16, "model_options": {
        "botania_hidden": 12, "adapter_noise_variance": 1e-4}},
    "mlp": {"proj_dim": 8, "model_options": {"mlp_img_hidden": 12,
                                             "mlp_tab_hidden": 12}},
    "attention": {"proj_dim": 8, "model_options": {"mlp_img_hidden": 12,
                                                   "attn_model_dim": 8}},
}


@pytest.mark.parametrize("shuffle", [True, False],
                         ids=["shuffle", "in_order"])
@pytest.mark.parametrize("lam", [0.0, 1.0], ids=["lam0", "lam1"])
@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_shared_loop_matches_frozen_reference(variant, lam, shuffle):
    # patience 2 over 6 epochs, so runs that stop early restore an older
    # snapshot
    _, ds, fa, _ = _alignment_setup(seed=13, pairs=96)
    cfg = TrainConfig(batch_size=32, max_epochs=6, patience=2, seed=13,
                      shuffle=shuffle)
    kwargs = _VARIANTS[variant]
    model = _alignment_model(ds, 13, variant, **kwargs["model_options"])
    model, log = train_botaclip(model, ds, fa, cfg, lam=lam, **ALIGN)
    # the reference reads lambda from its config, as the trainer once did
    ref_model, ref_log = _ref_train_botaclip(
        ds, fa, SimpleNamespace(**vars(cfg), lam=lam), variant=variant,
        **kwargs)
    state, ref_state = model_state(model), model_state(ref_model)
    assert list(state) == list(ref_state)
    for name, value in state.items():
        assert value.tobytes() == ref_state[name].tobytes(), name
    assert log.best_epoch == ref_log.best_epoch
    for column in ("epochs", "train_loss", "val_loss", "scl", "reg", "tau",
                   "b"):
        got = np.asarray(getattr(log, column), dtype=np.float64)
        want = np.asarray(getattr(ref_log, column), dtype=np.float64)
        assert got.tobytes() == want.tobytes(), column


# the optimizer settings every train_botasp call below passes
SP = dict(lr=1e-3, weight_decay=1e-3)


def _botasp(in_dim, n_species, *, proj_dim, hidden, seed):
    """A fresh supervised baseline from the "init" substream of seed."""
    return BotaSPModel(in_dim, n_species, proj_dim, hidden, 0.4,
                       gen=Rng(seed).substream("init"))


class TestTrainBotaSP:
    def test_validation_bce_decreases_initially(self):
        gen = Rng(8).substream("sp")
        n, d, s = 200, 12, 6
        emb = l2_normalize_rows(gen.normal(size=(n, d)))
        w = gen.normal(size=(d, s))
        presence = (emb @ w > 0).astype(np.int64)
        cfg = TrainConfig(batch_size=64, max_epochs=5, patience=10, seed=8,
                          shuffle=True)
        _, log = train_botasp(_botasp(d, s, proj_dim=8, hidden=10, seed=8),
                              emb, presence, np.arange(150),
                              np.arange(150, 200), cfg, lam=0.0, **SP)
        assert all(np.diff(log.scl) < 0)  # scl column carries validation BCE

    def test_feature_export_width_is_hidden_width(self):
        gen = Rng(9).substream("sp")
        emb = l2_normalize_rows(gen.normal(size=(60, 8)))
        presence = (gen.random((60, 4)) < 0.5).astype(np.int64)
        cfg = TrainConfig(batch_size=32, max_epochs=2, patience=5, seed=9,
                          shuffle=True)
        model, _ = train_botasp(_botasp(8, 4, proj_dim=8, hidden=14, seed=9),
                                emb, presence, np.arange(40),
                                np.arange(40, 60), cfg, lam=100.0, **SP)
        feats = model.encode_images(emb)
        assert feats.shape == (60, 14)


def test_trainers_train_the_model_they_are_given():
    covers, labels = _toy_separable_covers()
    _, ds, fa, cfg = _alignment_setup(seed=4, max_epochs=2)
    gen = Rng(9).substream("sp")
    emb = l2_normalize_rows(gen.normal(size=(60, 8)))
    presence = (gen.random((60, 4)) < 0.5).astype(np.int64)
    runs = [
        (_botania(hidden=8, embed=6, seed=4), lambda m: train_botania(
            m, covers, labels, np.arange(180), np.arange(180, 240), cfg,
            lr=0.3)),
        (_alignment_model(ds, 4), lambda m: train_botaclip(
            m, ds, fa, cfg, lam=1.0, **ALIGN)),
        (_botasp(8, 4, proj_dim=8, hidden=14, seed=4), lambda m: train_botasp(
            m, emb, presence, np.arange(40), np.arange(40, 60), cfg, lam=1.0,
            **SP))]
    for model, train in runs:
        before = {k: v.copy() for k, v in model_state(model).items()}
        trained, log = train(model)
        assert trained is model and log.best_epoch >= 1
        after = model_state(model)
        assert list(after) == list(before)
        assert any(not np.array_equal(after[k], v) for k, v in before.items())


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("kind", ["botania-linear", "mlp", "attention",
                                      "botania", "botasp"])
    def test_model_from_state(self, kind):
        """The rebuilt model has the trained model's class, variant and
        parameter order, and maps inputs to the same bytes, in eval mode and,
        at the trained model's dropout rate, in train mode."""
        gen = Rng(12).substream("sp")
        if kind == "botania":
            model = BotaniaMLP(6, 5, 4, 3, 0.4, gen=Rng(11).substream("i"))
            covers = gen.uniform(0, 100, size=(3, 6))
            runs = [lambda m, **kw: m.forward(covers, **kw),
                    lambda m, **kw: m.embedding.forward(covers, **kw)]
        elif kind == "botasp":
            emb = l2_normalize_rows(gen.normal(size=(30, 8)))
            presence = (gen.random((30, 3)) < 0.5).astype(np.int64)
            cfg = TrainConfig(batch_size=16, max_epochs=1, patience=2,
                              seed=12, shuffle=True)
            model, _ = train_botasp(
                _botasp(8, 3, proj_dim=6, hidden=9, seed=12), emb, presence,
                np.arange(20), np.arange(20, 30), cfg, lam=0.0, **SP)
            runs = [lambda m, **kw: m.encode_images(emb),
                    lambda m, **kw: m.forward(emb, **kw)[0]]
        else:
            _, ds, fa, cfg = _alignment_setup(seed=10, max_epochs=2)
            opts = {} if kind == "botania-linear" else dict(
                mlp_img_hidden=12, mlp_tab_hidden=12, attn_model_dim=8)
            model, _ = train_botaclip(_alignment_model(ds, 10, kind, **opts),
                                      ds, fa, cfg, lam=1.0, **ALIGN)
            x, covers = ds.images[:7], ds.covers[:7]
            runs = [lambda m, **kw: m.encode_images(x, **kw),
                    lambda m, **kw: m.encode_tables(covers, **kw)]
        rebuilt = model_from_state(model_state(model), dropout_rate=0.4)
        assert type(rebuilt) is type(model)
        assert getattr(rebuilt, "variant", None) == getattr(model, "variant",
                                                            None)
        assert list(model_state(rebuilt)) == list(model_state(model))
        for run in runs:
            np.testing.assert_array_equal(run(rebuilt), run(model))
            want, got = (run(m, train=True, gen=Rng(1).substream("drop"))
                         for m in (model, rebuilt))
            np.testing.assert_array_equal(got, want)


def test_botania_accuracy_gives_a_tie_to_the_last_class():
    logits = np.array([[1.0, 3.0, 3.0], [2.0, 0.0, 2.0], [0.0, 0.0, 5.0]])
    model = SimpleNamespace(forward=lambda covers: logits)
    assert botania_accuracy(model, None, np.array([2, 2, 2])) == 1.0
    assert botania_accuracy(model, None, np.array([1, 0, 2])) == 1 / 3


def _read_log(path):
    """{column: list of values} of a train log, read with fileio."""
    header, rows = read_csv(path)
    assert header == training.TRAIN_LOG_HEADER
    return {name: typed_columns(path, header, rows, j,
                                np.int64 if j == 0 else np.float64,
                                nan_ok=True).tolist()
            for j, name in enumerate(header)}


def test_train_log_csv_round_trip(tmp_path):
    log = TrainLog()
    log.append(1, 0.5, 0.6, 0.4, 0.01, 2.3, -10.0)
    log.append(2, 0.4, 0.55, 0.35, 0.009, 2.2, -9.9)
    log.best_epoch = 2
    path = tmp_path / "log.csv"
    log.to_csv(path)
    loaded = _read_log(path)
    assert loaded["epoch"] == [1, 2]
    assert loaded["val_loss"] == log.val_loss
    assert loaded["tau"] == log.tau


def test_train_log_keeps_nan_tau_and_b(tmp_path):
    log = TrainLog()
    log.append(1, 0.5, 0.6, 0.4, 0.01, float("nan"), float("nan"))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    loaded = _read_log(path)
    assert loaded["val_loss"] == [0.6]
    assert np.isnan(loaded["tau"] + loaded["b"]).all()


# --- the shared loop: best-epoch restore, memory, input gradients ------------

def _scripted_fit(val_losses, max_epochs, patience):
    """_fit over a one-Linear model whose validate() returns val_losses in
    turn and keeps an eager copy of the parameters after each epoch.
    Returns (initial values, per-epoch copies, log, params after _fit, the
    parameter arrays _fit started with)."""
    gen = Rng(3).substream("fit")
    model = Sequential(Linear("l", 3, 2, gen))
    x, y = gen.normal(size=(8, 3)), gen.normal(size=(8, 2))
    params = model.params()
    initial = [p.value.copy() for p in params]
    arrays = [p.value for p in params]
    copies = []

    def step(batch, gen, tape):
        g = model.forward(x[batch]) - y[batch]
        model.backward(g, tape)
        return float(np.mean(g * g))

    def validate():
        copies.append([p.value.copy() for p in params])
        loss = val_losses[len(copies) - 1]
        return loss, loss, 0.0, math.nan, math.nan

    cfg = TrainConfig(batch_size=4, max_epochs=max_epochs, patience=patience,
                      seed=3, shuffle=True)
    _, log = _fit(model, AdamW(params, lr=0.1, weight_decay=1e-3), Rng(3),
                  cfg, np.arange(8), step, validate)
    return initial, copies, log, params, arrays


def _same_bits(params, values):
    return [p.value.tobytes() for p in params] == [v.tobytes() for v in values]


class TestFitRestore:
    def test_best_epoch_is_the_last(self):
        _, copies, log, params, arrays = _scripted_fit(
            [5.0, 4.0, 3.0, 2.0, 1.0], max_epochs=5, patience=2)
        assert log.best_epoch == 5
        assert _same_bits(params, copies[4])
        # nothing was restored: the parameters are the arrays trained
        assert all(p.value is a for p, a in zip(params, arrays))

    def test_earlier_best_epoch_then_patience_stop(self):
        _, copies, log, params, _ = _scripted_fit(
            [5.0, 3.0, 4.0, 3.5, 3.0, 9.0], max_epochs=20, patience=3)
        assert log.epochs == [1, 2, 3, 4, 5] and log.best_epoch == 2
        assert _same_bits(params, copies[1])
        assert not _same_bits(params, copies[4])

    def test_no_epoch_improves_restores_initial_values(self):
        initial, copies, log, params, _ = _scripted_fit(
            [math.nan] * 4, max_epochs=4, patience=2)
        assert log.epochs == [1, 2] and log.best_epoch == -1
        assert _same_bits(params, initial)
        assert not _same_bits(params, copies[-1])


def _traced_peak_of_fit(epochs, shape=(256, 256)):
    """tracemalloc's peak over a _fit of `epochs` improving epochs of two
    parameters of `shape`; the stand-in optimizer halves them in place, so
    the snapshot buffers are the only parameter-sized allocations."""
    params = [Param(f"p{i}", np.ones(shape)) for i in range(2)]

    class Halve:
        def step(self, tape):
            for p in params:
                p.value *= 0.5

    model = SimpleNamespace(params=lambda: params)
    losses = iter(range(epochs, 0, -1))

    def validate():
        loss = float(next(losses))
        return loss, loss, 0.0, math.nan, math.nan

    cfg = TrainConfig(batch_size=4, max_epochs=epochs, patience=1, seed=0,
                      shuffle=True)
    tracemalloc.start()
    try:
        _fit(model, Halve(), Rng(0), cfg, np.arange(8),
             lambda batch, gen, tape: 0.0, validate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, sum(p.value.nbytes for p in params)


def test_fit_snapshot_memory_does_not_grow_with_epochs():
    peak_one, nbytes = _traced_peak_of_fit(1)
    peak_six, _ = _traced_peak_of_fit(6)
    # one set of snapshot buffers, reused: not one set per improving epoch,
    # nor a new set allocated while the previous one is alive
    assert nbytes <= peak_one < 1.5 * nbytes
    assert peak_six <= peak_one + 64 * 1024


def _count_input_gradients(monkeypatch):
    """Counts, per Linear weight name, backward calls that computed an
    input gradient."""
    computed = Counter()
    original = Linear.backward

    def counting(self, g, tape, input_grad=True):
        out = original(self, g, tape, input_grad)
        computed[self.weight.name] += out is not None
        return out
    monkeypatch.setattr(Linear, "backward", counting)
    return computed


def test_trainers_compute_no_input_gradient(monkeypatch):
    computed = _count_input_gradients(monkeypatch)
    covers, labels = _toy_separable_covers()
    cfg = TrainConfig(batch_size=64, max_epochs=2, patience=5, seed=1,
                      shuffle=True)
    train_botania(_botania(hidden=8, embed=6, seed=1), covers, labels,
                  np.arange(180), np.arange(180, 240), cfg, lr=0.3)
    _, ds, fa, cfg = _alignment_setup(seed=4, max_epochs=2)
    train_botaclip(_alignment_model(ds, 4), ds, fa, cfg, lam=1.0, **ALIGN)
    for variant in ("mlp", "attention"):
        model = _alignment_model(ds, 4, variant, mlp_img_hidden=12,
                                 mlp_tab_hidden=12, attn_model_dim=8)
        train_botaclip(model, ds, fa, cfg, lam=1.0, **ALIGN)
    gen = Rng(9).substream("sp")
    emb = l2_normalize_rows(gen.normal(size=(60, 8)))
    presence = (gen.random((60, 4)) < 0.5).astype(np.int64)
    train_botasp(_botasp(8, 4, proj_dim=8, hidden=14, seed=4), emb, presence,
                 np.arange(40), np.arange(40, 60), cfg, lam=1.0, **SP)
    first = ["botania.lin1.weight", "img_adapter.weight",
             "img_encoder.lin1.weight", "tab_encoder.lin1.weight",
             "tab_encoder.reduce.weight", "botasp.proj.weight"]
    assert {name: computed[name] for name in first} == dict.fromkeys(first, 0)
    # the layers behind them still pass their input gradient on
    assert computed["botania.lin2.weight"] > 0
    assert computed["tab_adapter.weight"] > 0
    assert computed["botasp.hidden.weight"] > 0


def test_direct_backward_still_returns_the_input_gradient(monkeypatch):
    computed = _count_input_gradients(monkeypatch)
    gen = Rng(5).substream("direct")
    covers = gen.uniform(0, 100, size=(4, 6))
    model = BotaniaMLP(6, 5, 4, 3, 0.4, gen=gen)
    model.forward(covers, True, gen)
    g = gen.normal(size=(4, 3))
    full, lean = GradientTape(), GradientTape()
    g_in = model.backward(g, full)
    assert g_in.shape == covers.shape
    assert computed["botania.lin1.weight"] == 1
    assert model.backward(g, lean, input_grad=False) is None
    assert computed["botania.lin1.weight"] == 1
    assert {k: v.tobytes() for k, v in full.grads.items()} == \
        {k: v.tobytes() for k, v in lean.grads.items()}


def test_validation_runs_without_the_last_step_gradients(monkeypatch):
    """Every tape and every gradient array a step recorded is gone by the
    time validation starts, in each trainer."""
    recorded, alive_at_validation = [], []

    class TrackedTape(GradientTape):
        def __init__(self):
            super().__init__()
            recorded.append(weakref.ref(self))

        def add(self, param, grad):
            super().add(param, grad)
            recorded.append(weakref.ref(self.grads[param.name]))

    fit = training._fit

    def checked_fit(model, opt, rng, cfg, train_rows, step, validate):
        def checked():
            alive_at_validation.append(
                sum(ref() is not None for ref in recorded))
            return validate()
        return fit(model, opt, rng, cfg, train_rows, step, checked)

    monkeypatch.setattr(training, "GradientTape", TrackedTape)
    monkeypatch.setattr(training, "_fit", checked_fit)
    covers, labels = _toy_separable_covers()
    cfg = TrainConfig(batch_size=64, max_epochs=2, patience=5, seed=1,
                      shuffle=True)
    train_botania(_botania(hidden=8, embed=6, seed=1), covers, labels,
                  np.arange(180), np.arange(180, 240), cfg, lr=0.3)
    _, ds, fa, cfg = _alignment_setup(seed=4, max_epochs=2)
    train_botaclip(_alignment_model(ds, 4), ds, fa, cfg, lam=1.0, **ALIGN)
    gen = Rng(9).substream("sp")
    emb = l2_normalize_rows(gen.normal(size=(60, 8)))
    presence = (gen.random((60, 4)) < 0.5).astype(np.int64)
    train_botasp(_botasp(8, 4, proj_dim=8, hidden=14, seed=4), emb, presence,
                 np.arange(40), np.arange(40, 60), cfg, lam=1.0, **SP)
    assert len(recorded) > 6
    assert alive_at_validation == [0] * 6
