"""One training loop shared by three trainers (cover classifier
pretraining, contrastive alignment, supervised baseline), checkpoint
helpers, and the epoch log.

Each trainer trains the built model it is given, deterministically for a
fixed (model, seed, data): shuffling and dropout each draw from their own
keyed substream, epoch metrics are logged, and early stopping restores the
best validation checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataprep import PairedDataset
from .encoders import (
    AlignmentModel,
    BotaniaMLP,
    BotaSPModel,
    GradientTape,
)
from .errors import DataError, EmptySplit, NotNormalized
from .fileio import write_csv
from .losses import (
    ScalarsTauB,
    botasp_loss,
    cross_entropy_batch,
    sigmoid_contrastive_loss,
    similarity_regularizer,
)
from .numerics import Rng, row_norms
from .optim import AdamW, EarlyStopper
from .spatial import FoldAssignment, buffered_split, check_no_leakage

UNIT_CHECK_TOL = 1e-9
TRAIN_LOG_HEADER = ["epoch", "train_loss", "val_loss", "scl", "reg", "tau", "b"]


@dataclass(kw_only=True)
class TrainConfig:
    batch_size: int
    max_epochs: int
    patience: int
    seed: int
    shuffle: bool


@dataclass
class TrainLog:
    epochs: list = field(default_factory=list)
    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    scl: list = field(default_factory=list)   # validation contrastive term
    reg: list = field(default_factory=list)   # validation drift term
    tau: list = field(default_factory=list)
    b: list = field(default_factory=list)
    best_epoch: int = -1

    def append(self, epoch, train_loss, val_loss, scl, reg, tau, b):
        self.epochs.append(epoch)
        self.train_loss.append(train_loss)
        self.val_loss.append(val_loss)
        self.scl.append(scl)
        self.reg.append(reg)
        self.tau.append(tau)
        self.b.append(b)

    def to_csv(self, path):
        write_csv(path, TRAIN_LOG_HEADER,
                  zip(self.epochs, self.train_loss, self.val_loss, self.scl,
                      self.reg, self.tau, self.b))


def _batches(rows: np.ndarray, batch_size: int):
    for start in range(0, rows.size, batch_size):
        yield rows[start:start + batch_size]


def _scalars(model: AlignmentModel) -> ScalarsTauB:
    return ScalarsTauB(float(model.tau.value), float(model.bias.value))


def _check_unit(z, what):
    dev = np.abs(row_norms(z) - 1.0)
    if dev.size and not dev.max() <= UNIT_CHECK_TOL:  # NaN fails <= too
        raise NotNormalized(f"{what} left the unit sphere by {dev.max():.2e}")


def _fit(model, opt, rng: Rng, cfg: TrainConfig, train_rows: np.ndarray,
         step, validate):
    """The epoch loop every trainer shares.

    Each epoch shuffles train_rows with its ("shuffle", epoch) substream,
    then for batch bi calls step(batch, gen, tape), with gen the
    (f"dropout/{epoch}", bi) substream, and applies the gradients that
    step recorded on tape. validate() returns the epoch's (val_loss, term,
    reg, tau, b) for the log; early stopping watches val_loss, and the
    parameters of the best epoch, or the initial ones if no epoch improved,
    are restored at the end.

    The best values are copied into buffers allocated once, and only when
    they are about to change: at the start of the epoch after an improving
    one (or of the first epoch). An improving last epoch copies and
    restores nothing."""
    stopper = EarlyStopper(cfg.patience)
    log = TrainLog()
    params = model.params()
    best = [np.empty_like(p.value) for p in params]
    current_is_best = True
    for epoch in range(1, cfg.max_epochs + 1):
        if current_is_best:
            for p, saved in zip(params, best):
                np.copyto(saved, p.value)
        order = train_rows.copy()
        if cfg.shuffle:
            order = order[rng.substream("shuffle", epoch).permutation(order.size)]
        losses = []
        for bi, batch in enumerate(_batches(order, cfg.batch_size)):
            tape = GradientTape()
            losses.append(step(batch, rng.substream(f"dropout/{epoch}", bi),
                               tape))
            opt.step(tape)
            del tape  # validation runs without the last step's gradients
        val_loss, *terms = validate()
        log.append(epoch, float(np.mean(losses)), val_loss, *terms)
        stop = stopper.update(epoch, val_loss)
        current_is_best = stopper.improved
        if stop:
            break
    log.best_epoch = stopper.best_epoch
    if not current_is_best:
        for p, saved in zip(params, best):
            p.value = saved
    return model, log


def _val_means(rows: np.ndarray, batch_size: int, terms):
    """Means over the validation batches of rows of the (loss term, drift)
    pairs that terms(batch) returns."""
    term, reg = zip(*(terms(batch) for batch in _batches(rows, batch_size)))
    return float(np.mean(term)), float(np.mean(reg))


# --- cover-classifier pretraining -------------------------------------------

def train_botania(model: BotaniaMLP, covers: np.ndarray, labels: np.ndarray,
                  train_idx: np.ndarray, val_idx: np.ndarray,
                  cfg: TrainConfig, *, lr: float):
    """Plain-Adam classifier pretraining of model; early stopping on
    validation cross-entropy; returns model at its best epoch and the log."""
    train_idx = np.asarray(train_idx)
    val_idx = np.asarray(val_idx)
    if train_idx.size == 0 or val_idx.size == 0:
        raise EmptySplit("empty train or validation split")

    def step(batch, gen, tape):
        logits = model.forward(covers[batch], train=True, gen=gen)
        loss, dlogits = cross_entropy_batch(logits, labels[batch], grad=True)
        model.backward(dlogits, tape, input_grad=False)
        return loss

    def validate():
        val_loss = float(np.mean([
            cross_entropy_batch(model.forward(covers[batch]), labels[batch])[0]
            for batch in _batches(val_idx, cfg.batch_size)]))
        return val_loss, val_loss, 0.0, math.nan, math.nan

    opt = AdamW(model.params(), lr=lr, weight_decay=0.0)
    return _fit(model, opt, Rng(cfg.seed), cfg, train_idx, step, validate)


def botania_accuracy(model: BotaniaMLP, covers, labels) -> float:
    """Top-1 accuracy; of tied logits the last class is the prediction."""
    logits = model.forward(covers)
    top = np.argsort(logits, axis=1, kind="stable")[:, -1]
    return float(np.mean(top == labels))


# --- contrastive alignment ----------------------------------------------------

def train_botaclip(model: AlignmentModel, pairs: PairedDataset,
                   assignment: FoldAssignment, cfg: TrainConfig, *, fold: int,
                   lam: float, lr: float, weight_decay: float):
    """Align image views with cover vectors; image embeddings stay frozen
    inputs, model's adapters (and its trainable cover encoder) update.

    Multi-view pairs expand into one (view, pair) sample each; validation
    uses only the first view of each pair. The model with the best
    validation loss (contrastive + lam * drift) is returned; at lam 0 the
    drift is logged but not optimized.
    """
    if not 0 <= lam < np.inf:  # NaN fails both bounds
        raise ValueError(f"lam must be in [0, inf), got {lam}")
    train_p, val_p = buffered_split(assignment, fold)
    check_no_leakage(assignment, train_p, val_p)
    train_rows = pairs.view_rows_for_pairs(train_p)
    val_rows = pairs.view_rows_for_pairs(val_p, first_view_only=True)
    if train_rows.size == 0 or val_rows.size == 0:
        raise EmptySplit("no usable train or validation views")

    def step(batch, gen, tape):
        x = pairs.images[batch]
        c = pairs.covers[pairs.pair_index[batch]]
        z_img = model.encode_images(x, train=True, gen=gen)
        z_tab = model.encode_tables(c, train=True, gen=gen)
        _check_unit(z_img, "image projection")
        _check_unit(z_tab, "tabular projection")
        scl, (d_zi, d_zt, d_tau, d_b) = sigmoid_contrastive_loss(
            z_img, z_tab, _scalars(model), grad=True)
        reg, d_reg = similarity_regularizer(x, z_img, grad=lam > 0)
        g_img = d_zi + lam * d_reg if lam > 0 else d_zi
        model.backward_images(g_img, tape, input_grad=False)
        model.backward_tables(d_zt, tape, input_grad=False)
        tape.add(model.tau, np.float64(d_tau))
        tape.add(model.bias, np.float64(d_b))
        return scl + lam * reg

    def terms(batch):
        x = pairs.images[batch]
        z_img = model.encode_images(x)
        z_tab = model.encode_tables(pairs.covers[pairs.pair_index[batch]])
        return (sigmoid_contrastive_loss(z_img, z_tab, _scalars(model))[0],
                similarity_regularizer(x, z_img)[0])

    def validate():
        scl, reg = _val_means(val_rows, cfg.batch_size, terms)
        s = _scalars(model)
        return scl + lam * reg, scl, reg, s.tau, s.b

    opt = AdamW(model.params(), lr=lr, weight_decay=weight_decay)
    return _fit(model, opt, Rng(cfg.seed), cfg, train_rows, step, validate)


# --- supervised baseline --------------------------------------------------------

def train_botasp(model: BotaSPModel, embeddings: np.ndarray,
                 presence: np.ndarray, train_idx: np.ndarray,
                 val_idx: np.ndarray, cfg: TrainConfig, *, lam: float,
                 lr: float, weight_decay: float):
    """Presence/absence pretraining of model over unit-norm embeddings with
    lam times the similarity-drift penalty on the projection."""
    train_idx = np.asarray(train_idx)
    val_idx = np.asarray(val_idx)
    if train_idx.size == 0 or val_idx.size == 0:
        raise EmptySplit("empty train or validation split")
    targets = np.asarray(presence, dtype=np.float64)

    def step(batch, gen, tape):
        logits, z, _ = model.forward(embeddings[batch], train=True, gen=gen)
        loss, (dlogits, dz) = botasp_loss(
            logits, targets[batch], embeddings[batch], z, lam, grad=True)
        model.backward(tape, g_logits=dlogits, g_z=dz, input_grad=False)
        return loss

    def terms(batch):
        logits, z, _ = model.forward(embeddings[batch])
        # at lam=0 botasp_loss is the BCE term alone
        return (botasp_loss(logits, targets[batch], embeddings[batch], z,
                            lam=0.0)[0],
                similarity_regularizer(embeddings[batch], z)[0])

    def validate():
        bce, reg = _val_means(val_idx, cfg.batch_size, terms)
        return bce + lam * reg, bce, reg, math.nan, math.nan

    opt = AdamW(model.params(), lr=lr, weight_decay=weight_decay)
    return _fit(model, opt, Rng(cfg.seed), cfg, train_idx, step, validate)


# --- checkpoint round trip -------------------------------------------------------

def model_state(model) -> dict[str, np.ndarray]:
    return {p.name: p.value for p in model.params()}


def _load_params(model, state: dict[str, np.ndarray]):
    """Copies each array of state into the parameter of its name; an array
    of another shape than its parameter's raises DataError."""
    for p in model.params():
        value = state[p.name]
        if value.shape != p.value.shape:
            raise DataError(f"parameter {p.name} has shape {value.shape}, "
                            f"not {p.value.shape}")
        p.value = np.array(value, dtype=np.float64, order="C")
    return model


def model_from_state(state: dict[str, np.ndarray], *, dropout_rate: float):
    """Rebuild the model a checkpoint holds from its named arrays.

    The parameter names pick the model: `botasp.` a BotaSPModel,
    `img_adapter.` the botania-linear alignment model, `tab_encoder.reduce.`
    the attention and `tab_encoder.lin1.` the mlp variant, and `botania.`
    names alone a BotaniaMLP. Every width is read from the array shapes.
    dropout_rate is the rate of the `botania.` and `botasp.` dropout layers,
    which a checkpoint does not record and inference skips. A parameter the
    model needs and state lacks raises KeyError, and a width-giving weight
    that is not a non-empty matrix raises DataError."""
    def shape(name):
        if state[name].ndim != 2 or state[name].size == 0:
            raise DataError(f"parameter {name} is not a non-empty matrix")
        return state[name].shape

    rng = Rng(0)
    if "botasp.proj.weight" in state:
        proj_dim, in_dim = shape("botasp.proj.weight")
        model = BotaSPModel(in_dim, shape("botasp.head.weight")[0], proj_dim,
                            shape("botasp.hidden.weight")[0], dropout_rate)
    elif "tab_encoder.reduce.weight" in state:
        img_hidden, d_img = shape("img_encoder.lin1.weight")
        model_dim, d_tab = shape("tab_encoder.reduce.weight")
        model = AlignmentModel(
            "attention", d_img=d_img, d_tab=d_tab, rng=rng,
            proj_dim=shape("tab_encoder.project.weight")[0],
            mlp_img_hidden=img_hidden, attn_model_dim=model_dim)
    elif "tab_encoder.lin1.weight" in state:
        img_hidden, d_img = shape("img_encoder.lin1.weight")
        tab_hidden, d_tab = shape("tab_encoder.lin1.weight")
        model = AlignmentModel(
            "mlp", d_img=d_img, d_tab=d_tab, rng=rng,
            proj_dim=shape("tab_encoder.lin2.weight")[0],
            mlp_img_hidden=img_hidden, mlp_tab_hidden=tab_hidden)
    else:
        hidden, in_dim = shape("botania.lin1.weight")
        model = BotaniaMLP(in_dim, hidden, shape("botania.lin2.weight")[0],
                           shape("botania.head.weight")[0], dropout_rate)
        if "img_adapter.weight" in state:
            d_img = shape("img_adapter.weight")[1]
            model = AlignmentModel(
                "botania-linear", d_img=d_img, d_tab=in_dim, rng=rng,
                proj_dim=d_img, botania=model, adapter_noise_variance=0.0)
    return _load_params(model, state)
