"""One training loop shared by three trainers (cover classifier
pretraining, contrastive alignment, supervised baseline), checkpoint
helpers, and the epoch log.

Training is deterministic for a fixed (seed, config, data): shuffling,
dropout and initialization each draw from their own keyed substream, epoch
metrics are logged, and early stopping restores the best validation
checkpoint.
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
from .fileio import read_csv, typed_columns, write_csv
from .losses import (
    ScalarsTauB,
    botasp_loss,
    cross_entropy_batch,
    sigmoid_contrastive_loss,
    similarity_regularizer,
)
from .numerics import Rng, row_norms
from .optim import AdamW, EarlyStopper, adam
from .spatial import FoldAssignment, buffered_split, check_no_leakage

UNIT_CHECK_TOL = 1e-9
TRAIN_LOG_HEADER = ["epoch", "train_loss", "val_loss", "scl", "reg", "tau", "b"]


@dataclass(kw_only=True)
class TrainConfig:
    batch_size: int
    max_epochs: int
    patience: int
    lam: float
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

    @classmethod
    def from_csv(cls, path):
        header, rows = read_csv(path)
        if header != TRAIN_LOG_HEADER:
            raise DataError(f"{path}: bad train log header")
        # one list per column; a trainer without tau and b logs them as NaN
        return cls(*(typed_columns(path, header, rows, j,
                                   np.int64 if j == 0 else np.float64,
                                   nan_ok=name in ("tau", "b")).tolist()
                     for j, name in enumerate(header)))


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

def train_botania(covers: np.ndarray, labels: np.ndarray,
                  train_idx: np.ndarray, val_idx: np.ndarray,
                  cfg: TrainConfig, *, hidden: int, embed: int,
                  n_classes: int, dropout_rate: float, lr: float):
    """Plain-Adam classifier pretraining; early stopping on validation
    cross-entropy; returns the best-epoch model and the log."""
    train_idx = np.asarray(train_idx)
    val_idx = np.asarray(val_idx)
    if train_idx.size == 0 or val_idx.size == 0:
        raise EmptySplit("empty train or validation split")
    rng = Rng(cfg.seed)
    model = BotaniaMLP(covers.shape[1], hidden, embed, n_classes,
                       dropout_rate, gen=rng.substream("init"))

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

    return _fit(model, adam(model.params(), lr=lr), rng, cfg, train_idx,
                step, validate)


def botania_accuracy(model: BotaniaMLP, covers, labels, top_k: int = 1) -> float:
    logits = model.forward(covers)
    top = np.argsort(logits, axis=1, kind="stable")[:, ::-1][:, :top_k]
    return float(np.mean([labels[i] in top[i] for i in range(len(labels))]))


# --- contrastive alignment ----------------------------------------------------

def train_botaclip(pairs: PairedDataset, assignment: FoldAssignment,
                   cfg: TrainConfig, *, variant: str, fold: int, lr: float,
                   weight_decay: float, proj_dim: int,
                   botania: BotaniaMLP | None = None,
                   botania_hidden: int | None = None,
                   botania_classes: int | None = None,
                   botania_dropout: float | None = None,
                   adapter_noise_variance: float | None = None,
                   mlp_img_hidden: int | None = None,
                   mlp_tab_hidden: int | None = None,
                   attn_model_dim: int | None = None):
    """Align image views with cover vectors; image embeddings stay frozen
    inputs, adapters (and the trainable cover encoder) update.

    botania-linear trains botania or, if it is None, a fresh BotaniaMLP of
    the botania_* settings; settings the variant does not use may be None.

    Multi-view pairs expand into one (view, pair) sample each; validation
    uses only the first view of each pair. The model with the best
    validation loss (contrastive + lambda * drift) is returned; at lambda 0
    the drift is logged but not optimized.
    """
    lam = cfg.lam
    if lam < 0:
        raise ValueError("lam must be >= 0")
    rng = Rng(cfg.seed)
    train_p, val_p, _ = buffered_split(assignment, fold)
    check_no_leakage(assignment, train_p, val_p)

    d_img = pairs.images.shape[1]
    d_tab = pairs.covers.shape[1]
    if variant == "botania-linear" and botania is None:
        botania = BotaniaMLP(d_tab, botania_hidden, proj_dim, botania_classes,
                             botania_dropout, gen=rng.substream("init/botania"))
    model = AlignmentModel(
        variant, d_img=d_img, d_tab=d_tab, rng=rng, proj_dim=proj_dim,
        botania=botania, adapter_noise_variance=adapter_noise_variance,
        mlp_img_hidden=mlp_img_hidden, mlp_tab_hidden=mlp_tab_hidden,
        attn_model_dim=attn_model_dim)
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
    return _fit(model, opt, rng, cfg, train_rows, step, validate)


# --- supervised baseline --------------------------------------------------------

def train_botasp(embeddings: np.ndarray, presence: np.ndarray,
                 train_idx: np.ndarray, val_idx: np.ndarray,
                 cfg: TrainConfig, *, proj_dim: int, hidden: int,
                 dropout_rate: float, lr: float, weight_decay: float):
    """Presence/absence pretraining over unit-norm embeddings with the
    similarity-drift penalty on the projection (lambda from cfg.lam)."""
    train_idx = np.asarray(train_idx)
    val_idx = np.asarray(val_idx)
    if train_idx.size == 0 or val_idx.size == 0:
        raise EmptySplit("empty train or validation split")
    rng = Rng(cfg.seed)
    model = BotaSPModel(embeddings.shape[1], presence.shape[1], proj_dim,
                        hidden, dropout_rate, gen=rng.substream("init"))
    targets = np.asarray(presence, dtype=np.float64)

    def step(batch, gen, tape):
        logits, z, _ = model.forward(embeddings[batch], train=True, gen=gen)
        loss, (dlogits, dz) = botasp_loss(
            logits, targets[batch], embeddings[batch], z, cfg.lam, grad=True)
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
        return bce + cfg.lam * reg, bce, reg, math.nan, math.nan

    opt = AdamW(model.params(), lr=lr, weight_decay=weight_decay)
    return _fit(model, opt, rng, cfg, train_idx, step, validate)


def botasp_features(model: BotaSPModel, embeddings: np.ndarray) -> np.ndarray:
    """Post-GELU, pre-dropout hidden activations used downstream."""
    _, _, feat = model.forward(np.asarray(embeddings, dtype=np.float64))
    return feat


# --- checkpoint round trip -------------------------------------------------------

def model_state(model) -> dict[str, np.ndarray]:
    return {p.name: p.value for p in model.params()}


def _load_params(model, state: dict[str, np.ndarray]):
    """Copies each array of state into the parameter of its name."""
    for p in model.params():
        p.value = np.array(state[p.name], dtype=np.float64, order="C")
    return model


def alignment_model_from_state(state: dict[str, np.ndarray]) -> AlignmentModel:
    """Rebuild an alignment model for inference from named checkpoint
    arrays; the variant and every dimension are inferred from parameter
    names and shapes, and dropout, which inference skips, is 0."""
    rng = Rng(0)
    if "img_adapter.weight" in state:
        botania = botania_from_state(state, dropout_rate=0.0)
        d_img = state["img_adapter.weight"].shape[1]
        model = AlignmentModel("botania-linear", d_img=d_img,
                               d_tab=botania.in_dim, rng=rng, proj_dim=d_img,
                               botania=botania, adapter_noise_variance=0.0)
    elif "tab_encoder.reduce.weight" in state:
        d_img = state["img_encoder.lin1.weight"].shape[1]
        d_tab = state["tab_encoder.reduce.weight"].shape[1]
        model_dim = state["tab_encoder.reduce.weight"].shape[0]
        proj = state["tab_encoder.project.weight"].shape[0]
        model = AlignmentModel(
            "attention", d_img=d_img, d_tab=d_tab, rng=rng, proj_dim=proj,
            mlp_img_hidden=state["img_encoder.lin1.weight"].shape[0],
            attn_model_dim=model_dim)
    else:
        d_img = state["img_encoder.lin1.weight"].shape[1]
        d_tab = state["tab_encoder.lin1.weight"].shape[1]
        proj = state["tab_encoder.lin2.weight"].shape[0]
        model = AlignmentModel(
            "mlp", d_img=d_img, d_tab=d_tab, rng=rng, proj_dim=proj,
            mlp_img_hidden=state["img_encoder.lin1.weight"].shape[0],
            mlp_tab_hidden=state["tab_encoder.lin1.weight"].shape[0])
    return _load_params(model, state)


def botania_from_state(state: dict[str, np.ndarray], *,
                       dropout_rate: float) -> BotaniaMLP:
    """The checkpoint's BotaniaMLP; a checkpoint records no dropout rate."""
    in_dim, hidden = state["botania.lin1.weight"].shape[::-1]
    embed = state["botania.lin2.weight"].shape[0]
    n_classes = state["botania.head.weight"].shape[0]
    return _load_params(BotaniaMLP(in_dim, hidden, embed, n_classes,
                                   dropout_rate, gen=None), state)


def botasp_from_state(state: dict[str, np.ndarray]) -> BotaSPModel:
    """The checkpoint's BotaSPModel for inference, which skips dropout."""
    in_dim = state["botasp.proj.weight"].shape[1]
    proj_dim = state["botasp.proj.weight"].shape[0]
    hidden = state["botasp.hidden.weight"].shape[0]
    n_species = state["botasp.head.weight"].shape[0]
    return _load_params(BotaSPModel(in_dim, n_species, proj_dim, hidden, 0.0,
                                    gen=None), state)
