"""Training objectives with analytic gradients.

The alignment loss works on unit-norm projections: pairwise logits scaled by
exp(tau) and shifted by a learnable bias, a per-pair logistic objective over
all N^2 (image, table) combinations with positives on the diagonal, and a
weighted Gram-preservation penalty against the untouched input embeddings.
Each objective is one function f(..., grad=False) that returns (loss, grads),
grads None when grad is False; the loss is the same bits either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .numerics import log_sigmoid, log_softmax, row_norms, sigmoid, softmax, softplus

TAU_CLAMP = 10.0
UNIT_NORM_TOL = 1e-6


@dataclass
class ScalarsTauB:
    """Learnable temperature and bias of the pairwise logits."""
    tau: float
    b: float

    def temperature(self) -> float:
        return float(np.exp(np.clip(self.tau, -TAU_CLAMP, TAU_CLAMP)))


def _check_unit_rows(m: np.ndarray, what: str) -> None:
    dev = np.abs(row_norms(m) - 1.0)
    if dev.size and not dev.max() <= UNIT_NORM_TOL:  # NaN fails <= too
        raise NumericError(f"{what} rows deviate from unit norm by {dev.max():.2e}")


def sigmoid_contrastive_loss(z_img: np.ndarray, z_tab: np.ndarray,
                             s: ScalarsTauB, grad: bool = False):
    """Mean over all N^2 pairs of -log sigmoid(label * logit), the logits
    exp(tau) * <z_img, z_tab> + b; returns (loss, grads), grads the
    gradients (d_zimg, d_ztab, d_tau, d_b), or None when grad is False."""
    if z_img.shape[1] != z_tab.shape[1]:
        raise DataError("projection widths differ")
    n = z_img.shape[0]
    if z_tab.shape[0] != n:
        raise DataError("pairwise logits must be square")
    dots = z_img @ z_tab.T
    t = s.temperature()
    # y = label * logit with logit = dots * t + b: -logit off the diagonal,
    # built as dots * -t - b (a sign flip is exact), and logit on it
    y = np.multiply(dots, -t)
    y -= s.b
    np.fill_diagonal(y, np.diagonal(dots) * t + s.b)
    terms = log_sigmoid(y)
    loss = float(-np.sum(terms) / (n * n))
    if not grad:
        return loss, None
    # d/dl of -log sigmoid(w*l) is -w * sigmoid(-w*l): sigmoid(-y) into the
    # spent loss terms, then the diagonal negated
    dlogits = sigmoid(np.negative(y, out=y), out=terms)
    np.fill_diagonal(dlogits, -np.diagonal(dlogits))
    dlogits /= n * n
    d_tau = (float(np.sum(np.multiply(dlogits, dots, out=dots)) * t)
             if abs(s.tau) < TAU_CLAMP else 0.0)
    d_b = float(np.sum(dlogits))
    dlogits *= t
    return loss, (dlogits @ z_tab, dlogits.T @ z_img, d_tau, d_b)


def similarity_weights(gram_orig: np.ndarray) -> np.ndarray:
    """((1 + gram) / 2)^2 in one fresh array."""
    w = np.add(gram_orig, 1.0)
    w /= 2.0
    return np.square(w, out=w)


def similarity_regularizer(img_orig: np.ndarray, z_img: np.ndarray,
                           grad: bool = False):
    """Weighted squared drift of the Gram matrix from the original one;
    returns (loss, d_zimg), d_zimg None when grad is False.

    Pairs already similar in the original space carry the most weight;
    antipodal pairs carry none. Both inputs must be unit-norm row-wise.
    """
    img_orig = np.asarray(img_orig, dtype=np.float64)
    z_img = np.asarray(z_img, dtype=np.float64)
    if img_orig.shape[0] != z_img.shape[0]:
        raise DataError("row counts differ")
    _check_unit_rows(img_orig, "original embedding")
    _check_unit_rows(z_img, "projected embedding")
    n = z_img.shape[0]
    s_orig = img_orig @ img_orig.T
    s_new = z_img @ z_img.T
    w = similarity_weights(s_orig)
    diff = np.subtract(s_orig, s_new, out=s_orig)
    wdd = np.multiply(w, diff, out=s_new)
    wdd *= diff
    loss = float(np.sum(wdd) / (n * n))
    if not grad:
        return loss, None
    # d_snew = -2 * w * diff / n^2 in w, symmetrized into the spent s_new
    d_snew = np.multiply(w, -2.0, out=w)
    d_snew *= diff
    d_snew /= n * n
    sym = np.add(d_snew, d_snew.T, out=s_new)
    return loss, sym @ z_img


def cross_entropy_batch(logits: np.ndarray, labels: np.ndarray,
                        grad: bool = False):
    """Mean softmax cross-entropy over a batch; returns (loss, dlogits),
    with dlogits None when grad is False."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise DataError("labels outside logit range")
    logp = log_softmax(logits, axis=1)
    loss = float(-np.mean(logp[np.arange(n), labels]))
    if not grad:
        return loss, None
    dlogits = softmax(logits, axis=1)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def binary_cross_entropy_with_logits(logits: np.ndarray, targets: np.ndarray,
                                     grad: bool = False):
    """Element-mean stable BCE over a logit matrix; returns (loss, dlogits),
    with dlogits None when grad is False."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.shape != targets.shape:
        raise DataError("logits and targets differ in shape")
    loss = float(np.mean(softplus(logits) - logits * targets))
    if not grad:
        return loss, None
    return loss, (sigmoid(logits) - targets) / logits.size


def botasp_loss(logits: np.ndarray, targets: np.ndarray, z_orig: np.ndarray,
                z_new: np.ndarray, lam: float, grad: bool = False):
    """Multi-label BCE over species plus lam times the weighted Gram drift
    of the projection, both rows unit-norm; returns (loss, grads), grads
    (dlogits, dz_new) with dz_new None at lam=0, or None when grad is
    False."""
    if not 0 <= lam < np.inf:  # NaN fails both bounds
        raise ValueError(f"lam must be in [0, inf), got {lam}")
    bce, dlogits = binary_cross_entropy_with_logits(logits, targets, grad)
    if lam == 0:
        return bce, (dlogits, None) if grad else None
    reg, dz = similarity_regularizer(z_orig, z_new, grad)
    return bce + lam * reg, (dlogits, lam * dz) if grad else None
