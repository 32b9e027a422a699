"""Frozen two-branch forms of the activations and of the pairwise objectives.

The library computes the same quantities branch-free and in place; these
are the plain expressions it must match bit for bit, kept here as oracles
that never share code with it. `pair_labels` lives here too: only the
oracle builds the label matrix.
"""

import numpy as np

from botaclip.losses import TAU_CLAMP


def pair_labels(n: int) -> np.ndarray:
    """+1 on the diagonal (matched pairs), -1 everywhere else."""
    return 2.0 * np.eye(n) - 1.0


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


def log_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))),
                   x - np.log1p(np.exp(-np.abs(x))))
    return out if out.ndim else float(out)


def sigmoid_contrastive_loss(z_img, z_tab, s):
    """(loss, (d_zimg, d_ztab, d_tau, d_b)) with an explicit label matrix."""
    n = z_img.shape[0]
    labels = pair_labels(n)
    dots = z_img @ z_tab.T
    t = s.temperature()
    logits = dots * t + s.b
    loss = float(-np.sum(log_sigmoid(labels * logits)) / (n * n))
    dlogits = -labels * sigmoid(-labels * logits) / (n * n)
    d_tau = float(np.sum(dlogits * dots) * t) if abs(s.tau) < TAU_CLAMP else 0.0
    d_b = float(np.sum(dlogits))
    d_zimg = (dlogits * t) @ z_tab
    d_ztab = (dlogits * t).T @ z_img
    return loss, (d_zimg, d_ztab, d_tau, d_b)


def similarity_regularizer(img_orig, z_img):
    """(loss, d_zimg) of the weighted Gram drift, one temporary per term."""
    n = z_img.shape[0]
    s_orig = img_orig @ img_orig.T
    s_new = z_img @ z_img.T
    w = ((1.0 + s_orig) / 2.0) ** 2
    diff = s_orig - s_new
    loss = float(np.sum(w * diff * diff) / (n * n))
    d_snew = -2.0 * w * diff / (n * n)
    return loss, (d_snew + d_snew.T) @ z_img
