"""Dense float64 array helpers and activations.

Everything here computes in 64-bit; matrices are plain numpy arrays with
samples as rows. The Rng class wraps a counter-based generator so any
(purpose, index) pair yields an independent, reproducible substream.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import erf

from .errors import NonFinite, ShapeMismatch, ZeroRow

ZERO_ROW_EPS = 1e-12


class Rng:
    """Seeded source of independent substreams.

    Substreams are keyed by (purpose, index): the 128-bit Philox key is
    derived from a SHA-256 of the root seed and the key, so streams never
    depend on the order in which they are requested.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def substream(self, purpose: str, index: int = 0) -> np.random.Generator:
        digest = hashlib.sha256(
            f"{self.seed}/{purpose}/{int(index)}".encode()
        ).digest()
        key = np.frombuffer(digest[:16], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def generator(self) -> np.random.Generator:
        return self.substream("root")


def as_matrix(x) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains NaN or inf")
    return m


def row_norms(m: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(np.asarray(m, dtype=np.float64) ** 2, axis=1))


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm.

    Raises ZeroRow if any row norm is at or below 1e-12.
    """
    m = as_matrix(m)
    norms = row_norms(m)
    bad = np.flatnonzero(norms <= ZERO_ROW_EPS)
    if bad.size:
        raise ZeroRow(f"row {bad[0]} has norm {norms[bad[0]]:.3e}")
    return m / norms[:, None]


_SQRT2 = np.sqrt(2.0)


def normal_cdf(x):
    return 0.5 * (1.0 + erf(np.asarray(x, dtype=np.float64) / _SQRT2))


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """exp(-|x|) in one fresh array."""
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    return np.exp(e, out=e)


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) as exp(min(x, 0)) / (1 + exp(-|x|)): no branch, and
    the bits of 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x))
    below. `out` may be `x` itself."""
    x = np.asarray(x, dtype=np.float64)
    den = _exp_neg_abs(x)
    den += 1.0
    out = np.minimum(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.exp(out, out=out)
    out /= den
    return out if out.ndim else float(out)


def log_sigmoid(x):
    """log(sigmoid(x)) as min(x, -0.0) - log1p(exp(-|x|)), stable for any |x|.
    The bound is -0.0 so that where exp underflows (x > 745) the result is
    -log1p(0) = -0.0, as in the two-branch form."""
    x = np.asarray(x, dtype=np.float64)
    tail = _exp_neg_abs(x)
    np.log1p(tail, out=tail)
    out = np.minimum(x, -0.0, out=np.empty_like(x))
    out -= tail
    return out if out.ndim else float(out)


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return out if out.ndim else float(out)


def softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
