"""Dense float64 array helpers and activations.

Everything here computes in 64-bit; matrices are plain numpy arrays with
samples as rows. The Rng class wraps a counter-based generator so any
(purpose, index) pair yields an independent, reproducible substream.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

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


# Cephes ndtr.c (Moshier 1989), the erf that scipy.special.erf evaluates:
# erf(v) = v T(v^2) / U(v^2) for |v| <= 1, and 1 - exp(-v^2) P(|v|) / Q(|v|)
# above. Rows are polynomials, highest power first. The leading 0 of T and
# the leading 1s of U and Q (Cephes' p1evl) change no bit, and let each pair
# share one Horner loop.
_ERF_TU = np.array([
    [0.0, 9.60497373987051638749E0, 9.00260197203842689217E1,
     2.23200534594684319226E3, 7.00332514112805075473E3,
     5.55923013010394962768E4],
    [1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
     4.59432382970980127987E3, 2.26290000613890934246E4,
     4.92673942608635921086E4]]).T[:, :, None]
_ERFC_PQ = np.array([
    [2.46196981473530512524E-10, 5.64189564831068821977E-1,
     7.46321056442269912687E0, 4.86371970985681366614E1,
     1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3,
     5.57535335369399327526E2],
    [1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
     3.54937778887819891062E2, 9.75708501743205489753E2,
     1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2]]).T[:, :, None]
_HALF_ULP_BELOW_1 = 2.0 ** -54
# A 2-ulp change of exp, carried through the roundings of one product and
# one quotient, moves exp(-v^2) P / Q by at most this much relative to it.
_EXP_2ULP = 2.0 ** -50


def _horner(coef, x):
    """Each row of `coef` at x, one multiply and one add per coefficient in
    Cephes' polevl order, no fused multiply-add."""
    acc = coef[0] * x
    for c in coef[1:-1]:
        acc += c
        acc *= x
    acc += coef[-1]
    return acc


def _one_minus_erfc(a):
    """1 - erfc(a) for 1 < a < 6, rounded as Cephes rounds it. Overwrites a.

    Cephes takes exp from libm, and numpy's vectorized exp differs from it
    by an ulp on a few percent of arguments. So where a 2-ulp change of exp
    could move y = exp(-a^2) P(a) / Q(a) across a rounding boundary of
    1 - y, exp is taken again from math.exp (libm). The steps run in place:
    at desk scale the temporaries of the plain expressions made malloc trim
    and regrow its heap on every call.
    """
    neg_sq = np.multiply(a, a)
    np.negative(neg_sq, out=neg_sq)
    p, q = _horner(_ERFC_PQ, a)
    y = np.exp(neg_sq)
    y *= p
    y /= q
    r = np.subtract(1.0, y)
    # (1 - r) - y is the exact rounding error of r (Fast2Sum); r lies in
    # [0.84, 1], where rounding boundaries are 2**-54 away from a float
    gap = np.subtract(1.0, r, out=a)
    gap -= y
    np.abs(gap, out=gap)
    np.subtract(_HALF_ULP_BELOW_1, gap, out=gap)
    np.abs(gap, out=gap)
    y *= _EXP_2ULP
    near = np.flatnonzero(gap <= y)
    if near.size:
        e = np.fromiter(map(math.exp, neg_sq[near].tolist()), np.float64,
                        near.size)
        e *= p[near]
        e /= q[near]
        r[near] = 1.0 - e
    return r


def erf(x):
    """The error function, bit for bit as scipy.special.erf computes it.

    From |x| = 6 on the result is +-1 with no arithmetic: erfc(6) is below
    2**-54, half the float spacing below 1, so 1 - erfc rounds to 1. NaN
    gives the quiet NaN, and -0.0 stays -0.0.
    """
    v = np.asarray(x, dtype=np.float64)
    flat = v.ravel()
    out = np.abs(flat)
    small = np.flatnonzero(out <= 1.0)
    mid = out > 1.0
    mid &= out < 6.0
    mid = np.flatnonzero(mid)
    r = _one_minus_erfc(out[mid])
    np.copysign(1.0, flat, out=out)
    if small.size:
        s = flat[small]
        t, u = _horner(_ERF_TU, s * s)
        s *= t
        s /= u
        out[small] = s
    out[mid] = np.copysign(r, flat[mid], out=r)
    nan = np.isnan(flat)
    if nan.any():
        out[nan] = np.nan
    return out.reshape(v.shape)


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
