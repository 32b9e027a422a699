"""The finite-difference gradient oracle the gradient tests check analytic
backward passes against, and the relative error they compare with."""

from typing import Callable

import numpy as np

from botaclip.errors import NonFinite


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Used as the independent oracle against analytic backward passes; it must
    never share code with them.
    """
    if not (1e-7 <= h <= 1e-4):
        raise ValueError(f"step h={h} outside [1e-7, 1e-4]")
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = float(f(x))
        flat[k] = orig - h
        fm = float(f(x))
        flat[k] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFinite(f"non-finite evaluation at coordinate {k}")
        gflat[k] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute difference normalized by the larger magnitude present.

    The floor of 1e-8 keeps all-zero gradient comparisons well defined.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    scale = max(float(np.max(np.abs(a), initial=0.0)),
                float(np.max(np.abs(b), initial=0.0)), 1e-8)
    return float(np.max(np.abs(a - b), initial=0.0)) / scale
