import numpy as np

from gradcheck import finite_diff_grad


def flatten_params(params):
    return np.concatenate([p.value.reshape(-1) for p in params])


def assign_params(params, vec):
    off = 0
    for p in params:
        n = p.value.size
        p.value = np.asarray(vec[off:off + n], dtype=np.float64).reshape(
            p.value.shape)
        off += n


def numeric_param_grad(scalar_fn, params, h=1e-6):
    """Central-difference gradient of scalar_fn() wrt all parameter entries.

    scalar_fn must re-run the forward pass from the current parameter
    values; parameters are restored afterwards.
    """
    x0 = flatten_params(params)

    def f(vec):
        assign_params(params, vec)
        return scalar_fn()

    try:
        g = finite_diff_grad(f, x0.copy(), h=h)
    finally:
        assign_params(params, x0)
    return g


def split_like_params(vec, params):
    out = {}
    off = 0
    for p in params:
        n = p.value.size
        out[p.name] = vec[off:off + n].reshape(p.value.shape)
        off += n
    return out
