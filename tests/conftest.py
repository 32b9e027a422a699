import numpy as np
from hypothesis import settings

from gradcheck import finite_diff_grad

# Each property keeps its own example count. The default profile draws the
# same examples on every run of one tree, so a failure replays; `pytest
# --hypothesis-profile=explore` draws fresh examples, ten times as many, to
# hunt for new failures.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


def pytest_collection_modifyitems(items):
    # a test's own @settings override any profile's max_examples, so the
    # explore profile scales each hypothesis test's settings here, once
    if settings.get_current_profile_name() != "explore":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is None or test in scaled:
            continue
        scaled.add(test)
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=10 * own.max_examples)


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
