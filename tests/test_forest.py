import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from botaclip import forest as forest_mod
from botaclip.errors import EmptyData, NonFinite, ShapeMismatch
from botaclip.forest import (
    Forest,
    ForestConfig,
    TreeNode,
    _best_splits,
    _rank_keys,
    fit_classifier,
    fit_regressor,
    predict,
)
from botaclip.numerics import Rng


def _separable_1d(seed=0, n=200):
    gen = Rng(seed).substream("x")
    x = gen.normal(size=(n, 1)) * 2.0
    y = (x[:, 0] > 0).astype(np.int64)
    return x, y


class TestClassifier:
    def test_separable_training_accuracy(self):
        x, y = _separable_1d()
        forest = fit_classifier(x, y, ForestConfig(n_trees=20, seed=1))
        pred = (predict(forest, x) >= 0.5).astype(np.int64)
        assert np.mean(pred == y) == 1.0

    def test_constant_labels(self):
        x, _ = _separable_1d(seed=2)
        y = np.ones(len(x), dtype=np.int64)
        forest = fit_classifier(x, y, ForestConfig(n_trees=5, seed=3))
        np.testing.assert_array_equal(predict(forest, x), np.ones(len(x)))

    def test_same_seed_same_forest(self):
        gen = Rng(4).substream("x")
        x = gen.normal(size=(60, 3))
        y = (x[:, 0] + x[:, 1] > 0).astype(np.int64)
        cfg = ForestConfig(n_trees=8, seed=9)
        a = fit_classifier(x, y, cfg)
        b = fit_classifier(x, y, cfg)

        def structure(node):
            if node.is_leaf:
                return ("leaf", node.value)
            return (node.feature, node.threshold, structure(node.left),
                    structure(node.right))

        assert [structure(t) for t in a.trees] == [structure(t) for t in b.trees]

    def test_probabilities_bounded(self):
        gen = Rng(5).substream("x")
        x = gen.normal(size=(80, 4))
        y = (gen.random(80) < 0.5).astype(np.int64)
        forest = fit_classifier(x, y, ForestConfig(n_trees=10, seed=6))
        p = predict(forest, gen.normal(size=(40, 4)))
        assert p.min() >= 0.0 and p.max() <= 1.0

    def test_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            fit_classifier(np.ones((3, 1)), np.array([0, 1, 2]),
                           ForestConfig(n_trees=100, seed=0))

    def test_empty_data(self):
        with pytest.raises(EmptyData):
            fit_classifier(np.empty((0, 2)), np.empty(0),
                           ForestConfig(n_trees=100, seed=0))

    def test_shape_mismatch_on_predict(self):
        x, y = _separable_1d(seed=7)
        forest = fit_classifier(x, y, ForestConfig(n_trees=2, seed=0))
        with pytest.raises(ShapeMismatch):
            predict(forest, np.ones((3, 2)))

    def test_two_tree_vote_averaging(self):
        forest = Forest(trees=[TreeNode(value=1.0), TreeNode(value=0.0)],
                        n_features=1)
        np.testing.assert_array_equal(predict(forest, np.ones((2, 1))),
                                      [0.5, 0.5])

    def test_duplicated_rows_keep_pure_regions(self):
        x, y = _separable_1d(seed=8, n=100)
        x2 = np.vstack([x, x[y == 1][:20]])
        y2 = np.concatenate([y, np.ones(20, dtype=np.int64)])
        forest = fit_classifier(x2, y2, ForestConfig(n_trees=15, seed=2))
        probe = np.array([[3.0], [-3.0]])
        p = predict(forest, probe)
        assert p[0] > 0.9 and p[1] < 0.1


@pytest.mark.parametrize("n_trees", [0, -1])
@pytest.mark.parametrize("fit, criterion", [(fit_classifier, "gini"),
                                            (fit_regressor, "mse")],
                         ids=["classifier", "regressor"])
def test_forest_needs_a_tree(fit, criterion, n_trees):
    x, y = _separable_1d(seed=2, n=20)
    with pytest.raises(ValueError, match="at least one tree"):
        fit(x, y, ForestConfig(n_trees=n_trees, seed=0, criterion=criterion))


class TestSplitQuality:
    def test_split_never_increases_gini(self):
        gen = Rng(9).substream("x")
        x = gen.normal(size=(50, 2))
        y = (gen.random(50) < 0.4).astype(np.int64)
        forest = fit_classifier(x, y, ForestConfig(n_trees=4, seed=3))

        def check(node, idx):
            if node.is_leaf:
                return
            yy = y[idx]
            p = yy.mean()
            parent = 2 * p * (1 - p)
            mask = x[idx, node.feature] <= node.threshold
            li, ri = idx[mask], idx[~mask]
            pl, pr = y[li].mean(), y[ri].mean()
            child = (li.size * 2 * pl * (1 - pl)
                     + ri.size * 2 * pr * (1 - pr)) / idx.size
            assert child <= parent + 1e-12
            check(node.left, li)
            check(node.right, ri)

        # each tree's root holds the bootstrap rows its substream drew first
        forest_b = fit_classifier(x, y, ForestConfig(n_trees=3, seed=5))
        for t, tree in enumerate(forest_b.trees):
            check(tree, Rng(5).substream("tree", t).integers(0, 50, size=50))


class TestRegressor:
    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs(self, where, bad):
        x, y = _separable_1d(seed=1, n=20)
        y = y.astype(np.float64)
        if where == "X":
            x[3, 0] = bad
        else:
            y[3] = bad
        with pytest.raises(NonFinite):
            fit_regressor(x, y, ForestConfig(n_trees=2, seed=0,
                                             criterion="mse"))

    def test_constant_target(self):
        gen = Rng(10).substream("x")
        x = gen.normal(size=(30, 2))
        y = np.full(30, 3.25)
        forest = fit_regressor(x, y, ForestConfig(n_trees=5, criterion="mse",
                                                  seed=1))
        np.testing.assert_allclose(predict(forest, x), 3.25, atol=1e-12)

    def test_step_function_recovered(self):
        gen = Rng(11).substream("x")
        x = gen.uniform(-1, 1, size=(200, 1))
        y = np.where(x[:, 0] > 0, 1.0, 0.0)
        forest = fit_regressor(x, y, ForestConfig(n_trees=30, criterion="mse",
                                                  seed=2))
        x_test = gen.uniform(-1, 1, size=(200, 1))
        y_test = np.where(x_test[:, 0] > 0, 1.0, 0.0)
        mae = np.mean(np.abs(predict(forest, x_test) - y_test))
        assert mae < 0.05

    def test_prediction_within_target_range(self):
        gen = Rng(12).substream("x")
        x = gen.normal(size=(60, 3))
        y = gen.uniform(2.0, 7.0, size=60)
        forest = fit_regressor(x, y, ForestConfig(n_trees=10, criterion="mse",
                                                  seed=3))
        p = predict(forest, gen.normal(size=(50, 3)))
        assert p.min() >= y.min() - 1e-12 and p.max() <= y.max() + 1e-12


# --- frozen reference: one exact search per candidate feature ----------------

def _ref_threshold(lo, hi):
    thr = 0.5 * (lo + hi)
    return thr if -np.inf < thr < hi else lo


def _ref_split_gini(x, y):
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    boundary = np.flatnonzero(xs[:-1] < xs[1:])
    if boundary.size == 0:
        return None
    n = xs.size
    left_pos = np.cumsum(ys)[boundary]
    left_n = boundary + 1.0
    right_n = n - left_n
    right_pos = ys.sum() - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    gini_l = 2.0 * pl * (1.0 - pl)
    gini_r = 2.0 * pr * (1.0 - pr)
    weighted = (left_n * gini_l + right_n * gini_r) / n
    k = int(np.argmin(weighted))
    thr = _ref_threshold(xs[boundary[k]], xs[boundary[k] + 1])
    return thr, float(weighted[k])


def _ref_split_mse(x, y):
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    boundary = np.flatnonzero(xs[:-1] < xs[1:])
    if boundary.size == 0:
        return None
    n = xs.size
    csum = np.cumsum(ys)
    left_n = boundary + 1.0
    right_n = n - left_n
    left_sum = csum[boundary]
    right_sum = ys.sum() - left_sum
    csum2 = np.cumsum(ys * ys)
    left_sse = csum2[boundary] - left_sum ** 2 / left_n
    right_sse = (csum2[-1] - csum2[boundary]) - right_sum ** 2 / right_n
    weighted = (left_sse + right_sse) / n
    k = int(np.argmin(weighted))
    thr = _ref_threshold(xs[boundary[k]], xs[boundary[k] + 1])
    return thr, float(weighted[k])


def _ref_build_tree(X, y, idx, cfg, gen):
    node = TreeNode()
    yy = y[idx]
    node.value = float(np.mean(yy))
    pure = (yy.min() == yy.max() if cfg.criterion == "gini"
            else np.all(yy == yy[0]))
    if pure or idx.size < 2:
        return node
    d = X.shape[1]
    m = math.ceil(math.sqrt(d)) if cfg.criterion == "gini" else d
    candidates = np.sort(gen.choice(d, size=m, replace=False))
    split_fn = _ref_split_gini if cfg.criterion == "gini" else _ref_split_mse
    best = None
    for f in candidates:
        res = split_fn(X[idx, f], yy)
        if res is None:
            continue
        thr, imp = res
        if best is None or imp < best[0]:
            best = (imp, int(f), thr)
    if best is None:
        return node
    _, node.feature, node.threshold = best
    mask = X[idx, node.feature] <= node.threshold
    node.left = _ref_build_tree(X, y, idx[mask], cfg, gen)
    node.right = _ref_build_tree(X, y, idx[~mask], cfg, gen)
    return node


def _ref_fit(X, y, cfg):
    rng = Rng(cfg.seed)
    forest = Forest(n_features=X.shape[1])
    n = X.shape[0]
    for t in range(cfg.n_trees):
        gen = rng.substream("tree", t)
        idx = gen.integers(0, n, size=n)
        forest.trees.append(_ref_build_tree(X, y, idx, cfg, gen))
    return forest


def _ref_predict(forest, X):
    """The mean over trees of each row's leaf value, one tree at a time by
    recursion."""
    votes = np.empty((len(forest.trees), X.shape[0]))

    def walk(node, idx, out):
        if node.is_leaf:
            out[idx] = node.value
            return
        mask = X[idx, node.feature] <= node.threshold
        walk(node.left, idx[mask], out)
        walk(node.right, idx[~mask], out)

    for tree, out in zip(forest.trees, votes):
        walk(tree, np.arange(X.shape[0]), out)
    return votes.mean(axis=0)


def _bits(node):
    if node.is_leaf:
        return node.value.hex()
    return (node.feature, float(node.threshold).hex(), _bits(node.left),
            _bits(node.right))


@st.composite
def _forest_cases(draw):
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 64))
    # few distinct values give tied feature values and tied impurities, and
    # -0.0 beside 0.0 a tie whose members differ in their bits
    values = draw(st.sampled_from([
        st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)]))
    X = draw(hnp.arrays(np.float64, (n, d), elements=values))
    constant = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    X[:, np.array(constant)] = 1.25
    criterion = draw(st.sampled_from(["gini", "mse"]))
    if criterion == "gini":
        y = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    else:
        y = draw(hnp.arrays(np.float64, n, elements=st.one_of(
            st.sampled_from([0.0, 1.0, 3.5]),
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))))
    # several trees of different shapes make ragged lockstep steps
    cfg = ForestConfig(
        n_trees=draw(st.integers(1, 9)), criterion=criterion,
        seed=draw(st.integers(0, 2 ** 16)))
    probe = draw(hnp.arrays(np.float64, (5, d), elements=values))
    return X, y, cfg, probe


class TestVectorizedSplitMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(_forest_cases())
    def test_trees_and_predictions_bit_identical(self, case):
        X, y, cfg, probe = case
        fit = fit_classifier if cfg.criterion == "gini" else fit_regressor
        forest = fit(X, y, cfg)
        ref = _ref_fit(X, y, cfg)
        assert [_bits(t) for t in forest.trees] == [_bits(t) for t in ref.trees]
        for data in (X, probe):
            assert predict(forest, data).tobytes() == \
                _ref_predict(ref, data).tobytes()

    def test_desk_shaped_forest_bit_identical(self):
        # a desk evaluation unit: float32-valued unit-norm embeddings, 25 trees
        gen = Rng(13).substream("x")
        X = gen.normal(size=(130, 64)).astype(np.float32).astype(np.float64)
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = (X[:, 3] + 0.5 * gen.normal(size=130) > 0).astype(np.float64)
        cfg = ForestConfig(n_trees=25, seed=7)
        forest = fit_classifier(X, y, cfg)
        ref = _ref_fit(X, y, cfg)
        assert [_bits(t) for t in forest.trees] == [_bits(t) for t in ref.trees]
        assert predict(forest, X).tobytes() == _ref_predict(ref, X).tobytes()

    def test_wide_gini_forest_bit_identical(self):
        # the canonical width: 28 of 768 candidates, so trees take several
        # draw blocks and Floyd's rule often meets a draw already taken
        gen = Rng(37).substream("x")
        X = gen.normal(size=(100, 768)).astype(np.float32).astype(np.float64)
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = (X[:, 11] - X[:, 40] + 0.05 * gen.normal(size=100) > 0) * 1.0
        cfg = ForestConfig(n_trees=20, seed=12)
        forest = fit_classifier(X, y, cfg)
        ref = _ref_fit(X, y, cfg)
        assert [_bits(t) for t in forest.trees] == [_bits(t) for t in ref.trees]
        assert predict(forest, X).tobytes() == _ref_predict(ref, X).tobytes()

    def test_desk_shaped_regressor_bit_identical(self):
        # a soil-like unit: 410 float32-valued rows over 64 features, past
        # numpy's 128-element pairwise-sum blocks, which the property's
        # n <= 60 never reaches
        gen = Rng(19).substream("x")
        X = gen.normal(size=(410, 64)).astype(np.float32).astype(np.float64)
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = 40.0 * X[:, 5] + gen.gamma(2.0, 3.0, size=410)
        cfg = ForestConfig(n_trees=5, criterion="mse", seed=7)
        forest = fit_regressor(X, y, cfg)
        ref = _ref_fit(X, y, cfg)
        assert [_bits(t) for t in forest.trees] == [_bits(t) for t in ref.trees]
        assert predict(forest, X).tobytes() == _ref_predict(ref, X).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(129, 260), d=st.integers(1, 3),
           n_trees=st.integers(1, 2), seed=st.integers(0, 2 ** 16))
    def test_regressor_past_pairwise_blocks_bit_identical(self, n, d,
                                                          n_trees, seed):
        # mse nodes of more than 128 rows, where numpy's pairwise sums
        # regroup; about half the features and a third of the targets are
        # tied values (hypothesis draws the sizes and seed: arrays this
        # large overrun its example buffer)
        gen = Rng(seed).substream("x")
        tied = gen.choice([-1.0, -0.0, 0.0, 0.25, 3.0], size=(n, d))
        X = np.where(gen.random((n, d)) < 0.5, tied,
                     gen.uniform(-1e3, 1e3, size=(n, d)))
        y = np.where(gen.random(n) < 0.3, gen.choice([0.0, 1.0, 3.5], size=n),
                     gen.uniform(-1e3, 1e3, size=n))
        cfg = ForestConfig(n_trees=n_trees, criterion="mse", seed=seed)
        forest = fit_regressor(X, y, cfg)
        ref = _ref_fit(X, y, cfg)
        assert [_bits(t) for t in forest.trees] == [_bits(t) for t in ref.trees]

    @pytest.mark.parametrize("criterion", ["gini", "mse"])
    def test_signed_zeros_bit_identical(self, criterion):
        # -0.0 and 0.0 share a rank; a threshold next to them is one float
        # whichever of the two the midpoint takes
        gen = Rng(23).substream("x")
        X = gen.choice([-2.0, -0.0, 0.0, 1.5], size=(80, 3))
        y = (gen.random(80) < 0.5).astype(np.float64)
        y[X[:, 0] > 0] = 1.0
        cfg = ForestConfig(n_trees=6, criterion=criterion, seed=4)
        fit = fit_classifier if criterion == "gini" else fit_regressor
        forest = fit(X, y, cfg)
        ref = _ref_fit(X, y, cfg)
        assert [_bits(t) for t in forest.trees] == [_bits(t) for t in ref.trees]
        assert predict(forest, X).tobytes() == _ref_predict(ref, X).tobytes()

    def test_overflowing_targets_bit_identical(self):
        # squares past the float range make NaN impurities, which the
        # reference's np.argmin takes first
        gen = Rng(31).substream("x")
        X = gen.normal(size=(40, 2))
        y = gen.choice([-3e200, 1e200, 2e200], size=40)
        cfg = ForestConfig(n_trees=3, criterion="mse", seed=8)
        with np.errstate(all="ignore"):
            forest = fit_regressor(X, y, cfg)
            ref = _ref_fit(X, y, cfg)
        assert [_bits(t) for t in forest.trees] == [_bits(t) for t in ref.trees]

    @pytest.mark.parametrize("criterion", ["gini", "mse"])
    @pytest.mark.parametrize("lo, hi", [
        (1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51),  # the midpoint rounds up to hi
        (1.7e308, 1.75e308), (-1.75e308, -1.7e308),  # the sum overflows
    ], ids=["adjacent", "overflow_up", "overflow_down"])
    def test_midpoint_off_the_boundary_bit_identical(self, criterion, lo, hi):
        # a threshold at hi or at ±inf sends every row of the node one way,
        # and the node would split forever
        X = np.array([[lo], [hi]] * 5)
        y = np.array([0.0, 1.0] * 5)
        cfg = ForestConfig(n_trees=3, criterion=criterion, seed=2)
        fit = fit_classifier if criterion == "gini" else fit_regressor
        with np.errstate(over="ignore"):
            forest = fit(X, y, cfg)
            ref = _ref_fit(X, y, cfg)
        assert [_bits(t) for t in forest.trees] == [_bits(t) for t in ref.trees]
        assert predict(forest, X).tobytes() == _ref_predict(ref, X).tobytes()
        assert all(t.threshold == lo for t in forest.trees if not t.is_leaf)

    def test_wide_keys_bit_identical(self):
        # past 16,383 rows the keys 2·rank + label no longer fit in int16
        n = 16_500
        gen = Rng(29).substream("x")
        X = gen.normal(size=(n, 2))
        y = (X[:, 0] > 0).astype(np.float64)
        flip = gen.choice(n, size=12, replace=False)
        y[flip] = 1.0 - y[flip]
        assert _rank_keys(X, y, True)[0].dtype == np.int32
        cfg = ForestConfig(n_trees=2, seed=5)
        forest = fit_classifier(X, y, cfg)
        ref = _ref_fit(X, y, cfg)
        assert [_bits(t) for t in forest.trees] == [_bits(t) for t in ref.trees]

    def test_chunked_search_bit_identical(self, monkeypatch):
        # a budget below one root node: the root steps search one node per
        # chunk, deeper steps several small nodes per chunk
        monkeypatch.setattr(forest_mod, "_SEARCH_CELLS", 600)
        gen = Rng(17).substream("x")
        X = gen.normal(size=(90, 16))
        y = (X[:, 2] + 0.7 * gen.normal(size=90) > 0).astype(np.float64)
        cfg = ForestConfig(n_trees=12, seed=3)
        forest = fit_classifier(X, y, cfg)
        ref = _ref_fit(X, y, cfg)
        assert [_bits(t) for t in forest.trees] == [_bits(t) for t in ref.trees]


def test_search_memory_does_not_grow_with_trees():
    # the root step of 100 trees holds 100 nodes x 8 candidates x 3000 rows;
    # searched in one block that is about 106 MB, in budgeted chunks about
    # 11 MB
    gen = Rng(5).substream("x")
    X = gen.normal(size=(3000, 64))
    y = (X[:, 0] + gen.normal(size=3000) > 0).astype(np.float64)
    rng = Rng(1)
    gens = [rng.substream("tree", t) for t in range(100)]
    rows = [g.integers(0, 3000, size=3000) for g in gens]
    cands = [np.sort(g.choice(64, size=8, replace=False)) for g in gens]
    keys, values = _rank_keys(X, y, True)
    tracemalloc.start()
    try:
        _best_splits(keys, values, y, rows, cands, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def _state(gen):
    return pickle.dumps(gen.bit_generator.state)


@settings(max_examples=150, deadline=None)
@given(d=st.one_of(st.sampled_from([64, 768, 3587, 10001]),
                   st.integers(1, 20_000)),
       every=st.booleans(), nodes=st.integers(1, 150),
       seed=st.integers(0, 2 ** 16))
def test_candidate_draws_match_choice(d, every, nodes, seed):
    # the block draws replay numpy's Generator.choice, so this pins them to
    # the installed numpy
    m = d if every else math.ceil(math.sqrt(d))
    gen, ref = Rng(seed).substream("tree", 3), Rng(seed).substream("tree", 3)
    feed = forest_mod._candidates([gen], d, m)[0]
    where = f"numpy {np.__version__}, d={d}, m={m}, seed={seed}"
    k = 0
    while True:
        before = copy.deepcopy(gen)
        got = next(feed)
        # past the nodes asked for, stop where the feed draws a new block:
        # it has then drawn for exactly the k nodes it gave
        if k >= nodes and (m == d or _state(gen) != _state(before)):
            break
        want = np.sort(ref.choice(d, m, replace=False)).tolist()
        assert got == want, f"{where}: candidates of node {k} differ"
        k += 1
    if m == d:  # nothing drawn: the generator is as it was made
        ref = Rng(seed).substream("tree", 3)
    assert (before.integers(0, 2 ** 62, size=8).tolist()
            == ref.integers(0, 2 ** 62, size=8).tolist()), \
        f"{where}: the generators part after {k} nodes"
