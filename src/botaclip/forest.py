"""Small deterministic random forest: CART trees on bootstrap samples.

Behavioral mirror of the usual library defaults (100 trees, gini with
sqrt(d) features per node for classification, variance reduction with all
features for regression, every tree on a bootstrap sample and grown until
each leaf is pure or has no boundary to split at, midpoint thresholds).
Each fit ranks every feature column once, equal values sharing a rank, and
the split search sorts those integer ranks, never the floats: a gini cell's
key is 2·rank + label, in the narrowest integer type that holds 2n, so one
plain sort orders a node's block by value, and an mse block takes a stable
argsort of its ranks. The search is exact: cumulative sums and impurities at
every boundary of every candidate feature at once, with the operations of a
search of one node on the floats, so the trees are bit-identical to it. Ties
between equally good splits go to the lowest feature index, then lowest
threshold.

The trees of a forest grow in lockstep. Each tree draws from its own
substream and walks its nodes in depth-first preorder, left child first, so
it draws its candidate features at the same nodes and in the same order as
a recursive build. Each step takes the next node that needs a search from
every unfinished tree and searches them together in batched calls of a
bounded number of cells. Growing level by level would reorder the draws and
change the trees. A tree draws the integers of Generator.choice for several
nodes at once and replays its rule in Python (numpy's draw order, pinned by
tests/test_forest.py); with all d features as candidates it draws nothing.
A gini child's value and purity come from the counts of the parent's
search, and predict walks each tree with an explicit stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyData, NonFinite, ShapeMismatch
from .numerics import Rng


@dataclass
class ForestConfig:
    n_trees: int
    seed: int
    criterion: str = "gini"  # "gini" | "mse"
    # candidates per split search: ceil(sqrt(d)) for gini, all d for mse;
    # a class constant, not a field, that the benchmark tracer reads
    max_features = "auto"


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0  # class-1 fraction (classifier) or mean target

    @property
    def is_leaf(self):
        return self.left is None


@dataclass
class Forest:
    trees: list = field(default_factory=list)
    n_features: int = 0


# (node, candidate, row) cells per batched gini search: a step whose nodes
# hold more is searched in chunks, so a fit's peak memory does not grow with
# its number of trees
_SEARCH_CELLS = 1 << 18


def _rank_keys(X: np.ndarray, y: np.ndarray, gini: bool) -> tuple:
    """Search keys and the rank table of one fit.

    Returns keys, (d, n + 1) in the narrowest integer type that holds 2n:
    keys[j, i] is 2·rank + label of row i in feature j (label 0 for mse),
    where the dense rank counts the distinct values of column j below
    X[i, j], so equal values share a rank. Column n holds the padding
    sentinel 2n, even and above every key. values[j, r] is the r-th
    distinct value of column j.
    """
    n = X.shape[0]
    dtype = next(t for t in (np.int16, np.int32, np.int64)
                 if 2 * n <= np.iinfo(t).max)
    Xt = np.ascontiguousarray(X.T)
    # any sort will do: equal values get one rank whatever their order
    order = np.argsort(Xt, axis=1)
    xs = np.take_along_axis(Xt, order, axis=1)
    rank = np.zeros(xs.shape, dtype)
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, dtype=dtype, out=rank[:, 1:])
    values = np.zeros_like(xs)
    np.put_along_axis(values, rank, xs, axis=1)
    keys = np.empty((Xt.shape[0], n + 1), dtype)
    np.put_along_axis(keys[:, :n], order, rank, axis=1)
    keys[:, :n] *= 2
    if gini:
        keys[:, :n] += y.astype(dtype)
    keys[:, n] = 2 * n
    return keys, values


def _best_splits(keys: np.ndarray, values: np.ndarray, y: np.ndarray,
                 idxs: list, cands: list, gini: bool) -> list:
    """Best split, as _search_block gives it, or None for each node of one
    step.

    keys and values come from _rank_keys; idxs holds each node's sample
    rows, cands its m candidate features. Gini nodes are searched in
    chunks of at most _SEARCH_CELLS cells (a node larger than that alone);
    each node's search is independent of the others, so the chunking changes
    no result. An mse chunk holds one node: its right-hand totals are the
    node's own pairwise sums, which padding would regroup, and its all-d
    candidates make padding to the chunk's largest node cost more than the
    calls it saves (a 4-tree fit on 410 x 768, 2-vCPU box: 1.25-1.52 s one
    node per chunk, 2.08-2.44 s padded).
    """
    budget = _SEARCH_CELLS if gini else 0
    out, m = [], len(cands[0])
    lo = 0
    while lo < len(idxs):
        hi, width = lo + 1, idxs[lo].size
        while (hi < len(idxs) and (hi + 1 - lo) * m
               * max(width, idxs[hi].size) <= budget):
            width = max(width, idxs[hi].size)
            hi += 1
        out += _search_block(keys, values, y, idxs[lo:hi],
                             np.array(cands[lo:hi]), gini)
        lo = hi
    return out


def _search_block(keys: np.ndarray, values: np.ndarray, y: np.ndarray,
                  idxs: list, cands: np.ndarray, gini: bool) -> list:
    """Best split or None for each node of one chunk: (candidate,
    threshold, rank of the boundary's lower value, ones on its left).

    Every node's (m, size) block of keys is padded with the sentinel to the
    chunk's largest node (only a gini chunk holds more than one node) and
    sorted. A gini key is 2·rank + label, so a plain sort orders each block
    by value, and the labels within a tie do not matter: with 0/1 labels a
    boundary's count of ones is the same in any order of the tied cells.
    An mse block takes a stable argsort of its ranks, which is the stable
    argsort of its values, and gathers y through it. A boundary is a rank
    change within the node's length; the impurity is computed at the
    boundaries only, each with the operations of a search of one node, so
    bit-identical, and ties keep the first minimum in (candidate, position)
    order. The threshold is the midpoint of the two values the boundary
    separates; when one of them is a zero its sign does not matter, since
    0.5·(±0 + v) is one float. A midpoint that is not below the upper value
    (adjacent floats) or not finite gives way to the lower value, as in
    scikit-learn's splitter, so the split always parts the two sides.
    """
    B, L = len(idxs), max(idx.size for idx in idxs)
    m, width = cands.shape[1], keys.shape[1]
    sizes = np.array([idx.size for idx in idxs])
    rows = np.full((B, L), width - 1, dtype=np.intp)
    for b, idx in enumerate(idxs):
        rows[b, :idx.size] = idx
    # gather through flat offsets: far cheaper than fancy or take_along_axis
    key = keys.take(cands[:, :, None] * width + rows[:, None, :])
    if gini:
        key.sort(axis=2)
        rank = key >> 1
    else:
        # the position in the low bits makes every pair unique, so a plain
        # sort of the pairs (below 4n², within int64) is the stable argsort
        # of the keys; on small nodes it is far cheaper than numpy's radix
        # sort (64 candidates x 8 rows: 6 against 27 us)
        shift = L.bit_length()
        pair = key.astype(np.int64) << shift | np.arange(L)
        pair.sort(axis=2)
        ys = y[rows].take((pair & ((1 << shift) - 1))
                          + np.arange(0, B * L, L).reshape(B, 1, 1))
        rank = pair >> (shift + 1)
    edge = np.zeros(key.shape, dtype=bool)
    np.not_equal(rank[:, :, :-1], rank[:, :, 1:], out=edge[:, :, :-1])
    edge[np.arange(B), :, sizes - 1] = False  # the step into the padding
    counts = np.count_nonzero(edge.reshape(B, -1), axis=1)
    at = np.flatnonzero(edge)  # (node, candidate, position) order
    if at.size == 0:
        return [None] * B
    left_n = (at - at // L * L) + 1.0
    right_n = np.repeat(sizes.astype(np.float64), counts) - left_n
    if gini:
        # 2·p·(1 − p) per side, weighted by size, computed in place
        csum = np.cumsum(key & 1, axis=2, dtype=key.dtype)
        pl = csum.ravel()[at].astype(np.float64)
        pr = np.repeat(csum[:, 0, -1].astype(np.float64), counts) - pl
        one_minus = np.empty_like(pr)
        for p, size in ((pl, left_n), (pr, right_n)):
            p /= size
            np.subtract(1.0, p, out=one_minus)
            p *= 2.0
            p *= one_minus
            p *= size
        weighted = np.add(pl, pr, out=pl)
    else:
        # the children's summed squared errors, the right-hand totals
        # taken from the node's own pairwise sum
        row = at // L  # each boundary's (node, candidate) row
        csum = np.cumsum(ys, axis=2).ravel()
        csum2 = np.cumsum(ys * ys, axis=2)
        left_sum = csum[at]
        right_sum = ys.sum(axis=2).ravel()[row] - left_sum
        left_sq = csum2.ravel()[at]
        left_sse = left_sq - left_sum ** 2 / left_n
        right_sse = ((csum2[:, :, -1].ravel()[row] - left_sq)
                     - right_sum ** 2 / right_n)
        weighted = np.add(left_sse, right_sse, out=left_sse)
    left_n += right_n  # the node's size, exactly
    weighted /= left_n
    # each node's first minimum, a NaN first as np.argmin would take it
    has = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[has]
    low = np.minimum.reduceat(weighted, starts)
    hit = np.flatnonzero((weighted == np.repeat(low, counts[has]))
                         | np.isnan(weighted))
    best = at[hit[np.searchsorted(hit, starts)]]
    cand = best // L % m
    feat = cands[has, cand]
    rank = rank.ravel()
    low, high = values[feat, rank[best]], values[feat, rank[best + 1]]
    thr = 0.5 * (low + high)
    # a midpoint that rounds up onto the upper value, or overflows, would
    # send both sides of the boundary one way and the node would split
    # forever: split at the lower value instead
    thr = np.where((thr < high) & (thr > -np.inf), thr, low)
    # a gini boundary's count of ones on its left; mse nodes need none
    ones = csum.ravel()[best] if gini else np.zeros_like(best)
    out = [None] * B
    for b, *split in zip(has.tolist(), cand.tolist(), thr.tolist(),
                         rank[best].tolist(), ones.tolist()):
        out[b] = tuple(split)
    return out


def _candidates(gens: list, d: int, m: int) -> list:
    """Each tree's feed of sorted candidate features, one list per search.

    np.sort(gen.choice(d, m, replace=False)) draws Floyd's m bounded
    integers (bounds d−m+1 … d), then shuffles them with m−1 more (bounds
    m … 2). A feed draws the same integers for several nodes in one
    gen.integers call, 4 nodes at first and up to 64, and replays Floyd's
    rule in Python: a draw already taken gives way to its own bound − 1.
    So a tree's draws and its generator's later state depend on numpy's
    choice, which tests/test_forest.py pins. Draws left over when the tree
    is done change nothing, since a tree's generator feeds only its own
    bootstrap and candidates. With m == d every feature is a candidate and
    nothing is drawn.
    """
    if m == d:
        return [itertools.repeat(list(range(d)))] * len(gens)
    per = 2 * m - 1
    highs = np.tile(np.r_[d - m + 1:d + 1, m:1:-1], 64)

    def feed(gen):
        nodes = 4
        while True:
            draws = gen.integers(0, highs[:nodes * per]).tolist()
            for at in range(0, len(draws), per):
                floyd = draws[at:at + m]
                taken = set(floyd)
                if len(taken) < m:  # a draw was already taken
                    taken.clear()
                    for j, v in enumerate(floyd, d - m):
                        taken.add(j if v in taken else v)
                yield sorted(taken)
            nodes = min(2 * nodes, 64)

    return [feed(gen) for gen in gens]


def _grow(X: np.ndarray, y: np.ndarray, cfg: ForestConfig,
          gens: list, roots: list) -> list:
    """Grow every tree of a forest in lockstep; returns the root nodes.

    Each tree walks its nodes in depth-first preorder, left child first, and
    draws its candidate features from its own generator at exactly the nodes
    a recursive build would, in the same order. A node gets its value when
    it is made, and only a node that needs a search is pushed. A gini node's
    value and purity come from its size and its count of ones, which the
    parent's search gives. Each step pops the next node of every unfinished
    tree, searches them together, and pushes the children, right first. A
    child's rows are the parent's rows, in order, whose rank in the split
    feature is at most the boundary's: those X[rows, feature] <= threshold
    picks.
    """
    gini = cfg.criterion == "gini"
    d = X.shape[1]
    m = math.ceil(math.sqrt(d)) if gini else d
    keys, values = _rank_keys(X, y, gini)
    feeds = _candidates(gens, d, m)

    def settle(node, idx, ones):  # sets the value; True if it needs a search
        if gini:  # with 0/1 labels ones / size is np.mean bit for bit
            node.value = ones / idx.size
            return 0 < ones < idx.size
        yy = y[idx]
        node.value = float(np.mean(yy))
        return yy.min() != yy.max()  # a one-row node is pure

    trees = [TreeNode() for _ in roots]
    # nodes that need a search, per tree, next on top: (node, rows, ones)
    stacks = [[] for _ in roots]
    for node, idx, stack in zip(trees, roots, stacks):
        ones = int(y[idx].sum()) if gini else 0
        if settle(node, idx, ones):
            stack.append((node, idx, ones))
    while True:
        step = [(t, *stack.pop()) for t, stack in enumerate(stacks) if stack]
        if not step:
            return trees
        cands = [next(feeds[t]) for t, *_ in step]
        found = _best_splits(keys, values, y, [s[2] for s in step], cands,
                             gini)
        for (t, node, idx, ones), cand, f in zip(step, cands, found):
            if f is None:
                continue
            c, node.threshold, rank, left_ones = f
            node.feature = int(cand[c])
            mask = keys[node.feature].take(idx) <= 2 * rank + 1
            node.left, node.right = TreeNode(), TreeNode()
            for child, rows, k in ((node.right, idx[~mask], ones - left_ones),
                                   (node.left, idx[mask], left_ones)):
                if settle(child, rows, k):
                    stacks[t].append((child, rows, k))


def _fit(X: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> Forest:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if cfg.n_trees < 1:
        raise ValueError("a forest needs at least one tree")
    if X.size == 0 or y.size == 0:
        raise EmptyData("cannot fit on an empty dataset")
    if X.shape[0] != y.shape[0]:
        raise ShapeMismatch("X rows and y length differ")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise NonFinite("forest inputs hold a NaN or inf")
    rng = Rng(cfg.seed)
    n = X.shape[0]
    gens, roots = [], []
    for t in range(cfg.n_trees):
        gen = rng.substream("tree", t)
        gens.append(gen)
        roots.append(np.asarray(gen.integers(0, n, size=n)))
    return Forest(_grow(X, y, cfg, gens, roots), X.shape[1])


def fit_classifier(X: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> Forest:
    """Binary classifier; y must be 0/1."""
    if cfg.criterion != "gini":
        raise ValueError("classifier requires the gini criterion")
    y = np.asarray(y)
    if y.size and not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be binary 0/1")
    return _fit(X, y, cfg)


def fit_regressor(X: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> Forest:
    if cfg.criterion != "mse":
        raise ValueError("regressor requires the mse criterion")
    return _fit(X, y, cfg)


def predict(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf values: the class-1 fraction of a
    classifier, the mean target of a regressor. Each tree is walked with a
    stack of (node, rows) pairs, each split parting its rows by
    X[rows, feature] <= threshold."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != forest.n_features:
        raise ShapeMismatch(
            f"{X.shape[1]} features, forest was fit on {forest.n_features}")
    Xt = np.ascontiguousarray(X.T)
    votes = np.empty((len(forest.trees), X.shape[0]))
    for tree, out in zip(forest.trees, votes):
        todo = [(tree, np.arange(X.shape[0]))]
        while todo:
            node, idx = todo.pop()
            if node.is_leaf:
                out[idx] = node.value
                continue
            mask = Xt[node.feature].take(idx) <= node.threshold
            todo += ((node.right, idx[~mask]), (node.left, idx[mask]))
    return votes.mean(axis=0)
