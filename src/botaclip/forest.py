"""Small deterministic random forest: CART trees on bootstrap samples.

Behavioral mirror of the usual library defaults (100 trees, gini with
sqrt(d) features per node for classification, variance reduction with all
features for regression, every tree on a bootstrap sample and grown until
each leaf is pure or has no boundary to split at, midpoint thresholds).
The search is exact: stable sorts, cumulative sums and impurities for every
candidate feature and boundary at once. Ties between equally good splits go
to the lowest feature index, then lowest threshold.

The trees of a forest grow in lockstep. Each tree draws from its own
substream and walks its nodes in depth-first preorder, left child first, so
it draws its candidate features at the same nodes and in the same order as
a recursive build. Each step takes the next node that needs a search from
every unfinished tree and searches them together in batched calls of a
bounded number of cells. Growing level by level would reorder the draws and
change the trees.
"""

from __future__ import annotations

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


def _best_splits(X: np.ndarray, y: np.ndarray, idxs: list, cands: list,
                 gini: bool) -> list:
    """Best (row, threshold) or None for each node of one step.

    idxs holds each node's sample rows, cands its (m,) candidate features.
    Gini nodes are searched in chunks of at most _SEARCH_CELLS cells (a node
    larger than that alone); each node's search is independent of the
    others, so the chunking changes no result. An mse chunk holds one node:
    its right-hand totals are the node's own pairwise sums, which padding
    would regroup, and its all-d candidates make padding to the chunk's
    largest node cost more than the calls it saves (a 4-tree fit on
    410 x 768, 2-vCPU box: 1.25-1.52 s one node per chunk, 2.08-2.44 s
    padded).
    """
    budget = _SEARCH_CELLS if gini else 0
    out, m = [], cands[0].size
    lo = 0
    while lo < len(idxs):
        hi, width = lo + 1, idxs[lo].size
        while (hi < len(idxs) and (hi + 1 - lo) * m
               * max(width, idxs[hi].size) <= budget):
            width = max(width, idxs[hi].size)
            hi += 1
        out += _search_block(X, y, idxs[lo:hi], np.array(cands[lo:hi]), gini)
        lo = hi
    return out


def _search_block(X: np.ndarray, y: np.ndarray, idxs: list,
                  cands: np.ndarray, gini: bool) -> list:
    """Best (row, threshold) or None for each node of one chunk.

    Every node's (m, size) block is padded with NaN to the chunk's largest
    node, with label 0 (only a gini chunk holds more than one node). A
    stable sort puts the NaN after every real value, and no
    `xs[k] < xs[k + 1]` boundary falls in it, so each node's table matches
    its own unpadded search; 0/1 labels keep every cumulative sum exact.
    Only the impurity depends on the criterion. Ties keep the first minimum
    in (candidate, position) order.
    """
    B, L = len(idxs), max(idx.size for idx in idxs)
    sizes = np.array([idx.size for idx in idxs])
    rows = np.zeros((B, L), dtype=np.intp)
    for b, idx in enumerate(idxs):
        rows[b, :idx.size] = idx
    pad = np.arange(L) >= sizes[:, None]
    Xc = X[rows[:, None, :], cands[:, :, None]]
    np.copyto(Xc, np.nan, where=pad[:, None, :])
    yr = y[rows]
    yr[pad] = 0.0
    order = np.argsort(Xc, axis=2, kind="stable")
    # gather through flat offsets: far cheaper than take_along_axis
    xs = Xc.take(order + np.arange(0, Xc.size, L).reshape(B, -1, 1))
    ys = yr.take(order + np.arange(0, B * L, L).reshape(B, 1, 1))
    del Xc, order
    boundary = xs[:, :, :-1] < xs[:, :, 1:]
    n = sizes[:, None, None].astype(np.float64)
    left_n = np.arange(1.0, L)
    right_n = n - left_n
    csum = np.cumsum(ys, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        if gini:
            # 2·p·(1 − p) per side, weighted by size, computed in place: the
            # same operations in the same order as a search of one node, so
            # bit-identical
            del ys
            pl = csum[:, :, :-1]
            pr = csum[:, :, -1:] - pl
            one_minus = np.empty_like(pr)
            for p, size in ((pl, left_n), (pr, right_n)):
                p /= size
                np.subtract(1.0, p, out=one_minus)
                p *= 2.0
                p *= one_minus
                p *= size
            weighted = np.add(pl, pr)
        else:
            # the children's summed squared errors, the right-hand totals
            # taken from the node's own pairwise sum
            left_sum = csum[:, :, :-1]
            right_sum = ys.sum(axis=2, keepdims=True) - left_sum
            csum2 = np.cumsum(ys * ys, axis=2)
            left_sse = csum2[:, :, :-1] - left_sum ** 2 / left_n
            right_sse = ((csum2[:, :, -1:] - csum2[:, :, :-1])
                         - right_sum ** 2 / right_n)
            weighted = np.add(left_sse, right_sse)
        weighted /= n
    weighted[~boundary] = np.inf
    flat = weighted.reshape(B, -1)
    best = np.argmin(flat, axis=1)
    out = []
    for b, f in enumerate(best.tolist()):
        if flat[b, f] == np.inf:
            out.append(None)
            continue
        row, k = divmod(f, L - 1)
        out.append((row, 0.5 * (xs[b, row, k] + xs[b, row, k + 1])))
    return out


def _grow(X: np.ndarray, y: np.ndarray, cfg: ForestConfig,
          gens: list, roots: list) -> list:
    """Grow every tree of a forest in lockstep; returns the root nodes.

    Each tree walks its nodes in depth-first preorder, left child first, and
    draws its candidate features from its own generator at exactly the nodes
    a recursive build would, in the same order. A step pops nodes from every
    unfinished tree until each reaches one that needs a split search (leaves
    are settled on the way), searches those nodes together, and pushes the
    children, right first.
    """
    gini = cfg.criterion == "gini"
    d = X.shape[1]
    m = math.ceil(math.sqrt(d)) if gini else d
    trees = [TreeNode() for _ in roots]
    # pending nodes per tree, next on top: (node, rows)
    stacks = [[(node, idx)] for node, idx in zip(trees, roots)]
    while True:
        step = []  # (tree, node, rows, candidates)
        for t, stack in enumerate(stacks):
            while stack:
                node, idx = stack.pop()
                yy = y[idx]
                if gini:
                    # one sum gives value and purity; with 0/1 labels the
                    # sum over the size equals np.mean bit for bit
                    ones = yy.sum()
                    node.value = float(ones / idx.size)
                    pure = ones == 0.0 or ones == idx.size
                else:
                    node.value = float(np.mean(yy))
                    pure = yy.min() == yy.max()
                if pure:  # a one-row node is pure
                    continue
                cand = np.sort(gens[t].choice(d, size=m, replace=False))
                step.append((t, node, idx, cand))
                break
        if not step:
            return trees
        found = _best_splits(X, y, [s[2] for s in step],
                             [s[3] for s in step], gini)
        for (t, node, idx, cand), f in zip(step, found):
            if f is None:
                continue
            node.feature, node.threshold = int(cand[f[0]]), f[1]
            mask = X[idx, node.feature] <= node.threshold
            node.left, node.right = TreeNode(), TreeNode()
            stacks[t].append((node.right, idx[~mask]))
            stacks[t].append((node.left, idx[mask]))


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


def _predict_tree(node: TreeNode, X: np.ndarray, idx: np.ndarray,
                  out: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.value
        return
    mask = X[idx, node.feature] <= node.threshold
    _predict_tree(node.left, X, idx[mask], out)
    _predict_tree(node.right, X, idx[~mask], out)


def predict(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf values: the class-1 fraction of a
    classifier, the mean target of a regressor."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != forest.n_features:
        raise ShapeMismatch(
            f"{X.shape[1]} features, forest was fit on {forest.n_features}")
    votes = np.empty((len(forest.trees), X.shape[0]))
    idx = np.arange(X.shape[0])
    for t, tree in enumerate(forest.trees):
        _predict_tree(tree, X, idx, votes[t])
    return votes.mean(axis=0)
