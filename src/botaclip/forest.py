"""Small deterministic random forest: CART trees on bootstrap samples.

Behavioral mirror of the usual library defaults (100 trees, gini with
sqrt(d) features per node for classification, variance reduction with all
features for regression, unlimited depth, midpoint thresholds). Each node
runs one vectorized exact search over its block of candidate features:
stable sorts, cumulative sums and impurities for every feature and boundary
at once. Ties between equally good splits go to the lowest feature index,
then lowest threshold. Per-tree substreams make fitting reproducible and
parallelizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyData, ShapeMismatch
from .numerics import Rng


@dataclass
class ForestConfig:
    n_trees: int = 100
    criterion: str = "gini"          # "gini" | "mse"
    max_features: str | int = "auto"  # sqrt(d) for gini, d for mse
    bootstrap: bool = True
    min_samples_split: int = 2
    max_depth: int | None = None
    seed: int = 0


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
    kind: str = "classifier"


def _n_candidate_features(cfg: ForestConfig, d: int) -> int:
    if isinstance(cfg.max_features, int):
        return max(1, min(cfg.max_features, d))
    if cfg.max_features == "auto":
        return math.ceil(math.sqrt(d)) if cfg.criterion == "gini" else d
    if cfg.max_features == "sqrt":
        return math.ceil(math.sqrt(d))
    if cfg.max_features == "all":
        return d
    raise ValueError(f"bad max_features {cfg.max_features!r}")


def _best_split(Xc: np.ndarray, y: np.ndarray, criterion: str):
    """Best (row, threshold) over a (candidates, samples) block, or None.

    Each row is one candidate feature at the node. The weighted child
    impurity is computed for every row and boundary at once; the flat argmin
    over the feature-major table keeps the lowest row, then the lowest
    threshold, among equally good splits.
    """
    order = np.argsort(Xc, axis=1, kind="stable")
    xs = np.take_along_axis(Xc, order, axis=1)
    ys = y[order]
    boundary = xs[:, :-1] < xs[:, 1:]
    if not boundary.any():
        return None
    n = xs.shape[1]
    left_n = np.arange(1.0, n)
    right_n = n - left_n
    left_sum = np.cumsum(ys, axis=1)[:, :-1]
    right_sum = ys.sum(axis=1, keepdims=True) - left_sum
    if criterion == "gini":
        pl = left_sum / left_n
        pr = right_sum / right_n
        gini_l = 2.0 * pl * (1.0 - pl)
        gini_r = 2.0 * pr * (1.0 - pr)
        weighted = (left_n * gini_l + right_n * gini_r) / n
    else:
        csum2 = np.cumsum(ys * ys, axis=1)
        left_sse = csum2[:, :-1] - left_sum ** 2 / left_n
        right_sse = (csum2[:, -1:] - csum2[:, :-1]) - right_sum ** 2 / right_n
        weighted = (left_sse + right_sse) / n
    weighted[~boundary] = np.inf
    row, k = divmod(int(np.argmin(weighted)), n - 1)
    return row, 0.5 * (xs[row, k] + xs[row, k + 1])


def _build_tree(X: np.ndarray, y: np.ndarray, idx: np.ndarray,
                cfg: ForestConfig, gen: np.random.Generator,
                depth: int) -> TreeNode:
    yy = y[idx]
    node = TreeNode(value=float(np.mean(yy)))
    if (yy.min() == yy.max() or idx.size < cfg.min_samples_split
            or (cfg.max_depth is not None and depth >= cfg.max_depth)):
        return node

    d = X.shape[1]
    m = _n_candidate_features(cfg, d)
    candidates = np.sort(gen.choice(d, size=m, replace=False))
    best = _best_split(X[idx[None, :], candidates[:, None]], yy,
                       cfg.criterion)
    if best is None:
        return node
    row, node.threshold = best
    node.feature = int(candidates[row])
    mask = X[idx, node.feature] <= node.threshold
    node.left = _build_tree(X, y, idx[mask], cfg, gen, depth + 1)
    node.right = _build_tree(X, y, idx[~mask], cfg, gen, depth + 1)
    return node


def _fit(X: np.ndarray, y: np.ndarray, cfg: ForestConfig, kind: str) -> Forest:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.size == 0 or y.size == 0:
        raise EmptyData("cannot fit on an empty dataset")
    if X.shape[0] != y.shape[0]:
        raise ShapeMismatch("X rows and y length differ")
    rng = Rng(cfg.seed)
    forest = Forest(n_features=X.shape[1], kind=kind)
    n = X.shape[0]
    for t in range(cfg.n_trees):
        gen = rng.substream("tree", t)
        idx = gen.integers(0, n, size=n) if cfg.bootstrap else np.arange(n)
        forest.trees.append(_build_tree(X, y, np.asarray(idx), cfg, gen, 0))
    return forest


def fit_classifier(X: np.ndarray, y: np.ndarray,
                   cfg: ForestConfig | None = None) -> Forest:
    """Binary classifier; y must be 0/1."""
    cfg = cfg or ForestConfig()
    if cfg.criterion != "gini":
        raise ValueError("classifier requires the gini criterion")
    y = np.asarray(y)
    if y.size and not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be binary 0/1")
    return _fit(X, y, cfg, "classifier")


def fit_regressor(X: np.ndarray, y: np.ndarray,
                  cfg: ForestConfig | None = None) -> Forest:
    cfg = cfg or ForestConfig(criterion="mse")
    if cfg.criterion != "mse":
        raise ValueError("regressor requires the mse criterion")
    return _fit(X, y, cfg, "regressor")


def _predict_tree(node: TreeNode, X: np.ndarray, idx: np.ndarray,
                  out: np.ndarray) -> None:
    if node.is_leaf:
        out[idx] = node.value
        return
    mask = X[idx, node.feature] <= node.threshold
    _predict_tree(node.left, X, idx[mask], out)
    _predict_tree(node.right, X, idx[~mask], out)


def _tree_values(forest: Forest, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != forest.n_features:
        raise ShapeMismatch(
            f"{X.shape[1]} features, forest was fit on {forest.n_features}")
    votes = np.empty((len(forest.trees), X.shape[0]))
    idx = np.arange(X.shape[0])
    for t, tree in enumerate(forest.trees):
        _predict_tree(tree, X, idx, votes[t])
    return votes


def predict_proba(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf class-1 fraction."""
    return _tree_values(forest, X).mean(axis=0)


def predict(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf mean target."""
    return _tree_values(forest, X).mean(axis=0)
