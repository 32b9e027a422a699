"""Small deterministic random forest: CART trees on bootstrap samples.

Behavioral mirror of the usual library defaults (100 trees, gini with
sqrt(d) features per node for classification, variance reduction with all
features for regression, every tree on a bootstrap sample and grown until
each leaf is pure or has no boundary to split at, midpoint thresholds).

One call fits many forests, each a job on rows of one matrix. The call
ranks every column of the matrix once, equal values sharing a rank, and
the split search sorts those integer ranks, never the floats: a gini cell's
key is 2·rank + label, in the narrowest integer type that holds 2N for N
matrix rows, so one plain sort orders a node's block by value, and an mse
block takes a stable argsort of its ranks. The search is exact: cumulative
sums and impurities at every boundary of every candidate feature at once,
with the operations of a search of one node on the floats, so the trees are
bit-identical to it. Ties between equally good splits go to the lowest
feature index, then lowest threshold.

Every tree of every job grows in one lockstep. Each tree draws from its own
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
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericError
from .numerics import Rng


@dataclass
class ForestConfig:
    n_trees: int
    seed: int
    criterion: str = "gini"  # "gini" | "mse"
    # candidates per split search: ceil(sqrt(d)) for gini, all d for mse;
    # a class constant, not a field, that the benchmark tracer reads
    max_features = "auto"


class Job(NamedTuple):
    """One forest to fit: rows are its training rows as row indices of the
    fit's matrix, y holds a target for every matrix row (only those of rows
    are read; 0/1 for gini), cfg the forest's settings."""
    rows: np.ndarray
    y: np.ndarray
    cfg: ForestConfig


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


# (node, candidate, row) cells per batched search: a step whose nodes hold
# more is searched in chunks, so a fit's peak memory does not grow with its
# number of trees, and a chunk's arrays stay small enough for the cache (on
# desk's recorded plant and butterfly fits, 2-vCPU box, 2^15 cells ran 13 %
# faster than 2^18)
_SEARCH_CELLS = 1 << 15
# trees growing at once; the next tree starts when one is done, so a fit's
# memory does not grow with its number of jobs
_TREES_IN_FLIGHT = 256


def _rank(X: np.ndarray) -> tuple:
    """The rank table of a matrix of N rows.

    Returns ranks, (d, N + 1) in the narrowest integer type that holds 2N:
    ranks[j, i] is the dense rank of X[i, j], the count of the distinct
    values of column j below it, so equal values share a rank. Column N
    holds the padding sentinel N, above every rank. values[j, r] is the
    r-th distinct value of column j.
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
    ranks = np.empty((Xt.shape[0], n + 1), dtype)
    np.put_along_axis(ranks[:, :n], order, rank, axis=1)
    ranks[:, n] = n
    return ranks, values


def _best_splits(ranks: np.ndarray, values: np.ndarray, idxs: list,
                 tgts: list, cands: list, gini: bool) -> list:
    """Best split, as _search_block gives it, or None for each node of one
    step.

    ranks and values come from _rank; idxs holds each node's sample rows,
    tgts their targets in the same order, cands its m candidate features.
    Nodes are taken in order of size, so a chunk's nodes are alike and
    padding each to the largest costs little, and searched in chunks of at
    most _SEARCH_CELLS cells (a node larger than that alone). Each node's
    search is independent of its chunk-mates', so the chunking changes no
    result. With all d candidates an mse node of more than _SEARCH_CELLS / d
    rows is searched alone, so wide fits stay as fast as with one node per
    chunk (4 trees on 410 x 768, 2-vCPU box, median of 9: 1.87 s chunked,
    1.89 s one node per chunk).
    """
    order = sorted(range(len(idxs)), key=lambda k: idxs[k].size)
    out, m = [None] * len(idxs), len(cands[0])
    lo = 0
    while lo < len(order):
        hi = lo + 1
        while (hi < len(order) and (hi + 1 - lo) * m
               * idxs[order[hi]].size <= _SEARCH_CELLS):
            hi += 1
        chunk = order[lo:hi]
        found = _search_block(ranks, values, [idxs[k] for k in chunk],
                              [tgts[k] for k in chunk],
                              np.array([cands[k] for k in chunk]), gini)
        for k, f in zip(chunk, found):
            out[k] = f
        lo = hi
    return out


def _search_block(ranks: np.ndarray, values: np.ndarray, idxs: list,
                  tgts: list, cands: np.ndarray, gini: bool) -> list:
    """Best split or None for each node of one chunk: (candidate,
    threshold, rank of the boundary's lower value, ones on its left).

    Every node's (m, size) block of ranks is padded with the sentinel to
    the chunk's largest node, and its targets with 0. A gini key is
    2·rank + label, so a plain sort orders each block by value, and the
    labels within a tie do not matter: with 0/1 labels a boundary's count
    of ones is the same in any order of the tied cells. An mse block takes
    a stable argsort of its ranks, which is the stable argsort of its
    values, and gathers the targets through it. A boundary is a rank
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
    m, width = cands.shape[1], ranks.shape[1]
    sizes = np.array([idx.size for idx in idxs])
    fill = np.arange(L) < sizes[:, None]
    rows = np.full((B, L), width - 1, dtype=np.intp)
    rows[fill] = np.concatenate(idxs)
    tgt = np.zeros((B, L), ranks.dtype if gini else np.float64)
    tgt[fill] = np.concatenate(tgts)
    # gather through flat offsets: far cheaper than fancy or take_along_axis
    key = ranks.take(cands[:, :, None] * width + rows[:, None, :])
    if gini:
        key <<= 1
        key |= tgt[:, None, :]
        key.sort(axis=2)
        rank = key >> 1
    else:
        # the position in the low bits makes every pair unique, so a plain
        # sort of the pairs (below 2·N·L, within int64) is the stable argsort
        # of the ranks; on small nodes it is far cheaper than numpy's radix
        # sort (64 candidates x 8 rows: 6 against 27 us)
        shift = L.bit_length()
        pair = key.astype(np.int64) << shift | np.arange(L)
        pair.sort(axis=2)
        ys = tgt.take((pair & ((1 << shift) - 1))
                      + np.arange(0, B * L, L).reshape(B, 1, 1))
        rank = pair >> shift
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
        # taken from each node's own pairwise sum: numpy's sum groups a
        # row by its length, so a sum over the padding would regroup it
        row = at // L  # each boundary's (node, candidate) row
        csum = np.cumsum(ys, axis=2).ravel()
        csum2 = np.cumsum(ys * ys, axis=2)
        total = np.empty((B, m))
        lo = 0
        for size, n in itertools.groupby(sizes.tolist()):
            hi = lo + len(list(n))
            total[lo:hi] = ys[lo:hi, :, :size].sum(axis=2)
            lo = hi
        left_sum = csum[at]
        right_sum = total.ravel()[row] - left_sum
        left_sq = csum2.ravel()[at]
        left_sse = left_sq - left_sum ** 2 / left_n
        right_sse = ((csum2[np.arange(B), :, sizes - 1].ravel()[row]
                      - left_sq) - right_sum ** 2 / right_n)
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


def _candidates(d: int, m: int):
    """The maker of trees' feeds of sorted candidate features: the feed
    of a tree that draws from gen gives one list per search.

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
        every = list(range(d))
        return lambda gen: itertools.repeat(every)
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

    return feed


def fit(X: np.ndarray, jobs: list) -> list:
    """One forest per job, fit on rows of X; returns them in job order.

    The jobs of one call share a criterion. Every tree of every job grows
    in one lockstep of at most _TREES_IN_FLIGHT trees, on one rank table of
    X. Tree t of a job draws from Rng(cfg.seed).substream("tree", t): first
    its bootstrap sample of the job's rows, then its candidate features.
    Each node's rows are matrix rows in the order the bootstrap drew them;
    a child's rows are the parent's, in order, whose rank in the split
    feature is at most the boundary's: those X[rows, feature] <= threshold
    picks. A node gets its value when it is made, and only a node that
    needs a search is pushed on its tree's stack. A gini node's value and
    purity come from its size and its count of ones, which the parent's
    search gives. Each step pops the next node of every growing tree,
    searches them together, and pushes the children, right first.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise NumericError("forest inputs hold a NaN or inf")
    n_rows, d = X.shape
    jobs = [Job(np.asarray(rows), np.asarray(y, dtype=np.float64), cfg)
            for rows, y, cfg in jobs]
    criteria = {cfg.criterion for _, _, cfg in jobs}
    if len(criteria) > 1 or not criteria <= {"gini", "mse"}:
        raise ValueError("the jobs of one fit share one criterion, gini or "
                         f"mse, not {sorted(criteria)}")
    gini = criteria == {"gini"}
    for rows, y, cfg in jobs:
        if cfg.n_trees < 1:
            raise ValueError("a forest needs at least one tree")
        if rows.size == 0 or d == 0:
            raise DataError("cannot fit on an empty dataset")
        if y.shape != (n_rows,):
            raise DataError("a job's targets must hold one per matrix row")
        if not np.isfinite(y[rows]).all():
            raise NumericError("forest inputs hold a NaN or inf")
        if gini and not np.isin(y[rows], (0, 1)).all():
            raise ValueError("labels must be binary 0/1")
    ranks, values = _rank(X)
    forests = [Forest(n_features=d) for _ in jobs]
    pending = ((forest.trees, job, t) for forest, job in zip(forests, jobs)
               for t in range(job.cfg.n_trees))
    new_feed = _candidates(d, math.ceil(math.sqrt(d)) if gini else d)

    def settle(stack, node, idx, tgt, keep, ones):
        """Sets the value of the node of rows idx[keep], whose targets
        are tgt[keep] and, for gini, hold `ones` ones; pushes the node if
        it needs a search."""
        rows = idx[keep]
        if gini:  # with 0/1 labels ones / size is np.mean bit for bit
            node.value = ones / rows.size
            if 0 < ones < rows.size:
                stack.append((node, rows, tgt[keep], ones))
            return
        tgt = tgt[keep]
        node.value = float(np.mean(tgt))
        if tgt.min() != tgt.max():  # a one-row node is pure
            stack.append((node, rows, tgt, 0))

    # growing trees: (stack of (node, rows, targets, ones), candidate feed)
    live = []
    while True:
        while len(live) < _TREES_IN_FLIGHT:
            start = next(pending, None)
            if start is None:
                break
            trees, (rows, y, cfg), t = start
            gen = Rng(cfg.seed).substream("tree", t)
            idx = rows[gen.integers(0, rows.size, size=rows.size)]
            tgt = y[idx]
            trees.append(TreeNode())
            stack = []
            settle(stack, trees[-1], idx, tgt, slice(None),
                   int(tgt.sum()) if gini else 0)
            if stack:
                live.append((stack, new_feed(gen)))
        if not live:
            return forests
        step = [(stack, *stack.pop()) for stack, _ in live]
        cands = [next(feed) for _, feed in live]
        found = _best_splits(ranks, values, [s[2] for s in step],
                             [s[3] for s in step], cands, gini)
        for (stack, node, idx, tgt, ones), cand, f in zip(step, cands, found):
            if f is None:
                continue
            c, node.threshold, rank, left_ones = f
            node.feature = int(cand[c])
            mask = ranks[node.feature].take(idx) <= rank
            node.left, node.right = TreeNode(), TreeNode()
            settle(stack, node.right, idx, tgt, ~mask, ones - left_ones)
            settle(stack, node.left, idx, tgt, mask, left_ones)
        live = [tree for tree in live if tree[0]]


def predict(forest: Forest, X: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf values: the class-1 fraction of a
    classifier, the mean target of a regressor. Each tree is walked with a
    stack of (node, rows) pairs, each split parting its rows by
    X[rows, feature] <= threshold."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != forest.n_features:
        raise DataError(
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
