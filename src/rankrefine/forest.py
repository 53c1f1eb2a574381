"""A bagged CART regression forest with per-query ensemble variance.

Written from scratch so the split rule, tie-breaking, and seeding are fully
specified: axis-aligned splits at midpoints between consecutive sorted
unique feature values, chosen over every feature to minimize the summed
squared error of the two children, with ties broken toward the first
candidate encountered in feature-index order. Trees are fully deep: a node
splits unless its labels are all equal or every feature is constant on it,
and a leaf holds ``np.mean`` of its labels. Each tree draws its bootstrap
sample from its own substream of the forest seed, so a tree does not depend
on how many others grow beside it.

All trees grow together, one depth level at a time. The nodes of a level
that need a split are sorted by size and searched in blocks of at most
``_BLOCK_ELEMENTS`` padded feature values. In a block each node's rows are
padded to the largest node's count with +inf features; every feature column
is stably sorted, and column cumsums of the labels and their squares (each
the sequential sum a per-feature loop takes) give both children's squared
error at every gap. Gaps between equal values and gaps into the padding are
no candidates. The argmin over each node's (feature, gap) costs reads them
feature by feature, which keeps the tie rule. A cost that is not finite
means the label sums overflowed float64 and raises ``NumericError``.
Children keep their parent's row order. Each tree numbers its nodes
breadth-first, so the i-th split node's children are nodes 2i + 1 (left) and
2i + 2: they are derived from ``feature``, not stored.

Prediction walks many trees' rows at once, in blocks under the same budget,
over the trees' concatenated node arrays. The ensemble mean is the
prediction; the unbiased sample variance of the per-tree predictions is its
uncertainty, floored at ``VARIANCE_FLOOR`` to keep downstream
inverse-variance arithmetic finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import NumericError, ValidationError
from .seeding import derive_rng

VARIANCE_FLOOR = 1e-9

# Elements per block: padded feature values (nodes x rows x features) in a
# split search, (tree, row) pairs in a prediction walk. Bounds the working
# memory of both whatever the forest's or the input's size.
_BLOCK_ELEMENTS = 4096


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """One CART tree as parallel node arrays; ``feature == -1`` marks a leaf.

    Nodes are numbered breadth-first: the i-th split node's children are
    nodes 2i + 1 (left) and 2i + 2.
    """

    feature: np.ndarray
    threshold: np.ndarray
    value: np.ndarray


@dataclass(frozen=True, eq=False)
class TrainedForest:
    trees: tuple[RegressionTree, ...]
    n_features: int


def _best_splits(
    X: np.ndarray, y: np.ndarray, rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best (feature, threshold) of each node of one block; feature -1 where none exists.

    Node i holds ``rows[starts[i]:starts[i] + sizes[i]]``, at least two rows.
    """
    width = int(sizes.max())
    real = np.arange(width) < sizes[:, None]
    at = rows[np.where(real, starts[:, None] + np.arange(width), 0)]
    x = np.where(real[:, None, :], X[at].transpose(0, 2, 1), math.inf)
    order = np.argsort(x, axis=2, kind="stable")
    xs = np.take_along_axis(x, order, axis=2)
    ys = np.take_along_axis(np.where(real, y[at], 0.0)[:, None, :], order, axis=2)
    node = np.arange(sizes.size)
    n_left = np.arange(1, width)
    n_right = sizes[:, None, None] - n_left
    gap = (xs[..., :-1] < xs[..., 1:]) & (n_right > 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        csum = np.cumsum(ys, axis=2)
        csq = np.cumsum(ys * ys, axis=2)
        total_sum = csum[node, :, sizes - 1][:, :, None]
        total_sq = csq[node, :, sizes - 1][:, :, None]
        sse_left = csq[..., :-1] - csum[..., :-1] ** 2 / n_left
        sse_right = (total_sq - csq[..., :-1]) - (total_sum - csum[..., :-1]) ** 2 / n_right
        cost = sse_left + sse_right
    if not np.all(np.isfinite(cost[gap])):
        raise NumericError("split costs overflow float64: the labels are too large to square")
    cost = np.where(gap, cost, math.inf).reshape(sizes.size, -1)
    best = np.argmin(cost, axis=1)
    feature, pos = np.divmod(best, width - 1)
    lo = xs[node, feature, pos]
    hi = xs[node, feature, pos + 1]
    with np.errstate(over="ignore"):
        threshold = 0.5 * (lo + hi)
    # Adjacent doubles (the midpoint rounded onto the left value) or a sum
    # past the float64 maximum: the right value still separates the two
    # sides under "< threshold".
    threshold = np.where((lo < threshold) & (threshold < math.inf), threshold, hi)
    found = cost[node, best] < math.inf
    return np.where(found, feature, -1), np.where(found, threshold, 0.0)


def _search(
    X: np.ndarray, y: np.ndarray, rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_best_splits`` of every node, in blocks of similar sizes under the element budget."""
    feature = np.empty(sizes.size, dtype=np.int64)
    threshold = np.empty(sizes.size)
    order = np.argsort(sizes, kind="stable")
    per_node = sizes[order] * X.shape[1]
    i = 0
    while i < order.size:
        # The block order[i:j] pads every node to its last, largest one.
        padded = np.arange(1, order.size - i + 1) * per_node[i:]
        j = i + max(1, int(np.searchsorted(padded, _BLOCK_ELEMENTS, side="right")))
        block = order[i:j]
        feature[block], threshold[block] = _best_splits(X, y, rows, starts[block], sizes[block])
        i = j
    return feature, threshold


def _grow_forest(
    X: np.ndarray, y: np.ndarray, samples: list[np.ndarray]
) -> tuple[RegressionTree, ...]:
    """One tree per bootstrap sample of row indices, all grown a depth level at a time."""
    rows = np.concatenate(samples)
    sizes = np.array([s.size for s in samples])
    tree = np.arange(len(samples))
    # Per level, in node order: tree, split feature (-1 at a leaf), threshold.
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    leaf_rows: list[np.ndarray] = []
    leaf_sizes: list[np.ndarray] = []
    while sizes.size:
        starts = np.cumsum(sizes) - sizes
        labels = y[rows]
        mixed = np.logical_or.reduceat(labels != np.repeat(labels[starts], sizes), starts)
        feature = np.full(sizes.size, -1, dtype=np.int64)
        threshold = np.zeros(sizes.size)
        open_ = np.flatnonzero(mixed)
        if open_.size:
            feature[open_], threshold[open_] = _search(X, y, rows, starts[open_], sizes[open_])
        levels.append((tree, feature, threshold))
        split = feature >= 0
        in_split = np.repeat(split, sizes)
        leaf_rows.append(rows[~in_split])
        leaf_sizes.append(sizes[~split])
        # Children of the k-th split node are nodes 2k (left) and 2k + 1 of
        # the next level; a stable sort keeps each child's rows in order.
        rows = rows[in_split]
        counts = sizes[split]
        parent = np.repeat(np.arange(counts.size), counts)
        goes_left = X[rows, feature[split][parent]] < threshold[split][parent]
        child = 2 * parent + ~goes_left
        rows = rows[np.argsort(child, kind="stable")]
        sizes = np.bincount(child, minlength=2 * counts.size)
        tree = np.repeat(tree[split], 2)

    tree, feature, threshold = (np.concatenate(parts) for parts in zip(*levels))
    value = np.zeros(feature.size)
    value[feature < 0] = _leaf_means(y, np.concatenate(leaf_rows), np.concatenate(leaf_sizes))
    # A stable sort by tree gives each tree its nodes breadth-first.
    order = np.argsort(tree, kind="stable")
    first = np.cumsum(np.bincount(tree))[:-1]
    arrays = (feature.astype(np.int32), threshold, value)
    per_tree = zip(*(np.split(array[order], first) for array in arrays))
    return tuple(RegressionTree(*parts) for parts in per_tree)


def _leaf_means(y: np.ndarray, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``np.mean`` of each leaf's labels in row order.

    Leaves of one size share one row-wise mean, which adds each row as
    ``np.mean`` adds it alone.
    """
    means = np.empty(sizes.size)
    starts = np.cumsum(sizes) - sizes
    for size in np.unique(sizes):
        which = np.flatnonzero(sizes == size)
        means[which] = y[rows[starts[which, None] + np.arange(size)]].mean(axis=1)
    return means


def fit(train: Dataset, *, n_trees: int = 100, seed: int = 0) -> TrainedForest:
    """Grow a forest of ``n_trees`` fully deep bagged trees on the training split.

    Tree t draws its bootstrap rows from the substream ("forest", seed, t),
    independent of every other tree. Raises NumericError when a node's label
    sums overflow float64.
    """
    if n_trees < 2:
        raise ValidationError(f"n_trees must be >= 2 for an ensemble variance, got {n_trees}")
    if len(train) < 2:
        raise ValidationError(f"need at least 2 training rows, got {len(train)}")
    n = len(train)
    samples = [derive_rng("forest", seed, t).integers(0, n, size=n) for t in range(n_trees)]
    return TrainedForest(
        trees=_grow_forest(train.features, train.y, samples), n_features=train.n_features
    )


def _check_matrix(model: TrainedForest, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValidationError(
            f"features have shape {X.shape}, expected (n, {model.n_features})"
        )
    if not np.all(np.isfinite(X)):
        raise ValidationError("features contain non-finite values")
    return X


def predict_matrix(model: TrainedForest, X: np.ndarray) -> np.ndarray:
    """Per-tree predictions, shape (n_trees, n_rows); a tree whose children do not fit raises."""
    X = _check_matrix(model, X)
    # Every tree's node arrays end to end. A split node's left child is
    # 1 + 2 * (split nodes before it in its tree), as an index into them.
    sizes = np.array([tree.feature.size for tree in model.trees])
    if not sizes.all():
        raise ValidationError(f"tree {np.argmin(sizes)}: has no nodes")
    ends = np.cumsum(sizes)
    roots = ends - sizes
    tree_of = np.repeat(np.arange(sizes.size), sizes)
    feature, threshold, value = (
        np.concatenate([getattr(tree, name) for tree in model.trees])
        for name in ("feature", "threshold", "value")
    )
    split = feature >= 0
    before = np.cumsum(split) - split
    left = roots[tree_of] + 1 + 2 * (before - before[roots][tree_of])
    # Children that follow their parent make every walk end.
    bad = split & ((left <= np.arange(feature.size)) | (left + 1 >= ends[tree_of]))
    if bad.any():
        raise ValidationError(f"tree {tree_of[bad.argmax()]}: a child index is out of range")
    bad = feature >= X.shape[1]
    if bad.any():
        raise ValidationError(f"tree {tree_of[bad.argmax()]}: a split feature is out of range")
    n_rows = X.shape[0]
    out = np.empty((roots.size, n_rows))
    per_block = max(1, _BLOCK_ELEMENTS // max(n_rows, 1))
    for first in range(0, roots.size, per_block):
        # Position i of the block walks row i % n_rows down tree first + i // n_rows.
        block = roots[first : first + per_block]
        node = np.repeat(block, n_rows)
        walking = np.flatnonzero(split[node])
        while walking.size:
            at = node[walking]
            goes_left = X[walking % n_rows, feature[at]] < threshold[at]
            at = left[at] + ~goes_left
            node[walking] = at
            walking = walking[split[at]]
        out[first : first + per_block] = value[node].reshape(block.size, n_rows)
    return out


def predict_with_variance_matrix(
    model: TrainedForest, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble means and floored unbiased per-tree variances for many rows."""
    per_tree = predict_matrix(model, X)
    means = per_tree.mean(axis=0)
    variances = np.maximum(per_tree.var(axis=0, ddof=1), VARIANCE_FLOOR)
    return means, variances
