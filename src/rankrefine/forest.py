"""A bagged CART regression forest with per-query ensemble variance.

Written from scratch so the split rule, tie-breaking, and seeding are fully
specified: axis-aligned splits at midpoints between consecutive sorted
unique feature values, chosen over every feature to minimize the summed
squared error of the two children, with ties broken toward the first
candidate encountered in feature-index order. Each node's search is one
column-wise pass: a stable sort of every feature column, column cumsums of
the labels and their squares (each the sequential sum a per-feature loop
takes), and an (n - 1) x d cost matrix whose argmin is taken over its
transpose, which reads it feature by feature and so keeps that tie rule.
Trees are fully deep: a node splits unless its labels are all equal. Each
tree draws its bootstrap sample from its own substream of the forest seed,
so a forest can be grown tree-by-tree in any order and come out identical.

The ensemble mean is the prediction; the unbiased sample variance of the
per-tree predictions is its uncertainty, floored at ``VARIANCE_FLOOR`` to
keep downstream inverse-variance arithmetic finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, Estimate
from .errors import ValidationError
from .seeding import derive_rng

VARIANCE_FLOOR = 1e-9


@dataclass(frozen=True)
class ForestConfig:
    """Size and seed of a forest of fully deep bagged trees."""

    n_trees: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 2:
            raise ValidationError(
                f"n_trees must be >= 2 for an ensemble variance, got {self.n_trees}"
            )


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """One CART tree as parallel node arrays; ``feature == -1`` marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=float)
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            f = int(self.feature[node])
            if f < 0:
                out[rows] = self.value[node]
                continue
            goes_left = X[rows, f] < self.threshold[node]
            stack.append((int(self.left[node]), rows[goes_left]))
            stack.append((int(self.right[node]), rows[~goes_left]))
        return out


@dataclass(frozen=True, eq=False)
class TrainedForest:
    trees: tuple[RegressionTree, ...]
    n_features: int


def _best_split(X: np.ndarray, y: np.ndarray, rows: np.ndarray) -> tuple[int, float] | None:
    n = rows.size
    xr = X[rows]
    order = np.argsort(xr, axis=0, kind="stable")
    xs = np.take_along_axis(xr, order, axis=0)
    ys = y[rows][order]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    sse_left = csq[:-1] - csum[:-1] ** 2 / n_left
    sse_right = (csq[-1] - csq[:-1]) - (csum[-1] - csum[:-1]) ** 2 / n_right
    cost = np.where(xs[:-1] < xs[1:], sse_left + sse_right, math.inf)
    f, pos = divmod(int(np.argmin(cost.T)), n - 1)
    if not cost[pos, f] < math.inf:
        # Every feature is constant, or the label squares overflowed.
        return None
    thr = 0.5 * (xs[pos, f] + xs[pos + 1, f])
    if not xs[pos, f] < thr:
        # Adjacent doubles: the midpoint rounded onto the left value;
        # the right value still separates the two sides under "< thr".
        thr = xs[pos + 1, f]
    return f, float(thr)


def _grow_tree(X: np.ndarray, y: np.ndarray) -> RegressionTree:
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def alloc() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = alloc()
    stack: list[tuple[np.ndarray, int]] = [(np.arange(y.size), root)]
    while stack:
        rows, slot = stack.pop()
        ys = y[rows]
        split = None if np.all(ys == ys[0]) else _best_split(X, y, rows)
        if split is None:
            value[slot] = float(np.mean(ys))
            continue
        f, thr = split
        feature[slot] = f
        threshold[slot] = thr
        left_slot = alloc()
        right_slot = alloc()
        left[slot] = left_slot
        right[slot] = right_slot
        goes_left = X[rows, f] < thr
        stack.append((rows[goes_left], left_slot))
        stack.append((rows[~goes_left], right_slot))

    return RegressionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=float),
    )


def fit(train: Dataset, config: ForestConfig = ForestConfig()) -> TrainedForest:
    """Grow the forest on the training split.

    Tree t draws its bootstrap rows from the substream
    ("forest", config.seed, t), independent of every other tree.
    """
    if len(train) < 2:
        raise ValidationError(f"need at least 2 training rows, got {len(train)}")
    X = train.features
    y = train.y
    n = len(train)
    trees = []
    for t in range(config.n_trees):
        rows = derive_rng("forest", config.seed, t).integers(0, n, size=n)
        trees.append(_grow_tree(X[rows], y[rows]))
    return TrainedForest(trees=tuple(trees), n_features=train.n_features)


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
    """Per-tree predictions, shape (n_trees, n_rows)."""
    X = _check_matrix(model, X)
    return np.stack([tree.predict(X) for tree in model.trees])


def predict_with_variance_matrix(
    model: TrainedForest, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble means and floored unbiased per-tree variances for many rows."""
    per_tree = predict_matrix(model, X)
    means = per_tree.mean(axis=0)
    variances = np.maximum(per_tree.var(axis=0, ddof=1), VARIANCE_FLOOR)
    return means, variances


def predict_with_variance(model: TrainedForest, features: np.ndarray) -> Estimate:
    """Prediction and uncertainty for a single feature vector."""
    features = np.asarray(features, dtype=float)
    if features.shape != (model.n_features,):
        raise ValidationError(
            f"features have shape {features.shape}, expected ({model.n_features},)"
        )
    means, variances = predict_with_variance_matrix(model, features.reshape(1, -1))
    return Estimate(value=float(means[0]), variance=float(variances[0]))
