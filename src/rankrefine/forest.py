"""A bagged CART regression forest with per-query ensemble variance.

Written from scratch so the split rule, tie-breaking, and seeding are fully
specified: axis-aligned splits at midpoints between consecutive sorted
unique feature values, chosen to minimize the summed squared error of the
two children, with ties broken toward the first candidate encountered in
feature-index order. Each tree draws its bootstrap sample and any feature
subsampling from its own substream of the forest seed, so a forest can be
grown tree-by-tree in any order (or in parallel) and come out identical.

The ensemble mean is the prediction; the unbiased sample variance of the
per-tree predictions is its uncertainty, floored to keep downstream
inverse-variance arithmetic finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, Estimate
from .errors import DataError, ValidationError
from .seeding import derive_rng

FOREST_FORMAT_VERSION = 1
DEFAULT_VARIANCE_FLOOR = 1e-9


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters; the defaults grow fully deep bagged trees.

    ``features_per_split=None`` considers every feature at every split;
    ``max_depth=None`` grows until nodes are pure or too small to split.
    """

    n_trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    features_per_split: int | None = None
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 2:
            raise ValidationError(
                f"n_trees must be >= 2 for an ensemble variance, got {self.n_trees}"
            )
        if self.max_depth is not None and self.max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1 or None, got {self.max_depth}")
        if self.min_samples_split < 2:
            raise ValidationError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if self.min_samples_leaf < 1:
            raise ValidationError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValidationError(
                f"features_per_split must be >= 1 or None, got {self.features_per_split}"
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
    config: ForestConfig


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    config: ForestConfig,
    rng: np.random.Generator,
) -> tuple[int, float] | None:
    n = rows.size
    d = X.shape[1]
    if config.features_per_split is None:
        candidates = np.arange(d)
    else:
        m = min(config.features_per_split, d)
        # Sorted so the first-encountered tie-break runs in feature-index order
        # regardless of the draw order.
        candidates = np.sort(rng.choice(d, size=m, replace=False))

    best_cost = math.inf
    best: tuple[int, float] | None = None
    min_leaf = config.min_samples_leaf
    for f in candidates:
        xs_unsorted = X[rows, f]
        order = np.argsort(xs_unsorted, kind="stable")
        xs = xs_unsorted[order]
        if xs[0] == xs[-1]:
            continue
        ys = y[rows][order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        n_left = np.arange(1, n)
        n_right = n - n_left
        sse_left = csq[:-1] - csum[:-1] ** 2 / n_left
        sse_right = (csq[-1] - csq[:-1]) - (csum[-1] - csum[:-1]) ** 2 / n_right
        cost = sse_left + sse_right
        valid = (xs[:-1] < xs[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        if not np.any(valid):
            continue
        cost = np.where(valid, cost, math.inf)
        pos = int(np.argmin(cost))
        if cost[pos] < best_cost:
            thr = 0.5 * (xs[pos] + xs[pos + 1])
            if not xs[pos] < thr:
                # Adjacent doubles: the midpoint rounded onto the left value;
                # the right value still separates the two sides under "< thr".
                thr = float(xs[pos + 1])
            best_cost = float(cost[pos])
            best = (int(f), float(thr))
    return best


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    config: ForestConfig,
    rng: np.random.Generator,
) -> RegressionTree:
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
    stack: list[tuple[np.ndarray, int, int]] = [(np.arange(y.size), 0, root)]
    while stack:
        rows, depth, slot = stack.pop()
        ys = y[rows]
        splittable = (
            rows.size >= config.min_samples_split
            and (config.max_depth is None or depth < config.max_depth)
            and not np.all(ys == ys[0])
        )
        split = _best_split(X, y, rows, config, rng) if splittable else None
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
        stack.append((rows[goes_left], depth + 1, left_slot))
        stack.append((rows[~goes_left], depth + 1, right_slot))

    return RegressionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=float),
    )


def fit(train: Dataset, config: ForestConfig = ForestConfig()) -> TrainedForest:
    """Grow the forest on the training split.

    Tree t draws its bootstrap rows and split-feature subsets from the
    substream ("forest", config.seed, t), independent of every other tree.
    """
    if len(train) < 2:
        raise ValidationError(f"need at least 2 training rows, got {len(train)}")
    X = train.features
    y = train.y
    n = len(train)
    trees = []
    for t in range(config.n_trees):
        rng = derive_rng("forest", config.seed, t)
        if config.bootstrap:
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        trees.append(_grow_tree(X[rows], y[rows], config, rng))
    return TrainedForest(trees=tuple(trees), n_features=train.n_features, config=config)


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
    model: TrainedForest,
    X: np.ndarray,
    var_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble means and floored unbiased per-tree variances for many rows."""
    if not (math.isfinite(var_floor) and var_floor > 0.0):
        raise ValidationError(f"var_floor must be positive, got {var_floor!r}")
    per_tree = predict_matrix(model, X)
    means = per_tree.mean(axis=0)
    variances = np.maximum(per_tree.var(axis=0, ddof=1), var_floor)
    return means, variances


def predict_with_variance(
    model: TrainedForest,
    features: np.ndarray,
    var_floor: float = DEFAULT_VARIANCE_FLOOR,
) -> Estimate:
    """Prediction and uncertainty for a single feature vector."""
    features = np.asarray(features, dtype=float)
    if features.shape != (model.n_features,):
        raise ValidationError(
            f"features have shape {features.shape}, expected ({model.n_features},)"
        )
    means, variances = predict_with_variance_matrix(
        model, features.reshape(1, -1), var_floor
    )
    return Estimate(value=float(means[0]), variance=float(variances[0]))


def save_forest(model: TrainedForest, path: str | Path) -> None:
    """Serialize the forest as versioned JSON; floats round-trip exactly."""
    payload = {
        "format_version": FOREST_FORMAT_VERSION,
        "n_features": model.n_features,
        "config": asdict(model.config),
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
            }
            for tree in model.trees
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def load_forest(path: str | Path) -> TrainedForest:
    """Load a forest saved by ``save_forest``."""
    path = Path(path)
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    version = payload.get("format_version")
    if version != FOREST_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported forest format version {version!r}, "
            f"expected {FOREST_FORMAT_VERSION}"
        )
    try:
        config = ForestConfig(**payload["config"])
        trees = []
        for entry in payload["trees"]:
            tree = RegressionTree(
                feature=np.array(entry["feature"], dtype=np.int32),
                threshold=np.array(entry["threshold"], dtype=float),
                left=np.array(entry["left"], dtype=np.int32),
                right=np.array(entry["right"], dtype=np.int32),
                value=np.array(entry["value"], dtype=float),
            )
            lengths = {len(entry[k]) for k in ("feature", "threshold", "left", "right", "value")}
            if len(lengths) != 1:
                raise DataError(f"{path}: tree arrays have mismatched lengths")
            trees.append(tree)
        return TrainedForest(
            trees=tuple(trees),
            n_features=int(payload["n_features"]),
            config=config,
        )
    except (KeyError, TypeError, ValidationError) as exc:
        raise DataError(f"{path}: malformed forest file: {exc}") from exc
