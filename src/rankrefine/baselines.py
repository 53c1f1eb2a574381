"""Alternative ways to refine a prediction, used as comparison points.

Projection treats the comparisons as hard order constraints and snaps the
prediction into the interval they permit. Regression by re-ranking ignores
comparisons entirely and smooths the prediction toward the predictions of
the query's nearest training neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ComparisonSet, Dataset
from .errors import ValidationError


@dataclass(frozen=True)
class FeasibleInterval:
    """The label interval consistent with every comparison taken as exact.

    Unbounded sides are +-inf. An inconsistent comparison set (some
    reference ranked below the query carries a higher label than one ranked
    above it) yields ``lower > upper``.
    """

    lower: float
    upper: float

    @classmethod
    def from_comparisons(cls, comparisons: ComparisonSet) -> "FeasibleInterval":
        lower = (
            float(np.max(comparisons.below_labels))
            if len(comparisons.below_labels)
            else -math.inf
        )
        upper = (
            float(np.min(comparisons.above_labels))
            if len(comparisons.above_labels)
            else math.inf
        )
        return cls(lower=lower, upper=upper)

    @property
    def is_empty(self) -> bool:
        return self.lower > self.upper


def projection_refine(y_pred: float, interval: FeasibleInterval) -> float:
    """Clamp the prediction into a comparison set's feasible interval.

    Predictions already inside the interval pass through unchanged; an empty
    comparison set's (-inf, inf) constrains nothing. When the interval is
    inconsistent there is nothing to project onto, so the midpoint of the
    crossed bounds is returned as the least-commitment fallback.
    """
    if not math.isfinite(y_pred):
        raise ValidationError(f"prediction must be finite, got {y_pred!r}")
    if interval.is_empty:
        return 0.5 * (interval.lower + interval.upper)
    return min(max(y_pred, interval.lower), interval.upper)


def rbr_refine(
    query_features: np.ndarray,
    query_pred: float,
    train: Dataset,
    train_preds: np.ndarray,
    k: int,
) -> float:
    """Smooth a prediction toward its k nearest training neighbors' predictions.

    The refined value is the weighted mean of the query's own prediction
    (weight 1) and the model's predictions for the k training rows closest
    to the query in Euclidean feature distance d, each weighted 1 / (1 + d).
    Neighbor ties at the cutoff are broken by training-row order. ``k=0``
    returns the prediction unchanged.
    """
    if not math.isfinite(query_pred):
        raise ValidationError(f"prediction must be finite, got {query_pred!r}")
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    if k == 0:
        return query_pred
    if k > len(train):
        raise ValidationError(f"k={k} exceeds the {len(train)} training rows")
    query = np.asarray(query_features, dtype=float)
    if query.shape != (train.n_features,):
        raise ValidationError(
            f"query features have shape {query.shape}, expected ({train.n_features},)"
        )
    preds = np.asarray(train_preds, dtype=float)
    if preds.shape != (len(train),):
        raise ValidationError(
            f"train_preds has shape {preds.shape}, expected ({len(train)},)"
        )
    distances = np.sqrt(np.sum((train.features - query) ** 2, axis=1))
    nearest = np.argsort(distances, kind="stable")[:k]
    weights = 1.0 / (1.0 + distances[nearest])
    numerator = query_pred + float(np.sum(weights * preds[nearest]))
    denominator = 1.0 + float(np.sum(weights))
    return numerator / denominator
