"""Alternative ways to refine predictions, used as comparison points.

Both refiners work on arrays, one entry per query. Projection treats the
comparisons as hard order constraints and snaps each prediction into the
interval they permit. Regression by re-ranking ignores comparisons entirely
and smooths each prediction toward its nearest training neighbors' predictions.
"""

from __future__ import annotations

import numpy as np

from .core import ComparisonSet, Dataset, _require
from .errors import ValidationError


def feasible_bounds(comparisons: list[ComparisonSet]) -> tuple[np.ndarray, np.ndarray]:
    """Each set's label interval consistent with every comparison taken as exact.

    ``lower`` is the highest label below the query and ``upper`` the lowest
    label above it; an empty side is -inf or +inf. An inconsistent set (some
    reference ranked below the query carries a higher label than one ranked
    above it) yields ``lower > upper``.
    """
    lower = np.array([np.maximum.reduce(c.below_labels, initial=-np.inf) for c in comparisons])
    upper = np.array([np.minimum.reduce(c.above_labels, initial=np.inf) for c in comparisons])
    return lower, upper


def projection_refine(values: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Clamp each prediction into its feasible interval ``[lower, upper]``.

    Predictions already inside the interval pass through unchanged; an empty
    comparison set's (-inf, inf) constrains nothing. Where the interval is
    inconsistent there is nothing to project onto, so the midpoint of the
    crossed bounds is returned as the least-commitment fallback.
    """
    values = np.array(values, dtype=float)
    _require(np.isfinite(values), values, "prediction must be finite")
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    # Both sides unbounded gives -inf + inf = nan here, which np.select discards.
    with np.errstate(invalid="ignore"):
        midpoint = 0.5 * (lower + upper)
    # The first true condition wins, which is min(max(y, lower), upper) with
    # Python's tie rule, so even a signed zero comes out as the scalar clamp's.
    conditions = [lower > upper, lower > values, upper < values]
    return np.select(conditions, [midpoint, lower, upper], values)


def rbr_refine(
    query_features: np.ndarray,
    query_preds: np.ndarray,
    train: Dataset,
    train_preds: np.ndarray,
    k: int,
) -> np.ndarray:
    """Smooth each prediction toward its k nearest training neighbors' predictions.

    Row i of ``query_features`` belongs to ``query_preds[i]``. Its refined
    value is the weighted mean of that prediction (weight 1) and the model's
    predictions for the k training rows closest to it in Euclidean feature
    distance d, each weighted 1 / (1 + d). Neighbor ties at the cutoff are
    broken by training-row order. ``k=0`` returns the predictions unchanged.
    """
    query_preds = np.array(query_preds, dtype=float)
    _require(np.isfinite(query_preds), query_preds, "prediction must be finite")
    if not 0 <= k <= len(train):
        raise ValidationError(f"k must lie in [0, {len(train)}], the training row count; got {k}")
    if k == 0:
        return query_preds
    queries = np.asarray(query_features, dtype=float)
    preds = np.asarray(train_preds, dtype=float)
    for name, array, shape in (
        ("query_features", queries, (query_preds.size, train.n_features)),
        ("train_preds", preds, (len(train),)),
    ):
        if array.shape != shape:
            raise ValidationError(f"{name} has shape {array.shape}, expected {shape}")
    # Every sum below reduces contiguous rows along the last axis, so each
    # query's sums add in the order a one-query 1-d sum would.
    distances = np.sqrt(np.sum((train.features - queries[:, None, :]) ** 2, axis=2))
    nearest = np.argsort(distances, axis=1, kind="stable")[:, :k]
    weights = 1.0 / (1.0 + np.take_along_axis(distances, nearest, axis=1))
    numerator = query_preds + np.sum(weights * preds[nearest], axis=1)
    denominator = 1.0 + np.sum(weights, axis=1)
    return numerator / denominator
