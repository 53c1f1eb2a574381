"""Rank-based value estimation from pairwise comparisons.

A query's unknown value is estimated by maximum likelihood under a
Bradley-Terry model: each comparison against a reference with known label
y_i is a Bernoulli draw whose success probability is sigmoid(y - y_i).
The negative log-likelihood is strictly convex in the candidate value, so
the estimate is the unique root of its monotone derivative, and the local
curvature (Fisher information) supplies a variance for the estimate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import ComparisonSet
from .errors import ValidationError

logger = logging.getLogger(__name__)

# Below this total curvature the Fisher information is treated as underflowed
# and the variance is capped instead of inverted.
CURVATURE_UNDERFLOW = 1e-300
VARIANCE_CAP = 1e12
# The solve stops once the NLL derivative is within TOLERANCE of zero, or
# after MAX_ITERATIONS bisection steps.
TOLERANCE = 1e-8
MAX_ITERATIONS = 200
# The search domain is the label range widened by DOMAIN_MARGIN times its
# width (a width of 1 is used when all labels coincide), so the estimate can
# land outside the observed labels but not arbitrarily far.
DOMAIN_MARGIN = 1.0


@dataclass(frozen=True)
class RankEstimate:
    """Likelihood estimate of a query's value from its comparisons.

    ``clamped`` is True when the unconstrained optimum lies outside the
    search domain and the estimate sits on a domain boundary; this happens
    exactly when every comparison points the same way.
    """

    value: float
    variance: float
    clamped: bool


def _require_nonempty(comparisons: ComparisonSet) -> None:
    if comparisons.is_empty:
        raise ValidationError("at least one comparison is required")


def bt_nll(candidate: float, comparisons: ComparisonSet) -> float:
    """Bradley-Terry negative log-likelihood of a candidate value.

    Computed via log1p(exp(.)) in the stable orientation, so candidates far
    outside the label range give large finite values rather than overflow.
    """
    _require_nonempty(comparisons)
    if not math.isfinite(candidate):
        raise ValidationError(f"candidate must be finite, got {candidate!r}")
    below = candidate - comparisons.below_labels
    above = candidate - comparisons.above_labels
    # -log sigmoid(z) == logaddexp(0, -z); -log(1 - sigmoid(z)) == logaddexp(0, z)
    total = float(np.sum(np.logaddexp(0.0, -below)) + np.sum(np.logaddexp(0.0, above)))
    return total


def _nll_derivative(candidate: float, comparisons: ComparisonSet) -> float:
    # d/dy of bt_nll; strictly increasing in the candidate, so the NLL is
    # strictly convex and has a unique minimizer.
    below = expit(comparisons.below_labels - candidate)
    above = expit(candidate - comparisons.above_labels)
    return float(np.sum(above) - np.sum(below))


def search_domain(comparisons: ComparisonSet) -> tuple[float, float]:
    """The closed interval the solver searches over."""
    labels = comparisons.all_labels()
    lo = float(np.min(labels))
    hi = float(np.max(labels))
    width = hi - lo
    if width == 0.0:
        width = 1.0
    return lo - DOMAIN_MARGIN * width, hi + DOMAIN_MARGIN * width


def solve_rank_estimate(comparisons: ComparisonSet) -> RankEstimate:
    """Minimize the comparison NLL over the search domain.

    Bisection on the monotone derivative, run until the derivative magnitude
    falls below ``TOLERANCE`` or the bracket collapses. When every
    comparison points one way the minimum sits at a domain boundary and the
    estimate is returned with ``clamped=True``.
    """
    _require_nonempty(comparisons)
    lo, hi = search_domain(comparisons)
    d_lo = _nll_derivative(lo, comparisons)
    d_hi = _nll_derivative(hi, comparisons)

    if d_lo >= 0.0:
        # NLL is nondecreasing on the whole domain: minimum at the left edge.
        value = lo
        clamped = d_lo > TOLERANCE
    elif d_hi <= 0.0:
        value = hi
        clamped = d_hi < -TOLERANCE
    else:
        value = 0.5 * (lo + hi)
        clamped = False
        for _ in range(MAX_ITERATIONS):
            d_mid = _nll_derivative(value, comparisons)
            if abs(d_mid) <= TOLERANCE:
                break
            if d_mid < 0.0:
                lo = value
            else:
                hi = value
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                # Bracket has collapsed to adjacent doubles.
                value = mid
                break
            value = mid

    return RankEstimate(
        value=value, variance=fisher_variance(value, comparisons), clamped=clamped
    )


def fisher_variance(solution: float, comparisons: ComparisonSet) -> float:
    """Inverse observed Fisher information at the solution.

    The information is the sum of sigmoid(d)*(1 - sigmoid(d)) over all
    comparison gaps d = solution - label. When every gap is saturated the
    sum underflows; the variance is then capped at ``VARIANCE_CAP`` and the
    event is logged rather than raising.
    """
    _require_nonempty(comparisons)
    if not math.isfinite(solution):
        raise ValidationError(f"solution must be finite, got {solution!r}")
    gaps = solution - comparisons.all_labels()
    # sigmoid(d) * (1 - sigmoid(d)) == sigmoid(d) * sigmoid(-d), computed
    # without cancellation.
    information = float(np.sum(expit(gaps) * expit(-gaps)))
    if information < CURVATURE_UNDERFLOW:
        logger.warning(
            "fisher information underflowed (all %d comparison gaps saturated); "
            "capping variance at %g",
            len(comparisons),
            VARIANCE_CAP,
        )
        return VARIANCE_CAP
    return min(1.0 / information, VARIANCE_CAP)
