"""Rank-based value estimation from pairwise comparisons.

A query's unknown value is estimated by maximum likelihood under a
Bradley-Terry model: each comparison against a reference with known label
y_i is a Bernoulli draw whose success probability is sigmoid(y - y_i).
The negative log-likelihood is strictly convex in the candidate value, so
the estimate is the unique root of its monotone derivative, and the local
curvature (Fisher information) supplies a variance for the estimate.

The root is found by bisection. Rather than one derivative evaluation per
step, each round evaluates, in one vectorised call, every midpoint the next
``_LEVELS`` steps could visit: the 2**_LEVELS - 1 nodes of a binary tree in
heap order. Walking that tree with the bisection's exit rules visits exactly
the points a one-step-at-a-time loop would, so the estimates are the same to
the bit and only the number of numpy calls shrinks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import ComparisonSet
from .errors import NumericError, ValidationError

logger = logging.getLogger(__name__)

# Below this total curvature the Fisher information is treated as underflowed
# and the variance is capped instead of inverted.
CURVATURE_UNDERFLOW = 1e-300
VARIANCE_CAP = 1e12
# The solve stops once the NLL derivative is within TOLERANCE of zero, or
# after MAX_ITERATIONS bisection steps.
TOLERANCE = 1e-8
MAX_ITERATIONS = 200
# Bisection levels evaluated per derivative call. Each level doubles the
# candidates per call but a round still advances only this many steps; on the
# benchmark's sweep and refine sets 3 and 4 levels solve equally fast and 5
# is slower.
_LEVELS = 4
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


def _nll_derivatives(candidates: list[float], comparisons: ComparisonSet) -> list[float]:
    # d/dy of bt_nll at each candidate; strictly increasing in the candidate,
    # so the NLL is strictly convex and has a unique minimizer. Each row sum
    # runs along the row's contiguous axis and adds in the same pairwise order
    # as np.sum of the 1-D row, so every value is bit-identical to evaluating
    # that candidate alone.
    c = np.array(candidates)[:, None]
    above = np.add.reduce(expit(c - comparisons.above_labels), axis=1)
    below = np.add.reduce(expit(comparisons.below_labels - c), axis=1)
    return (above - below).tolist()


def search_domain(comparisons: ComparisonSet) -> tuple[float, float]:
    """The closed interval the solver searches over.

    Raises NumericError when the widened label range is not finite (labels
    near the float64 limit, or NaN), since no bisection could run on it.
    """
    labels = comparisons.all_labels()
    lo_label = float(np.minimum.reduce(labels))
    hi_label = float(np.maximum.reduce(labels))
    width = hi_label - lo_label
    if width == 0.0:
        width = 1.0
    lo = lo_label - DOMAIN_MARGIN * width
    hi = hi_label + DOMAIN_MARGIN * width
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericError(
            f"label range [{lo_label!r}, {hi_label!r}] gives a non-finite "
            f"search domain [{lo!r}, {hi!r}]"
        )
    return lo, hi


def solve_rank_estimate(comparisons: ComparisonSet) -> RankEstimate:
    """Minimize the comparison NLL over the search domain.

    Bisection on the monotone derivative, run until the derivative magnitude
    falls below ``TOLERANCE``, the bracket collapses to adjacent doubles, or
    ``MAX_ITERATIONS`` steps have run. Each round evaluates the derivative at
    all midpoints of the next ``_LEVELS`` steps at once (see the module
    docstring); the steps taken and the value returned are those of plain
    bisection. When every comparison points one way the minimum sits at a
    domain boundary and the estimate is returned with ``clamped=True``.
    """
    _require_nonempty(comparisons)
    lo, hi = search_domain(comparisons)
    d_lo, d_hi = _nll_derivatives([lo, hi], comparisons)

    if d_lo >= 0.0:
        # NLL is nondecreasing on the whole domain: minimum at the left edge.
        value = lo
        clamped = d_lo > TOLERANCE
    elif d_hi <= 0.0:
        value = hi
        clamped = d_hi < -TOLERANCE
    else:
        value = _bisect(lo, hi, comparisons)
        clamped = False

    return RankEstimate(
        value=value, variance=fisher_variance(value, comparisons), clamped=clamped
    )


def _bisect(lo: float, hi: float, comparisons: ComparisonSet) -> float:
    steps = 0
    while steps < MAX_ITERATIONS:
        # Heap order: node i has bracket (los[i], his[i]) and midpoint
        # mids[i]; child 2i+1 is the upper half (taken when the derivative is
        # negative) and child 2i+2 the lower half. Every midpoint is
        # 0.5 * (lo + hi) of its own bracket, as in plain bisection, so the
        # walk visits exactly the points that one step at a time would.
        levels = min(_LEVELS, MAX_ITERATIONS - steps)
        los, his, mids = [lo], [hi], [0.5 * (lo + hi)]
        for i in range(2 ** (levels - 1) - 1):
            a, b, m = los[i], his[i], mids[i]
            los += (m, a)
            his += (b, m)
            mids += (0.5 * (m + b), 0.5 * (a + m))
        derivatives = _nll_derivatives(mids, comparisons)
        node = 0
        while node < len(mids):
            value = mids[node]
            if value == los[node] or value == his[node]:
                # Bracket has collapsed to adjacent doubles.
                return value
            d = derivatives[node]
            steps += 1
            if abs(d) <= TOLERANCE:
                return value
            if d < 0.0:
                lo, hi, node = value, his[node], 2 * node + 1
            else:
                lo, hi, node = los[node], value, 2 * node + 2
    return 0.5 * (lo + hi)


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
    information = float(np.add.reduce(expit(gaps) * expit(-gaps)))
    if information < CURVATURE_UNDERFLOW:
        logger.warning(
            "fisher information underflowed (all %d comparison gaps saturated); "
            "capping variance at %g",
            len(comparisons),
            VARIANCE_CAP,
        )
        return VARIANCE_CAP
    return min(1.0 / information, VARIANCE_CAP)
