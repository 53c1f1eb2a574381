"""Rank-based value estimation from pairwise comparisons.

A query's unknown value is estimated by maximum likelihood under a
Bradley-Terry model: each comparison against a reference with known label
y_i is a Bernoulli draw whose success probability is sigmoid(y - y_i).
The negative log-likelihood is strictly convex in the candidate value, so
the estimate is the unique root of its monotone derivative, and the local
curvature (Fisher information) supplies a variance for the estimate.

The derivative's sigmoids are taken as sigmoid(x) = (1 + tanh(x / 2)) / 2,
so one tanh per label gives the whole derivative and nothing overflows.

The root is found by bisection, stepping exactly as a loop that evaluates one
midpoint per step, but each vectorised derivative call evaluates a predicted
path: the next ``_PATH`` midpoints if the root were at a guessed point. The
first call adds the domain edges (for the clamp tests) and walks toward the
caller's ``guess``; each later call guesses the regula-falsi root of the
bracket. A call is needed again only after a step goes against its guess, so
the guess picks which points are evaluated but never a step: the estimates are
the loop's, whatever the guess.

One predictor guesses roots: Newton's method on a padded label matrix, for
every set of a chunk at once, blind to the search domain and the clamp tests.
``solve_rank_estimates`` predicts a chunk's roots together and then makes one
``solve_rank_estimate`` call per set with its root as the guess; a lone call
without a guess predicts its root as a batch of one. A guess within the
tolerance of the root keeps every step of the first path, so a set whose
bisection ends within ``_PATH`` steps takes one derivative call.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

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
# Midpoints of a predicted path per derivative call: enough for the whole
# walk of a set whose labels span a few tens of units, so that a set whose
# guess is its root needs one call. Where saturated sigmoids make regula falsi
# creep, shorter paths need markedly more calls.
_PATH = 40
# Sets whose roots solve_rank_estimates predicts together, which bounds the
# padded label matrix it holds; and the Newton steps it takes per chunk at most.
_CHUNK = 512
_NEWTON_STEPS = 40
# The search domain is the label range widened by DOMAIN_MARGIN times its
# width, so the estimate can land outside the observed labels but not
# arbitrarily far. When all labels coincide the width is 1, or one ulp of the
# label where that is larger, so that the ends never round back onto the label.
# Its ends must lie within _HALF_MAX of zero, so that no midpoint sum overflows.
DOMAIN_MARGIN = 1.0
_HALF_MAX = sys.float_info.max / 2


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
    if not len(comparisons):
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
    # so the NLL is strictly convex and has a unique minimizer. With
    # sigmoid(x) = (1 + tanh(x / 2)) / 2 and tanh odd, the above side's sum of
    # sigmoid(y - label) minus the below side's sum of sigmoid(label - y) is
    # ((n_above - n_below) + sum over all labels of tanh((y - label) / 2)) / 2.
    # Each row sum runs along one contiguous row in np.sum's pairwise order, so
    # every value is bit-identical to evaluating that candidate alone.
    gaps = np.array(candidates)[:, None] - comparisons.labels
    sums = np.add.reduce(np.tanh(gaps * 0.5), axis=1)
    n_diff = comparisons.labels.size - 2 * comparisons.n_below
    return ((sums + n_diff) * 0.5).tolist()


def search_domain(comparisons: ComparisonSet) -> tuple[float, float]:
    """The closed interval the solver searches over.

    Raises NumericError when the widened label range reaches past half the
    float64 maximum (labels near the limit, or NaN), since a bisection
    midpoint ``0.5 * (lo + hi)`` inside it could overflow.
    """
    labels = comparisons.labels
    lo_label = float(np.minimum.reduce(labels))
    hi_label = float(np.maximum.reduce(labels))
    width = hi_label - lo_label
    if width == 0.0:
        width = max(1.0, math.ulp(hi_label))
    lo = lo_label - DOMAIN_MARGIN * width
    hi = hi_label + DOMAIN_MARGIN * width
    if not (abs(lo) <= _HALF_MAX and abs(hi) <= _HALF_MAX):
        raise NumericError(
            f"label range [{lo_label!r}, {hi_label!r}] gives a search domain [{lo!r}, {hi!r}] "
            f"not within +-{_HALF_MAX!r}, so a bisection midpoint could overflow"
        )
    return lo, hi


def solve_rank_estimate(comparisons: ComparisonSet, *, guess: float | None = None) -> RankEstimate:
    """Minimize the comparison NLL over the search domain.

    Bisection on the monotone derivative, run until the derivative magnitude
    falls below ``TOLERANCE``, the bracket collapses to adjacent doubles, or
    ``MAX_ITERATIONS`` steps have run (logged as a warning). Each derivative
    call evaluates one predicted path of up to ``_PATH`` midpoints (see the
    module docstring); the first walks toward ``guess``. The guess, any float
    or NaN, only sets which points are evaluated: the steps taken and the value
    returned are those of plain bisection. When every comparison points one
    way the minimum sits at a domain boundary and the estimate is returned
    with ``clamped=True``.

    Without a guess the root is predicted as by ``solve_rank_estimates``, on a
    batch of one set: as few derivative calls, but the predictor's fixed cost
    per set, so 1,000 refine-shaped lone calls take 3.5 times as long as a batch.
    """
    _require_nonempty(comparisons)
    lo, hi = search_domain(comparisons)
    if guess is None:
        (guess,) = _predicted_roots([comparisons])
    path = _predicted_path(lo, hi, guess, min(_PATH, MAX_ITERATIONS))
    d_lo, d_hi, *derivatives = _nll_derivatives([lo, hi, *path], comparisons)

    if d_lo >= 0.0:
        # NLL is nondecreasing on the whole domain: minimum at the left edge.
        value = lo
        clamped = d_lo > TOLERANCE or comparisons.n_below == 0
    elif d_hi <= 0.0:
        value = hi
        clamped = d_hi < -TOLERANCE or comparisons.n_below == len(comparisons)
    else:
        value = _bisect(lo, hi, d_lo, d_hi, guess, path, derivatives, comparisons)
        clamped = False

    return RankEstimate(
        value=value, variance=fisher_variance(value, comparisons), clamped=clamped
    )


def solve_rank_estimates(sets: Iterable[ComparisonSet]) -> list[RankEstimate]:
    """``solve_rank_estimate`` of each set, in order, each root guessed in a batch.

    Reads ``sets`` lazily, ``_CHUNK`` sets at a time, predicts the roots of a
    chunk together, then calls ``solve_rank_estimate(cs, guess=root)`` once per
    set. Every estimate is the one a lone call returns, and a set that cannot
    be solved raises as a lone call would, after the sets before it.
    """
    estimates = []
    iterator = iter(sets)
    while chunk := list(islice(iterator, _CHUNK)):
        for cs, guess in zip(chunk, _predicted_roots(chunk)):
            estimates.append(solve_rank_estimate(cs, guess=guess))
    return estimates


def _predicted_roots(chunk: list[ComparisonSet]) -> list[float]:
    # Newton's method on every set's derivative at once, from between the
    # n_below-th smallest label and the next (where consistent comparisons put
    # the query), until a row's derivative is within half the tolerance or its
    # step is not finite or does not move. Rows are padded with +inf, whose
    # tanh((y - inf) / 2) is exactly -1 and whose slope term 1 - tanh**2 is 0,
    # so the offset adds one back per pad. A guess never moves a step.
    sizes = np.array([len(cs) for cs in chunk])
    rows = np.full((sizes.size, sizes.max(initial=1)), np.inf)
    for row, cs in zip(rows, chunk):
        row[: cs.labels.size] = cs.labels
    n_below = np.array([cs.n_below for cs in chunk])
    offset = rows.shape[1] - 2.0 * n_below
    with np.errstate(all="ignore"):
        ordered = np.sort(rows, axis=1)
        at = np.arange(sizes.size)
        below = ordered[at, np.maximum(n_below - 1, 0)]
        roots = 0.5 * (below + ordered[at, np.minimum(n_below, sizes - 1)])
        for _ in range(_NEWTON_STEPS):
            y = roots[at]
            tanh = np.tanh((y[:, None] - rows[at]) * 0.5)
            d = (np.add.reduce(tanh, axis=1) + offset[at]) * 0.5
            step = y - d / (np.add.reduce(1.0 - tanh * tanh, axis=1) * 0.25)
            moving = (np.abs(d) > 0.5 * TOLERANCE) & np.isfinite(step) & (step != y)
            at = at[moving]
            roots[at] = step[moving]
            if not at.size:
                break
    return roots.tolist()


def _bisect(
    lo: float, hi: float, d_lo: float, d_hi: float, guess: float,
    path: list[float], derivatives: list[float], comparisons: ComparisonSet,
) -> float:
    # The scalar bisection loop, fed from predicted paths. Each path starts at
    # the midpoint of the bracket it was predicted from, and its next point is
    # the next midpoint as long as each step goes the way the guess put it.
    steps = 0
    while True:
        for value, d in zip(path, derivatives):
            steps += 1
            if abs(d) <= TOLERANCE:
                return value
            if d < 0.0:
                lo, d_lo = value, d
            else:
                hi, d_hi = value, d
            if (d < 0.0) != (value < guess):
                break
        value = 0.5 * (lo + hi)
        if value == lo or value == hi:
            # Bracket has collapsed to adjacent doubles.
            return value
        if steps == MAX_ITERATIONS:
            logger.warning("bisection hit the %d-step cap; final bracket [%r, %r]", steps, lo, hi)
            return value
        guess = _predict_root(lo, hi, d_lo, d_hi)
        path = _predicted_path(lo, hi, guess, min(_PATH, MAX_ITERATIONS - steps))
        derivatives = _nll_derivatives(path, comparisons)


def _predict_root(lo: float, hi: float, d_lo: float, d_hi: float) -> float:
    # Regula falsi, weighted so no difference can overflow.
    w = d_lo / (d_lo - d_hi)
    return (1.0 - w) * lo + w * hi


def _predicted_path(lo: float, hi: float, root: float, size: int) -> list[float]:
    # The next steps from (lo, hi) if each derivative had the sign of its
    # midpoint's offset from the predicted root.
    path = []
    for _ in range(size):
        m = 0.5 * (lo + hi)
        if m == lo or m == hi:
            break
        path.append(m)
        lo, hi = (m, hi) if m < root else (lo, m)
    return path


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
    # sigmoid(d) * (1 - sigmoid(d)) == e / (1 + e)**2 with e = exp(-|d|), which
    # neither cancels nor overflows.
    e = np.exp(-np.abs(solution - comparisons.labels))
    information = float(np.add.reduce(e / (1.0 + e) ** 2))
    if information < CURVATURE_UNDERFLOW:
        logger.warning(
            "fisher information underflowed (all %d comparison gaps saturated); "
            "capping variance at %g",
            len(comparisons),
            VARIANCE_CAP,
        )
        return VARIANCE_CAP
    return min(1.0 / information, VARIANCE_CAP)
