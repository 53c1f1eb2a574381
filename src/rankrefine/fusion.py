"""Inverse-variance fusion of two independent estimates of one quantity.

Given a regressor estimate and a rank-based estimate, each with a variance,
the fused value is the precision-weighted average and the fused variance is
the inverse of the summed precisions. The fused variance never exceeds
either input variance, which is what makes post-hoc refinement safe when
the variances are honest. Helper functions cover the variance clamp used to
guard against overconfident rank variances, the rank-variance level needed
to hit a target error ratio, and the MAE of a centered Gaussian error.

``fuse`` and ``regularize_rank_variance`` work elementwise: given floats
they return floats, given equal-length arrays (one entry per query, as in
a ``core.Estimate`` of arrays) they return arrays, with the same IEEE
arithmetic either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Estimate, _require
from .errors import NumericError, ValidationError


@dataclass(frozen=True)
class FusedEstimate:
    """Precision-weighted combination of a regressor and a rank estimate.

    ``weight_reg`` and ``weight_rank`` are the convex weights applied to the
    two input values; they are reported for diagnostics and sum to one.
    Each field is a float, or an array with one entry per query when the
    inputs were arrays.
    """

    value: float | np.ndarray
    variance: float | np.ndarray
    weight_reg: float | np.ndarray
    weight_rank: float | np.ndarray


def _check_variance(variance: float | np.ndarray, which: str) -> None:
    ok = np.isfinite(variance) & (np.asarray(variance) > 0.0)
    _require(ok, variance, f"{which} variance must be finite and positive")


def fuse(reg: Estimate, rank: Estimate) -> FusedEstimate:
    """Combine two estimates by inverse-variance weighting.

    Only ``value`` and ``variance`` are read from each argument, so a
    ``RankEstimate`` fuses as it is. The operation is symmetric: swapping
    the arguments swaps the reported weights and leaves the fused value and
    variance unchanged.
    """
    _check_variance(reg.variance, "regressor")
    _check_variance(rank.variance, "rank")
    if not (np.all(np.isfinite(reg.value)) and np.all(np.isfinite(rank.value))):
        raise ValidationError("estimate values must be finite")
    precision_reg = 1.0 / reg.variance
    precision_rank = 1.0 / rank.variance
    total = precision_reg + precision_rank
    if not (np.all(np.isfinite(total)) and np.all(total > 0.0)):
        raise NumericError(
            f"cannot fuse variances {reg.variance!r} and {rank.variance!r}"
        )
    weight_reg = precision_reg / total
    weight_rank = precision_rank / total
    value = weight_reg * reg.value + weight_rank * rank.value
    variance = 1.0 / total
    if not np.all(np.isfinite(value)):
        raise NumericError("fused value is non-finite")
    return FusedEstimate(
        value=value,
        variance=variance,
        weight_reg=weight_reg,
        weight_rank=weight_rank,
    )


def regularize_rank_variance(
    rank_var: float | np.ndarray, reg_var: float | np.ndarray, c: float
) -> float | np.ndarray:
    """Clamp a rank variance from below at ``c`` times the regressor variance.

    Guards fusion against rank variances that are overconfident relative to
    the regressor. ``c`` must be positive; callers that want no clamping
    should skip the call rather than pass zero.
    """
    _check_variance(rank_var, "rank")
    _check_variance(reg_var, "regressor")
    if not (math.isfinite(c) and c > 0.0):
        raise ValidationError(f"clamp factor c must be positive, got {c!r}")
    clamped = np.maximum(rank_var, c * reg_var)
    return float(clamped) if np.ndim(clamped) == 0 else clamped


def required_rank_variance(alpha: float, reg_var: float) -> float:
    """Rank variance at which fusion shrinks the error to ``alpha`` times.

    Under Gaussian errors, fusing a regressor of variance ``reg_var`` with
    an independent rank estimate of the returned variance yields a fused
    standard deviation (and hence MAE) exactly ``alpha`` times the
    regressor's. Diverges as ``alpha`` approaches one: near-useless rank
    information must come with near-infinite variance.
    """
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie strictly in (0, 1), got {alpha!r}")
    _check_variance(reg_var, "regressor")
    a2 = alpha * alpha
    return a2 * reg_var / (1.0 - a2)


def mae_of_sigma(sigma: float) -> float:
    """MAE of a centered Gaussian error with standard deviation ``sigma``.

    The mean of a folded Gaussian: sigma * sqrt(2 / pi).
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValidationError(f"sigma must be non-negative, got {sigma!r}")
    return sigma * math.sqrt(2.0 / math.pi)
