"""Precision-weighted fusion and its variance/error-ratio algebra."""

import math

import numpy as np
import pytest

from rankrefine.core import Estimate
from rankrefine.errors import NumericError, ValidationError
from rankrefine.fusion import (
    fuse,
    regularize_rank_variance,
    required_rank_variance,
)
from rankrefine.rank import RankEstimate


class _Pair:
    """A value/variance pair that skips Estimate's validation."""

    def __init__(self, value, variance):
        self.value = value
        self.variance = variance


class TestFuse:
    def test_hand_value(self):
        fused = fuse(Estimate(1.0, 1.0), Estimate(3.0, 0.5))
        assert fused.value == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert fused.variance == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert fused.weight_reg == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert fused.weight_rank == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v1, v2 = rng.uniform(1e-6, 1e6, size=2)
            fused = fuse(Estimate(0.0, v1), Estimate(1.0, v2))
            assert fused.weight_reg + fused.weight_rank == pytest.approx(1.0, rel=1e-12)

    def test_variance_never_exceeds_either_input(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v1, v2 = rng.uniform(1e-6, 1e6, size=2)
            fused = fuse(Estimate(0.0, v1), Estimate(0.0, v2))
            assert fused.variance <= min(v1, v2) * (1 + 1e-12)

    def test_posterior_variance_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v1, v2 = rng.uniform(1e-4, 1e4, size=2)
            fused = fuse(Estimate(0.5, v1), Estimate(-0.5, v2))
            expected = 1.0 / (1.0 / v1 + 1.0 / v2)
            assert fused.variance == pytest.approx(expected, rel=1e-12)

    def test_weight_is_variance_minimizing(self):
        # Moving weight off the precision ratio increases the combination
        # variance w^2*v1 + (1-w)^2*v2 of independent estimates.
        rng = np.random.default_rng(6)
        for _ in range(200):
            v1, v2 = rng.uniform(1e-3, 1e3, size=2)
            fused = fuse(Estimate(0.0, v1), Estimate(0.0, v2))
            w = fused.weight_reg
            best = w**2 * v1 + (1 - w) ** 2 * v2
            for eps in (0.01, -0.01):
                wp = w + eps
                worse = wp**2 * v1 + (1 - wp) ** 2 * v2
                assert worse > best

    def test_arrays_match_scalar_calls_bit_for_bit(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(2, 300))
        variances = 10.0 ** rng.uniform(-4, 4, size=(2, 300))
        batch = fuse(Estimate(values[0], variances[0]), Estimate(values[1], variances[1]))
        for i in range(300):
            one = fuse(
                Estimate(float(values[0, i]), float(variances[0, i])),
                Estimate(float(values[1, i]), float(variances[1, i])),
            )
            assert (one.value, one.variance, one.weight_reg, one.weight_rank) == (
                batch.value[i], batch.variance[i], batch.weight_reg[i], batch.weight_rank[i]
            )
        clamped = regularize_rank_variance(variances[1], variances[0], c=0.5)
        assert clamped.tolist() == [
            regularize_rank_variance(float(r), float(g), c=0.5)
            for r, g in zip(variances[1], variances[0])
        ]

    def test_array_with_a_bad_variance_rejected(self):
        with pytest.raises(ValidationError, match="rank variance"):
            fuse(Estimate(0.0, 1.0), _Pair(np.zeros(2), np.array([1.0, -1.0])))

    def test_accepts_rank_estimate_duck_typed(self):
        rank = RankEstimate(value=2.0, variance=4.0, clamped=False)
        fused = fuse(Estimate(0.0, 4.0), rank)
        assert fused.value == pytest.approx(1.0)

    def test_degenerate_precision_rejected(self):
        class Broken:
            value = 0.0
            variance = 0.0

        with pytest.raises((NumericError, ValidationError, ZeroDivisionError)):
            fuse(Broken(), Estimate(0.0, 1.0))


class TestRegularization:
    def test_clamps_from_below(self):
        assert regularize_rank_variance(0.1, 2.0, c=0.25) == pytest.approx(0.5)
        assert regularize_rank_variance(3.0, 2.0, c=0.25) == pytest.approx(3.0)

    def test_requires_positive_c(self):
        with pytest.raises(ValidationError):
            regularize_rank_variance(1.0, 1.0, c=0.0)
        with pytest.raises(ValidationError):
            regularize_rank_variance(1.0, 1.0, c=-1.0)


class TestRequiredRankVariance:
    def test_hand_values(self):
        assert required_rank_variance(0.5, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert required_rank_variance(0.99, 1.0) == pytest.approx(
            0.9801 / 0.0199, rel=1e-12
        )

    def test_inverts_to_target_ratio(self):
        # With that rank variance, the fused sd over the regressor sd is
        # exactly the target ratio.
        rng = np.random.default_rng(9)
        for _ in range(100):
            alpha = float(rng.uniform(0.05, 0.95))
            reg_var = float(rng.uniform(0.1, 10.0))
            v = required_rank_variance(alpha, reg_var)
            fused = fuse(Estimate(0.0, reg_var), Estimate(0.0, v))
            assert math.sqrt(fused.variance / reg_var) == pytest.approx(
                alpha, rel=1e-10
            )

    def test_domain_is_open_interval(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValidationError):
                required_rank_variance(bad, 1.0)
