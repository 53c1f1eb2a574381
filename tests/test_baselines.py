"""Projection clamping and neighbor-smoothing baselines."""

import math

import numpy as np
import pytest

from rankrefine.baselines import (
    FeasibleInterval,
    projection_refine,
    rbr_refine,
)
from rankrefine.core import ComparisonOutcome, ComparisonSet, Dataset
from rankrefine.errors import ValidationError


def _comparison_set(below=(), above=()):
    labels = {}
    outcomes = []
    for j, label in enumerate(below):
        labels[f"b{j}"] = float(label)
        outcomes.append(ComparisonOutcome("q", f"b{j}", True))
    for j, label in enumerate(above):
        labels[f"a{j}"] = float(label)
        outcomes.append(ComparisonOutcome("q", f"a{j}", False))
    return ComparisonSet.from_outcomes(outcomes, labels)


def _interval(below=(), above=()):
    return FeasibleInterval.from_comparisons(_comparison_set(below, above))


class TestFeasibleInterval:
    def test_bounds_from_comparisons(self):
        iv = FeasibleInterval.from_comparisons(
            _comparison_set(below=[1.0, 3.0], above=[5.0, 7.0])
        )
        assert iv.lower == 3.0 and iv.upper == 5.0
        assert not iv.is_empty

    def test_one_sided_sets_are_half_lines(self):
        lo_only = FeasibleInterval.from_comparisons(_comparison_set(below=[2.0]))
        assert lo_only.lower == 2.0 and lo_only.upper == math.inf
        hi_only = FeasibleInterval.from_comparisons(_comparison_set(above=[2.0]))
        assert hi_only.lower == -math.inf and hi_only.upper == 2.0

    def test_contradictory_comparisons_empty(self):
        iv = FeasibleInterval.from_comparisons(
            _comparison_set(below=[4.0], above=[1.0])
        )
        assert iv.is_empty


class TestProjection:
    def test_inside_interval_unchanged(self):
        iv = _interval(below=[0.0], above=[10.0])
        assert projection_refine(5.0, iv) == 5.0

    def test_clamps_to_bounds(self):
        iv = _interval(below=[2.0], above=[8.0])
        assert projection_refine(-3.0, iv) == 2.0
        assert projection_refine(99.0, iv) == 8.0

    def test_inconsistent_interval_uses_midpoint(self):
        iv = _interval(below=[6.0], above=[2.0])
        assert projection_refine(0.0, iv) == pytest.approx(4.0)

    def test_empty_comparisons_pass_through(self):
        iv = _interval()
        assert projection_refine(1.23, iv) == 1.23

    def test_never_moves_away_from_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            below = rng.uniform(-5, 5, size=3)
            above = below.max() + rng.uniform(0.1, 5, size=2)
            iv = _interval(below=below, above=above)
            y = float(rng.uniform(-10, 10))
            refined = projection_refine(y, iv)
            assert below.max() <= refined <= above.min()
            # Projection can only shrink the distance to any feasible point.
            mid = (below.max() + above.min()) / 2
            assert abs(refined - mid) <= abs(y - mid) + 1e-12


class TestRbr:
    def _train(self):
        return Dataset(
            ids=("t0", "t1", "t2"),
            features=np.array([[1.0], [3.0], [10.0]]),
            y=np.array([0.0, 0.0, 0.0]),
        )

    def test_hand_value(self):
        # Distances 1 and 3 give weights 1/2 and 1/4; the query weighs 1.
        value = rbr_refine(
            query_features=np.array([0.0]),
            query_pred=2.0,
            train=self._train(),
            train_preds=np.array([4.0, 8.0, 100.0]),
            k=2,
        )
        expected = (2.0 + 0.5 * 4.0 + 0.25 * 8.0) / (1.0 + 0.5 + 0.25)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(24.0 / 7.0, rel=1e-12)

    def test_k_zero_passes_through(self):
        value = rbr_refine(
            np.array([0.0]), 2.0, self._train(), np.array([4.0, 8.0, 100.0]), k=0
        )
        assert value == 2.0

    def test_k_above_train_size_rejected(self):
        with pytest.raises(ValidationError):
            rbr_refine(
                np.array([0.0]), 2.0, self._train(), np.array([4.0, 8.0, 100.0]), k=4
            )

    def test_equidistant_ties_resolve_by_row_order(self):
        train = Dataset(
            ids=("t0", "t1"),
            features=np.array([[1.0], [-1.0]]),
            y=np.array([0.0, 0.0]),
        )
        value = rbr_refine(np.array([0.0]), 0.0, train, np.array([10.0, -10.0]), k=1)
        # Both rows sit at distance 1; the earlier row wins deterministically.
        assert value == pytest.approx((0.0 + 0.5 * 10.0) / 1.5)
