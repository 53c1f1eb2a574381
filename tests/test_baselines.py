"""Projection clamping and neighbor-smoothing baselines.

The array refiners replaced a per-query interval object and two per-query
functions. Those are kept below as scalar references, and the array
versions are fuzzed against them for bit-identical results.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from rankrefine.baselines import feasible_bounds, projection_refine, rbr_refine
from rankrefine.core import ComparisonOutcome, ComparisonSet, Dataset
from rankrefine.errors import ValidationError

# ---------------------------------------------------------------------------
# Scalar references: the per-query path the array refiners replaced.


@dataclass(frozen=True)
class ScalarInterval:
    lower: float
    upper: float

    @classmethod
    def from_comparisons(cls, comparisons: ComparisonSet) -> "ScalarInterval":
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


def scalar_projection(y_pred: float, interval: ScalarInterval) -> float:
    if not math.isfinite(y_pred):
        raise ValidationError(f"prediction must be finite, got {y_pred!r}")
    if interval.is_empty:
        return 0.5 * (interval.lower + interval.upper)
    return min(max(y_pred, interval.lower), interval.upper)


def scalar_rbr(query_features, query_pred, train, train_preds, k) -> float:
    if not math.isfinite(query_pred):
        raise ValidationError(f"prediction must be finite, got {query_pred!r}")
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    if k == 0:
        return query_pred
    if k > len(train):
        raise ValidationError(f"k={k} exceeds the {len(train)} training rows")
    query = np.asarray(query_features, dtype=float)
    preds = np.asarray(train_preds, dtype=float)
    distances = np.sqrt(np.sum((train.features - query) ** 2, axis=1))
    nearest = np.argsort(distances, kind="stable")[:k]
    weights = 1.0 / (1.0 + distances[nearest])
    numerator = query_pred + float(np.sum(weights * preds[nearest]))
    denominator = 1.0 + float(np.sum(weights))
    return numerator / denominator


# ---------------------------------------------------------------------------
# Helpers


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


def _project(values, sets):
    """Project one prediction per comparison set, through the array path."""
    lower, upper = feasible_bounds(sets)
    return projection_refine(np.asarray(values, dtype=float), lower, upper)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestFeasibleInterval:
    def test_bounds_from_comparisons(self):
        lower, upper = feasible_bounds([_comparison_set(below=[1.0, 3.0], above=[5.0, 7.0])])
        assert lower.tolist() == [3.0] and upper.tolist() == [5.0]
        assert not lower[0] > upper[0]

    def test_one_sided_sets_are_half_lines(self):
        lower, upper = feasible_bounds(
            [_comparison_set(below=[2.0]), _comparison_set(above=[2.0])]
        )
        assert lower.tolist() == [2.0, -math.inf]
        assert upper.tolist() == [math.inf, 2.0]

    def test_contradictory_comparisons_empty(self):
        lower, upper = feasible_bounds([_comparison_set(below=[4.0], above=[1.0])])
        assert lower[0] > upper[0]

    def test_no_sets_give_empty_arrays(self):
        lower, upper = feasible_bounds([])
        assert lower.shape == upper.shape == (0,)
        assert projection_refine(np.empty(0), lower, upper).shape == (0,)


class TestProjection:
    def test_inside_interval_unchanged(self):
        assert _project([5.0], [_comparison_set(below=[0.0], above=[10.0])]).tolist() == [5.0]

    def test_clamps_to_bounds(self):
        iv = _comparison_set(below=[2.0], above=[8.0])
        assert _project([-3.0, 99.0], [iv, iv]).tolist() == [2.0, 8.0]

    def test_inconsistent_interval_uses_midpoint(self):
        refined = _project([0.0], [_comparison_set(below=[6.0], above=[2.0])])
        assert refined[0] == pytest.approx(4.0)

    def test_empty_comparisons_pass_through(self):
        assert _project([1.23], [_comparison_set()]).tolist() == [1.23]

    def test_never_moves_away_from_interval(self):
        rng = np.random.default_rng(8)
        below = rng.uniform(-5, 5, size=(200, 3))
        above = below.max(axis=1, keepdims=True) + rng.uniform(0.1, 5, size=(200, 2))
        y = rng.uniform(-10, 10, size=200)
        refined = _project(y, [_comparison_set(b, a) for b, a in zip(below, above)])
        assert np.all(below.max(axis=1) <= refined) and np.all(refined <= above.min(axis=1))
        # Projection can only shrink the distance to any feasible point.
        mid = (below.max(axis=1) + above.min(axis=1)) / 2
        assert np.all(np.abs(refined - mid) <= np.abs(y - mid) + 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prediction_rejected(self, bad):
        sets = [_comparison_set(below=[0.0]), _comparison_set(above=[1.0])]
        with pytest.raises(ValidationError, match="prediction must be finite"):
            _project([0.5, bad], sets)

    def test_matches_scalar_reference(self):
        """Bit-identical to the per-query clamp on fuzzed sets.

        Labels come from a small grid that holds both signed zeros, so sets
        are often empty, one-sided, crossed or tied, and predictions often sit
        exactly on a bound.
        """
        rng = np.random.default_rng(2024)
        grid = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
        for _ in range(300):
            m = int(rng.integers(0, 12))
            sets = [
                _comparison_set(
                    below=rng.choice(grid, size=int(rng.integers(0, 4))),
                    above=rng.choice(grid, size=int(rng.integers(0, 4))),
                )
                for _ in range(m)
            ]
            on_grid = rng.choice(grid, size=m)
            values = np.where(rng.random(m) < 0.5, on_grid, rng.uniform(-3, 3, size=m))
            intervals = [ScalarInterval.from_comparisons(c) for c in sets]
            lower, upper = feasible_bounds(sets)
            assert _bits(lower) == _bits([iv.lower for iv in intervals])
            assert _bits(upper) == _bits([iv.upper for iv in intervals])
            assert np.array_equal(lower > upper, [iv.is_empty for iv in intervals])
            want = [scalar_projection(float(v), iv) for v, iv in zip(values, intervals)]
            assert _bits(projection_refine(values, lower, upper)) == _bits(want)


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
            query_features=np.array([[0.0]]),
            query_preds=np.array([2.0]),
            train=self._train(),
            train_preds=np.array([4.0, 8.0, 100.0]),
            k=2,
        )
        expected = (2.0 + 0.5 * 4.0 + 0.25 * 8.0) / (1.0 + 0.5 + 0.25)
        assert value.shape == (1,)
        assert value[0] == pytest.approx(expected, rel=1e-12)
        assert value[0] == pytest.approx(24.0 / 7.0, rel=1e-12)

    def test_k_zero_passes_through(self):
        value = rbr_refine(
            np.array([[0.0], [5.0]]), [2.0, -1.5], self._train(), np.array([4.0, 8.0, 100.0]), k=0
        )
        assert value.tolist() == [2.0, -1.5]

    def test_k_above_train_size_rejected(self):
        for k in (4, -1):
            with pytest.raises(ValidationError, match=r"k must lie in \[0, 3\]"):
                rbr_refine(
                    np.array([[0.0]]), [2.0], self._train(), np.array([4.0, 8.0, 100.0]), k=k
                )

    def test_equidistant_ties_resolve_by_row_order(self):
        train = Dataset(
            ids=("t0", "t1"),
            features=np.array([[1.0], [-1.0]]),
            y=np.array([0.0, 0.0]),
        )
        value = rbr_refine(np.array([[0.0]]), [0.0], train, np.array([10.0, -10.0]), k=1)
        # Both rows sit at distance 1; the earlier row wins deterministically.
        assert value[0] == pytest.approx((0.0 + 0.5 * 10.0) / 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_prediction_rejected(self, bad):
        with pytest.raises(ValidationError, match="prediction must be finite"):
            rbr_refine(
                np.array([[0.0], [1.0]]), [0.0, bad], self._train(), np.array([4.0, 8.0, 9.0]), k=1
            )

    @pytest.mark.parametrize(
        "features",
        [np.array([[0.0], [1.0]]), np.array([[0.0, 1.0]]), np.array([0.0]), np.zeros((1, 1, 1))],
        ids=["too-many-rows", "too-many-columns", "one-dimensional", "three-dimensional"],
    )
    def test_mismatched_query_features_rejected(self, features):
        with pytest.raises(ValidationError, match=r"query_features has shape .*expected \(1, 1\)"):
            rbr_refine(features, [0.0], self._train(), np.array([4.0, 8.0, 100.0]), k=1)

    def test_mismatched_train_preds_rejected(self):
        with pytest.raises(ValidationError, match=r"train_preds has shape \(2,\), expected \(3,\)"):
            rbr_refine(np.array([[0.0]]), [0.0], self._train(), np.array([4.0, 8.0]), k=1)

    def test_matches_scalar_reference(self):
        """Bit-identical to the per-query smoother on fuzzed inputs.

        Integer-grid features make equidistant neighbors common; wide
        feature counts and large k take numpy's pairwise sums past their
        8-element blocks. k runs over 0, 1, the training size and a draw.
        """
        rng = np.random.default_rng(99)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 14))
            m = int(rng.integers(0, 8))
            if trial % 2:
                train_x = rng.integers(-2, 3, size=(n, d)).astype(float)
                queries = rng.integers(-2, 3, size=(m, d)).astype(float)
            else:
                train_x = rng.normal(size=(n, d))
                queries = rng.normal(size=(m, d))
            train = Dataset(ids=tuple(f"t{i}" for i in range(n)), features=train_x, y=np.zeros(n))
            train_preds = rng.normal(size=n)
            preds = rng.normal(size=m)
            for k in sorted({0, 1, n, int(rng.integers(0, n + 1))}):
                got = rbr_refine(queries, preds, train, train_preds, k)
                want = [
                    scalar_rbr(q, float(p), train, train_preds, k) for q, p in zip(queries, preds)
                ]
                assert _bits(got) == _bits(want), (trial, n, d, m, k)
