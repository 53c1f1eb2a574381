"""Bagged CART forest: splits, determinism, and variance."""

import math

import numpy as np
import pytest

from rankrefine import forest as forest_mod
from rankrefine.core import Dataset, Estimate, SplitSpec, mae, resplit
from rankrefine.errors import ValidationError
from rankrefine.experiments import make_synthetic_dataset
from rankrefine.forest import (
    ForestConfig,
    RegressionTree,
    TrainedForest,
    _best_split,
    fit,
    predict_with_variance,
    predict_with_variance_matrix,
)
from rankrefine.seeding import derive_rng, derive_seed

# MAE of sklearn's RandomForestRegressor(n_estimators=100, random_state=0)
# on the benchmark split (master seed 0, seed index 0), computed once with
# scikit-learn 1.7 and frozen here so the suite carries no sklearn
# dependency. Our forest should land within 10% of it.
SKLEARN_REFERENCE_MAE = 2.0560139795775902


def _step_dataset():
    # A clean one-dimensional step: perfectly learnable by one split.
    x = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]])
    y = np.array([5.0] * 4 + [-5.0] * 4)
    return Dataset(ids=tuple(f"r{i}" for i in range(8)), features=x, y=y)


def _leaf_tree(value):
    return RegressionTree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        value=np.array([float(value)]),
    )


def _reference_best_split(X, y, rows):
    # The per-feature loop _best_split replaced, kept as the scalar reference
    # its column-wise search must match bit for bit.
    n = rows.size
    best_cost = math.inf
    best: tuple[int, float] | None = None
    for f in range(X.shape[1]):
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
        cost = np.where(xs[:-1] < xs[1:], sse_left + sse_right, math.inf)
        pos = int(np.argmin(cost))
        if cost[pos] < best_cost:
            thr = 0.5 * (xs[pos] + xs[pos + 1])
            if not xs[pos] < thr:
                # Adjacent doubles: the midpoint rounded onto the left value;
                # the right value still separates the two sides under "< thr".
                thr = float(xs[pos + 1])
            best_cost = float(cost[pos])
            best = (f, float(thr))
    return best


def _fuzz_node(rng):
    """One tie-heavy split problem: (X, y, rows, whether the label squares overflow)."""
    n_rows = int(rng.integers(2, 30))
    d = int(rng.integers(1, 6))
    columns = []
    for _ in range(d):
        kind = rng.integers(4)
        if kind == 0:
            columns.append(rng.integers(0, 3, n_rows).astype(float))
        elif kind == 1:
            columns.append(np.full(n_rows, rng.uniform(-1, 1)))
        elif kind == 2:
            x = rng.uniform(-2, 2)
            columns.append(np.where(rng.random(n_rows) < 0.5, x, np.nextafter(x, 3)))
        else:
            columns.append(rng.normal(size=n_rows))
    X = np.stack(columns, axis=1)
    label_kind = rng.integers(4)
    if label_kind == 0:
        y = rng.integers(-2, 3, n_rows).astype(float)
    elif label_kind == 1:
        y = rng.normal(size=n_rows)
    elif label_kind == 2:
        # Sums of squares near the float64 maximum: some costs are -inf.
        y = rng.uniform(0.5, 1.0, n_rows) * 6e153
    else:
        y = rng.normal(size=n_rows) * 10.0 ** rng.uniform(150, 200)
    rows = rng.integers(0, n_rows, size=int(rng.integers(2, 2 * n_rows + 1)))
    overflow = label_kind == 3 and not np.isfinite(np.sum(y[rows] ** 2))
    return X, y, rows, overflow


class TestSplitContract:
    def test_matches_scalar_reference_on_fuzzed_nodes(self):
        rng = np.random.default_rng(20261018)
        overflowed = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(3000):
                X, y, rows, overflow = _fuzz_node(rng)
                expected = _reference_best_split(X, y, rows)
                assert _best_split(X, y, rows) == expected
                if overflow:
                    assert expected is None
                    overflowed += 1
        assert overflowed > 100

    @pytest.mark.parametrize("seed_index", range(5))
    def test_trees_bit_identical_to_scalar_reference(self, seed_index, monkeypatch):
        ds = make_synthetic_dataset()
        train, _ = resplit(ds, SplitSpec(train_size=50, seed=derive_seed("split", 0, seed_index)))
        config = ForestConfig(n_trees=10, seed=derive_seed("forest-seed", 0, seed_index))
        vectorised = fit(train, config)
        monkeypatch.setattr(forest_mod, "_best_split", _reference_best_split)
        reference = fit(train, config)
        for ours, theirs in zip(vectorised.trees, reference.trees):
            for name in ("feature", "threshold", "left", "right", "value"):
                assert np.array_equal(getattr(ours, name), getattr(theirs, name))

    def test_feature_tie_goes_to_lower_index(self):
        # Both features split the labels perfectly (cost 0), feature 0 at the
        # third gap and feature 1 at the first: feature order decides.
        X = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        y = np.array([0.0, 0.0, 0.0, 5.0])
        assert _best_split(X, y, np.arange(4)) == (0, 2.5)

    def test_position_tie_goes_to_first_gap(self):
        # Splitting off either end leaves the same cost, 50 - 100 / 3.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 5.0, 5.0, 0.0])
        assert _best_split(X, y, np.arange(4)) == (0, 0.5)

    def test_adjacent_doubles_split_at_the_right_value(self):
        x = 1.0
        X = np.array([[x], [np.nextafter(x, np.inf)]])
        feature, thr = _best_split(X, np.array([0.0, 1.0]), np.arange(2))
        assert (feature, thr) == (0, np.nextafter(x, np.inf))
        assert list(X[:, feature] < thr) == [True, False]

    def test_constant_features_give_one_leaf_holding_the_mean(self):
        X = np.ones((6, 2))
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 7.0])
        assert _best_split(X, y, np.arange(6)) is None
        ds = Dataset(ids=tuple(f"r{i}" for i in range(6)), features=X, y=y)
        model = fit(ds, ForestConfig(n_trees=3, seed=5))
        for t, tree in enumerate(model.trees):
            rows = derive_rng("forest", 5, t).integers(0, 6, size=6)
            assert list(tree.feature) == [-1]
            assert tree.value[0] == np.mean(y[rows])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ForestConfig(n_trees=1)


class TestFit:
    def test_learns_a_step_function(self):
        ds = _step_dataset()
        model = fit(ds, ForestConfig(n_trees=20, seed=1))
        values, _ = predict_with_variance_matrix(model, ds.features)
        np.testing.assert_allclose(values, ds.y, atol=1e-12)

    def test_deterministic_in_seed(self):
        ds = make_synthetic_dataset(n=80, d=4, noise_sd=0.5, seed=1)
        grid = np.linspace(-1, 1, 30).reshape(-1, 1) * np.ones((1, 4))
        a, _ = predict_with_variance_matrix(fit(ds, ForestConfig(n_trees=10, seed=3)), grid)
        b, _ = predict_with_variance_matrix(fit(ds, ForestConfig(n_trees=10, seed=3)), grid)
        np.testing.assert_array_equal(a, b)
        c, _ = predict_with_variance_matrix(fit(ds, ForestConfig(n_trees=10, seed=4)), grid)
        assert not np.array_equal(a, c)

    def test_predictions_within_label_range(self):
        ds = make_synthetic_dataset(n=80, d=3, noise_sd=1.0, seed=2)
        model = fit(ds, ForestConfig(n_trees=10, seed=0))
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(50, 3))
        values, _ = predict_with_variance_matrix(model, X)
        assert values.min() >= ds.y.min() and values.max() <= ds.y.max()

    def test_feature_count_checked_at_predict(self):
        ds = _step_dataset()
        model = fit(ds, ForestConfig(n_trees=2, seed=0))
        with pytest.raises(ValidationError):
            predict_with_variance_matrix(model, np.zeros((3, 2)))


class TestVariance:
    def test_two_tree_hand_case(self):
        model = TrainedForest(
            trees=(_leaf_tree(0.0), _leaf_tree(2.0)),
            n_features=1,
        )
        values, variances = predict_with_variance_matrix(model, np.zeros((1, 1)))
        assert values[0] == pytest.approx(1.0)
        # Unbiased sample variance of {0, 2}.
        assert variances[0] == pytest.approx(2.0)

    def test_identical_trees_hit_floor(self):
        model = TrainedForest(
            trees=(_leaf_tree(1.5), _leaf_tree(1.5)),
            n_features=1,
        )
        _, variances = predict_with_variance_matrix(model, np.zeros((1, 1)))
        assert variances[0] == 1e-9

    def test_single_row_helper(self):
        model = TrainedForest(
            trees=(_leaf_tree(0.0), _leaf_tree(2.0)),
            n_features=1,
        )
        est = predict_with_variance(model, np.zeros(1))
        assert isinstance(est, Estimate)
        assert (est.value, est.variance) == (1.0, 2.0)


class TestAgainstReferenceImplementation:
    def test_mae_close_to_frozen_sklearn_run(self):
        ds = make_synthetic_dataset()
        train, test = resplit(ds, SplitSpec(train_size=50, seed=derive_seed("split", 0, 0)))
        model = fit(train, ForestConfig(seed=derive_seed("forest-seed", 0, 0)))
        values, _ = predict_with_variance_matrix(model, test.features)
        ours = mae(values, test.y)
        assert ours <= 1.10 * SKLEARN_REFERENCE_MAE
        assert ours >= 0.90 * SKLEARN_REFERENCE_MAE
