"""Bagged CART forest: splits, determinism, and variance."""

import numpy as np
import pytest

from rankrefine.core import Dataset, Estimate, SplitSpec, mae, resplit
from rankrefine.errors import ValidationError
from rankrefine.experiments import make_synthetic_dataset
from rankrefine.forest import (
    ForestConfig,
    RegressionTree,
    TrainedForest,
    fit,
    predict_with_variance,
    predict_with_variance_matrix,
)
from rankrefine.seeding import derive_seed

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
