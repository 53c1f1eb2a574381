"""Bagged CART forest: splits, determinism, and variance."""

import math
import warnings

import numpy as np
import pytest

from rankrefine import forest as forest_mod
from rankrefine.core import Dataset, mae, resplit
from rankrefine.errors import NumericError, ValidationError
from rankrefine.experiments import make_synthetic_dataset
from rankrefine.forest import (
    RegressionTree,
    TrainedForest,
    _best_splits,
    fit,
    predict_matrix,
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
        value=np.array([float(value)]),
    )


def _reference_best_split(X, y, rows):
    # The per-feature loop that the column-wise searches replaced, kept as the
    # scalar reference the split kernel must match bit for bit. A gap cost
    # that is not finite means the label sums overflowed float64.
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
        separates = xs[:-1] < xs[1:]
        if not np.all(np.isfinite((sse_left + sse_right)[separates])):
            raise NumericError("label sums overflow")
        cost = np.where(separates, sse_left + sse_right, math.inf)
        pos = int(np.argmin(cost))
        if cost[pos] < best_cost:
            with np.errstate(over="ignore"):
                thr = 0.5 * (xs[pos] + xs[pos + 1])
            if not xs[pos] < thr < math.inf:
                # Adjacent doubles (the midpoint rounded onto the left value)
                # or an overflowing sum: the right value still separates the
                # two sides under "< thr".
                thr = float(xs[pos + 1])
            best_cost = float(cost[pos])
            best = (f, float(thr))
    return best


def _reference_node_split(X, y, rows):
    # The per-node column-wise search the node-by-node grower used; the fuzz
    # below holds it to the per-feature loop.
    n = rows.size
    xr = X[rows]
    order = np.argsort(xr, axis=0, kind="stable")
    xs = np.take_along_axis(xr, order, axis=0)
    ys = y[rows][order]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    sse_left = csq[:-1] - csum[:-1] ** 2 / n_left
    sse_right = (csq[-1] - csq[:-1]) - (csum[-1] - csum[:-1]) ** 2 / n_right
    cost = np.where(xs[:-1] < xs[1:], sse_left + sse_right, math.inf)
    f, pos = divmod(int(np.argmin(cost.T)), n - 1)
    if not cost[pos, f] < math.inf:
        return None
    with np.errstate(over="ignore"):
        thr = 0.5 * (xs[pos, f] + xs[pos + 1, f])
    if not xs[pos, f] < thr < math.inf:
        thr = xs[pos + 1, f]
    return f, float(thr)


def _reference_grow_tree(X, y):
    # The node-by-node grower the level-wise one replaced: a stack of nodes,
    # the right child popped first, children numbered when their parent splits.
    feature, threshold, left, right, value = [], [], [], [], []

    def alloc():
        for array, empty in zip((feature, threshold, left, right, value), (-1, 0.0, -1, -1, 0.0)):
            array.append(empty)
        return len(feature) - 1

    stack = [(np.arange(y.size), alloc())]
    while stack:
        rows, slot = stack.pop()
        ys = y[rows]
        split = None if np.all(ys == ys[0]) else _reference_node_split(X, y, rows)
        if split is None:
            value[slot] = float(np.mean(ys))
            continue
        feature[slot], threshold[slot] = split
        left[slot], right[slot] = alloc(), alloc()
        goes_left = X[rows, feature[slot]] < threshold[slot]
        stack.append((rows[goes_left], left[slot]))
        stack.append((rows[~goes_left], right[slot]))
    return {
        "feature": np.array(feature, dtype=np.int32),
        "threshold": np.array(threshold, dtype=float),
        "left": np.array(left, dtype=np.int32),
        "right": np.array(right, dtype=np.int32),
        "value": np.array(value, dtype=float),
    }


def _breadth_first(grown):
    # The reference grower's nodes renumbered breadth-first, left child first,
    # as a RegressionTree.
    order = [0]
    for node in order:
        if grown["feature"][node] >= 0:
            order += [grown["left"][node], grown["right"][node]]
    return RegressionTree(
        feature=grown["feature"][order],
        threshold=grown["threshold"][order],
        value=grown["value"][order],
    )


def _reference_predict(tree, X):
    # One tree's rows walked node by node; breadth-first, a split node's left
    # child is 1 + 2 * (split nodes before it).
    out = np.empty(X.shape[0], dtype=float)
    stack = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        f = int(tree.feature[node])
        if f < 0:
            out[rows] = tree.value[node]
            continue
        goes_left = X[rows, f] < tree.threshold[node]
        left = 1 + 2 * int(np.count_nonzero(tree.feature[:node] >= 0))
        stack.append((left, rows[goes_left]))
        stack.append((left + 1, rows[~goes_left]))
    return out


def _assert_matches_reference(model, train, seed, X):
    # Every tree equals the reference grower's tree on its bootstrap rows,
    # renumbered breadth-first, and the batched walk equals per-tree walks.
    n = len(train)
    for t, ours in enumerate(model.trees):
        rows = derive_rng("forest", seed, t).integers(0, n, size=n)
        theirs = _breadth_first(_reference_grow_tree(train.features[rows], train.y[rows]))
        # A breadth-first split/leaf sequence fixes the tree's shape.
        for name in ("feature", "threshold", "value"):
            a, b = getattr(ours, name), getattr(theirs, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
    expected = np.stack([_reference_predict(tree, X) for tree in model.trees])
    assert predict_matrix(model, X).tobytes() == expected.tobytes()


def _kernel(X, y, row_sets):
    """The split kernel on one block of nodes, as the reference's tuples or None."""
    sizes = np.array([rows.size for rows in row_sets])
    feature, threshold = _best_splits(X, y, np.concatenate(row_sets), np.cumsum(sizes) - sizes, sizes)
    return [None if f < 0 else (int(f), float(t)) for f, t in zip(feature, threshold)]


def _fuzz_problem(rng):
    """A tie-heavy (X, y) and 1-5 row sets of mixed sizes, each flagged if its label squares overflow."""
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
    row_sets = [
        rng.integers(0, n_rows, size=int(rng.integers(2, 2 * n_rows + 1)))
        for _ in range(int(rng.integers(1, 6)))
    ]
    overflow = [label_kind == 3 and not np.isfinite(np.sum(y[rows] ** 2)) for rows in row_sets]
    return X, y, row_sets, overflow


class TestSplitContract:
    def test_matches_scalar_reference_on_fuzzed_nodes(self):
        rng = np.random.default_rng(20261018)
        overflowed = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(1000):
                X, y, row_sets, overflow = _fuzz_problem(rng)
                expected = []
                for rows, flagged in zip(row_sets, overflow):
                    try:
                        expected.append(_reference_best_split(X, y, rows))
                    except NumericError:
                        expected.append(NumericError)
                    separable = np.any(np.ptp(X[rows], axis=0) > 0)
                    assert expected[-1] is NumericError or not (flagged and separable)
                fine = [rows for rows, e in zip(row_sets, expected) if e is not NumericError]
                for rows in fine:
                    assert _reference_node_split(X, y, rows) == _reference_best_split(X, y, rows)
                if fine:
                    assert _kernel(X, y, fine) == [e for e in expected if e is not NumericError]
                for rows, e in zip(row_sets, expected):
                    if e is NumericError:
                        overflowed += 1
                        with pytest.raises(NumericError):
                            _kernel(X, y, [*fine, rows])
        assert overflowed > 100

    @pytest.mark.parametrize("seed_index", range(5))
    def test_trees_bit_identical_to_scalar_reference(self, seed_index):
        ds = make_synthetic_dataset()
        train, test = resplit(ds, train_size=50, seed=derive_seed("split", 0, seed_index))
        seed = derive_seed("forest-seed", 0, seed_index)
        model = fit(train, seed=seed)
        assert len(model.trees) == 100
        _assert_matches_reference(model, train, seed, test.features)

    def test_block_budget_does_not_change_the_forest(self, monkeypatch):
        # One node per search block and one tree per walk block.
        ds = make_synthetic_dataset(n=80, d=4, noise_sd=0.5, seed=1)
        model = fit(ds, n_trees=10, seed=3)
        monkeypatch.setattr(forest_mod, "_BLOCK_ELEMENTS", 1)
        small = fit(ds, n_trees=10, seed=3)
        for ours, theirs in zip(model.trees, small.trees):
            for name in ("feature", "threshold", "value"):
                assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes()
        assert np.array_equal(predict_matrix(small, ds.features), predict_matrix(model, ds.features))

    def test_nodes_are_numbered_breadth_first(self):
        # Breadth-first, the i-th split node's children are nodes 2i + 1 and 2i + 2.
        model = fit(make_synthetic_dataset(n=80, d=4, noise_sd=0.5, seed=1), seed=2)
        for tree in model.trees:
            split = tree.feature >= 0
            n_split = int(split.sum())
            assert tree.feature.size == 1 + 2 * n_split

    def test_feature_tie_goes_to_lower_index(self):
        # Both features split the labels perfectly (cost 0), feature 0 at the
        # third gap and feature 1 at the first: feature order decides.
        X = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        y = np.array([0.0, 0.0, 0.0, 5.0])
        assert _kernel(X, y, [np.arange(4)]) == [(0, 2.5)]

    def test_position_tie_goes_to_first_gap(self):
        # Splitting off either end leaves the same cost, 50 - 100 / 3.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 5.0, 5.0, 0.0])
        assert _kernel(X, y, [np.arange(4)]) == [(0, 0.5)]

    def test_ties_hold_beside_a_larger_node(self):
        # The two tie cases above, each padded to a five-row node's width.
        X = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0], [4.0, 4.0]])
        feature_tie = np.array([0.0, 0.0, 0.0, 5.0, 1.0])
        position_tie = np.array([0.0, 5.0, 5.0, 0.0, 1.0])
        wide = np.arange(5)
        assert _kernel(X, feature_tie, [wide, np.arange(4)]) == [
            _reference_best_split(X, feature_tie, wide),
            (0, 2.5),
        ]
        assert _kernel(X[:, :1], position_tie, [wide, np.arange(4)]) == [
            _reference_best_split(X[:, :1], position_tie, wide),
            (0, 0.5),
        ]

    def test_adjacent_doubles_split_at_the_right_value(self):
        x = 1.0
        X = np.array([[x], [np.nextafter(x, np.inf)]])
        [(feature, thr)] = _kernel(X, np.array([0.0, 1.0]), [np.arange(2)])
        assert (feature, thr) == (0, np.nextafter(x, np.inf))
        assert list(X[:, feature] < thr) == [True, False]

    def test_constant_features_give_one_leaf_holding_the_mean(self):
        X = np.ones((6, 2))
        y = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 7.0])
        assert _kernel(X, y, [np.arange(6)]) == [None]
        ds = Dataset(ids=tuple(f"r{i}" for i in range(6)), features=X, y=y)
        model = fit(ds, n_trees=3, seed=5)
        for t, tree in enumerate(model.trees):
            rows = derive_rng("forest", 5, t).integers(0, 6, size=6)
            assert list(tree.feature) == [-1]
            assert tree.value[0] == np.mean(y[rows])

    def test_overflowing_thresholds_take_the_right_value(self):
        # Adjacent feature values sum past the float64 maximum.
        X = np.linspace(1.5e308, 1.7e308, 8).reshape(-1, 1)
        y = np.arange(8.0)
        ds = Dataset(ids=tuple(f"r{i}" for i in range(8)), features=X, y=y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit(ds, n_trees=3, seed=0)
        _assert_matches_reference(model, ds, 0, X)

    def test_overflowing_label_sums_raise(self):
        ds = make_synthetic_dataset(n=80, d=4, noise_sd=0.5, seed=1)
        huge = Dataset(ids=ds.ids, features=ds.features, y=ds.y * 1e200)
        with pytest.raises(NumericError, match="overflow"):
            fit(huge, n_trees=5, seed=0)


class TestPredictWalk:
    def test_batched_walk_matches_per_tree_walk(self):
        # A two-level tree beside one-leaf trees.
        deep = RegressionTree(
            feature=np.array([1, 0, -1, -1, -1], dtype=np.int32),
            threshold=np.array([0.5, -0.25, 0.0, 0.0, 0.0]),
            value=np.array([0.0, 0.0, 10.0, 30.0, 20.0]),
        )
        model = TrainedForest(trees=(_leaf_tree(1.5), deep, _leaf_tree(-2.0), deep), n_features=2)
        X = np.random.default_rng(3).uniform(-1, 1, size=(40, 2))
        X[0] = [-0.25, 0.5]  # equal to both thresholds: goes right at each
        expected = np.stack([_reference_predict(tree, X) for tree in model.trees])
        assert np.array_equal(predict_matrix(model, X), expected)
        assert set(np.unique(expected[1])) == {10.0, 20.0, 30.0}
        assert predict_matrix(model, X[:1])[1, 0] == 10.0

    def test_cyclic_tree_raises_instead_of_walking_forever(self):
        # Node 3 is the second split node, so its children would be nodes 3
        # and 4: a row reaching it would step onto itself.
        cyclic = RegressionTree(
            feature=np.array([0, -1, -1, 0, -1], dtype=np.int32),
            threshold=np.array([0.5, 0.0, 0.0, 0.5, 0.0]),
            value=np.zeros(5),
        )
        model = TrainedForest(trees=(_leaf_tree(1.0), _leaf_tree(2.0), cyclic), n_features=1)
        with pytest.raises(ValidationError, match="tree 2: a child index is out of range"):
            predict_matrix(model, np.array([[0.0], [1.0]]))

    @pytest.mark.parametrize(
        "feature", [[0, -1], [0, 0, -1]], ids=["sibling past the end", "past the end"]
    )
    def test_out_of_range_child_raises(self, feature):
        broken = RegressionTree(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.full(len(feature), 0.5),
            value=np.zeros(len(feature)),
        )
        model = TrainedForest(trees=(_leaf_tree(1.0), broken), n_features=1)
        with pytest.raises(ValidationError, match="tree 1: a child index is out of range"):
            predict_matrix(model, np.zeros((2, 1)))

    def test_out_of_range_split_feature_raises(self):
        split_on_3 = RegressionTree(
            feature=np.array([3, -1, -1], dtype=np.int32),
            threshold=np.array([0.5, 0.0, 0.0]),
            value=np.array([0.0, 1.0, 2.0]),
        )
        model = TrainedForest(trees=(_leaf_tree(1.0), split_on_3), n_features=1)
        with pytest.raises(ValidationError, match="tree 1: a split feature is out of range"):
            predict_matrix(model, np.zeros((2, 1)))

    @pytest.mark.parametrize("empty_at", [0, 1], ids=["first", "last"])
    def test_tree_without_nodes_raises(self, empty_at):
        empty = RegressionTree(
            feature=np.array([], dtype=np.int32), threshold=np.array([]), value=np.array([])
        )
        trees = [_leaf_tree(5.0)]
        trees.insert(empty_at, empty)
        model = TrainedForest(trees=tuple(trees), n_features=1)
        with pytest.raises(ValidationError, match=f"tree {empty_at}: has no nodes"):
            predict_matrix(model, np.zeros((2, 1)))

    def test_zero_rows_keep_the_tree_axis(self):
        model = TrainedForest(trees=(_leaf_tree(0.0), _leaf_tree(2.0), _leaf_tree(4.0)), n_features=3)
        assert predict_matrix(model, np.zeros((0, 3))).shape == (3, 0)
        fitted = fit(_step_dataset(), n_trees=4, seed=0)
        assert predict_matrix(fitted, np.zeros((0, 1))).shape == (4, 0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError, match="n_trees must be >= 2 .*, got 1"):
            fit(_step_dataset(), n_trees=1)


class TestFit:
    def test_learns_a_step_function(self):
        ds = _step_dataset()
        model = fit(ds, n_trees=20, seed=1)
        values, _ = predict_with_variance_matrix(model, ds.features)
        np.testing.assert_allclose(values, ds.y, atol=1e-12)

    def test_deterministic_in_seed(self):
        ds = make_synthetic_dataset(n=80, d=4, noise_sd=0.5, seed=1)
        grid = np.linspace(-1, 1, 30).reshape(-1, 1) * np.ones((1, 4))
        a, _ = predict_with_variance_matrix(fit(ds, n_trees=10, seed=3), grid)
        b, _ = predict_with_variance_matrix(fit(ds, n_trees=10, seed=3), grid)
        np.testing.assert_array_equal(a, b)
        c, _ = predict_with_variance_matrix(fit(ds, n_trees=10, seed=4), grid)
        assert not np.array_equal(a, c)

    def test_predictions_within_label_range(self):
        ds = make_synthetic_dataset(n=80, d=3, noise_sd=1.0, seed=2)
        model = fit(ds, n_trees=10, seed=0)
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(50, 3))
        values, _ = predict_with_variance_matrix(model, X)
        assert values.min() >= ds.y.min() and values.max() <= ds.y.max()

    def test_feature_count_checked_at_predict(self):
        ds = _step_dataset()
        model = fit(ds, n_trees=2, seed=0)
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


class TestAgainstReferenceImplementation:
    def test_mae_close_to_frozen_sklearn_run(self):
        ds = make_synthetic_dataset()
        train, test = resplit(ds, train_size=50, seed=derive_seed("split", 0, 0))
        model = fit(train, seed=derive_seed("forest-seed", 0, 0))
        values, _ = predict_with_variance_matrix(model, test.features)
        ours = mae(values, test.y)
        assert ours <= 1.10 * SKLEARN_REFERENCE_MAE
        assert ours >= 0.90 * SKLEARN_REFERENCE_MAE
