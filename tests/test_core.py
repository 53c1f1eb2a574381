"""Data model, metrics, split protocol, and CSV round-trips."""

import math

import numpy as np
import pytest

from rankrefine.core import (
    ComparisonOutcome,
    ComparisonSet,
    Dataset,
    LabeledReference,
    ReferenceSet,
    Estimate,
    SplitSpec,
    beta,
    load_dataset_csv,
    load_references_csv,
    mae,
    pra,
    resplit,
    save_dataset_csv,
)
from rankrefine.errors import DataError, ValidationError


def _dataset(n=12, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        ids=tuple(f"r{i:03d}" for i in range(n)),
        features=rng.standard_normal((n, d)),
        y=rng.standard_normal(n),
        name="toy",
    )


class TestValueObjects:
    def test_reference_rejects_non_finite_label(self):
        with pytest.raises(ValidationError):
            LabeledReference("a", float("nan"))
        with pytest.raises(ValidationError):
            LabeledReference("a", float("inf"))

    def test_reference_set_rejects_empty_and_duplicates(self):
        with pytest.raises(ValidationError):
            ReferenceSet(())
        dup = (LabeledReference("a", 1.0), LabeledReference("a", 2.0))
        with pytest.raises(ValidationError):
            ReferenceSet(dup)

    def test_regressor_estimate_requires_positive_variance(self):
        Estimate(0.0, 1e-12)
        with pytest.raises(ValidationError):
            Estimate(0.0, 0.0)
        with pytest.raises(ValidationError):
            Estimate(0.0, -1.0)
        with pytest.raises(ValidationError):
            Estimate(float("nan"), 1.0)

    def test_estimate_arrays_are_validated_elementwise(self):
        est = Estimate([0.0, 1.0], [1.0, 2.0])
        np.testing.assert_array_equal(est.variance, [1.0, 2.0])
        assert est.value.dtype == float
        with pytest.raises(ValidationError, match="got 0.0"):
            Estimate(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValidationError, match="got inf"):
            Estimate(np.array([0.0, np.inf]), np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            Estimate(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValidationError):
            Estimate(np.zeros((2, 2)), np.ones((2, 2)))


class TestComparisonSet:
    LABELS = {"a": 1.0, "b": 2.0, "c": 3.0}

    def test_partition_by_outcome(self):
        cs = ComparisonSet.from_outcomes(
            [
                ComparisonOutcome("q", "a", True),
                ComparisonOutcome("q", "b", False),
                ComparisonOutcome("q", "c", False),
            ],
            self.LABELS,
        )
        # query_above=True puts the reference label below the query.
        np.testing.assert_array_equal(cs.below_labels, [1.0])
        np.testing.assert_array_equal(sorted(cs.above_labels), [2.0, 3.0])
        assert not cs.is_empty
        assert sorted(cs.all_labels()) == [1.0, 2.0, 3.0]

    def test_duplicate_pair_rejected(self):
        outcomes = [
            ComparisonOutcome("q", "a", True),
            ComparisonOutcome("q", "a", False),
        ]
        with pytest.raises(DataError):
            ComparisonSet.from_outcomes(outcomes, self.LABELS)

    def test_unknown_reference_rejected(self):
        with pytest.raises(DataError):
            ComparisonSet.from_outcomes(
                [ComparisonOutcome("q", "zzz", True)], self.LABELS
            )

    def test_empty_set_is_empty(self):
        cs = ComparisonSet.from_outcomes([], self.LABELS)
        assert cs.is_empty
        assert cs.below_labels.size == 0 and cs.above_labels.size == 0


class TestDataset:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Dataset(ids=("a", "a"), features=np.zeros((2, 1)), y=np.zeros(2))
        with pytest.raises(ValidationError):
            Dataset(ids=("a", "b"), features=np.zeros((3, 1)), y=np.zeros(2))
        with pytest.raises(ValidationError):
            Dataset(ids=("a", "b"), features=np.zeros((2, 1)), y=np.array([0.0, np.nan]))

    def test_subset_picks_rows(self):
        ds = _dataset()
        sub = ds.subset([3, 1])
        assert sub.ids == (ds.ids[3], ds.ids[1])
        np.testing.assert_array_equal(sub.y, ds.y[[3, 1]])
        np.testing.assert_array_equal(sub.features, ds.features[[3, 1]])

    def test_to_reference_set_carries_labels(self):
        ds = _dataset(n=5)
        refs = ds.to_reference_set()
        assert refs.labels_by_id() == {i: float(v) for i, v in zip(ds.ids, ds.y)}


class TestResplit:
    def test_partition_and_sizes(self):
        ds = _dataset(n=60)
        train, test = resplit(ds, SplitSpec(train_size=50, seed=3))
        assert len(train) == 50 and len(test) == 10
        assert set(train.ids) | set(test.ids) == set(ds.ids)
        assert set(train.ids) & set(test.ids) == set()

    def test_deterministic_in_seed(self):
        ds = _dataset(n=80)
        t1, _ = resplit(ds, SplitSpec(train_size=50, seed=11))
        t2, _ = resplit(ds, SplitSpec(train_size=50, seed=11))
        assert t1.ids == t2.ids

    def test_seed_changes_split(self):
        ds = _dataset(n=80)
        picked = {resplit(ds, SplitSpec(train_size=50, seed=s))[0].ids for s in range(8)}
        assert len(picked) == 8

    def test_rows_keep_alignment(self):
        ds = _dataset(n=70)
        train, test = resplit(ds, SplitSpec(train_size=50, seed=2))
        lookup = {i: (tuple(f), v) for i, f, v in zip(ds.ids, ds.features, ds.y)}
        for part in (train, test):
            for i, f, v in zip(part.ids, part.features, part.y):
                assert lookup[i] == (tuple(f), v)

    def test_too_small_dataset_rejected(self):
        ds = _dataset(n=50)
        with pytest.raises(ValidationError):
            resplit(ds, SplitSpec(train_size=50, seed=0))


class TestMetrics:
    def test_mae_hand_value(self):
        assert mae([2.5, 0.0, 1.0], [1.0, 1.0, 1.0]) == pytest.approx(5.0 / 6.0, rel=1e-15)

    def test_mae_rejects_misaligned(self):
        with pytest.raises(ValidationError):
            mae([1.0, 2.0], [1.0])
        with pytest.raises(ValidationError):
            mae([], [])

    def test_beta_is_ratio(self):
        assert beta(0.5, 2.0) == pytest.approx(0.25)
        with pytest.raises(ValidationError):
            beta(0.5, 0.0)

    def test_pra_counts_agreements(self):
        truth = {"q": 2.0, "a": 1.0, "b": 3.0}
        outcomes = [
            ComparisonOutcome("q", "a", True),   # correct: 2 > 1
            ComparisonOutcome("q", "b", True),   # wrong:   2 < 3
        ]
        assert pra(outcomes, truth) == pytest.approx(0.5)

    def test_pra_skips_ties(self):
        truth = {"q": 1.0, "a": 1.0, "b": 0.0}
        outcomes = [
            ComparisonOutcome("q", "a", True),   # tie in truth: excluded
            ComparisonOutcome("q", "b", True),   # correct
        ]
        assert pra(outcomes, truth) == pytest.approx(1.0)

    def test_pra_all_ties_rejected(self):
        truth = {"q": 1.0, "a": 1.0}
        with pytest.raises(ValidationError):
            pra([ComparisonOutcome("q", "a", True)], truth)

    def test_pra_unknown_id_rejected(self):
        with pytest.raises(DataError):
            pra([ComparisonOutcome("q", "a", True)], {"q": 1.0})


class TestCsvRoundTrips:
    def test_dataset_round_trip_exact(self, tmp_path):
        ds = _dataset(n=9, d=4, seed=5)
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path, name="toy")
        assert back.ids == ds.ids
        # repr-based serialization round-trips float64 exactly.
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_dataset_with_text_column(self, tmp_path):
        ds = Dataset(
            ids=("m0", "m1"),
            features=np.array([[0.5], [1.5]]),
            y=np.array([1.0, 2.0]),
            text=("CCO", "CCN"),
        )
        path = tmp_path / "data.csv"
        save_dataset_csv(ds, path)
        back = load_dataset_csv(path)
        assert back.text == ("CCO", "CCN")

    def test_missing_id_column_uses_row_index(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,y\n0.1,1.0\n0.2,2.0\n")
        ds = load_dataset_csv(path)
        assert len(ds) == 2
        assert len(set(ds.ids)) == 2

    def test_missing_target_column_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1\n0.1,0.2\n")
        with pytest.raises(DataError):
            load_dataset_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,y\nhello,1.0\n")
        with pytest.raises(DataError):
            load_dataset_csv(path)

    def test_references_csv(self, tmp_path):
        path = tmp_path / "refs.csv"
        path.write_text("id,y,extra\na,1.5,ignored\nb,-2.0,ignored\n")
        refs = load_references_csv(path)
        assert refs.labels_by_id() == {"a": 1.5, "b": -2.0}
