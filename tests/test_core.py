"""Data model, metrics, split protocol, and CSV round-trips."""

import math

import numpy as np
import pytest

from rankrefine.core import (
    ComparisonOutcome,
    ComparisonSet,
    Dataset,
    Estimate,
    beta,
    load_dataset_csv,
    load_references_csv,
    mae,
    pra,
    read_table,
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
        assert len(cs)
        assert sorted(cs.labels) == [1.0, 2.0, 3.0]

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
        assert not len(cs)
        assert cs.below_labels.size == 0 and cs.above_labels.size == 0

    def test_plain_triples_partition_like_outcomes(self):
        triples = [("q", "a", True), ("q", "b", False), ("q", "c", False), ("p", "a", False)]
        outcomes = [ComparisonOutcome(*triple) for triple in triples]
        from_outcomes = ComparisonSet.from_outcomes(outcomes, self.LABELS)
        from_triples = ComparisonSet.from_outcomes(iter(triples), self.LABELS)
        for name in ("labels", "below_labels", "above_labels"):
            a, b = getattr(from_outcomes, name), getattr(from_triples, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert from_outcomes.n_below == from_triples.n_below == 1

    def test_row_is_read_only_and_shared_by_both_views(self):
        cs = ComparisonSet([1.0, 2.0, 3.0], 1)
        assert not cs.labels.flags.writeable
        with pytest.raises(ValueError):
            cs.labels[0] = 0.0
        for view in (cs.below_labels, cs.above_labels):
            assert not view.flags.writeable
            assert np.shares_memory(view, cs.labels)
        assert (cs.below_labels.tolist(), cs.above_labels.tolist()) == ([1.0], [2.0, 3.0])

    def test_caller_row_is_copied(self):
        row = np.array([1.0, 2.0, 3.0])
        cs = ComparisonSet(row, 2)
        assert row.flags.writeable
        assert not np.shares_memory(row, cs.labels)
        row[0] = 9.0
        assert cs.labels.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "labels, n_below",
        [([1.0, 2.0], -1), ([1.0, 2.0], 3), ([1.0, 2.0], 1.5), ([[1.0, 2.0]], 1)],
        ids=["n_below -1", "n_below len + 1", "n_below not an integer", "2-d row"],
    )
    def test_bad_row_or_split_rejected(self, labels, n_below):
        with pytest.raises(ValidationError):
            ComparisonSet(labels, n_below)

    @pytest.mark.parametrize(
        "triples, message",
        [
            (
                [("q", "a", True), ("q", "zzz", True), ("q", "a", False), ("q", "n", True)],
                "comparison references unknown id 'zzz'",
            ),
            (
                [("q", "a", True), ("q", "a", False), ("q", "zzz", True), ("q", "n", True)],
                "duplicate comparison for pair ('q', 'a')",
            ),
            (
                [("q", "b", True), ("q", "n", True), ("q", "zzz", True), ("q", "b", False)],
                "reference 'n' has non-finite label",
            ),
        ],
        ids=["unknown first", "duplicate first", "non-finite first"],
    )
    def test_first_fault_in_order_is_reported(self, triples, message):
        labels = {**self.LABELS, "n": math.nan}
        for outcomes in (triples, [ComparisonOutcome(*triple) for triple in triples]):
            with pytest.raises(DataError) as excinfo:
                ComparisonSet.from_outcomes(outcomes, labels)
            assert str(excinfo.value) == message


class TestComparisonOutcome:
    def test_immutable_hashable_tuple_with_named_repr(self):
        out = ComparisonOutcome("q", "a", True)
        with pytest.raises(AttributeError):
            out.query_above = False
        assert out == ComparisonOutcome(query_id="q", ref_id="a", query_above=True)
        assert out == ("q", "a", True)
        assert len({out, ComparisonOutcome("q", "a", True), ComparisonOutcome("q", "a", False)}) == 2
        assert repr(out) == "ComparisonOutcome(query_id='q', ref_id='a', query_above=True)"
        assert (out.query_id, out.ref_id, out.query_above) == ("q", "a", True)


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

    def test_labels_by_id_in_row_order(self):
        ds = _dataset(n=5).subset([4, 0, 2])
        labels = ds.labels_by_id()
        assert list(labels.items()) == [(i, float(v)) for i, v in zip(ds.ids, ds.y)]
        assert all(type(v) is float for v in labels.values())


class TestResplit:
    def test_partition_and_sizes(self):
        ds = _dataset(n=60)
        train, test = resplit(ds, train_size=50, seed=3)
        assert len(train) == 50 and len(test) == 10
        assert set(train.ids) | set(test.ids) == set(ds.ids)
        assert set(train.ids) & set(test.ids) == set()

    def test_deterministic_in_seed(self):
        ds = _dataset(n=80)
        t1, _ = resplit(ds, train_size=50, seed=11)
        t2, _ = resplit(ds, train_size=50, seed=11)
        assert t1.ids == t2.ids

    def test_seed_changes_split(self):
        ds = _dataset(n=80)
        picked = {resplit(ds, train_size=50, seed=s)[0].ids for s in range(8)}
        assert len(picked) == 8

    def test_rows_keep_alignment(self):
        ds = _dataset(n=70)
        train, test = resplit(ds, train_size=50, seed=2)
        lookup = {i: (tuple(f), v) for i, f, v in zip(ds.ids, ds.features, ds.y)}
        for part in (train, test):
            for i, f, v in zip(part.ids, part.features, part.y):
                assert lookup[i] == (tuple(f), v)

    def test_too_small_dataset_rejected(self):
        ds = _dataset(n=50)
        with pytest.raises(ValidationError):
            resplit(ds, train_size=50, seed=0)

    def test_empty_training_split_rejected(self):
        with pytest.raises(ValidationError, match="train_size must be >= 1, got 0"):
            resplit(_dataset(n=10), train_size=0)


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
        # Rankers read text from --queries and --references; a dataset skips it.
        path = tmp_path / "data.csv"
        path.write_text("id,x0,y,text\nm0,0.5,1.0,CCO\nm1,1.5,2.0,CCN\n")
        ds = load_dataset_csv(path)
        assert ds.n_features == 1
        np.testing.assert_array_equal(ds.features, [[0.5], [1.5]])

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
        path.write_text("id,y,extra\nb,1.5,ignored\na,-2,ignored\n")
        labels = load_references_csv(path)
        assert list(labels.items()) == [("b", 1.5), ("a", -2.0)]
        assert all(type(v) is float for v in labels.values())

    def test_read_table_rows_are_lists_in_header_order(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("y, id ,text\n1.5,  a ,hi there\n\n-2,b, x \n")
        header, rows = read_table(path, ("id",), numeric=("y",), key="id")
        assert header == ("y", "id", "text")
        rows = list(rows)
        # Numeric cells are floats and the key is stripped; other cells stay as read.
        assert rows == [(2, [1.5, "a", "hi there"]), (4, [-2.0, "b", " x "])]
        assert all(type(row) is list and type(row[0]) is float for _, row in rows)
