"""Core domain types, dataset handling, and evaluation metrics.

Everything downstream (the rank estimator, fusion, baselines, forest, and
the experiment harness) builds on the types defined here. Instances are
immutable after construction and every operation is pure, so values can be
shared freely across threads.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, ValidationError

logger = logging.getLogger(__name__)

TARGET_COLUMN = "y"
ID_COLUMN = "id"
TEXT_COLUMN = "text"


@dataclass(frozen=True)
class LabeledReference:
    """An item whose property value is known."""

    id: str
    label: float

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("reference id must be a non-empty string")
        if not math.isfinite(self.label):
            raise ValidationError(
                f"reference {self.id!r} has non-finite label {self.label!r}"
            )


@dataclass(frozen=True)
class ReferenceSet:
    """An ordered collection of labeled references with distinct ids."""

    references: tuple[LabeledReference, ...]

    def __post_init__(self) -> None:
        if not self.references:
            raise ValidationError("reference set must not be empty")
        ids = [ref.id for ref in self.references]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate reference ids: {dupes}")

    def __len__(self) -> int:
        return len(self.references)

    def labels_by_id(self) -> dict[str, float]:
        return {ref.id: ref.label for ref in self.references}


@dataclass(frozen=True)
class Estimate:
    """A value and its variance, as floats or as equal-length 1-d arrays.

    Arrays hold one estimate per query. Values must be finite and variances
    finite and positive, element by element.
    """

    value: float | np.ndarray
    variance: float | np.ndarray

    def __post_init__(self) -> None:
        value = np.asarray(self.value, dtype=float)
        variance = np.asarray(self.variance, dtype=float)
        if value.ndim > 1 or value.shape != variance.shape:
            raise ValidationError(
                f"estimate value and variance must be floats or equal-length 1-d "
                f"arrays, got shapes {value.shape} and {variance.shape}"
            )
        _require(np.isfinite(value), value, "estimate value must be finite")
        _require(
            np.isfinite(variance) & (variance > 0.0),
            variance,
            "estimate variance must be finite and positive",
        )
        if value.ndim == 1:
            object.__setattr__(self, "value", value)
            object.__setattr__(self, "variance", variance)


def _require(ok: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise ValidationError naming the first element of ``values`` failing ``ok``."""
    if not np.all(ok):
        bad = float(np.ravel(values)[np.argmin(np.ravel(ok))])
        raise ValidationError(f"{message}, got {bad!r}")


@dataclass(frozen=True)
class ComparisonOutcome:
    """One pairwise judgment: is the query's property above the reference's?

    ``query_above`` is True exactly when the ranker asserts the query's
    value exceeds the reference's value.
    """

    query_id: str
    ref_id: str
    query_above: bool


@dataclass(frozen=True, eq=False)
class ComparisonSet:
    """All pairwise outcomes for a single query, partitioned by direction.

    ``below_labels`` holds the labels of references the query was ranked
    above (so they sit below the query); ``above_labels`` the labels of
    references ranked above the query. An empty set is legal and simply
    carries no ranking evidence.
    """

    outcomes: tuple[ComparisonOutcome, ...]
    below_labels: np.ndarray
    above_labels: np.ndarray

    def __post_init__(self) -> None:
        for name in ("below_labels", "above_labels"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.below_labels) + len(self.above_labels) != len(self.outcomes):
            raise ValidationError("label partition does not match outcome count")

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Iterable[ComparisonOutcome],
        labels_by_id: Mapping[str, float],
    ) -> "ComparisonSet":
        """Partition outcomes using the references' known labels.

        Raises DataError when a reference id cannot be resolved or the same
        (query, reference) pair appears twice.
        """
        kept = tuple(outcomes)
        seen: set[tuple[str, str]] = set()
        below: list[float] = []
        above: list[float] = []
        for out in kept:
            pair = (out.query_id, out.ref_id)
            if pair in seen:
                raise DataError(f"duplicate comparison for pair {pair}")
            seen.add(pair)
            if out.ref_id not in labels_by_id:
                raise DataError(f"comparison references unknown id {out.ref_id!r}")
            label = float(labels_by_id[out.ref_id])
            if not math.isfinite(label):
                raise DataError(f"reference {out.ref_id!r} has non-finite label")
            (below if out.query_above else above).append(label)
        return cls(kept, np.array(below, dtype=float), np.array(above, dtype=float))

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def is_empty(self) -> bool:
        return not self.outcomes

    def all_labels(self) -> np.ndarray:
        return np.concatenate([self.below_labels, self.above_labels])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of (id, feature vector, target), optionally with display text."""

    ids: tuple[str, ...]
    features: np.ndarray
    y: np.ndarray
    text: tuple[str, ...] | None = None
    name: str = "dataset"

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=float))
        targets = np.ascontiguousarray(np.asarray(self.y, dtype=float))
        if feats.ndim != 2:
            raise ValidationError(f"features must be 2-d, got shape {feats.shape}")
        n = feats.shape[0]
        if targets.shape != (n,):
            raise ValidationError(
                f"targets have shape {targets.shape}, expected ({n},)"
            )
        if len(self.ids) != n:
            raise ValidationError(f"{len(self.ids)} ids for {n} rows")
        if n == 0:
            raise ValidationError("dataset must have at least one row")
        if feats.shape[1] == 0:
            raise ValidationError("dataset must have at least one feature column")
        if len(set(self.ids)) != n:
            raise ValidationError("dataset ids must be unique")
        if not np.all(np.isfinite(feats)):
            raise ValidationError("features contain non-finite values")
        if not np.all(np.isfinite(targets)):
            raise ValidationError("targets contain non-finite values")
        if self.text is not None and len(self.text) != n:
            raise ValidationError(f"{len(self.text)} text entries for {n} rows")
        feats.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "y", targets)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: Sequence[int] | np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            ids=tuple(self.ids[i] for i in idx),
            features=self.features[idx],
            y=self.y[idx],
            text=tuple(self.text[i] for i in idx) if self.text is not None else None,
            name=self.name,
        )

    def to_reference_set(self) -> ReferenceSet:
        refs = tuple(
            LabeledReference(i, float(v)) for i, v in zip(self.ids, self.y)
        )
        return ReferenceSet(refs)


@dataclass(frozen=True)
class SplitSpec:
    """How to carve train/test splits out of a dataset."""

    train_size: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.train_size < 1:
            raise ValidationError(f"train_size must be >= 1, got {self.train_size}")


def resplit(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Draw a small training split; everything else becomes the test split.

    Training rows are sampled uniformly without replacement. The split is a
    partition (no overlap, nothing dropped) and is deterministic for a fixed
    (dataset, seed). Row order within each side follows the original dataset.
    """
    n = len(dataset)
    if n < spec.train_size + 1:
        raise ValidationError(
            f"dataset has {n} rows; need at least train_size + 1 = {spec.train_size + 1}"
        )
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    train_idx = np.sort(perm[: spec.train_size])
    test_idx = np.sort(perm[spec.train_size :])
    return dataset.subset(train_idx), dataset.subset(test_idx)


def mae(predictions: Sequence[float], targets: Sequence[float]) -> float:
    """Mean absolute error between aligned prediction/target sequences."""
    pred = np.asarray(predictions, dtype=float)
    true = np.asarray(targets, dtype=float)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValidationError(
            f"predictions and targets must be 1-d and aligned, got {pred.shape} vs {true.shape}"
        )
    if pred.size == 0:
        raise ValidationError("mae of empty sequences is undefined")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(true))):
        raise ValidationError("mae inputs must be finite")
    return float(np.mean(np.abs(pred - true)))


def beta(mae_post: float, mae_reg: float) -> float:
    """Error ratio after/before refinement; below 1 means refinement helped."""
    if not (math.isfinite(mae_post) and math.isfinite(mae_reg)):
        raise ValidationError("beta inputs must be finite")
    if mae_reg <= 0.0:
        raise ValidationError(f"baseline MAE must be positive, got {mae_reg!r}")
    return mae_post / mae_reg


def pra(
    predicted: Sequence[ComparisonOutcome],
    truth_labels: Mapping[str, float],
) -> float:
    """Pairwise ranking accuracy of predicted outcomes against true labels.

    A pair agrees when ``query_above`` matches ``y_query > y_ref``. Pairs
    whose true labels tie are excluded from the count (and logged), since
    neither direction is correct for them.
    """
    outcomes = list(predicted)
    if not outcomes:
        raise ValidationError("pra of an empty outcome list is undefined")
    agree = 0
    ties = 0
    counted = 0
    for out in outcomes:
        for key in (out.query_id, out.ref_id):
            if key not in truth_labels:
                raise DataError(f"outcome references unknown id {key!r}")
        y_q = float(truth_labels[out.query_id])
        y_r = float(truth_labels[out.ref_id])
        if y_q == y_r:
            ties += 1
            continue
        counted += 1
        if out.query_above == (y_q > y_r):
            agree += 1
    if ties:
        logger.warning("pra: excluded %d tied pairs of %d", ties, len(outcomes))
    if counted == 0:
        raise ValidationError("pra is undefined: every pair was a tie")
    return agree / counted


# ---------------------------------------------------------------------------
# CSV input/output


def read_table(
    path: str | Path,
    required: Sequence[str] = (),
    numeric: Collection[str] = (),
    key: str | None = None,
) -> tuple[tuple[str, ...], Iterator[tuple[int, dict]]]:
    """Open a CSV file and stream its rows; the one reader of every CSV input.

    Returns the stripped header and an iterator of ``(line, cells)``, where
    ``line`` is the row's line number in the file and ``cells`` maps column
    names to cells. Rows are read as the iterator advances. Blank lines are
    skipped; ``numeric`` cells are parsed as finite floats; ``key`` cells are
    stripped and must be distinct. Every DataError names the path, and the
    row and column where one applies.
    """
    rows = _table_rows(Path(path), required, numeric, key)
    return next(rows), rows


def _table_rows(path: Path, required: Sequence[str], numeric: Collection[str], key: str | None):
    # Yields the header first, so that read_table raises header errors itself.
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        first = next((row for row in reader if row), None)
        if first is None:
            raise DataError(f"{path}: empty file, expected a header row")
        header = tuple(cell.strip() for cell in first)
        for column in required:
            if column not in header:
                raise DataError(f"{path}: missing required column {column!r}")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        yield header
        parsed = [column for column in header if column in numeric]
        seen: set[str] = set()
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {line} has {len(row)} cells, header has {len(header)}"
                )
            cells = dict(zip(header, row))
            for column in parsed:
                cells[column] = _parse_float(cells[column], path, line, column)
            if key in cells:
                value = cells[key] = cells[key].strip()
                if value in seen:
                    raise DataError(f"{path}: row {line}, column {key!r}: duplicate id {value!r}")
                seen.add(value)
            yield line, cells


def _parse_float(cell: str, path: Path, row_num: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise DataError(
            f"{path}: row {row_num}, column {column!r}: cannot parse {cell!r} as a number"
        ) from exc
    if not math.isfinite(value):
        raise DataError(
            f"{path}: row {row_num}, column {column!r}: non-finite value {cell!r}"
        )
    return value


def load_dataset_csv(path: str | Path, name: str | None = None) -> Dataset:
    """Load a dataset from CSV.

    The header row is required. Column ``y`` is the target; ``id`` and
    ``text`` are optional; every other column is a numeric feature. Row
    indices are used as ids when no id column is present.
    """
    path = Path(path)
    header, rows = read_table(path, (TARGET_COLUMN,), (TARGET_COLUMN,), key=ID_COLUMN)
    feature_names = [c for c in header if c not in (ID_COLUMN, TEXT_COLUMN, TARGET_COLUMN)]
    if not feature_names:
        raise DataError(f"{path}: no feature columns found")

    ids: list[str] = []
    texts: list[str] = []
    targets: list[float] = []
    features: list[list[float]] = []
    for offset, (line, cells) in enumerate(rows):
        ids.append(cells.get(ID_COLUMN, str(offset)))
        if TEXT_COLUMN in cells:
            texts.append(cells[TEXT_COLUMN])
        targets.append(cells[TARGET_COLUMN])
        features.append([_parse_float(cells[c], path, line, c) for c in feature_names])
    if not ids:
        raise DataError(f"{path}: no data rows")
    try:
        return Dataset(
            ids=tuple(ids),
            features=np.array(features, dtype=float),
            y=np.array(targets, dtype=float),
            text=tuple(texts) if TEXT_COLUMN in header else None,
            name=name if name is not None else path.stem,
        )
    except ValidationError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset to CSV in a form ``load_dataset_csv`` reads back."""
    header = [ID_COLUMN, *(f"x{j}" for j in range(dataset.n_features)), TARGET_COLUMN]
    rows = ([i, *x, y] for i, x, y in zip(dataset.ids, dataset.features, dataset.y))
    if dataset.text is not None:
        header.append(TEXT_COLUMN)
        rows = ([*row, text] for row, text in zip(rows, dataset.text))
    write_table(path, header, rows)


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a CSV file with a header row; the one writer of every CSV output.

    Floats, numpy floats among them, are written as ``repr(float(v))``,
    which keeps full precision, so reruns write byte-identical files.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def load_references_csv(path: str | Path) -> ReferenceSet:
    """Load labeled references from any CSV having ``id`` and ``y`` columns."""
    path = Path(path)
    _, rows = read_table(path, (ID_COLUMN, TARGET_COLUMN), (TARGET_COLUMN,), key=ID_COLUMN)
    refs = tuple(LabeledReference(cells[ID_COLUMN], cells[TARGET_COLUMN]) for _, cells in rows)
    if not refs:
        raise DataError(f"{path}: no data rows")
    return ReferenceSet(refs)
