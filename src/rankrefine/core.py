"""Core domain types, dataset handling, and evaluation metrics.

Everything downstream (the rank estimator, fusion, baselines, forest, and
the experiment harness) builds on the types defined here. Instances are
immutable after construction and every operation is pure, so values can be
shared freely.

Ids live at the edges and labels at the solver: a ``ComparisonOutcome`` is
a ``(query_id, ref_id, query_above)`` triple where comparisons are read,
written or asked for, and a ``ComparisonSet`` holds only the reference labels
the rank estimate reads; ``from_outcomes`` partitions any such triples.
References themselves are one ``dict`` of id -> label, in file or row order.
CSV rows come from ``read_table`` as lists of cells in header order.
"""

from __future__ import annotations

import csv
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, ValidationError

logger = logging.getLogger(__name__)

TARGET_COLUMN = "y"
ID_COLUMN = "id"
TEXT_COLUMN = "text"


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


class ComparisonOutcome(NamedTuple):
    """One pairwise judgment: is the query's property above the reference's?

    ``query_above`` is True exactly when the ranker asserts the query's
    value exceeds the reference's value. It is a ``(query_id, ref_id,
    query_above)`` tuple, so it equals a plain triple with the same values.
    """

    query_id: str
    ref_id: str
    query_above: bool


@dataclass(frozen=True, eq=False)
class ComparisonSet:
    """A query's comparisons as the solver reads them: one row of labels.

    ``labels`` is that row, a private read-only copy: first the ``n_below``
    labels of references the query was ranked above (so they sit below the
    query), then those of references ranked above it. ``below_labels`` and
    ``above_labels`` are views of its two parts. Ids stay with the outcomes
    at the edges. An empty set is legal and carries no ranking evidence.
    """

    labels: np.ndarray
    n_below: int

    def __post_init__(self) -> None:
        labels = np.array(self.labels, dtype=float)
        if labels.ndim != 1:
            raise ValidationError(f"labels must be 1-d, got shape {labels.shape}")
        if not (isinstance(self.n_below, (int, np.integer)) and 0 <= self.n_below <= labels.size):
            raise ValidationError(
                f"n_below must be an integer in [0, {labels.size}], got {self.n_below!r}"
            )
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def below_labels(self) -> np.ndarray:
        return self.labels[: self.n_below]

    @property
    def above_labels(self) -> np.ndarray:
        return self.labels[self.n_below :]

    @classmethod
    def from_outcomes(
        cls,
        outcomes: Iterable[tuple[str, str, bool]],
        labels_by_id: Mapping[str, float],
    ) -> "ComparisonSet":
        """Partition ``(query_id, ref_id, query_above)`` triples by reference label.

        Raises DataError at the first triple whose pair repeats, whose reference
        id is unknown or whose reference label is not finite, checked in that order.
        """
        seen: set[tuple[str, str]] = set()
        below: list[float] = []
        above: list[float] = []
        for query_id, ref_id, query_above in outcomes:
            pair = (query_id, ref_id)
            if pair in seen:
                raise DataError(f"duplicate comparison for pair {pair}")
            seen.add(pair)
            if ref_id not in labels_by_id:
                raise DataError(f"comparison references unknown id {ref_id!r}")
            label = float(labels_by_id[ref_id])
            if not math.isfinite(label):
                raise DataError(f"reference {ref_id!r} has non-finite label")
            (below if query_above else above).append(label)
        return cls(below + above, len(below))

    def __len__(self) -> int:
        return self.labels.size


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of (id, feature vector, target)."""

    ids: tuple[str, ...]
    features: np.ndarray
    y: np.ndarray
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
            name=self.name,
        )

    def labels_by_id(self) -> dict[str, float]:
        """Each row's id and target, in row order: the rows as references."""
        return dict(zip(self.ids, self.y.tolist()))


def resplit(dataset: Dataset, *, train_size: int = 50, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Draw a small training split; everything else becomes the test split.

    Training rows are sampled uniformly without replacement. The split is a
    partition (no overlap, nothing dropped) and is deterministic for a fixed
    (dataset, seed). Row order within each side follows the original dataset.
    """
    if train_size < 1:
        raise ValidationError(f"train_size must be >= 1, got {train_size}")
    n = len(dataset)
    if n < train_size + 1:
        raise ValidationError(
            f"dataset has {n} rows; need at least train_size + 1 = {train_size + 1}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    train_idx = np.sort(perm[:train_size])
    test_idx = np.sort(perm[train_size:])
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
) -> tuple[tuple[str, ...], Iterator[tuple[int, list]]]:
    """Open a CSV file and stream its rows; the one reader of every CSV input.

    Returns the stripped header and an iterator of ``(line, row)``, where
    ``line`` is the row's line number in the file and ``row`` lists its cells
    in header order. Rows are read as the iterator advances. Blank lines are
    skipped; ``numeric`` cells are parsed in place as finite floats; ``key``
    cells are stripped and must be non-empty and distinct. Every DataError
    names the path, and the row and column where one applies.
    """
    rows = _table_rows(Path(path), required, numeric, key)
    return next(rows), rows


def _table_rows(path: Path, required: Sequence[str], numeric: Collection[str], key: str | None):
    # Yields the header first, so that read_table raises header errors itself.
    with open_input(path, table=True) as reader:
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
        width = len(header)
        parsed = [(at, column) for at, column in enumerate(header) if column in numeric]
        key_at = header.index(key) if key in header else None
        seen: set[str] = set()
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != width:
                raise DataError(f"{path}: row {line} has {len(row)} cells, header has {width}")
            for at, column in parsed:
                row[at] = _parse_float(row[at], path, line, column)
            if key_at is not None:
                value = row[key_at] = row[key_at].strip()
                if not value:
                    raise DataError(f"{path}: row {line}, column {key!r}: empty id")
                if value in seen:
                    raise DataError(f"{path}: row {line}, column {key!r}: duplicate id {value!r}")
                seen.add(value)
            yield line, row


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

    The header row is required. Column ``y`` is the target; ``id`` is
    optional, and a ``text`` column is ignored; every other column is a
    numeric feature. Row indices are used as ids when no id column is present.
    """
    path = Path(path)
    header, rows = read_table(path, (TARGET_COLUMN,), (TARGET_COLUMN,), key=ID_COLUMN)
    excluded = (ID_COLUMN, TEXT_COLUMN, TARGET_COLUMN)
    features_at = [(at, c) for at, c in enumerate(header) if c not in excluded]
    if not features_at:
        raise DataError(f"{path}: no feature columns found")
    id_at = header.index(ID_COLUMN) if ID_COLUMN in header else None
    y_at = header.index(TARGET_COLUMN)

    ids: list[str] = []
    targets: list[float] = []
    features: list[list[float]] = []
    for offset, (line, row) in enumerate(rows):
        ids.append(str(offset) if id_at is None else row[id_at])
        targets.append(row[y_at])
        features.append([_parse_float(row[at], path, line, c) for at, c in features_at])
    if not ids:
        raise DataError(f"{path}: no data rows")
    try:
        return Dataset(
            ids=tuple(ids),
            features=np.array(features, dtype=float),
            y=np.array(targets, dtype=float),
            name=name if name is not None else path.stem,
        )
    except ValidationError as exc:
        raise DataError(f"{path}: {exc}") from exc


def save_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset to CSV in a form ``load_dataset_csv`` reads back."""
    header = [ID_COLUMN, *(f"x{j}" for j in range(dataset.n_features)), TARGET_COLUMN]
    rows = ([i, *x, y] for i, x, y in zip(dataset.ids, dataset.features, dataset.y))
    write_table(path, header, rows)


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a CSV file with a header row; the one writer of every CSV output.

    Floats, numpy floats among them, are written as ``repr(float(v))``,
    which keeps full precision, so reruns write byte-identical files. A path
    that cannot be written is a DataError naming it.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


@contextmanager
def open_input(path: str | Path, table: bool = False) -> Iterator:
    """Open an input file as UTF-8, dropping a byte-order mark; the one opener of every input.

    Yields a ``csv.reader`` over the file if ``table``, else the text. A file
    that cannot be opened, decoded or parsed as CSV is a DataError naming the
    path, and the row a CSV parse failed at.
    """
    reader = None
    try:
        with open(path, newline="" if table else None, encoding="utf-8-sig") as handle:
            reader = csv.reader(handle) if table else None
            yield reader if table else handle
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        row = f"row {reader.line_num}: " if isinstance(exc, csv.Error) else ""
        raise DataError(f"{path}: {row}cannot read: {exc}") from exc


def load_references_csv(path: str | Path) -> dict[str, float]:
    """Load reference id -> label, in file order, from any CSV having ``id`` and ``y`` columns."""
    path = Path(path)
    header, rows = read_table(path, (ID_COLUMN, TARGET_COLUMN), (TARGET_COLUMN,), key=ID_COLUMN)
    id_at, y_at = header.index(ID_COLUMN), header.index(TARGET_COLUMN)
    labels = {row[id_at]: row[y_at] for _, row in rows}
    if not labels:
        raise DataError(f"{path}: no data rows")
    return labels
