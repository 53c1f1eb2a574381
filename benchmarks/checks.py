"""Output checks that need no reference run, so they hold on any workload seed.

Each check is one checked operation; ``fail_share`` is failed / attempted.
The arithmetic is the benchmark's own, except the minimality check, which
evaluates the library's public ``bt_nll`` around each reported estimate.
"""

from __future__ import annotations

import csv
import io
import math
import sys

REFINE_HEADER = ["id", "y_reg", "var_reg", "y_rank", "var_rank", "y_fused", "var_fused", "clamped"]
SWEEP_HEADER = [
    "dataset", "seed", "accuracy", "k", "mae_reg", "mae_post", "beta",
    "mean_rank_variance", "clamp_rate",
]
NOISE_HEADER = ["b", "beta"]

FUSED_MEAN_RTOL = 1e-9
# 1/(1/a + 1/b) can round one ulp above min(a, b) when b dwarfs a.
VARIANCE_ROUNDING = 1e-12
BETA_RTOL = 1e-12
# The solver stops once |dNLL/dy| <= 1e-8, so an estimate may sit up to
# 1e-8 * var_rank from the minimiser; the probe step keeps well clear of it.
PROBE_STEP_SD = 1e-3
NLL_ATOL = 1e-12


class Checker:
    """Counts checked operations and failures; reports the first few failures."""

    def __init__(self, max_reports: int = 10) -> None:
        self.attempted = 0
        self.failed = 0
        self.max_reports = max_reports

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= self.max_reports:
                print(f"check failed: {message}", file=sys.stderr)
        return ok


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def _finite(cells: list[str]) -> list[float] | None:
    try:
        values = [float(c) for c in cells]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def check_refine(checker: Checker, data: bytes, predictions, comparison_sets, bt_nll) -> None:
    """Check a refine output against the inputs that produced it.

    ``predictions`` is the list of (id, y_reg text, var_reg text) in file
    order and ``comparison_sets`` maps an id to its ``ComparisonSet``.
    """
    rows = _rows(data)
    checker.check(bool(rows) and rows[0] == REFINE_HEADER, "refine header")
    body = rows[1:]
    checker.check(len(body) == len(predictions), f"refine rows {len(body)} != {len(predictions)}")
    for (pid, y_text, var_text), row in zip(predictions, body):
        where = f"refine row {pid}"
        if not checker.check(len(row) == len(REFINE_HEADER) and row[0] == pid, f"{where}: present"):
            continue
        comparisons = comparison_sets.get(pid)
        if comparisons is None:
            checker.check(
                row[1:] == [y_text, var_text, "", "", y_text, var_text, ""],
                f"{where}: pass-through row changed",
            )
            continue
        values = _finite(row[1:7])
        if not checker.check(
            values is not None and row[7] in ("true", "false") and row[1:3] == [y_text, var_text],
            f"{where}: missing, non-finite or altered cells",
        ):
            continue
        y_reg, var_reg, y_rank, var_rank, y_fused, var_fused = values
        checker.check(
            0.0 < var_fused <= min(var_reg, var_rank) * (1.0 + VARIANCE_ROUNDING),
            f"{where}: var_fused {var_fused!r} above min({var_reg!r}, {var_rank!r})",
        )
        expected = (y_reg / var_reg + y_rank / var_rank) / (1.0 / var_reg + 1.0 / var_rank)
        scale = max(abs(y_reg), abs(y_rank), abs(expected))
        checker.check(
            abs(y_fused - expected) <= FUSED_MEAN_RTOL * scale,
            f"{where}: y_fused {y_fused!r} is not the precision-weighted mean {expected!r}",
        )
        if row[7] == "false":
            step = PROBE_STEP_SD * math.sqrt(var_rank)
            at = bt_nll(y_rank, comparisons)
            worst = min(bt_nll(y_rank - step, comparisons), bt_nll(y_rank + step, comparisons))
            checker.check(
                at <= worst + NLL_ATOL * (1.0 + abs(at)),
                f"{where}: y_rank {y_rank!r} does not minimise bt_nll ({at!r} > {worst!r})",
            )


def check_sweep(checker: Checker, data: bytes, keys) -> list[float]:
    """Check a sweep output has one row per expected (dataset, seed, accuracy, k) key.

    Returns the betas of the rows that passed.
    """
    rows = _rows(data)
    checker.check(bool(rows) and rows[0] == SWEEP_HEADER, "sweep header")
    body = rows[1:]
    checker.check(len(body) == len(keys), f"sweep rows {len(body)} != {len(keys)}")
    betas = []
    for key, row in zip(keys, body):
        where = f"sweep row {key}"
        try:
            present = len(row) == len(SWEEP_HEADER) and (
                row[0], int(row[1]), float(row[2]), int(row[3])
            ) == key
        except ValueError:
            present = False
        if not checker.check(present, f"{where}: present"):
            continue
        values = _finite(row[4:])
        if not checker.check(values is not None and values[0] > 0.0, f"{where}: non-finite"):
            continue
        mae_reg, mae_post, beta = values[:3]
        if checker.check(
            abs(beta - mae_post / mae_reg) <= BETA_RTOL * abs(beta),
            f"{where}: beta {beta!r} != mae_post/mae_reg",
        ):
            betas.append(beta)
    return betas


def check_noise(checker: Checker, data: bytes, bs) -> dict[float, float]:
    """Check a noise output has one finite, positive beta per perturbation width."""
    rows = _rows(data)
    checker.check(bool(rows) and rows[0] == NOISE_HEADER, "noise header")
    body = rows[1:]
    checker.check(len(body) == len(bs), f"noise rows {len(body)} != {len(bs)}")
    betas = {}
    for b, row in zip(bs, body):
        values = _finite(row) if len(row) == 2 else None
        if checker.check(
            values is not None and values[0] == b and values[1] > 0.0, f"noise row b={b}"
        ):
            betas[b] = values[1]
    return betas
