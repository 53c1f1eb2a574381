"""Reproducible experiment protocols built on the library primitives.

Every protocol runs on one cell engine. A seed context holds one re-split:
its train/test split, forest, regressor estimates and each test query's
oracle draws, whose flips it also holds as one matrix. A cell is that context
at one (accuracy, k): the comparisons, rank estimates and clamped flags of
every test query, as per-query arrays.
The sweep, baseline and noise protocols are short reducers over cells, each
fusing a whole cell with one ``fuse`` call on arrays.

Each run routine derives every random choice from a master seed through
named substreams keyed by seed index, query id, and purpose ("split",
"forest", "oracle", "refs", "noise", "bound"). A cell draws nothing: it
judges a prefix of its context's draws, so a cell computed on its own
reproduces its record in a full sweep byte for byte, and different
protocols that reuse a cell (the noise study at b=0, the baseline deltas)
reproduce its numbers exactly. A query judging the same pairs correct as its
context's last solve at that k reuses that solve, bit for bit.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import forest as forest_mod
from .baselines import feasible_bounds, projection_refine, rbr_refine
from .core import (
    ComparisonSet,
    Dataset,
    Estimate,
    beta,
    mae,
    resplit,
    write_table,
)
from .errors import ValidationError
from .forest import TrainedForest
from .fusion import check_clamp_c, fuse, regularize_rank_variance, required_rank_variance
from .rank import solve_rank_estimates
from .rankers import (
    OracleDraws, check_accuracy, draw_oracle, generate_comparisons, judged_correct,
    log_tied_references,
)
from .seeding import derive_rng, derive_seed

logger = logging.getLogger(__name__)

NOISE_VARIANCE_FLOOR = 1e-9
MIN_BOUND_SAMPLES = 10_000

DEFAULT_ACCURACIES = tuple(round(0.50 + 0.05 * i, 2) for i in range(11))
DEFAULT_KS = (10, 20, 30)
DEFAULT_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)


# ---------------------------------------------------------------------------
# Synthetic data


def synthetic_target(features: np.ndarray) -> np.ndarray:
    """The fixed noiseless response surface of the synthetic benchmark.

    1.2*x0 + 3*x1*x2 over features in [-1, 1]; coordinates beyond the third
    are distractors. The product term carries most of the signal, so a small
    training split leaves plenty of headroom for comparison feedback to
    correct the regressor.
    """
    X = np.asarray(features, dtype=float)
    y = 1.2 * X[:, 0]
    if X.shape[1] > 2:
        y = y + 3.0 * X[:, 1] * X[:, 2]
    return y


def make_synthetic_dataset(
    n: int = 260,
    d: int = 12,
    noise_sd: float = 2.2,
    seed: int = 7,
) -> Dataset:
    """A regression benchmark with known structure and additive Gaussian noise.

    Features are uniform on [-1, 1]^d. Deterministic in (n, d, noise_sd,
    seed). Large enough for a 50-row training split plus a test split by
    construction.
    """
    if n < 60:
        raise ValidationError(f"n must be >= 60, got {n}")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    if not (math.isfinite(noise_sd) and noise_sd >= 0.0):
        raise ValidationError(f"noise_sd must be non-negative, got {noise_sd!r}")
    rng = derive_rng("synthetic", seed, n, d, float(noise_sd))
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    y = synthetic_target(X) + noise_sd * rng.standard_normal(n)
    ids = tuple(f"s{i:04d}" for i in range(n))
    return Dataset(ids=ids, features=X, y=y, name="synthetic")


# ---------------------------------------------------------------------------
# Fusion bound validation


def validate_bound(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> list[tuple[float, float]]:
    """Monte-Carlo check of the error-ratio guarantee of fusion.

    For each target ratio alpha, draws Gaussian regressor errors (variance
    one) and independent Gaussian rank-estimate errors at the variance that
    should shrink the MAE by exactly alpha, fuses them with the production
    weights, and reports (alpha, measured MAE ratio). The measured ratio
    converges to alpha at the usual 1/sqrt(n) Monte-Carlo rate.
    """
    if n_samples < MIN_BOUND_SAMPLES:
        raise ValidationError(
            f"n_samples must be >= {MIN_BOUND_SAMPLES} for a meaningful check, got {n_samples}"
        )
    if not alphas:
        raise ValidationError("at least one alpha is required")
    results: list[tuple[float, float]] = []
    for alpha in alphas:
        alpha = float(alpha)
        rank_var = required_rank_variance(alpha, 1.0)  # validates alpha
        weights = fuse(Estimate(0.0, 1.0), Estimate(0.0, rank_var))
        rng = derive_rng("bound", seed, alpha)
        reg_err = rng.standard_normal(n_samples)
        rank_err = rng.standard_normal(n_samples) * math.sqrt(rank_var)
        fused_err = weights.weight_reg * reg_err + weights.weight_rank * rank_err
        ratio = float(np.mean(np.abs(fused_err)) / np.mean(np.abs(reg_err)))
        results.append((alpha, ratio))
    return results


# ---------------------------------------------------------------------------
# Oracle sweep over (seed, accuracy, k)


@dataclass(frozen=True)
class SweepGrid:
    """The cells of an oracle sweep and the shared pipeline settings."""

    accuracies: tuple[float, ...] = DEFAULT_ACCURACIES
    ks: tuple[int, ...] = DEFAULT_KS
    seeds: int = 5
    train_size: int = 50
    clamp_c: float = 0.0

    def __post_init__(self) -> None:
        if not self.accuracies:
            raise ValidationError("at least one accuracy is required")
        for a in self.accuracies:
            check_accuracy(a)
        if not self.ks:
            raise ValidationError("at least one k is required")
        if any(k < 1 for k in self.ks):
            raise ValidationError("every k must be >= 1")
        if self.seeds < 1:
            raise ValidationError(f"seeds must be >= 1, got {self.seeds}")
        if self.train_size < 2:
            raise ValidationError(f"train_size must be >= 2, got {self.train_size}")
        if max(self.ks) > self.train_size:
            raise ValidationError(
                f"k={max(self.ks)} exceeds the {self.train_size} training rows"
                " that serve as references"
            )
        check_clamp_c(self.clamp_c)


@dataclass(frozen=True)
class SweepRecord:
    """One cell of a sweep: a (dataset, seed, accuracy, k) pipeline run."""

    dataset: str
    seed: int
    accuracy: float
    k: int
    mae_reg: float
    mae_post: float
    beta: float
    mean_rank_variance: float
    clamp_rate: float


@dataclass(frozen=True)
class _SeedContext:
    """One re-split's parts that do not depend on accuracy or k, its flip matrix and its solves."""

    seed_index: int
    train: Dataset
    test: Dataset
    model: TrainedForest
    reg: Estimate
    mae_reg: float
    draws: tuple[OracleDraws, ...]
    # k -> each query's last solve at k, in query order: (pairs judged correct,
    # ComparisonSet, RankEstimate), with a count of -1 before any solve.
    solved: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def train_values(self) -> np.ndarray:
        """Forest predictions on the training split, which the rbr baseline smooths toward."""
        return forest_mod.predict_matrix(self.model, self.train.features).mean(axis=0)

    @cached_property
    def flips(self) -> np.ndarray:
        """Every query's flips as one matrix; NaN pads a tied query's row, never judged correct."""
        flips = np.full((len(self.draws), max(d.flips.size for d in self.draws)), np.nan)
        for row, draws in zip(flips, self.draws):
            row[: draws.flips.size] = draws.flips
        return flips


def _build_seed_context(
    dataset: Dataset,
    seed_index: int,
    master_seed: int,
    train_size: int,
    n_trees: int,
    k: int,
) -> _SeedContext:
    """Fit one re-split and draw each test query's oracle pairs for cells up to k."""
    train, test = resplit(
        dataset, train_size=train_size, seed=derive_seed("split", master_seed, seed_index)
    )
    model = forest_mod.fit(
        train, n_trees=n_trees, seed=derive_seed("forest-seed", master_seed, seed_index)
    )
    reg_values, reg_variances = forest_mod.predict_with_variance_matrix(
        model, test.features
    )
    labels = train.labels_by_id()
    oracle = derive_seed("oracle-seed", master_seed, seed_index)
    draws = tuple(
        draw_oracle(qid, y, labels, k, oracle, derive_rng("refs", master_seed, seed_index, qid))
        for qid, y in zip(test.ids, test.y.tolist())
    )
    log_tied_references(draws, len(labels), f"seed {seed_index}")
    return _SeedContext(
        seed_index=seed_index,
        train=train,
        test=test,
        model=model,
        reg=Estimate(reg_values, reg_variances),
        mae_reg=mae(reg_values, test.y),
        draws=draws,
    )


@dataclass(frozen=True, eq=False)
class _Cell:
    """One (seed, accuracy, k) cell: per-query arrays in test-split order.

    ``rank`` holds the unclamped rank estimates; ``clamped`` flags the
    queries whose estimate sits on a search-domain boundary.
    """

    ctx: _SeedContext
    accuracy: float
    k: int
    comparisons: list[ComparisonSet]
    rank: Estimate
    clamped: np.ndarray


def _compute_cell(ctx: _SeedContext, accuracy: float, k: int) -> _Cell:
    """Judge every test query's first k drawn pairs at one accuracy, then solve.

    The pairs judged correct (``judged_correct``) nest as the accuracy
    grows, so their count names the set. One comparison over the context's
    flip matrix counts every query's; a query whose count matches the last
    solve at this k reuses that solve's comparisons and estimate. The other
    queries' sets are built and solved in one batch, in query order, and only
    then replace their entries at k. The cell builds its own arrays from the
    estimates, so a later cell never changes it.
    """
    n_correct = np.count_nonzero(judged_correct(ctx.flips[:, :k], accuracy), axis=1).tolist()
    solved = ctx.solved.setdefault(k, [(-1, None, None)] * len(ctx.draws))
    fresh = [i for i, (count, _, _) in enumerate(solved) if count != n_correct[i]]
    labels_by_id = ctx.train.labels_by_id()
    fresh_sets = [
        ComparisonSet.from_outcomes(generate_comparisons(ctx.draws[i], k, accuracy), labels_by_id)
        for i in fresh
    ]
    for i, comps, est in zip(fresh, fresh_sets, solve_rank_estimates(fresh_sets)):
        solved[i] = (n_correct[i], comps, est)
    _, sets, estimates = zip(*solved)
    rows = [(est.value, est.variance, est.clamped) for est in estimates]
    value, variance, clamped = map(np.array, zip(*rows))
    return _Cell(ctx, accuracy, k, list(sets), Estimate(value, variance), clamped)


def _run_grid(
    dataset: Dataset,
    grid: SweepGrid,
    n_trees: int,
    master_seed: int,
    reduce: Callable[[_Cell], object],
) -> list:
    """Reduce every cell of the grid: seeds outermost, then accuracies, then ks."""
    contexts = [
        _build_seed_context(dataset, i, master_seed, grid.train_size, n_trees, max(grid.ks))
        for i in range(grid.seeds)
    ]
    return [
        reduce(_compute_cell(ctx, accuracy, k))
        for ctx in contexts
        for accuracy in grid.accuracies
        for k in grid.ks
    ]


def _fused_mae(ctx: _SeedContext, rank: Estimate) -> float:
    return mae(fuse(ctx.reg, rank).value, ctx.test.y)


def _sweep_record(cell: _Cell, dataset_name: str, clamp_c: float) -> SweepRecord:
    rank = cell.rank
    if clamp_c > 0.0:
        rank = Estimate(
            rank.value, regularize_rank_variance(rank.variance, cell.ctx.reg.variance, clamp_c)
        )
    mae_post = _fused_mae(cell.ctx, rank)
    return SweepRecord(
        dataset=dataset_name,
        seed=cell.ctx.seed_index,
        accuracy=cell.accuracy,
        k=cell.k,
        mae_reg=cell.ctx.mae_reg,
        mae_post=mae_post,
        beta=beta(mae_post, cell.ctx.mae_reg),
        mean_rank_variance=float(np.mean(rank.variance)),
        clamp_rate=float(np.mean(cell.clamped)),
    )


def run_oracle_sweep(
    dataset: Dataset,
    grid: SweepGrid = SweepGrid(),
    n_trees: int = 100,
    master_seed: int = 0,
) -> list[SweepRecord]:
    """Run the full (seed, accuracy, k) grid of simulated-ranker pipelines.

    Order of records: seeds outermost, then accuracies, then ks, matching
    the construction order of the grid. Deterministic in (dataset, grid,
    n_trees, master_seed).
    """
    return _run_grid(
        dataset,
        grid,
        n_trees,
        master_seed,
        lambda cell: _sweep_record(cell, dataset.name, grid.clamp_c),
    )


# ---------------------------------------------------------------------------
# Baseline comparisons


@dataclass(frozen=True)
class BaselineDeltaRecord:
    """Paired error ratios of fusion and a baseline on the identical cell."""

    dataset: str
    seed: int
    accuracy: float
    k: int
    beta_fused: float
    beta_baseline: float
    delta: float


def run_baseline_delta(
    dataset: Dataset,
    grid: SweepGrid,
    method: str,
    n_trees: int = 100,
    master_seed: int = 0,
) -> list[BaselineDeltaRecord]:
    """Compare fusion against a baseline refiner on shared comparisons.

    ``method`` is "projection" (clamp into the comparisons' feasible
    interval) or "rbr" (neighbor smoothing; it ignores comparisons, so its
    column is constant across accuracies). Both routes see exactly the same
    splits, forests, and comparison draws as ``run_oracle_sweep``, so the
    fused betas here match that sweep's records cell for cell. ``delta``
    is beta_fused - beta_baseline (negative favors fusion).
    """
    if method not in ("projection", "rbr"):
        raise ValidationError(f"method must be 'projection' or 'rbr', got {method!r}")
    rbr_betas: dict[tuple[int, int], float] = {}  # (seed, k) -> beta_baseline

    def delta_record(cell: _Cell) -> BaselineDeltaRecord:
        ctx = cell.ctx
        if method == "projection":
            lower, upper = feasible_bounds(cell.comparisons)
            refined = projection_refine(ctx.reg.value, lower, upper)
            inconsistent = float(np.mean(lower > upper))
            if inconsistent:
                logger.info(
                    "projection: %.0f%% inconsistent intervals at seed=%d accuracy=%.2f k=%d",
                    100 * inconsistent,
                    ctx.seed_index,
                    cell.accuracy,
                    cell.k,
                )
            beta_baseline = beta(mae(refined, ctx.test.y), ctx.mae_reg)
        else:
            # rbr ignores comparisons, so each (seed, k) refines once for all accuracies.
            key = (ctx.seed_index, cell.k)
            if key not in rbr_betas:
                refined = rbr_refine(
                    ctx.test.features, ctx.reg.value, ctx.train, ctx.train_values, cell.k
                )
                rbr_betas[key] = beta(mae(refined, ctx.test.y), ctx.mae_reg)
            beta_baseline = rbr_betas[key]
        beta_fused = _sweep_record(cell, dataset.name, grid.clamp_c).beta
        return BaselineDeltaRecord(
            dataset=dataset.name,
            seed=ctx.seed_index,
            accuracy=cell.accuracy,
            k=cell.k,
            beta_fused=beta_fused,
            beta_baseline=beta_baseline,
            delta=beta_fused - beta_baseline,
        )

    return _run_grid(dataset, grid, n_trees, master_seed, delta_record)


# ---------------------------------------------------------------------------
# Sensitivity to mis-stated rank variances


@dataclass(frozen=True)
class NoiseRecord:
    seed: int
    b: float
    beta: float


@dataclass(frozen=True)
class NoiseSweepResult:
    """Betas under additive perturbation of the rank variances, one record per seed and b.

    ``rank_var_mean``/``rank_var_sd`` describe the unperturbed variance
    estimates pooled over seeds and queries, which is the scale against
    which the perturbation half-widths b should be read.
    """

    records: tuple[NoiseRecord, ...]
    rank_var_mean: float
    rank_var_sd: float


def run_noise_sweep(
    dataset: Dataset,
    bs: Sequence[float],
    k: int = 30,
    accuracy: float = 0.8,
    seeds: int = 5,
    train_size: int = 50,
    n_trees: int = 100,
    master_seed: int = 0,
) -> NoiseSweepResult:
    """Measure how fusion degrades as rank variances are mis-stated.

    Each query's estimated rank variance is shifted by b*u with u uniform on
    [-1, 1] (keyed by query, independent of b) and floored at a small
    positive epsilon before fusing. b=0 leaves every variance bit-identical
    to the unperturbed pipeline, so its betas reproduce the oracle sweep's.
    """
    for b in bs:
        if not (math.isfinite(b) and b >= 0.0):
            raise ValidationError(f"perturbation half-width must be >= 0, got {b!r}")
    if not bs:
        raise ValidationError("at least one perturbation half-width is required")
    grid = SweepGrid(accuracies=(accuracy,), ks=(k,), seeds=seeds, train_size=train_size)

    def seed_records(cell: _Cell) -> tuple[list[NoiseRecord], np.ndarray]:
        ctx = cell.ctx
        draws = np.array(
            [
                derive_rng("noise", master_seed, ctx.seed_index, qid).uniform(-1.0, 1.0)
                for qid in ctx.test.ids
            ]
        )
        records = []
        for b in bs:
            perturbed = np.maximum(cell.rank.variance + float(b) * draws, NOISE_VARIANCE_FLOOR)
            mae_post = _fused_mae(ctx, Estimate(cell.rank.value, perturbed))
            records.append(
                NoiseRecord(seed=ctx.seed_index, b=float(b), beta=beta(mae_post, ctx.mae_reg))
            )
        return records, cell.rank.variance

    per_seed = _run_grid(dataset, grid, n_trees, master_seed, seed_records)
    pooled = np.concatenate([variances for _, variances in per_seed])
    return NoiseSweepResult(
        records=tuple(record for records, _ in per_seed for record in records),
        rank_var_mean=float(np.mean(pooled)),
        rank_var_sd=float(np.std(pooled, ddof=1)) if pooled.size > 1 else 0.0,
    )


# ---------------------------------------------------------------------------
# CSV output


def _write_records(path: str | Path, record_type: type, records: Iterable[object]) -> None:
    """One column per field of the record dataclass, in declaration order."""
    names = [f.name for f in fields(record_type)]
    write_table(path, names, ([getattr(r, name) for name in names] for r in records))


def write_sweep_csv(records: Sequence[SweepRecord], path: str | Path) -> None:
    _write_records(path, SweepRecord, records)


def write_bound_csv(
    results: Sequence[tuple[float, float]], n_samples: int, path: str | Path
) -> None:
    write_table(
        path,
        ["alpha", "empirical_beta", "n_samples"],
        ((alpha, ratio, n_samples) for alpha, ratio in results),
    )


def write_baseline_csv(records: Sequence[BaselineDeltaRecord], path: str | Path) -> None:
    _write_records(path, BaselineDeltaRecord, records)


def write_noise_csv(result: NoiseSweepResult, path: str | Path) -> None:
    """Mean beta over the records of each distinct perturbation half-width, in ascending b."""
    bs = sorted({r.b for r in result.records})
    means = (float(np.mean([r.beta for r in result.records if r.b == b])) for b in bs)
    write_table(path, ["b", "beta"], zip(bs, means))
