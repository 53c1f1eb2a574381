"""Experiment harness: synthetic data, sweeps, baselines, noise, CSV output."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rankrefine import experiments
from rankrefine.core import load_dataset_csv
from rankrefine.errors import ValidationError
from rankrefine.experiments import (
    NOISE_VARIANCE_FLOOR,
    BaselineDeltaRecord,
    SweepGrid,
    SweepRecord,
    _build_seed_context,
    _compute_cell,
    make_synthetic_dataset,
    run_baseline_delta,
    run_noise_sweep,
    run_oracle_sweep,
    synthetic_target,
    validate_bound,
    write_baseline_csv,
    write_bound_csv,
    write_noise_csv,
    write_sweep_csv,
)

# Small settings so harness tests run in seconds; the defaults are exercised
# by the acceptance suite.
FAST_TREES = 8
FAST_GRID = SweepGrid(accuracies=(0.6, 0.9), ks=(3, 5), seeds=2, train_size=50)


def _fast_dataset():
    return make_synthetic_dataset(n=75, d=4, noise_sd=1.0, seed=3)


def _fresh(ctx):
    """The same seed context with nothing solved yet."""
    return replace(ctx, solved={})


class TestSyntheticData:
    def test_target_hand_values(self):
        X = np.array([[1.0, 1.0, 1.0, 0.0], [0.5, -1.0, 1.0, 9.9]])
        np.testing.assert_allclose(synthetic_target(X), [4.2, -2.4])

    def test_trailing_features_are_distractors(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(100, 8))
        Y = X.copy()
        Y[:, 3:] = rng.uniform(-1, 1, size=(100, 5))
        np.testing.assert_array_equal(synthetic_target(X), synthetic_target(Y))

    def test_shapes_and_determinism(self):
        a = make_synthetic_dataset(n=80, d=6, noise_sd=0.5, seed=1)
        b = make_synthetic_dataset(n=80, d=6, noise_sd=0.5, seed=1)
        assert a.features.shape == (80, 6)
        assert a.ids == b.ids
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.y, b.y)

    def test_each_parameter_changes_the_data(self):
        base = make_synthetic_dataset(n=80, d=6, noise_sd=0.5, seed=1)
        for other in (
            make_synthetic_dataset(n=80, d=6, noise_sd=0.5, seed=2),
            make_synthetic_dataset(n=80, d=6, noise_sd=0.6, seed=1),
        ):
            assert not np.array_equal(base.y, other.y)

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_synthetic_dataset(n=10)
        with pytest.raises(ValidationError):
            make_synthetic_dataset(d=0)
        with pytest.raises(ValidationError):
            make_synthetic_dataset(noise_sd=-1.0)


class TestValidateBound:
    def test_small_run_tracks_targets(self):
        results = validate_bound(alphas=(0.3, 0.7), n_samples=60_000, seed=1)
        for alpha, ratio in results:
            assert ratio == pytest.approx(alpha, abs=0.02)

    def test_deterministic(self):
        a = validate_bound(alphas=(0.5,), n_samples=20_000, seed=4)
        b = validate_bound(alphas=(0.5,), n_samples=20_000, seed=4)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValidationError):
            validate_bound(alphas=(1.5,), n_samples=1000)
        with pytest.raises(ValidationError):
            validate_bound(alphas=(0.5,), n_samples=10)


class TestOracleSweep:
    def test_record_fields_consistent(self):
        recs = run_oracle_sweep(
            _fast_dataset(), FAST_GRID, n_trees=FAST_TREES, master_seed=0
        )
        assert len(recs) == 2 * 2 * 2  # seeds x accuracies x ks
        for r in recs:
            assert r.beta == pytest.approx(r.mae_post / r.mae_reg, rel=1e-12)
            assert 0.0 <= r.clamp_rate <= 1.0
            assert r.mean_rank_variance > 0.0

    def test_n_trees_sets_each_forest_size(self):
        ctx = _build_seed_context(_fast_dataset(), 0, 6, 50, FAST_TREES, 5)
        assert len(ctx.model.trees) == FAST_TREES
        with pytest.raises(ValidationError, match="n_trees must be >= 2"):
            run_oracle_sweep(_fast_dataset(), FAST_GRID, n_trees=1)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            SweepGrid(accuracies=(0.4,))
        with pytest.raises(ValidationError):
            SweepGrid(ks=(0,))
        with pytest.raises(ValidationError):
            SweepGrid(seeds=0)
        with pytest.raises(ValidationError):
            SweepGrid(clamp_c=-0.1)
        with pytest.raises(ValidationError, match="k=51 exceeds the 50 training rows"):
            SweepGrid(ks=(10, 51), train_size=50)

    def test_master_seed_changes_results(self):
        ds = _fast_dataset()
        a = run_oracle_sweep(ds, FAST_GRID, n_trees=FAST_TREES, master_seed=0)
        b = run_oracle_sweep(ds, FAST_GRID, n_trees=FAST_TREES, master_seed=1)
        assert a != b

    def test_perfect_oracle_never_flips(self):
        grid = SweepGrid(accuracies=(1.0,), ks=(5,), seeds=1, train_size=50)
        a = run_oracle_sweep(
            _fast_dataset(), grid, n_trees=FAST_TREES, master_seed=2
        )
        b = run_oracle_sweep(
            _fast_dataset(), grid, n_trees=FAST_TREES, master_seed=2
        )
        assert a == b


class TestCellReuse:
    """A cell that reuses an earlier cell's solve is indistinguishable from a fresh one."""

    def test_shuffled_repeated_cells_equal_fresh_cells(self, monkeypatch):
        ctx = _build_seed_context(_fast_dataset(), 0, 6, 50, FAST_TREES, 10)
        order = [
            (0.8, 5), (0.6, 10), (0.8, 5), (1.0, 10), (0.55, 5), (0.6, 10),
            (0.9, 10), (0.9, 5), (0.75, 10), (1.0, 5), (0.55, 10), (0.8, 5),
        ]
        solves = []
        solve = experiments.solve_rank_estimate
        monkeypatch.setattr(
            experiments, "solve_rank_estimate", lambda comps: solves.append(1) or solve(comps)
        )
        reused = [_compute_cell(ctx, accuracy, k) for accuracy, k in order]
        assert 0 < len(solves) < len(order) * len(ctx.draws)
        for cell, (accuracy, k) in zip(reused, order):
            fresh = _compute_cell(_fresh(ctx), accuracy, k)
            assert cell.rank.value.tobytes() == fresh.rank.value.tobytes()
            assert cell.rank.variance.tobytes() == fresh.rank.variance.tobytes()
            assert cell.clamped.tobytes() == fresh.clamped.tobytes()
            for got, want in zip(cell.comparisons, fresh.comparisons, strict=True):
                assert got.below_labels.tobytes() == want.below_labels.tobytes()
                assert got.above_labels.tobytes() == want.above_labels.tobytes()

    def test_k_past_a_tied_pool_raises_at_the_first_cell_reaching_it(self):
        ties = load_dataset_csv(Path(__file__).parent / "data" / "cli_inputs" / "ties.csv")
        ctx = _build_seed_context(ties, 0, 0, 30, FAST_TREES, 22)
        short = next(i for i, d in enumerate(ctx.draws) if d.n_eligible < 22)
        assert short > 0  # earlier queries of that cell solve before it raises
        draws = ctx.draws[short]
        message = f"query {draws.query_id!r}: k=22 exceeds the {draws.n_eligible} eligible"
        for accuracy, k in [(0.7, 3), (1.0, 21), (0.7, 21), (0.7, 3)]:
            _compute_cell(ctx, accuracy, k)
        for context in (ctx, _fresh(ctx)):
            with pytest.raises(ValidationError, match=message):
                _compute_cell(context, 0.9, 22)

    def test_bad_accuracy_raises_even_when_every_count_matches(self):
        # Every flip lies below both 1.0 and 1.5, so no query would solve afresh.
        ctx = _build_seed_context(_fast_dataset(), 0, 6, 50, FAST_TREES, 5)
        _compute_cell(ctx, 1.0, 5)
        with pytest.raises(ValidationError, match="accuracy must lie in"):
            _compute_cell(ctx, 1.5, 5)


class TestBaselineDelta:
    def test_fused_betas_match_sweep(self):
        # The delta run shares comparisons with the plain sweep, so its fused
        # column must reproduce the sweep betas exactly.
        ds = _fast_dataset()
        sweep = run_oracle_sweep(ds, FAST_GRID, n_trees=FAST_TREES, master_seed=3)
        delta = run_baseline_delta(
            ds, FAST_GRID, method="projection", n_trees=FAST_TREES, master_seed=3
        )
        sweep_by_cell = {(r.seed, r.accuracy, r.k): r.beta for r in sweep}
        for r in delta:
            assert r.beta_fused == sweep_by_cell[(r.seed, r.accuracy, r.k)]
            assert r.delta == pytest.approx(r.beta_fused - r.beta_baseline, rel=1e-12)

    def test_rbr_ignores_comparisons(self):
        ds = _fast_dataset()
        recs = run_baseline_delta(
            ds, FAST_GRID, method="rbr", n_trees=FAST_TREES, master_seed=3
        )
        by_seed_k = {}
        for r in recs:
            by_seed_k.setdefault((r.seed, r.k), set()).add(r.beta_baseline)
        # One rbr beta per (seed, k), whatever the oracle accuracy.
        assert all(len(v) == 1 for v in by_seed_k.values())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            run_baseline_delta(
                _fast_dataset(), FAST_GRID, method="psychic", n_trees=FAST_TREES
            )


class TestNoiseSweep:
    def test_zero_b_matches_plain_sweep(self):
        ds = _fast_dataset()
        result = run_noise_sweep(
            ds, bs=(0.0, 2.0), k=5, accuracy=0.9, seeds=2,
            n_trees=FAST_TREES, master_seed=4,
        )
        grid = SweepGrid(accuracies=(0.9,), ks=(5,), seeds=2, train_size=50)
        sweep = run_oracle_sweep(ds, grid, n_trees=FAST_TREES, master_seed=4)
        sweep_beta = {r.seed: r.beta for r in sweep}
        for rec in result.records:
            if rec.b == 0.0:
                assert rec.beta == sweep_beta[rec.seed]

    def test_perturbation_depends_only_on_query_not_b(self):
        # Same draw scales with b: the perturbed variance at b=2 moves twice
        # as far from the clean value as at b=1 (until the floor bites).
        ds = _fast_dataset()
        result = run_noise_sweep(
            ds, bs=(0.0, 1.0, 2.0), k=5, accuracy=0.9, seeds=1,
            n_trees=FAST_TREES, master_seed=5,
        )
        assert result.rank_var_mean > 0.0
        assert result.rank_var_sd >= 0.0
        assert {r.b for r in result.records} == {0.0, 1.0, 2.0}

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_noise_sweep(_fast_dataset(), bs=(), k=5)
        with pytest.raises(ValidationError):
            run_noise_sweep(_fast_dataset(), bs=(-1.0,), k=5)

    def test_floor_constant(self):
        assert NOISE_VARIANCE_FLOOR == 1e-9


class TestCsvWriters:
    def test_sweep_csv_layout(self, tmp_path):
        recs = run_oracle_sweep(
            _fast_dataset(), FAST_GRID, n_trees=FAST_TREES, master_seed=0
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "dataset,seed,accuracy,k,mae_reg,mae_post,beta,mean_rank_variance,clamp_rate"
        )
        assert len(lines) == len(recs) + 1
        # repr serialization: parsing a float cell back is lossless.
        first = lines[1].split(",")
        assert float(first[6]) == recs[0].beta

    def test_bound_csv_layout(self, tmp_path):
        path = tmp_path / "bound.csv"
        write_bound_csv([(0.5, 0.501)], n_samples=100, path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,empirical_beta,n_samples"
        assert lines[1] == "0.5,0.501,100"

    def test_baseline_csv_layout(self, tmp_path):
        recs = run_baseline_delta(
            _fast_dataset(), FAST_GRID, method="projection",
            n_trees=FAST_TREES, master_seed=0,
        )
        path = tmp_path / "delta.csv"
        write_baseline_csv(recs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "dataset,seed,accuracy,k,beta_fused,beta_baseline,delta"
        assert len(lines) == len(recs) + 1

    def test_noise_csv_layout(self, tmp_path):
        result = run_noise_sweep(
            _fast_dataset(), bs=(0.0, 1.0), k=5, accuracy=0.9, seeds=1,
            n_trees=FAST_TREES, master_seed=0,
        )
        path = tmp_path / "noise.csv"
        write_noise_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("b,")
        assert len(lines) >= 3

    def test_numpy_floats_write_like_python_floats(self, tmp_path):
        def written(cast):
            sweep = SweepRecord("d", 0, cast(0.8), 20, *map(cast, (1.5, 0.75, 0.5, 0.1, 0.25)))
            delta = BaselineDeltaRecord("d", 0, cast(0.8), 20, *map(cast, (0.5, 0.75, -0.25)))
            write_sweep_csv([sweep], tmp_path / "sweep.csv")
            write_baseline_csv([delta], tmp_path / "delta.csv")
            return [(tmp_path / name).read_bytes() for name in ("sweep.csv", "delta.csv")]

        python = written(float)
        assert written(np.float64) == python
        assert python[0].splitlines()[1] == b"d,0,0.8,20,1.5,0.75,0.5,0.1,0.25"

    def test_writes_are_byte_stable(self, tmp_path):
        recs = run_oracle_sweep(
            _fast_dataset(), FAST_GRID, n_trees=FAST_TREES, master_seed=0
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(recs, p1)
        write_sweep_csv(recs, p2)
        assert p1.read_bytes() == p2.read_bytes()
