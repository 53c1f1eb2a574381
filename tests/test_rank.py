"""Likelihood solver: hand-checked values, grid-search agreement, clamping,
and bit-identity, alone and in a batch, with the one-step-at-a-time bisection
it replaced."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from rankrefine import rank
from rankrefine.core import ComparisonOutcome, ComparisonSet
from rankrefine.errors import NumericError, ValidationError
from rankrefine.rank import (
    RankEstimate,
    bt_nll,
    fisher_variance,
    search_domain,
    solve_rank_estimate,
    solve_rank_estimates,
)

from conftest import grid_nll


def _comparison_set(below=(), above=()):
    """Build a ComparisonSet whose references sit below/above the query."""
    labels = {}
    outcomes = []
    for j, label in enumerate(below):
        rid = f"b{j}"
        labels[rid] = float(label)
        outcomes.append(ComparisonOutcome("q", rid, True))
    for j, label in enumerate(above):
        rid = f"a{j}"
        labels[rid] = float(label)
        outcomes.append(ComparisonOutcome("q", rid, False))
    return ComparisonSet.from_outcomes(outcomes, labels)


def _reference_nll_derivative(candidate, comparisons):
    below = expit(comparisons.below_labels - candidate)
    above = expit(candidate - comparisons.above_labels)
    return float(np.sum(above) - np.sum(below))


def _reference_fisher_variance(solution, comparisons):
    """Inverse Fisher information from scipy's sigmoid, as ``fisher_variance`` once took it."""
    gaps = solution - comparisons.labels
    information = float(np.add.reduce(expit(gaps) * expit(-gaps)))
    if information < rank.CURVATURE_UNDERFLOW:
        return rank.VARIANCE_CAP
    return min(1.0 / information, rank.VARIANCE_CAP)


def _reference_solve_rank_estimate(comparisons):
    """The scalar bisection loop, one derivative call per step."""
    lo, hi = search_domain(comparisons)
    d_lo = _reference_nll_derivative(lo, comparisons)
    d_hi = _reference_nll_derivative(hi, comparisons)

    if d_lo >= 0.0:
        value = lo
        clamped = d_lo > rank.TOLERANCE or comparisons.n_below == 0
    elif d_hi <= 0.0:
        value = hi
        clamped = d_hi < -rank.TOLERANCE or comparisons.n_below == len(comparisons)
    else:
        value = 0.5 * (lo + hi)
        clamped = False
        for _ in range(rank.MAX_ITERATIONS):
            d_mid = _reference_nll_derivative(value, comparisons)
            if abs(d_mid) <= rank.TOLERANCE:
                break
            if d_mid < 0.0:
                lo = value
            else:
                hi = value
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                value = mid
                break
            value = mid

    return RankEstimate(
        value=value, variance=fisher_variance(value, comparisons), clamped=clamped
    )


# Side lengths on both sides of numpy's pairwise-sum thresholds (an 8-way
# unrolled loop from 8 elements, recursive halving above 128).
FUZZ_SIDE_SIZES = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 40, 127, 128, 129, 200, 300)


def _fuzzed_sets(count, seed=2026):
    """Comparison sets with sizes, scales, ties and sidedness the solver must
    handle; every fifth set is symmetric, so its derivative is exactly zero
    at the first midpoint."""
    rng = np.random.default_rng(seed)
    sets = []
    while len(sets) < count:
        scale = 10.0 ** rng.uniform(-6.0, 150.0)
        centre = scale * rng.uniform(-3.0, 3.0)
        if len(sets) % 5 == 4:
            gaps = scale * np.abs(rng.normal(size=int(rng.choice(FUZZ_SIDE_SIZES[1:]))))
            sets.append(ComparisonSet(np.concatenate([centre - gaps, centre + gaps]), gaps.size))
            continue
        n_below, n_above = (int(n) for n in rng.choice(FUZZ_SIDE_SIZES, size=2))
        if n_below + n_above == 0:
            continue
        labels = centre + scale * rng.normal(size=n_below + n_above)
        if rng.random() < 0.3:
            labels = np.round(labels / scale) * scale
        sets.append(ComparisonSet(labels, n_below))
    return sets


def _refine_shaped_sets(count, seed=15):
    """Sets shaped like the refine benchmark's: labels N(0, 2.5), k uniform on
    1..40 distinct references, judged by a ranker that is right 80% of the time."""
    rng = np.random.default_rng(seed)
    references = rng.normal(0.0, 2.5, 500)
    sets = []
    for _ in range(count):
        truth = rng.normal(0.0, 2.5)
        chosen = references[rng.choice(500, size=int(rng.integers(1, 41)), replace=False)]
        judged_above = (truth > chosen) == (rng.random(chosen.size) < 0.8)
        row = np.concatenate([chosen[judged_above], chosen[~judged_above]])
        sets.append(ComparisonSet(row, int(judged_above.sum())))
    return sets


def _grid_minimum(cs, lo, hi, step=1e-4):
    grid = np.arange(lo, hi + step, step)
    values = grid_nll(cs, grid)
    best = int(np.argmin(values))
    # The broadcast grid and the scalar reference agree at the minimum.
    assert bt_nll(float(grid[best]), cs) == pytest.approx(values[best], rel=1e-12)
    return float(grid[best])


class TestNll:
    def test_single_below_at_zero(self):
        # One reference below, candidate equal to it: -log sigmoid(0) = log 2.
        cs = _comparison_set(below=[0.0])
        assert bt_nll(0.0, cs) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_symmetric_pair(self):
        cs = _comparison_set(below=[-1.0], above=[1.0])
        expected = 2.0 * math.log1p(math.exp(-1.0))
        assert bt_nll(0.0, cs) == pytest.approx(expected, rel=1e-14)

    def test_three_reference_hand_value(self):
        cs = _comparison_set(below=[0.0, 1.0], above=[2.0])
        expected = (
            math.log1p(math.exp(-1.5))
            + math.log1p(math.exp(-0.5))
            + math.log1p(math.exp(-0.5))
        )
        assert bt_nll(1.5, cs) == pytest.approx(expected, rel=1e-14)

    def test_no_overflow_for_extreme_candidates(self):
        cs = _comparison_set(below=[0.0], above=[1.0])
        assert math.isfinite(bt_nll(1e4, cs))
        assert math.isfinite(bt_nll(-1e4, cs))

    def test_convex_along_grid(self):
        cs = _comparison_set(below=[-2.0, 0.5], above=[1.0, 3.0])
        xs = np.linspace(-6.0, 8.0, 400)
        vals = np.array([bt_nll(float(x), cs) for x in xs])
        # Second differences of a strictly convex function stay positive.
        assert np.all(np.diff(vals, 2) > -1e-12)


class TestSearchDomain:
    @pytest.mark.parametrize(
        "cs",
        [ComparisonSet([-1e308, 1e308], 1), ComparisonSet([math.nan], 1)],
        ids=["overflowing range", "nan label"],
    )
    def test_non_finite_domain_raises_numeric_error(self, cs):
        with pytest.raises(NumericError, match="label range"):
            search_domain(cs)
        with pytest.raises(NumericError, match="label range"):
            solve_rank_estimate(cs)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_overflowing_midpoint_raises_numeric_error(self, sign):
        # The domain (9.5e307, 1.1e308) is finite, but its midpoint sum is not.
        cs = ComparisonSet([sign * 1.0e308, sign * 1.05e308], 1)
        with pytest.raises(NumericError, match=r"label range \[-?1(\.05)?e\+308"):
            search_domain(cs)
        with pytest.raises(NumericError, match="label range"):
            solve_rank_estimate(cs)
        # A domain whose ends stay within half the float64 maximum still solves.
        inside = solve_rank_estimate(ComparisonSet([0.0, sign * 4.0e307], 1))
        assert math.isfinite(inside.value) and not inside.clamped

    def test_widened_by_margin(self):
        cs = _comparison_set(below=[0.0], above=[4.0])
        lo, hi = search_domain(cs)
        assert (lo, hi) == (-4.0, 8.0)

    @pytest.mark.parametrize(
        "label, domain",
        [(2.0, (1.0, 3.0)), (2.0**53, (2.0**53 - 2, 2.0**53 + 2)), (1e17, (1e17 - 16, 1e17 + 16))],
        ids=["small", "2**53", "1e17"],
    )
    def test_degenerate_range_uses_unit_width(self, label, domain):
        # Past 2**53 a unit width rounds away, so the width is one ulp of the label.
        cs = _comparison_set(below=[label, label])
        lo, hi = search_domain(cs)
        assert lo < label < hi
        assert (lo, hi) == domain


class TestSolver:
    def test_symmetric_case_solves_to_midpoint(self):
        cs = _comparison_set(below=[-1.0], above=[1.0])
        est = solve_rank_estimate(cs)
        assert est.value == pytest.approx(0.0, abs=1e-7)
        assert not est.clamped

    def test_agrees_with_grid_search(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            k = int(rng.integers(2, 11))
            labels = rng.uniform(-5.0, 5.0, size=k)
            split = int(rng.integers(1, k))  # both sides non-empty
            cs = _comparison_set(below=labels[:split], above=labels[split:])
            est = solve_rank_estimate(cs)
            lo, hi = search_domain(cs)
            assert abs(est.value - _grid_minimum(cs, lo, hi)) <= 1e-3
            assert not est.clamped

    # Spread-out labels saturate the sigmoids, so the edge derivative falls
    # within TOLERANCE of zero; a one-sided set is clamped all the same.
    @pytest.mark.parametrize(
        "labels",
        [[0.0, 1.0, 2.0], [0.0, 20.0], [0.0, 30.0]],
        ids=["close", "20 apart", "30 apart"],
    )
    def test_one_sided_below_clamps_high(self, labels):
        cs = _comparison_set(below=labels)
        est = solve_rank_estimate(cs)
        _, hi = search_domain(cs)
        assert est.clamped
        assert est.value == hi

    @pytest.mark.parametrize(
        "labels",
        [[0.0, 1.0], [0.0, 20.0], [0.0, 30.0]],
        ids=["close", "20 apart", "30 apart"],
    )
    def test_one_sided_above_clamps_low(self, labels):
        cs = _comparison_set(above=labels)
        est = solve_rank_estimate(cs)
        lo, _ = search_domain(cs)
        assert est.clamped
        assert est.value == lo

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        labels = rng.uniform(-3.0, 3.0, size=6)
        for shift in (-10.0, 2.5, 100.0):
            base = _comparison_set(below=labels[:3], above=labels[3:])
            moved = _comparison_set(below=labels[:3] + shift, above=labels[3:] + shift)
            a = solve_rank_estimate(base)
            b = solve_rank_estimate(moved)
            assert b.value - a.value == pytest.approx(shift, abs=1e-6)
            assert b.variance == pytest.approx(a.variance, rel=1e-6)

    def test_empty_comparisons_rejected(self):
        with pytest.raises(ValidationError):
            solve_rank_estimate(_comparison_set())


class TestBitIdentity:
    """The path-walking solver returns exactly what the scalar loop returns,
    whether it is called on one set or on many."""

    def test_fuzzed_sets_match_the_scalar_loop(self):
        reached = {"lo": 0, "hi": 0, "first midpoint": 0, "bisected": 0, "clamped": 0}
        for cs in _fuzzed_sets(2400):
            got = solve_rank_estimate(cs)
            want = _reference_solve_rank_estimate(cs)
            assert (got.value, got.variance, got.clamped) == (
                want.value, want.variance, want.clamped
            ), (cs.below_labels, cs.above_labels)
            lo, hi = search_domain(cs)
            reached["lo"] += got.value == lo
            reached["hi"] += got.value == hi
            reached["first midpoint"] += got.value == 0.5 * (lo + hi)
            reached["bisected"] += lo < got.value < hi
            reached["clamped"] += got.clamped
        # Both domain edges, exact roots and the bisection are all exercised.
        assert min(reached.values()) >= 50, reached
        assert reached["first midpoint"] >= 480 and reached["bisected"] > 1500, reached

    @pytest.mark.parametrize("corpus", ["fuzzed", "refine-shaped"])
    def test_batch_matches_the_scalar_loop(self, corpus):
        sets = _fuzzed_sets(2400) if corpus == "fuzzed" else _refine_shaped_sets(1000)
        batch = solve_rank_estimates(sets)
        assert len(batch) == len(sets)
        for got, cs in zip(batch, sets):
            want = _reference_solve_rank_estimate(cs)
            assert (got.value, got.variance, got.clamped) == (
                want.value, want.variance, want.clamped
            ), (cs.below_labels, cs.above_labels)

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, 5, 7])
    def test_iteration_cap_matches_the_scalar_loop(self, monkeypatch, max_iterations):
        monkeypatch.setattr(rank, "MAX_ITERATIONS", max_iterations)
        sets = _fuzzed_sets(40, seed=7)
        for cs, batched in zip(sets, solve_rank_estimates(sets), strict=True):
            want = _reference_solve_rank_estimate(cs)
            for got in (solve_rank_estimate(cs), batched):
                assert (got.value, got.variance, got.clamped) == (
                    want.value, want.variance, want.clamped
                )


class TestBatch:
    """``solve_rank_estimates`` is one ``solve_rank_estimate`` call per set, in order."""

    def test_calls_the_solver_once_per_set_in_order(self, monkeypatch):
        sets = _refine_shaped_sets(600)
        solve = rank.solve_rank_estimate
        seen = []

        def recording(cs, **kwargs):
            seen.append((cs, sorted(kwargs)))
            return solve(cs, **kwargs)

        monkeypatch.setattr(rank, "solve_rank_estimate", recording)
        assert solve_rank_estimates(iter(sets)) == [solve(cs) for cs in sets]
        assert [cs for cs, _ in seen] == sets  # a ComparisonSet equals only itself
        assert {tuple(kwargs) for _, kwargs in seen} == {("guess",)}

    def test_empty_input_solves_nothing(self):
        assert solve_rank_estimates([]) == []
        assert solve_rank_estimates(iter(())) == []

    def test_reads_at_most_one_chunk_ahead(self, monkeypatch):
        sets = _refine_shaped_sets(2 * rank._CHUNK + 5)
        read = []

        def lazily():
            for cs in sets:
                read.append(cs)
                yield cs

        solve = rank.solve_rank_estimate
        solved = []

        def bounded(cs, **kwargs):
            # The chunk holding this set is read, and nothing past it.
            assert len(read) == min(len(sets), (len(solved) // rank._CHUNK + 1) * rank._CHUNK)
            solved.append(cs)
            return solve(cs, **kwargs)

        monkeypatch.setattr(rank, "solve_rank_estimate", bounded)
        solve_rank_estimates(lazily())
        assert len(solved) == len(sets)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (ComparisonSet([], 0), ValidationError),
            (ComparisonSet([math.nan, 1.0], 1), NumericError),
            (ComparisonSet([-1e308, 1e308], 1), NumericError),
        ],
        ids=["empty", "nan label", "overflowing range"],
    )
    def test_unsolvable_set_raises_after_the_sets_before_it(self, monkeypatch, bad, error):
        solve = rank.solve_rank_estimate
        solved = []
        monkeypatch.setattr(
            rank, "solve_rank_estimate", lambda cs, **kw: solved.append(cs) or solve(cs, **kw)
        )
        good = _refine_shaped_sets(3)
        # Predicting the roots of a chunk holding it raises nothing and warns of nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for chunk in ([*good, bad, *good], [bad]):
                solved.clear()
                with pytest.raises(error):
                    solve_rank_estimates(chunk)
                assert solved == chunk[: chunk.index(bad) + 1]


class TestPredictedPath:
    """The root prediction only picks which points are evaluated: a bad one
    costs derivative calls, never a different step."""

    def test_adversarial_predictions_keep_the_scalar_steps(self, monkeypatch):
        rng = np.random.default_rng(11)
        guesses = {
            "lo": lambda lo, hi: lo,
            "hi": lambda lo, hi: hi,
            "nan": lambda lo, hi: math.nan,
            "inf": lambda lo, hi: math.inf,
            "-inf": lambda lo, hi: -math.inf,
            "random": lambda lo, hi: float(rng.uniform(lo, hi)),
        }
        predicted = dict.fromkeys(guesses, 0)

        def predict_root(lo, hi, d_lo, d_hi):
            predicted[guess] += 1
            return guesses[guess](lo, hi)

        # The first guess is the caller's; each later one is the patched prediction.
        monkeypatch.setattr(rank, "_predict_root", predict_root)
        cases = [(rank.MAX_ITERATIONS, cs) for cs in _fuzzed_sets(2400)]
        cases += [(m, cs) for m in (1, 2, 3, 5, 7) for cs in _fuzzed_sets(40, seed=7)]
        for max_iterations, cs in cases:
            monkeypatch.setattr(rank, "MAX_ITERATIONS", max_iterations)
            want = _reference_solve_rank_estimate(cs)
            domain = search_domain(cs)
            for guess in guesses:
                got = solve_rank_estimate(cs, guess=guesses[guess](*domain))
                assert (got.value, got.variance, got.clamped) == (
                    want.value, want.variance, want.clamped
                ), (guess, max_iterations, cs.below_labels, cs.above_labels)
        assert min(predicted.values()) > 2400, predicted

    @staticmethod
    def _counting_calls(monkeypatch):
        calls = []
        nll_derivatives = rank._nll_derivatives

        def counting(candidates, comparisons):
            calls.append(len(candidates))
            return nll_derivatives(candidates, comparisons)

        monkeypatch.setattr(rank, "_nll_derivatives", counting)
        return calls

    def test_derivative_calls_per_solve(self, monkeypatch):
        calls = self._counting_calls(monkeypatch)
        sets = _refine_shaped_sets(1000)
        for cs in sets:
            assert solve_rank_estimate(cs) == _reference_solve_rank_estimate(cs)
        refine_shaped = len(calls) / len(sets)
        # Saturated sigmoids at extreme scales, where regula falsi creeps and
        # each path ends on a wrong guess sooner.
        calls.clear()
        sets = _fuzzed_sets(2400)
        for cs in sets:
            solve_rank_estimate(cs)
        fuzzed = len(calls) / len(sets)
        # A guess within the tolerance of the root lets one call walk the whole way.
        assert refine_shaped <= 1.1 and fuzzed <= 5.5, (refine_shaped, fuzzed)
        calls.clear()
        solve_rank_estimates(sets)
        assert len(calls) / len(sets) <= 4.0, len(calls) / len(sets)
        calls.clear()
        sets = _refine_shaped_sets(1000)
        solve_rank_estimates(sets)
        assert len(calls) / len(sets) <= 1.1, len(calls) / len(sets)

    @pytest.mark.parametrize("corpus", ["fuzzed", "refine-shaped"])
    def test_a_lone_call_guesses_like_a_batch(self, monkeypatch, corpus):
        # A lone call predicts its root as a batch of one set, so it walks the
        # same paths as the batch and takes the same derivative calls.
        sets = _fuzzed_sets(2400) if corpus == "fuzzed" else _refine_shaped_sets(1000)
        calls = self._counting_calls(monkeypatch)
        lone = [solve_rank_estimate(cs) for cs in sets]
        lone_calls = calls.copy()
        calls.clear()
        assert solve_rank_estimates(sets) == lone
        assert len(lone_calls) == len(calls), (len(lone_calls), len(calls))

    def test_iteration_cap_logs_one_warning(self, monkeypatch, caplog):
        cs = _comparison_set(below=[-1.0, 0.3], above=[1.0])
        with caplog.at_level("WARNING", logger="rankrefine.rank"):
            solve_rank_estimate(cs)
        assert not caplog.records
        monkeypatch.setattr(rank, "MAX_ITERATIONS", 3)
        with caplog.at_level("WARNING", logger="rankrefine.rank"):
            est = solve_rank_estimate(cs)
        assert est == _reference_solve_rank_estimate(cs)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "3-step cap" in caplog.records[0].getMessage()


class TestCalibration:
    """The variances fed to fusion are honest where Bradley-Terry's model holds."""

    def test_fisher_variance_covers_the_truth_under_bt_answers(self):
        # Sets shaped like the refine benchmark's, 5 to 40 references each,
        # answered by BT's own model: P(query above reference) = sigmoid(y - y_i).
        rng = np.random.default_rng(1)
        references = rng.normal(0.0, 2.5, 500)
        truths, sets = rng.normal(0.0, 2.5, 3000), []
        for truth in truths:
            chosen = references[rng.choice(500, size=int(rng.integers(5, 41)), replace=False)]
            above = rng.random(chosen.size) < expit(truth - chosen)
            row = np.concatenate([chosen[above], chosen[~above]])
            sets.append(ComparisonSet(row, int(above.sum())))
        z = np.array([
            (est.value - truth) / math.sqrt(est.variance)
            for est, truth in zip(solve_rank_estimates(sets), truths)
            if not est.clamped
        ])
        assert z.size > 2500
        coverage = float(np.mean(np.abs(z) <= 1.959964))
        assert 0.93 <= coverage <= 0.97, coverage
        assert 0.90 <= float(np.std(z)) <= 1.10, float(np.std(z))


class TestFisherVariance:
    def test_symmetric_pair_hand_value(self):
        cs = _comparison_set(below=[-1.0], above=[1.0])
        s = expit(1.0)
        expected = 1.0 / (2.0 * s * (1.0 - s))
        assert fisher_variance(0.0, cs) == pytest.approx(expected, rel=1e-9)
        assert fisher_variance(0.0, cs) == pytest.approx(2.5430806, rel=1e-6)

    def test_coincident_references_give_four_over_k(self):
        for k in (1, 2, 5, 10):
            below = [0.0] * (k // 2)
            above = [0.0] * (k - k // 2)
            cs = _comparison_set(below=below, above=above)
            assert fisher_variance(0.0, cs) == pytest.approx(4.0 / k, rel=1e-12)

    def test_grows_with_reference_distance(self):
        gaps = [0.5, 1.0, 2.0, 4.0, 8.0]
        variances = [
            fisher_variance(0.0, _comparison_set(below=[-g], above=[g])) for g in gaps
        ]
        assert all(a < b for a, b in zip(variances, variances[1:]))

    def test_saturated_gaps_hit_the_cap(self):
        # Gaps of 400 leave a tiny but representable curvature; the variance
        # is capped by magnitude rather than via the underflow branch.
        cs = _comparison_set(below=[-400.0], above=[400.0])
        assert fisher_variance(0.0, cs) == 1e12

    def test_underflow_capped_with_log_warning(self, caplog):
        # Past a gap of ~745 the sigmoid product is exactly zero in float64.
        cs = _comparison_set(below=[-800.0], above=[800.0])
        with caplog.at_level("WARNING", logger="rankrefine.rank"):
            v = fisher_variance(0.0, cs)
        assert v == 1e12
        assert any(r.levelname == "WARNING" for r in caplog.records)

    def test_solver_fills_variance_from_curvature(self):
        cs = _comparison_set(below=[-1.0], above=[1.0])
        est = solve_rank_estimate(cs)
        assert est.variance == pytest.approx(
            fisher_variance(est.value, cs), rel=1e-9
        )

    def test_within_four_ulp_of_the_scipy_sigmoid(self):
        worst = {}
        for name, sets in (
            ("fuzzed", _fuzzed_sets(2400)),
            ("refine-shaped", _refine_shaped_sets(1000)),
        ):
            ulps = []
            for cs in sets:
                value = solve_rank_estimate(cs).value
                want = _reference_fisher_variance(value, cs)
                ulps.append(abs(fisher_variance(value, cs) - want) / np.spacing(want))
            worst[name] = max(ulps)
        assert max(worst.values()) <= 4.0, worst

    def test_no_floating_point_warnings_past_exp_overflow(self):
        # Gaps up to 4000 reach far past 710, where exp(|gap|) overflows.
        rng = np.random.default_rng(18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2, 7, 40):
                labels = rng.uniform(-2000.0, 2000.0, size=n)
                split = int(rng.integers(0, n + 1))
                cs = ComparisonSet(labels, split)
                est = solve_rank_estimate(cs)
                for point in (est.value, *search_domain(cs), 0.0):
                    fisher_variance(point, cs)
            assert fisher_variance(0.0, ComparisonSet([-2000.0, 2000.0], 1)) == rank.VARIANCE_CAP

    def test_estimate_is_plain_record(self):
        est = RankEstimate(1.0, 2.0, False)
        assert (est.value, est.variance, est.clamped) == (1.0, 2.0, False)
