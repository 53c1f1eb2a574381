"""The benchmark's tracer still attaches to every layer its workloads use.

``benchmarks/spans.py`` records per-layer spans by rebinding public entry
points by name. A change under ``src/`` that renames or bypasses one of them
would leave that layer reading as zero work; this runs the small golden
``refine``, ``sweep`` and ``noise`` commands under the tracer and checks that
each records the spans its benchmark workload expects.
"""

import csv
import sys
from pathlib import Path

import pytest

import rankrefine.cli  # noqa: F401  (imported before tracing, as the benchmark does)
from golden import COMMANDS, INPUTS, run

sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _traced(name, tmp_path):
    tracer = spans.Tracer()
    with tracer.active(), tracer.span(spans.PASS_SPAN):
        run(name, tmp_path)
    return tracer


@pytest.mark.parametrize("workload", [workloads.Refine, workloads.Sweep, workloads.Noise])
def test_workload_spans_fire(workload, tmp_path):
    tracer = _traced(workload.name, tmp_path)
    missing = sorted(span for span in workload.expected_spans if not tracer.spans[span])
    assert not missing, f"{workload.name}: no span recorded for {missing}"
    if workload.expects_hashes:
        assert tracer.counts["seeding.hashes"] > 0


def test_refine_counts_every_comparison_row(tmp_path):
    with open(INPUTS / "comparisons.csv", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row][1:]
    tracer = _traced("refine", tmp_path)
    counts = tracer.counts
    assert counts["rankers.rows_read"] == counts["rank.comparisons"] == len(rows)
    # One partition per solved query, so no row is partitioned twice or skipped.
    assert tracer.spans[spans.PARTITION_SPAN] == counts["rank.solves"] > 0


def test_sweep_hashes_do_not_grow_with_accuracies(tmp_path, monkeypatch):
    # Oracle references and flips are drawn once per seed, not once per cell,
    # so the golden sweep hashes as much at one accuracy as at three.
    argv = list(COMMANDS["sweep"])
    argv[argv.index("--accuracies") + 1] = "0.6"
    monkeypatch.setitem(COMMANDS, "sweep-one-accuracy", tuple(argv))
    three = _traced("sweep", tmp_path).counts["seeding.hashes"]
    one = _traced("sweep-one-accuracy", tmp_path).counts["seeding.hashes"]
    assert three == one > 0


def _sweep_at(accuracies, tmp_path, monkeypatch):
    argv = list(COMMANDS["sweep"])
    argv[argv.index("--accuracies") + 1] = accuracies
    monkeypatch.setitem(COMMANDS, f"sweep-at-{accuracies}", tuple(argv))
    return _traced(f"sweep-at-{accuracies}", tmp_path).counts


def test_sweep_repeated_accuracy_reuses_every_solve(tmp_path, monkeypatch):
    # A cell that judges the same pairs as the last cell at its k solves nothing.
    once = _sweep_at("0.6", tmp_path, monkeypatch)["rank.solves"]
    assert _sweep_at("0.6,0.6", tmp_path, monkeypatch)["rank.solves"] == once > 0


def test_sweep_solves_fewer_than_queries_times_cells(tmp_path):
    argv = COMMANDS["sweep"]

    def value(flag):
        return argv[argv.index(flag) + 1]

    assert value("--seeds") == "1"
    cells = len(value("--accuracies").split(",")) * len(value("--ks").split(","))
    queries = int(value("--synthetic-n")) - int(value("--train-size"))
    assert 0 < _traced("sweep", tmp_path).counts["rank.solves"] < queries * cells
