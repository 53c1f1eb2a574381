"""Every committed benchmark record names the environment it was measured in,
and every claim names an end-to-end metric and workload of BENCHMARK.json."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENVIRONMENT = ("nproc", "python", "numpy")


def test_every_record_names_its_environment():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, f"no BENCH_*.json in {ROOT}"
    missing = {}
    for path in records:
        record = json.loads(path.read_text())
        if unnamed := [key for key in ENVIRONMENT if record.get(key) is None]:
            missing[path.name] = unnamed
    assert not missing, f"records without an environment value: {missing}"


def test_every_claim_names_a_benchmark_metric_and_workload():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"] for metric in benchmark["end_to_end"]}
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    unknown = {}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        claim = json.loads(path.read_text()).get("claim")
        if claim is not None and (
            claim.get("metric") not in metrics or claim.get("workload") not in workloads
        ):
            unknown[path.name] = (claim.get("metric"), claim.get("workload"))
    assert not unknown, f"claims off BENCHMARK.json's end-to-end metrics or workloads: {unknown}"
