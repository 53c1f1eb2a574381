"""Run the benchmark over several workload seeds and summarise the spread.

    python3 benchmarks/repeat.py --workloads sweep,refine,noise --runs 10 --out results.json

Each run is a fresh ``benchmarks/run.py`` process with seed ``first-seed + i``.
For every metric the summary gives the median and the quartiles of the runs,
as ``statistics.quantiles(values, n=4)`` computes them, and the spread: the
distance between the quartiles as a share of the median. Runs go one at a
time, so they never compete with each other for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return {**json.loads(env_line), "result": json.loads(result_line)}


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["result"]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sweep,refine,noise")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file for every run and the summary")
    args = parser.parse_args()
    seconds = args.seconds or json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.first_seed + i, seconds, args.trace))
            r = runs[-1]["result"]
            print(
                f"{workload} seed {args.first_seed + i}: correct={r['correct']} "
                + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                flush=True,
            )
        report[workload] = {"runs": runs, "summary": summarise(runs)}
        for name, s in report[workload]["summary"].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}, spread {spread}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
