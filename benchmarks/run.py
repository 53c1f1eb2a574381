"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``rankrefine`` from its
``src`` directory. With ``--trace 0`` it times whole passes (one pass is one
``rankrefine.cli.main`` call with a fixed argv) and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics. Either way it checks every output. The line
before the result records the environment the figures came from.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from checks import Checker

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# BLAS/OpenMP pools and the package's own thread variable would let a run's
# figures depend on the machine's core count; everything runs on one thread.
PINNED_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
SETUP_PROBES = 7
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "queries_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "beta": "ratio",
}
PER_LAYER_UNITS = {
    "forest.fit_s": "s",
    "forest.fit_calls": "count",
    "forest.trees": "count",
    "forest.nodes": "count",
    "forest.predict_s": "s",
    "forest.predict_rows": "count",
    "rankers.generate_s": "s",
    "rankers.pairs": "count",
    "seeding.hashes": "count",
    "rankers.read_s": "s",
    "rankers.rows_read": "count",
    "core.read_s": "s",
    "core.partition_s": "s",
    "core.split_s": "s",
    "cli.self_s": "s",
    "cli.bytes_read": "B",
    "cli.bytes_written": "B",
    "rank.solve_s": "s",
    "rank.solves": "count",
    "rank.comparisons": "count",
    "rank.clamped": "count",
    "rank.capped": "count",
    "fusion.fuse_s": "s",
    "fusion.fuses": "count",
    "experiments.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def pin_environment() -> None:
    os.environ.pop("RANKREFINE_THREADS", None)
    os.environ.update(PINNED_ENV)


def import_cli():
    """Import ``rankrefine.cli`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "rankrefine" / "__init__.py").is_file():
        raise BenchError(f"no rankrefine sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from rankrefine import cli

    if Path(cli.__file__).resolve().parent != SRC / "rankrefine":
        raise BenchError(f"imported rankrefine from {cli.__file__}, not from {SRC}")
    return cli


def setup_probe() -> None:
    """Fresh-process set-up: import the package and build the CLI parser."""
    start = time.perf_counter()
    cli = import_cli()
    cli.build_parser()
    print(repr(time.perf_counter() - start))


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def commit_id() -> str | None:
    """The checked-out commit when ROOT is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, passes: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "passes": passes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit_id(),
    }


class PassRunner:
    """Runs passes of one workload and keeps their timings and outputs."""

    def __init__(self, cli, workload) -> None:
        self.cli = cli
        self.workload = workload
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.digests: list[str] = []
        self.first_output: bytes | None = None

    def run(self, tracer=None) -> float:
        out = self.workload.output
        out.unlink(missing_ok=True)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = self.cli.main(self.workload.argv)
            else:
                with tracer.active(), tracer.span(spans.PASS_SPAN):
                    code = self.cli.main(self.workload.argv)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        if code != 0:
            raise BenchError(f"rankrefine {' '.join(self.workload.argv)} exited {code}")
        data = out.read_bytes()
        if self.first_output is None:
            self.first_output = data
        self.digests.append(hashlib.sha256(data).hexdigest())
        if tracer is None:
            self.wall.append(wall)
            self.cpu.append(
                (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
            )
        return wall


def file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def repeat_for(seconds: float, minimum: int, step) -> None:
    """Call ``step`` at least ``minimum`` times, then while another call fits in ``seconds``."""
    start = time.perf_counter()
    calls, last = 0, 0.0
    while calls < minimum or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        step()
        last = time.perf_counter() - began
        calls += 1


def traced_metrics(workload, runner: PassRunner, checker: Checker, seconds: float) -> dict:
    traced_wall: list[float] = []
    samples: list[tuple[dict, dict]] = []

    def pair() -> None:
        runner.run()
        tracer = spans.Tracer()
        traced_wall.append(runner.run(tracer))
        missing = sorted(workload.expected_spans - {n for n, c in tracer.spans.items() if c})
        if missing:
            raise BenchError(f"{workload.name}: no spans recorded for {', '.join(missing)}")
        if workload.expects_hashes and not tracer.counts["seeding.hashes"]:
            raise BenchError(f"{workload.name}: no derive_seed calls recorded")
        counts = dict(tracer.counts)
        counts["cli.bytes_read"] = file_bytes(workload.inputs)
        counts["cli.bytes_written"] = file_bytes([workload.output])
        samples.append((tracer.self_s, counts))

    repeat_for(seconds, MIN_TRACED_PAIRS, pair)
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            metrics[name] = statistics.median(times.get(name, 0.0) for times, _ in samples)
        else:
            metrics[name] = samples[0][1].get(name, 0)
    for i, (_, counts) in enumerate(samples[1:], start=2):
        checker.check(counts == samples[0][1], f"traced pass {i} counts differ from pass 1")
    metrics["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(runner.wall)
    return metrics


def run(args) -> dict:
    cli = import_cli()
    setup_s = None if args.trace else measure_setup()
    import workloads

    workload = workloads.make(args.workload, args.size)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload.prepare(workdir, args.seed)
        runner = PassRunner(cli, workload)
        checker = Checker()
        if args.trace:
            metrics = traced_metrics(workload, runner, checker, args.seconds)
        else:
            repeat_for(args.seconds, MIN_PASSES, runner.run)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        beta = workload.check(checker, runner.first_output)
        checker.check(
            math.isfinite(beta) and beta > 0.0, f"{workload.name}: beta {beta!r} not computable"
        )
        for i, digest in enumerate(runner.digests[1:], start=2):
            checker.check(digest == runner.digests[0], f"pass {i} output differs from pass 1")
        fused = workload.fused_per_pass(runner.first_output)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if not args.trace:
        run_s = statistics.median(runner.wall)
        metrics = {
            "setup_s": setup_s,
            "run_s": run_s,
            "queries_per_s": fused / run_s,
            "cpu_s": statistics.median(runner.cpu),
            "peak_rss_mb": peak_rss_mb,
            "beta": beta,
        }
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({"env": environment(args, len(runner.digests))}))
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "refine", "noise"))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()
    try:
        if args.setup_probe:
            setup_probe()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
