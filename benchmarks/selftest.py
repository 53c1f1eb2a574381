"""Self-test of the benchmark at a tiny size; exits non-zero on any failure.

    python3 benchmarks/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, that a corrupted refine output row is counted as a failure, that
one seed always generates byte-identical inputs, and that the benchmark
refuses to produce a result when the package sources are absent.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def emits_every_metric(workload: str, trace: int) -> str | None:
    proc = bench(run.ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    if proc.returncode != 0:
        return f"exited {proc.returncode}: {proc.stderr.strip()}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        return f"checks failed: {result['failed']} of {result['attempted']}"
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        return f"metrics {got} != {wanted}"
    return None


def corrupted_row_fails(workdir: Path) -> str | None:
    import workloads
    from checks import Checker

    cli = run.import_cli()
    refine = workloads.make("refine", "tiny")
    refine.prepare(workdir, 0)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(refine.argv)
    lines = refine.output.read_text().splitlines()
    clean = Checker()
    refine.check(clean, refine.output.read_bytes())
    if clean.failed:
        return f"clean output failed {clean.failed} checks"
    row = next(i for i, line in enumerate(lines) if i and line.split(",")[3])
    cells = lines[row].split(",")
    cells[5] = repr(float(cells[5]) + 1e-3)
    lines[row] = ",".join(cells)
    corrupted = Checker()
    with contextlib.redirect_stderr(io.StringIO()):
        refine.check(corrupted, ("\n".join(lines) + "\n").encode())
    if corrupted.failed == 0:
        return "a corrupted y_fused went unnoticed"
    return None


def inputs_repeat(workdir: Path) -> str | None:
    import workloads

    def generate(name: str, seed: int) -> list[bytes]:
        refine = workloads.make("refine", "tiny")
        (workdir / name).mkdir()
        refine.prepare(workdir / name, seed)
        return [p.read_bytes() for p in refine.inputs]

    if generate("a", 5) != generate("b", 5):
        return "seed 5 generated different inputs twice"
    if generate("c", 6) == generate("d", 5):
        return "seeds 5 and 6 generated the same inputs"
    return None


def refuses_without_sources(workdir: Path) -> str | None:
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, workdir / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(workdir, "--workload", "refine", "--seed", "0", "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return f"exited {proc.returncode} with output {proc.stdout.strip()!r}"
    return None


def main() -> int:
    run.pin_environment()
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    cases = [
        *(
            (f"{w} trace={t} emits every metric", lambda w=w, t=t: emits_every_metric(w, t))
            for w in ("sweep", "refine", "noise")
            for t in (0, 1)
        ),
        ("corrupted refine row counts as a failure", lambda: corrupted_row_fails(scratch / "c")),
        ("same seed gives byte-identical inputs", lambda: inputs_repeat(scratch / "i")),
        ("no result without package sources", lambda: refuses_without_sources(scratch / "b")),
    ]
    failures = 0
    try:
        for directory in ("c", "i", "b"):
            (scratch / directory).mkdir()
        for name, case in cases:
            problem = case()
            failures += problem is not None
            print(f"{'FAIL' if problem else 'PASS'} {name}" + (f": {problem}" if problem else ""))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
