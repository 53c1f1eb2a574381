"""Golden CLI outputs: one fixed command table and the bytes it must produce.

Each command in ``COMMANDS`` runs through ``rankrefine.cli.main`` and writes
one output file. That file and the command's stdout are kept under
``tests/data/golden/`` as ``<name>.csv`` and ``<name>.stdout``;
``test_golden.py`` reruns the table and compares byte for byte. In stdout the
temporary output directory reads ``<tmp>``.

Regenerate the goldens, and ``PROVENANCE.txt`` beside them, from the current
checkout with

    python3 tests/golden.py --write

only for a change that declares new numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
INPUTS = DATA / "cli_inputs"
GOLDEN = DATA / "golden"
PROVENANCE = GOLDEN / "PROVENANCE.txt"

SMALL = ("--synthetic-n", "80", "--train-size", "20", "--seeds", "1")
SWEEP = ("sweep", *SMALL, "--accuracies", "0.6,0.8,1.0", "--ks", "5,10")
BASELINE = ("baseline", *SMALL, "--accuracies", "0.6,0.9", "--k", "10")
LLM = ("--endpoint", "https://example.invalid/v1/chat/completions", "--model", "solubility-ranker")
REFINE = (
    "refine",
    "--predictions", f"{INPUTS}/predictions.csv",
    "--references", f"{INPUTS}/references.csv",
    "--comparisons", f"{INPUTS}/comparisons.csv",
)

# Command name -> argv; ``run`` appends ``--out`` and the output path.
COMMANDS: dict[str, tuple[str, ...]] = {
    "make-synthetic": ("make-synthetic", "--n", "80"),
    "sweep": SWEEP,
    "sweep-clamp": (*SWEEP, "--clamp-c", "0.5"),
    # Integer-valued and constant feature columns and repeated labels: tied
    # split candidates, constant-feature leaves and tied references.
    "sweep-ties": (
        "sweep", "--dataset", f"{INPUTS}/ties.csv", "--train-size", "30", "--seeds", "2",
        "--accuracies", "0.7,1.0", "--ks", "3,8",
    ),
    "baseline-projection": (*BASELINE, "--method", "projection"),
    "baseline-rbr": (*BASELINE, "--method", "rbr"),
    "noise": ("noise", *SMALL, "--k", "10", "--bs", "0,1,5"),
    "validate-bound": ("validate-bound", "--samples", "10000"),
    "rank-oracle": (
        "rank", "--source", "oracle",
        "--queries", f"{INPUTS}/queries.csv", "--references", f"{INPUTS}/references.csv",
        "--k", "5", "--accuracy", "0.7", "--seed", "3",
    ),
    "rank-file": (
        "rank", "--source", "file",
        "--comparisons", f"{INPUTS}/comparisons.csv", "--references", f"{INPUTS}/references.csv",
    ),
    "rank-llm": (
        "rank", "--source", "llm", *LLM,
        "--queries", f"{INPUTS}/llm_queries.csv", "--references", f"{INPUTS}/llm_references.csv",
        "--k", "0", "--replay", f"{DATA}/llm_replay.json", "--truth", f"{INPUTS}/llm_queries.csv",
    ),
    "refine": REFINE,
    "refine-clamp": (*REFINE, "--clamp-c", "0.5"),
}

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def run(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one command in ``tmp``; returns its golden file names and produced bytes."""
    from rankrefine.cli import main

    out = tmp / f"{name}.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*COMMANDS[name], "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name}: rankrefine exited {code}")
    printed = stdout.getvalue().replace(str(tmp), "<tmp>")
    return {out.name: out.read_bytes(), f"{name}.stdout": printed.encode()}


def describe_difference(file: str, expected: bytes, actual: bytes) -> str | None:
    """None when the bytes agree; else the first differing cell and the largest numeric gap.

    Rows count from 1 and include the header. A CSV cell is named by its
    header column, a stdout cell by its position. The numeric gap is taken
    over differing cells holding the same count of numbers.
    """
    if expected == actual:
        return None
    want = list(csv.reader(io.StringIO(expected.decode())))
    got = list(csv.reader(io.StringIO(actual.decode())))
    header = want[0] if want and file.endswith(".csv") else []
    first = None
    largest = 0.0
    for r in range(max(len(want), len(got))):
        a = want[r] if r < len(want) else []
        b = got[r] if r < len(got) else []
        for c in range(max(len(a), len(b))):
            x = a[c] if c < len(a) else None
            y = b[c] if c < len(b) else None
            if x == y:
                continue
            if first is None:
                column = repr(header[c]) if c < len(header) else str(c + 1)
                first = f"row {r + 1}, column {column}: expected {x!r}, got {y!r}"
            xs, ys = NUMBER.findall(x or ""), NUMBER.findall(y or "")
            if len(xs) == len(ys):
                largest = max([largest, *(abs(float(p) - float(q)) for p, q in zip(xs, ys))])
    if first is None:
        first = "no cell; the cells agree but the bytes (quoting or line ends) do not"
    return f"{file}: first difference at {first}; largest numeric difference {largest:.3g}"


def provenance() -> str:
    """The commit and numpy version the current checkout produces outputs with."""
    import numpy

    def git(*args: str) -> str:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        except OSError:
            return ""
        return done.stdout.strip() if done.returncode == 0 else ""

    commit = git("rev-parse", "HEAD") or "unknown"
    if git("status", "--porcelain", "--", "src"):
        commit += " with uncommitted changes under src/"
    return (
        f"commit {commit}\n"
        f"python {sys.version.split()[0]}\n"
        f"numpy {numpy.__version__}\n"
    )


def write(tmp: Path) -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in COMMANDS:
        for file, data in run(name, tmp).items():
            (GOLDEN / file).write_bytes(data)
    PROVENANCE.write_text(provenance())


if __name__ == "__main__":
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True, help="rewrite the goldens")
    parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
    print(f"wrote {len(COMMANDS)} commands' outputs and {PROVENANCE.name} -> {GOLDEN}")
