"""The three workloads: their inputs, their argv, and what their output must be.

Every workload runs through ``rankrefine.cli.main`` with the argv a user
would type. The workload seed is the only source of variation: sweep and
noise take it as ``--seed`` (the master seed of every re-split), refine
draws its CSV inputs from it with numpy.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import checks

# Span names each workload must record in a traced pass. A layer the workload
# is predicted to use that records no span is an error, so a renamed entry
# point cannot silently read as zero work.
PROTOCOL_SPANS = frozenset(
    {
        "forest.fit_s", "forest.predict_s", "rankers.generate_s", "core.split_s",
        "core.partition_s", "rank.solve_s", "fusion.fuse_s", "experiments.self_s",
        "cli.self_s",
    }
)
REFINE_SPANS = frozenset(
    {
        "rankers.read_s", "core.read_s", "core.partition_s", "rank.solve_s",
        "fusion.fuse_s", "cli.self_s",
    }
)


class Workload:
    name = ""
    expected_spans: frozenset = frozenset()
    expects_hashes = False

    def __init__(self, size: dict) -> None:
        self.size = size

    def prepare(self, workdir: Path, seed: int) -> None:
        """Write any inputs and fix ``argv``, ``inputs`` and ``output``."""
        raise NotImplementedError

    def check(self, checker: checks.Checker, data: bytes) -> float:
        """Run the output checks on one pass's output; return its beta."""
        raise NotImplementedError

    def fused_per_pass(self, data: bytes) -> int:
        """Rank estimates fused by one pass."""
        raise NotImplementedError


class _Protocol(Workload):
    """Shared shape of the sweep and noise protocols on the synthetic dataset."""

    expected_spans = PROTOCOL_SPANS
    expects_hashes = True

    def _dataset_args(self) -> list[str]:
        s = self.size
        return [
            "--seeds", str(s["seeds"]), "--synthetic-n", str(s["n"]),
            "--train-size", str(s["train"]),
        ]

    @property
    def test_rows(self) -> int:
        return self.size["n"] - self.size["train"]


class Sweep(_Protocol):
    name = "sweep"

    def prepare(self, workdir: Path, seed: int) -> None:
        s = self.size
        self.output = workdir / "sweep.csv"
        self.inputs = []
        self.argv = [
            "sweep", *self._dataset_args(), "--accuracies", s["accuracies"],
            "--ks", ",".join(map(str, s["ks"])), "--seed", str(seed), "--out", str(self.output),
        ]
        start, step, stop = (float(x) for x in s["accuracies"].split(":"))
        accuracies = [round(start + i * step, 10) for i in range(round((stop - start) / step) + 1)]
        self.keys = [
            ("synthetic", i, a, k) for i in range(s["seeds"]) for a in accuracies for k in s["ks"]
        ]

    def check(self, checker, data):
        betas = checks.check_sweep(checker, data, self.keys)
        return float(np.mean(betas)) if betas else math.nan

    def fused_per_pass(self, data):
        return len(self.keys) * self.test_rows


class Noise(_Protocol):
    name = "noise"

    def prepare(self, workdir: Path, seed: int) -> None:
        s = self.size
        self.output = workdir / "noise.csv"
        self.inputs = []
        self.argv = [
            "noise", *self._dataset_args(), "--k", str(s["k"]), "--accuracy", str(s["accuracy"]),
            "--bs", ",".join(map(str, s["bs"])), "--seed", str(seed), "--out", str(self.output),
        ]

    def check(self, checker, data):
        betas = checks.check_noise(checker, data, [float(b) for b in self.size["bs"]])
        return betas.get(0.0, math.nan)

    def fused_per_pass(self, data):
        return self.size["seeds"] * self.test_rows * len(self.size["bs"])


class Refine(Workload):
    """Refine predictions from files written by the benchmark's own generator.

    Truth and reference labels are N(0, LABEL_SD); each prediction is truth
    plus Gaussian error with its own sd, reported as ``var_reg``, so beta is
    computable. Each query gets k ~ U{0..k_max} distinct references judged
    by a simulated ranker that is right with probability ``accuracy``; k = 0
    queries pass through refine untouched.
    """

    name = "refine"
    expected_spans = REFINE_SPANS
    LABEL_SD = 2.5

    def prepare(self, workdir: Path, seed: int) -> None:
        s = self.size
        rng = np.random.default_rng(seed)
        ref_ids = [f"r{i:04d}" for i in range(s["references"])]
        ref_y = rng.normal(0.0, self.LABEL_SD, len(ref_ids))
        n = s["predictions"]
        self.truth = rng.normal(0.0, self.LABEL_SD, n)
        sd = rng.uniform(0.8, 2.0, n)
        y_reg = self.truth + sd * rng.standard_normal(n)
        ks = rng.integers(0, s["k_max"] + 1, n)

        self.predictions = [
            (f"p{q:05d}", repr(float(y_reg[q])), repr(float(sd[q] ** 2))) for q in range(n)
        ]
        self.judged: dict[str, list[tuple[str, bool]]] = {}
        lines = ["query_id,ref_id,outcome"]
        for q, (pid, _, _) in enumerate(self.predictions):
            if not ks[q]:
                continue
            chosen = rng.choice(len(ref_ids), size=ks[q], replace=False)
            correct = rng.random(ks[q]) < s["accuracy"]
            above = (self.truth[q] > ref_y[chosen]) == correct
            self.judged[pid] = [(ref_ids[r], bool(a)) for r, a in zip(chosen, above)]
            lines.extend(f"{pid},{ref_ids[r]},{int(a)}" for r, a in zip(chosen, above))

        predictions = workdir / "predictions.csv"
        references = workdir / "references.csv"
        comparisons = workdir / "comparisons.csv"
        predictions.write_text(
            "id,y_reg,var_reg\n" + "".join(f"{p},{y},{v}\n" for p, y, v in self.predictions)
        )
        references.write_text(
            "id,y\n" + "".join(f"{r},{float(y)!r}\n" for r, y in zip(ref_ids, ref_y))
        )
        comparisons.write_text("\n".join(lines) + "\n")
        self.labels = {r: float(y) for r, y in zip(ref_ids, ref_y)}
        self.inputs = [predictions, references, comparisons]
        self.output = workdir / "refined.csv"
        self.argv = [
            "refine", "--predictions", str(predictions), "--references", str(references),
            "--comparisons", str(comparisons), "--out", str(self.output),
        ]

    def check(self, checker, data):
        from rankrefine import ComparisonOutcome, ComparisonSet, bt_nll

        sets = {
            pid: ComparisonSet.from_outcomes(
                [ComparisonOutcome(pid, ref, above) for ref, above in judged], self.labels
            )
            for pid, judged in self.judged.items()
        }
        checks.check_refine(checker, data, self.predictions, sets, bt_nll)
        rows = data.decode("utf-8").splitlines()[1:]
        if len(rows) != len(self.truth):
            return math.nan
        try:
            fused = np.array([float(row.split(",")[5]) for row in rows])
        except (IndexError, ValueError):
            return math.nan
        y_reg = np.array([float(y) for _, y, _ in self.predictions])
        return float(np.mean(np.abs(fused - self.truth)) / np.mean(np.abs(y_reg - self.truth)))

    def fused_per_pass(self, data):
        return sum(1 for row in data.decode("utf-8").splitlines()[1:] if row.split(",")[3])


SIZES = {
    "full": {
        "sweep": {"seeds": 1, "n": 260, "train": 50, "accuracies": "0.50:0.05:1.00", "ks": [10, 20, 30]},
        "noise": {"seeds": 2, "n": 260, "train": 50, "k": 30, "accuracy": 0.8, "bs": [0, 1, 2, 3, 5, 10]},
        "refine": {"predictions": 5000, "references": 500, "k_max": 40, "accuracy": 0.8},
    },
    "tiny": {
        "sweep": {"seeds": 1, "n": 70, "train": 20, "accuracies": "0.70:0.10:0.80", "ks": [5]},
        "noise": {"seeds": 1, "n": 70, "train": 20, "k": 5, "accuracy": 0.8, "bs": [0, 1]},
        "refine": {"predictions": 60, "references": 30, "k_max": 8, "accuracy": 0.8},
    },
}
WORKLOADS = {cls.name: cls for cls in (Sweep, Refine, Noise)}


def make(name: str, size: str) -> Workload:
    return WORKLOADS[name](SIZES[size][name])
