"""Per-layer spans and counts, recorded from outside the program.

The tracer rebinds the public entry points that ``cli`` and ``experiments``
call into each layer, in every ``rankrefine`` module that holds them, and
restores the originals on exit. Each wrapped call is a span; a span's self
time is its duration minus the time covered by the spans it caused, so the
self times of one pass add up to the pass. Spans of a pass live only on a
stack and are folded into per-layer totals as they close.

``derive_seed`` runs once per oracle pair, so it is counted, not timed: a
span per hash would cost more than the hash.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name). A span name of None counts calls only.
ENTRY_POINTS = (
    ("forest", "fit", "forest.fit_s"),
    ("forest", "predict_with_variance_matrix", "forest.predict_s"),
    ("rankers", "generate_comparisons", "rankers.generate_s"),
    ("rankers", "load_comparisons_csv", "rankers.read_s"),
    ("core", "load_references_csv", "core.read_s"),
    ("core", "resplit", "core.split_s"),
    ("rank", "solve_rank_estimate", "rank.solve_s"),
    ("fusion", "fuse", "fusion.fuse_s"),
    ("experiments", "run_oracle_sweep", "experiments.self_s"),
    ("experiments", "run_noise_sweep", "experiments.self_s"),
    ("seeding", "derive_seed", None),
)
PARTITION_SPAN = "core.partition_s"
PASS_SPAN = "cli.self_s"


class Tracer:
    """Accumulates self times and counts for the passes run inside ``active``."""

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self.spans: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []
        self._variance_cap = math.inf

    def _open(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - children
        self.spans[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, name: str | None, func):
        if name is None:

            def counted(*args, **kwargs):
                self.counts["seeding.hashes"] += 1
                return func(*args, **kwargs)

            return counted

        def timed(*args, **kwargs):
            self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close()
            self._count(name, args, result)
            return result

        return timed

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "forest.fit_s":
            c["forest.fit_calls"] += 1
            c["forest.trees"] += len(result.trees)
            c["forest.nodes"] += sum(int(tree.feature.size) for tree in result.trees)
        elif name == "forest.predict_s":
            c["forest.predict_rows"] += int(result[0].shape[0])
        elif name == "rankers.generate_s":
            c["rankers.pairs"] += len(result)
        elif name == "rankers.read_s":
            c["rankers.rows_read"] += sum(len(s) for s in result.values())
        elif name == "rank.solve_s":
            c["rank.solves"] += 1
            c["rank.comparisons"] += len(args[0])
            c["rank.clamped"] += int(bool(result.clamped))
            c["rank.capped"] += int(result.variance >= self._variance_cap)
        elif name == "fusion.fuse_s":
            c["fusion.fuses"] += 1

    @contextmanager
    def active(self):
        """Rebind every entry point for the duration of the block."""
        from rankrefine.core import ComparisonSet
        from rankrefine.rank import VARIANCE_CAP

        self._variance_cap = VARIANCE_CAP
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "rankrefine"]
        patched: list[tuple[object, str, object]] = []
        for module_name, attr, span_name in ENTRY_POINTS:
            original = getattr(sys.modules[f"rankrefine.{module_name}"], attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, key, value))
                        setattr(module, key, wrapper)
        partition = ComparisonSet.__dict__["from_outcomes"]
        plain = partition.__func__

        def from_outcomes(cls, *args, **kwargs):
            with self.span(PARTITION_SPAN):
                return plain(cls, *args, **kwargs)

        patched.append((ComparisonSet, "from_outcomes", partition))
        ComparisonSet.from_outcomes = classmethod(from_outcomes)
        try:
            yield self
        finally:
            for owner, key, value in reversed(patched):
                setattr(owner, key, value)
