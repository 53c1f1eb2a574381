"""Shared pytest plumbing: the acceptance-verdict summary block, a
broadcast Bradley-Terry likelihood for grid-search checks, and the scalar
counter-based uniform draw."""

import numpy as np

from rankrefine.seeding import _unit_interval, derive_seed

ACCEPTANCE_LINES: list[str] = []


def grid_nll(comparisons, grid: np.ndarray) -> np.ndarray:
    """``bt_nll`` at every candidate of ``grid``, in one broadcast."""
    total = np.zeros_like(grid)
    below = comparisons.below_labels
    above = comparisons.above_labels
    if below.size:
        total += np.logaddexp(0.0, -(grid[None, :] - below[:, None])).sum(axis=0)
    if above.size:
        total += np.logaddexp(0.0, grid[None, :] - above[:, None]).sum(axis=0)
    return total


def unit_uniform(*parts) -> float:
    """One draw in [0, 1) keyed by the substream name, hashing the whole name.

    The per-pair draw that ``unit_uniforms`` replaced, kept as the reference
    it must match bit for bit.
    """
    return float(_unit_interval(derive_seed(*parts)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
