"""Shared pytest plumbing: the acceptance-verdict summary block and a
broadcast Bradley-Terry likelihood for grid-search checks."""

import numpy as np

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
