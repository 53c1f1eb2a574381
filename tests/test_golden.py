"""Every command of the golden table reproduces its committed outputs byte for byte."""

import pytest

from golden import COMMANDS, GOLDEN, PROVENANCE, describe_difference, provenance, run


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    problems = []
    for file, produced in run(name, tmp_path).items():
        path = GOLDEN / file
        if not path.exists():
            problems.append(f"{file}: no golden file; see tests/golden.py to write one")
            continue
        problem = describe_difference(file, path.read_bytes(), produced)
        if problem:
            problems.append(problem)
    assert not problems, "\n".join(
        [*problems, f"goldens made with:\n{PROVENANCE.read_text()}now running:\n{provenance()}"]
    )
