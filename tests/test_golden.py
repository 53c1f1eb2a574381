"""Every command of the golden table reproduces its committed outputs byte for byte."""

import pytest

from golden import COMMANDS, GOLDEN, LLM, PROVENANCE, describe_difference, provenance, run


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


def test_llm_replay_reads_no_endpoint_or_model(tmp_path):
    """A replayed session goes to no endpoint, so it needs neither --endpoint nor --model."""
    argv = [arg for arg in COMMANDS["rank-llm"] if arg not in LLM]
    assert "--endpoint" not in argv and "--model" not in argv
    for file, produced in run("rank-llm", tmp_path, argv).items():
        assert produced == (GOLDEN / file).read_bytes(), file
