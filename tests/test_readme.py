"""Every ```python block of README.md runs as written, and every CLI command parses."""

import re
import shlex
from pathlib import Path

import pytest

from rankrefine.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
# Each `rankrefine ...` line of a sh block, backslash continuations joined, as argv.
COMMANDS = [
    shlex.split(line)[1:]
    for block in SH_BLOCKS
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("rankrefine ")
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, str(README), "exec"), {"__name__": "__readme__"})


def test_readme_has_cli_commands():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_cli_command_parses(argv, capsys):
    """Parsing only: a renamed or removed flag fails here, and nothing runs."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"rankrefine {shlex.join(argv)}: {capsys.readouterr().err.strip()}")
    assert args.command == argv[0]
