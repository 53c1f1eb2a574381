"""The package's export list matches what ``__init__`` imports, and its
runtime dependencies match what its modules import."""

import ast
import re
import sys
from pathlib import Path

import pytest

import rankrefine

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _public_imports():
    tree = ast.parse(Path(rankrefine.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def test_every_exported_name_resolves_once():
    names = rankrefine.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(rankrefine, name)]
    assert missing == []


def test_every_public_import_is_exported():
    unlisted = sorted(set(_public_imports()) - set(rankrefine.__all__))
    assert unlisted == []


def _third_party_imports():
    """Top-level names of every absolute import in the package, stdlib left out."""
    names = set()
    for path in Path(rankrefine.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"rankrefine"}


def test_runtime_dependencies_are_what_the_package_imports():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert declared == _third_party_imports()
