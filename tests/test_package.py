"""The package's export list matches what ``__init__`` imports."""

import ast
from pathlib import Path

import rankrefine


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
