"""The public API: __all__ and the public imports of __init__ name the same set."""

import ast
from pathlib import Path

import barrier_lab


def imported_public_names():
    tree = ast.parse(Path(barrier_lab.__file__).read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not (alias.asname or alias.name).startswith("_")}


def test_every_listed_name_resolves():
    assert len(set(barrier_lab.__all__)) == len(barrier_lab.__all__)
    assert [name for name in barrier_lab.__all__ if not hasattr(barrier_lab, name)] == []


def test_every_imported_public_name_is_listed():
    names = imported_public_names()
    assert "solve_small_qp" in names
    assert sorted(names - set(barrier_lab.__all__)) == []
