"""The public API: __all__ and the public imports of __init__ name the same set,
and every other module-level name of the package is used somewhere in it."""

import ast
import re
from collections import Counter
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


def defined_names(tree):
    """Module-level functions, classes and assigned names, dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("__")}


def test_every_module_level_name_is_used_or_public():
    # a name is used when src/ names it anywhere besides its definition:
    # code, another module's import or a docstring
    sources = {path.name: path.read_text()
               for path in sorted(Path(barrier_lab.__file__).parent.glob("*.py"))}
    words = Counter(re.findall(r"\w+", "\n".join(sources.values())))
    unused = sorted("%s:%s" % (module, name) for module, source in sources.items()
                    for name in defined_names(ast.parse(source))
                    if name not in barrier_lab.__all__ and words[name] < 2)
    assert unused == []
