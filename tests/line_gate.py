"""Line gate: every function-body statement and lambda of src/barrier_lab runs under Tier-1.

    PYTHONPATH=src python3 tests/line_gate.py [pytest options]

Runs the Tier-1 suite in this process with a line tracer (sys.settrace and
threading.settrace) on the package's files, then reads the statements of every
function body in src/barrier_lab/*.py from their syntax tree. Docstrings and
`global`/`nonlocal` declarations are not statements that run; class bodies and
module level run at import, so they are not checked. A statement counts as run
when any line of it gets a line event; a compound statement (if, for, while,
with, try, a nested def) counts by its header, and the statements of its
blocks count on their own.

Every lambda, module level included (a table row's builder, say), must also
be called: the tracer records each call of a code object named `<lambda>`,
keyed by its first line and the column where its body starts, so two lambdas
on one line count apart. The column comes from the code's instruction
positions, which needs Python 3.11 or later.

`tests/data/line_gate_allow.txt` exempts statements and lambdas, one per line:

    file | function | stripped source text of the statement's first line | reason

The function is the qualified name (`Class.method`, `outer.<locals>.inner`;
a lambda's ends in `<lambda>`).
Blank lines and lines starting with '#' are skipped. Exits 1 when a test fails,
when a statement or lambda that no entry names does not run, or when an entry
names one that now runs or no longer exists; 0 otherwise. Tier-1 takes about
twice as long under the tracer, so this runs as its own CI step.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "barrier_lab"
ALLOWLIST = Path(__file__).resolve().parent / "data" / "line_gate_allow.txt"
SEPARATOR = " | "


def trace_lines(run):
    """run() under a tracer; (its result, {real path: (line numbers hit, lambda codes called)})."""
    hits = {str(path.resolve()): (set(), set()) for path in PACKAGE.glob("*.py")}
    known = dict(hits)

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            known[name] = hits.get(os.path.realpath(name))
        if known[name] is None:
            return None
        lines, lambdas = known[name]
        if frame.f_code.co_name == "<lambda>":
            lambdas.add(frame.f_code)

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def _blocks(node):
    """The statement lists nested in a compound statement, handlers included."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, [])
    for handler in getattr(node, "handlers", []):
        yield handler.body
    for case in getattr(node, "cases", []):
        yield case.body


def _is_docstring(stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
        and isinstance(stmt.value.value, str)


def function_statements(tree):
    """(qualified function name, statement, its own line span) of each function body.

    A simple statement spans all its lines; a compound one spans its header,
    from its first line (a decorator's, for a def) to the line before its
    first block.
    """
    out = []

    def statements(body, qualname):
        for stmt in body:
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                continue
            blocks = [block for block in _blocks(stmt) if block]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([stmt.lineno] + [d.lineno for d in stmt.decorator_list])
                out.append((qualname, stmt, range(first, stmt.body[0].lineno)))
                function(stmt, qualname + ".<locals>.")
            elif blocks:
                out.append((qualname, stmt, range(stmt.lineno,
                                                  max(stmt.lineno + 1, blocks[0][0].lineno))))
                for block in blocks:
                    statements(block, qualname)
            else:
                out.append((qualname, stmt, range(stmt.lineno, stmt.end_lineno + 1)))

    def function(node, prefix):
        body = node.body[1:] if _is_docstring(node.body[0]) else node.body
        statements(body, prefix + node.name)

    def scope(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(node, prefix)
            elif isinstance(node, ast.ClassDef):
                scope(node.body, prefix + node.name + ".")
            else:
                for block in _blocks(node):    # module-level if/try around defs
                    scope(block, prefix)

    scope(tree.body, "")
    return out


def lambda_nodes(tree):
    """(qualified name, node) of every lambda in tree, at any depth."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Lambda):
                out.append((prefix + "<lambda>", child))
                walk(child, prefix + "<lambda>.<locals>.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def body_start(code):
    """(first line, column where the body starts) of a lambda's code object.

    The body's outermost expression carries the earliest instruction position;
    the zero-width positions of the interpreter's own set-up instructions are
    skipped.
    """
    starts = [(line, col) for line, end_line, col, end_col in code.co_positions()
              if col is not None and (line, col) != (end_line, end_col)]
    return code.co_firstlineno, min(starts)[1]


def read_allowlist(path: Path):
    """{(file, function, source text): reason} of the allowlist file."""
    entries = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split(SEPARATOR)
        if len(parts) < 4 or not parts[-1].strip():
            raise SystemExit("%s:%d: expected 'file | function | source | reason'"
                             % (path.name, number))
        key = (parts[0].strip(), parts[1].strip(), SEPARATOR.join(parts[2:-1]).strip())
        entries[key] = parts[-1].strip()
    return entries


def check(hits, allowed) -> int:
    """Print each unrun statement or lambda and each stale entry; the number of problems."""
    seen, unrun, total, n_lambdas = set(), [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree, (ran, lambdas) = ast.parse(source), hits[str(path.resolve())]
        called = {body_start(code) for code in lambdas}
        statements, nodes = function_statements(tree), lambda_nodes(tree)
        total, n_lambdas = total + len(statements), n_lambdas + len(nodes)
        units = [(qualname, stmt.lineno, bool(ran.intersection(span)))
                 for qualname, stmt, span in statements]
        units += [(qualname, node.lineno, (node.lineno, node.body.col_offset) in called)
                  for qualname, node in nodes]
        lines = source.splitlines()
        for qualname, lineno, was_run in units:
            key = (path.name, qualname, lines[lineno - 1].strip())
            seen.add(key)
            if not was_run:
                unrun.append((key, lineno))
    problems = 0
    for key, lineno in unrun:
        if key not in allowed:
            print("not run: %s:%d (%s): %s" % (key[0], lineno, key[1], key[2]))
            problems += 1
    unrun_keys = {key for key, _ in unrun}
    for key in allowed:
        if key not in seen:
            print("allowlisted but gone: %s (%s): %s" % key)
            problems += 1
        elif key not in unrun_keys:
            print("allowlisted but run: %s (%s): %s" % key)
            problems += 1
    print("line gate: %d function-body statements and %d lambdas, %d not run, %d allowlisted, "
          "%d problems" % (total, n_lambdas, len(unrun), len(allowed), problems))
    return problems


def main(argv) -> int:
    allowed = read_allowlist(ALLOWLIST)
    os.chdir(ROOT)
    status, hits = trace_lines(lambda: pytest.main(["-q"] + argv))
    if status != 0:
        print("line gate: the test run failed (pytest exit code %d)" % status)
        return 1
    return 1 if check(hits, allowed) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
