"""List the statements of ``src/forcelab`` that the tier-1 suite never runs.

Opt-in, not a test (pytest does not collect this file). Run from anywhere,
with the tier-1 environment (``PYTHONPATH=src`` is added here):

    python tests/unrun_statements.py [extra pytest arguments]

It runs the tier-1 suite in this process under ``sys.settrace``, records
every line event in a ``src/forcelab`` file, and prints ``file:line`` and the
source of each statement none of whose own lines ran, then the count. A
statement's own lines are its whole text for a simple statement and its
header (decorators through the line before its body) for a compound one.
Docstrings and ``global``/``nonlocal`` lines compile to no code and are left
out. It cannot see code that runs only in other processes: the pool workers
of ``verify bounds --jobs 2`` and anything a test starts with ``subprocess``.
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "forcelab"


def own_lines(stmt: ast.stmt) -> range:
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    bodies = [getattr(stmt, f, None) for f in ("body", "orelse", "finalbody", "handlers")]
    starts = [b[0].lineno for b in bodies if isinstance(b, list) and b]
    return range(first, min(starts) if starts else stmt.end_lineno + 1)


def statements(tree: ast.Module):
    """Every statement of the module, docstrings and global/nonlocal left out."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not isinstance(node, (ast.Global, ast.Nonlocal)):
            if id(node) not in docstrings:
                yield node


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # collect what the tier-1 command collects from the repo root
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    import pytest

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        seen = ran.get(str(path), set())
        for stmt in sorted(statements(ast.parse(source)), key=lambda s: s.lineno):
            span = own_lines(stmt)
            if seen.isdisjoint(span):
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    print(f"{unrun} statements never ran (pytest exit code {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
