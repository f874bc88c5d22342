"""Every module of the package uses each name it imports, and every
private module-level name is read somewhere in the package.

A refactor that stops calling a function tends to leave its import, or
the private helper itself, behind; these checks parse each module under
``src/forcelab`` (the package's ``__init__``, which re-exports, aside
for imports) and list the imported names that a module never reads and
the ``_name`` functions, classes and assignments at module level that no
module reads. Two more pin where decisions live: the private names one
module reads of another, and the process-lifetime caches, which only
``sliced`` keeps.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "forcelab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_import():
    source = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(source) == ["path (line 1)", "sys (line 2)"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``file: name (line)`` for each module-level ``_name`` (not a dunder)
    defined in one of ``sources`` (file name -> source) and read nowhere in
    them, as a name or as an attribute."""
    defined, read = [], set()
    for file, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(file, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{file}: {name} (line {line})"
            for file, name, line in defined if name not in read]


def test_package_reads_every_private_name():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_check_flags_an_unread_private_name():
    sources = {
        "a.py": "def _used():\n    pass\ndef _left():\n    pass\n_LIMIT = 3\n__all__ = []\n",
        "b.py": "from a import _used\nimport a\n_used()\nprint(a._LIMIT)\n",
    }
    assert unread_private_names(sources) == ["a.py: _left (line 3)"]


def cached_functions(source: str) -> list[str]:
    """``name (line)`` for each module-level function of ``source`` decorated
    with ``functools.cache`` or ``lru_cache``: bare, called or dotted."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("cache", "lru_cache"):
                    found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "sliced.py"], ids=lambda p: p.name
)
def test_only_sliced_keeps_process_lifetime_caches(path):
    # What depends on n alone (the lattice vectors, a size's table indices
    # and the byte translations that decode a table) is kept for the process
    # by the module that owns the table's format; nothing else is kept
    # between calls.
    assert cached_functions(path.read_text()) == []


def test_check_flags_a_cached_function():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@cache\ndef a():\n    pass\n"
        "@functools.lru_cache(maxsize=8)\ndef b():\n    pass\n"
        "@lru_cache\ndef c():\n    pass\n"
        "@staticmethod\ndef d():\n    pass\n"
        "class E:\n    @cache\n    def f(self):\n        pass\n"
    )
    assert cached_functions(source) == ["a (line 4)", "b (line 7)", "c (line 10)"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads_across_modules(sources: dict[str, str]) -> list[tuple[str, str, str]]:
    """``(reader, owner, name)`` for each private ``_name`` of module
    ``owner`` that module ``reader`` reads, where both are among ``sources``
    (module name -> source, parsed as in :func:`unread_private_names`):
    through ``from .owner import _name``, as ``owner._name`` on a module
    imported with ``from . import owner``, or as ``Name._name`` on a class
    (or any other name) imported from ``owner``."""
    reads = set()
    for reader, source in sources.items():
        tree = ast.parse(source)
        owners = {}  # local name -> module it names or comes from
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for alias in node.names:
                if node.module is None:
                    owners[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reads.add((reader, node.module, alias.name))
                else:
                    owners[alias.asname or alias.name] = node.module
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in owners):
                reads.add((reader, owners[node.value.id], node.attr))
    return sorted(read for read in reads if read[0] != read[1])


def test_private_names_read_across_modules():
    # Each is a decision kept in one module and read by the one that needs
    # it: the rule engine's forces and normal form by the bundle walk, the
    # scan that the slice constructions start from, and the sweep's m row.
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert private_reads_across_modules(sources) == [
        ("bundles", "forcing", "_fire"),
        ("bundles", "forcing", "_legal_forces"),
        ("bundles", "forcing", "_normalized"),
        ("slices", "solvers", "_Scan"),
        ("solvers", "slices", "_halving"),
    ]


def test_check_lists_private_reads_across_modules():
    sources = {
        "a": "class Box:\n    _size = 1\ndef _helper():\n    pass\n_LIMIT = 3\n",
        "b": "from .a import _helper, Box as B\nfrom . import a\n"
             "print(_helper(), B._size, a._LIMIT, a.__name__, B.size)\n",
        "c": "from . import a as alias\nimport os\nprint(alias._helper, os._exit, self._own)\n",
    }
    assert private_reads_across_modules(sources) == [
        ("b", "a", "_LIMIT"),
        ("b", "a", "_helper"),
        ("b", "a", "_size"),
        ("c", "a", "_helper"),
    ]
