"""The schedule check is an oracle of the rule engine, so it must not run
the engine: ``validate_chronology``, and every module-level function of
``forcing`` that it reaches by name, names none of the engine's step
functions, their table or the firing loop. The path-bundle check on the
host's masks, ``bundles._window_chains``, and the bundle construction
around it, ``bundles._bundle_from_paths``, are a check of their own: they
reach neither the engine nor a replay, and build no induced subgraph. The
bit-sliced scans of ``sliced`` are checked against that engine, so no line
of ``sliced.py`` names the engine or its component routine. The rigid-
linkage order search of ``tests/naive.py`` is the oracle of ``propagate``
under that rule, so it runs only the naive ``forces``: none of the engine,
the replay or the library's public force functions. The checks parse the
sources with stdlib ``ast``, as ``test_imports`` does.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "forcelab"
NAIVE = Path(__file__).resolve().parent / "naive.py"
FORCING = SRC / "forcing.py"
ENGINE = {"_legal_forces", "_standard_step", "_psd_step", "_power_step", "PROCESSES", "_fire"}
REPLAY = {"Replay", "validate_chronology", "subgraph_chronology", "induced_subgraph"}


def names_reached(source: str, entry: str) -> set[str]:
    """Every name or attribute read in the body of the module-level function
    ``entry`` and of the module-level functions it names, transitively.
    Annotations are left out: the modules never evaluate them."""
    functions = {
        node.name: node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
    }
    seen, todo, names = set(), [entry], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in (n for stmt in functions[name].body for n in ast.walk(stmt)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        todo += [n for n in names if n in functions]
    return names


def test_schedule_check_does_not_run_the_engine():
    assert names_reached(FORCING.read_text(), "validate_chronology") & ENGINE == set()


@pytest.mark.parametrize("entry", ["_window_chains", "_bundle_from_paths"])
def test_bundle_window_check_runs_neither_engine_nor_replay(entry):
    reached = names_reached((SRC / "bundles.py").read_text(), entry)
    assert reached & (ENGINE | REPLAY) == set()


def test_rigid_linkage_oracle_runs_only_the_naive_forces():
    reached = names_reached(NAIVE.read_text(), "rigid_linkage_verdicts")
    assert "forces" in reached
    assert reached & (ENGINE | REPLAY | {"possible_forces", "propagate"}) == set()


def test_sliced_scans_name_nothing_of_the_engine():
    tree = ast.parse((SRC / "sliced.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert "_psd_round" in names
    assert names & (ENGINE | {"component_masks"}) == set()


def test_check_follows_helpers():
    source = (
        "def _legal_forces():\n    pass\n"
        "def _helper():\n    return _legal_forces()\n"
        "def validate_chronology(g: _fire) -> PROCESSES:\n    return _helper()\n"
        "def unrelated():\n    return PROCESSES\n"
    )
    assert names_reached(source, "validate_chronology") & ENGINE == {"_legal_forces"}
