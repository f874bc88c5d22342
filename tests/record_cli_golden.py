"""Golden CLI cases: every subcommand over ``inputs/``, plus malformed input.

Each case is an argv list for ``forcelab.cli.main``. ``{tmp}`` in an
argument names a directory holding the files of ``FILES``; it is written
anew for every run and replaced by ``{tmp}`` again in the captured output,
so the digests do not depend on where it lives. Paths under ``inputs/``
are relative to the repository root, which must be the working directory.

Running this file records stdout, stderr and the exit code of every case
into ``cli_golden.json`` beside it, for ``test_cli_golden.py`` to check:

    PYTHONPATH=src python tests/record_cli_golden.py

Before writing, it names on stderr the cases added, removed, or whose
digests moved against the file it replaces. Record only when a change to
the CLI's output is intended, and name the cases whose digests moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_golden.json"

GRAPHS = (
    "grid_3x4",
    "grid_3x4_chords",
    "grid_3x4_chords5",
    "ladder_p4xp2",
    "ladder_p4xp2_chord",
    "p5xp2",
    "p9",
    "tree_three_paths",
    "fan_family_max",
)
PARAMS = ("z", "zplus", "pd", "pt", "ptplus", "ppt", "thr", "thrplus")

PSD_GRID = {
    "rule": "psd",
    "base": [0, 1, 2],
    "steps": [[[0, 4], [1, 5]], [[4, 8]], [[8, 9]], [[5, 6], [9, 10]],
              [[2, 3], [6, 7], [10, 11]]],
}
PSD_TREE = {
    "rule": "psd",
    "base": [0],
    "steps": [[[0, 1]], [[1, 2], [1, 3]], [[3, 4]], [[4, 5], [4, 7]],
              [[7, 6], [7, 8]], [[8, 9]]],
}
# The rigid-linkage schedule that ``propagate`` gives from {0, 4, 8} on grid_3x4.
RL_GRID = {
    "rule": "rigid_linkage",
    "base": [0, 4, 8],
    "steps": [[[0, 1]], [[4, 5]], [[1, 2]], [[8, 9]], [[5, 6]], [[2, 3]], [[3, 7]],
              [[6, 10]], [[7, 11]]],
}

FILES = {
    "k3.edges": "3 3\n0 1\n0 2\n1 2\n",
    "p3.edges": "3 2\n0 1\n1 2\n",
    "p4.edges": "4 3\n0 1\n1 2\n2 3\n",
    "k13.edges": "4 3\n0 1\n0 2\n0 3\n",
    "psd_grid.json": json.dumps(PSD_GRID),
    "psd_tree.json": json.dumps(PSD_TREE),
    "rl_grid.json": json.dumps(RL_GRID),
    "graphs.g6": "DQo\nEQjO\nCF\n",
    "bad_line.g6": "DQo\n!!\n",
    # the one-edge graph "A_" with characters past its edge bits, or with
    # nonzero padding bits: no graph's canonical graph6
    "trailing.g6": "A_zzzz\n",
    "padding.g6": "A~\n",
    "trailing_line.g6": "DQo\nA_zzz\n",
    # the graph "A_" behind the four-byte size form, which graph6 keeps for n >= 63
    "long_size.g6": "~??A_\n",
    # a 4-vertex graph, then the 3x5 grid: 15 vertices, above the sweep cap
    "over_cap.g6": "Cr\nNhEAHCPAGG?P?P?G_AG\n",
    "bad_edges.edges": "3 2\n0 1\n",
    "loop.edges": "3 1\n1 1\n",
    # a header above the largest graph6 size, refused before any allocation
    "huge_header.edges": "1000000000 0\n",
    "negative_header.edges": "-1 0\n",
    "comments_only.edges": "# no graph here\n\n# nor here\n",
    "one_token_header.edges": "3\n",
    "word_header.edges": "three 2\n0 1\n1 2\n",
    "three_token_edge.edges": "3 1\n0 1 2\n",
    "word_edge.edges": "3 1\n0 x\n",
    "out_of_range.edges": "3 1\n0 3\n",
    "header_only.g6": ">>graph6<<\n",
    "short.g6": "C\n",
    "wide_size.g6": "~~\n",
    "blank.g6": "",
    "not_json.json": "{",
    "deep.json": "[" * 100_000,
    "list.json": "[1, 2]",
    "no_steps.json": json.dumps({"rule": "standard", "base": [0, 4, 8]}),
    "str_base.json": json.dumps({"rule": "standard", "base": "0", "steps": []}),
    "bad_rule.json": json.dumps({"rule": "nope", "base": [0], "steps": []}),
    "illegal.json": json.dumps({"rule": "standard", "base": [0], "steps": [[[0, 1]]]}),
    "no_partitions.json": json.dumps({"K": 4}),
    # eight one-block paths: 28 optional cross edges, over the enumerate limit
    "wide_partitions.json": json.dumps({"K": 4, "partitions": [[[0, 4]]] * 8}),
    "bad_witness.json": json.dumps({"K": 4, "paths": [[0, 1]], "blocks": "x"}),
}


def _cases() -> list[tuple[str, list[str]]]:
    cases = []

    def add(name, *argv):
        cases.append((name, list(argv)))

    def edges(name):
        return f"inputs/{name}.edges"

    grid, tree = edges("grid_3x4"), edges("tree_three_paths")
    chron, witness = "inputs/grid_3x4_chronology.json", "inputs/grid_3x4_witness.json"

    for rule, blue in (("z", "0,4,8"), ("zplus", "0,1,2"), ("pd", "5"), ("rl", "0,4,8")):
        add(f"simulate-{rule}", "simulate", "--rule", rule, "--graph", grid, "--blue", blue)
    add("simulate-verbose", "simulate", "--rule", "z", "--graph", edges("p9"),
        "--blue", "0", "--verbose")
    add("simulate-stall", "simulate", "--rule", "z", "--graph", grid, "--blue", "5")
    # the path 0-1-2-3: its least rigid-linkage force 1->0 would stall
    add("simulate-rl-false-stall", "simulate", "--rule", "rl", "--graph", "{tmp}/p4.edges",
        "--blue", "1,3")
    add("simulate-rl-true-stall", "simulate", "--rule", "rl", "--graph", "{tmp}/k13.edges",
        "--blue", "0")
    add("simulate-repeated-blue", "simulate", "--rule", "z", "--graph", "{tmp}/p3.edges",
        "--blue", "0,0")
    add("simulate-chronology", "simulate", "--rule", "z", "--graph", grid,
        "--chronology", chron)
    add("simulate-psd-chronology", "simulate", "--rule", "zplus", "--graph", grid,
        "--chronology", "{tmp}/psd_grid.json")

    for graph in GRAPHS:
        for param in PARAMS:
            add(f"solve-{param}-{graph}", "solve", "--param", param, "--graph", edges(graph))
    for param in PARAMS:
        add(f"solve-{param}-k3", "solve", "--param", param, "--graph", "{tmp}/k3.edges")
    for param in ("pt", "ptplus", "ppt"):
        for m in ("1", "2", "3", "5"):
            add(f"solve-{param}-m{m}", "solve", "--param", param, "--graph", grid, "-m", m)
    add("solve-pt-m-too-large", "solve", "--param", "pt", "--graph", grid, "-m", "13")
    add("solve-pt-m-negative", "solve", "--param", "pt", "--graph", "{tmp}/p3.edges",
        "-m", "-1")
    add("solve-over-cap", "solve", "--param", "z", "--graph", grid, "--cap", "8")
    add("solve-g6", "solve", "--param", "z", "--graph", "{tmp}/graphs.g6")
    add("solve-z-with-m", "solve", "--param", "z", "--graph", grid, "-m", "2")
    add("solve-g6-trailing", "solve", "--param", "z", "--graph", "{tmp}/trailing.g6")
    add("solve-g6-padding", "solve", "--param", "z", "--graph", "{tmp}/padding.g6")
    add("solve-g6-long-size", "solve", "--param", "z", "--graph", "{tmp}/long_size.g6")

    add("witness-extract", "witness", "extract", "--graph", grid, "--chronology", chron)
    add("witness-apply", "witness", "apply", "--graph", grid, "--witness", witness)
    add("witness-verify", "witness", "verify", "--graph", grid, "--witness", witness)
    add("witness-verify-tree", "witness", "verify", "--graph", tree,
        "--witness", "inputs/tree_three_paths_witness.json")
    add("witness-apply-tree", "witness", "apply", "--graph", tree,
        "--witness", "inputs/tree_three_paths_witness.json")
    add("witness-verify-wrong-graph", "witness", "verify", "--graph", edges("p9"),
        "--witness", witness)
    add("witness-extract-no-chronology", "witness", "extract", "--graph", grid)
    for rule in ("psd", "rl"):
        add(f"witness-extract-{rule}", "witness", "extract", "--graph", grid,
            "--chronology", f"{{tmp}}/{rule}_grid.json")
    add("witness-apply-no-witness", "witness", "apply", "--graph", grid)
    add("witness-verify-no-witness", "witness", "verify", "--graph", grid)

    parts = "inputs/fan_partitions.json"
    add("family-extremes", "family", "generate", "--partitions", parts)
    add("family-enumerate", "family", "generate", "--partitions", parts,
        "--mode", "enumerate", "--count", "5")
    add("family-sample", "family", "generate", "--partitions", parts,
        "--mode", "sample", "--count", "4", "--seed", "7")
    add("family-sample-negative", "family", "generate", "--partitions", parts,
        "--mode", "sample", "--count", "-1")
    add("family-sample-no-count", "family", "generate", "--partitions", parts,
        "--mode", "sample")
    add("family-enumerate-over-limit", "family", "generate", "--partitions",
        "{tmp}/wide_partitions.json", "--mode", "enumerate")

    for action in ("induce", "reverse", "certify"):
        for x in ("0", "6", "11"):
            add(f"bundle-{action}-grid-{x}", "bundle", action, "--graph", grid,
                "--chronology", "{tmp}/psd_grid.json", "--vertex", x)
        add(f"bundle-{action}-tree", "bundle", action, "--graph", tree,
            "--chronology", "{tmp}/psd_tree.json", "--vertex", "5")
    add("bundle-standard-schedule", "bundle", "induce", "--graph", grid,
        "--chronology", chron, "--vertex", "3")

    for jobs in ("1", "2"):
        add(f"verify-all-n5-jobs{jobs}", "verify", "bounds", "--graphs", "all-n:5",
            "--jobs", jobs)
    add("verify-connected-n6", "verify", "bounds", "--graphs", "all-n:6",
        "--connected-only", "--checks", "thrplus,zeq")
    add("verify-file", "verify", "bounds", "--graphs", "{tmp}/graphs.g6")
    add("verify-bad-line", "verify", "bounds", "--graphs", "{tmp}/bad_line.g6")
    add("verify-trailing-line", "verify", "bounds", "--graphs", "{tmp}/trailing_line.g6")
    add("verify-n9", "verify", "bounds", "--graphs", "all-n:9")
    add("verify-n0", "verify", "bounds", "--graphs", "all-n:0")
    add("verify-n-negative", "verify", "bounds", "--graphs", "all-n:-2")
    add("verify-n-not-a-number", "verify", "bounds", "--graphs", "all-n:abc")
    add("verify-over-cap", "verify", "bounds", "--graphs", "{tmp}/over_cap.g6")
    add("verify-bad-check", "verify", "bounds", "--graphs", "all-n:3", "--checks", "nope")
    add("verify-jobs-0", "verify", "bounds", "--graphs", "all-n:3", "--jobs", "0")
    add("verify-jobs-negative", "verify", "bounds", "--graphs", "all-n:3", "--jobs", "-3")

    add("export-dot", "export", "dot", "--graph", grid)
    add("export-slice", "export", "dot", "--graph", grid, "--slice", "3",
        "--chronology", chron)
    add("export-slice-no-chronology", "export", "dot", "--graph", grid, "--slice", "3")

    add("missing-graph", "solve", "--param", "z", "--graph", "{tmp}/absent.edges")
    add("bad-edge-count", "solve", "--param", "z", "--graph", "{tmp}/bad_edges.edges")
    add("self-loop", "solve", "--param", "z", "--graph", "{tmp}/loop.edges")
    add("huge-header", "simulate", "--rule", "z", "--graph", "{tmp}/huge_header.edges",
        "--blue", "0")
    add("negative-header", "solve", "--param", "z", "--graph", "{tmp}/negative_header.edges")
    for name in ("comments_only", "one_token_header", "word_header", "three_token_edge",
                 "word_edge", "out_of_range"):
        add(f"edges-{name}", "solve", "--param", "z", "--graph", f"{{tmp}}/{name}.edges")
    for name in ("header_only", "short", "wide_size", "blank"):
        add(f"g6-{name}", "solve", "--param", "z", "--graph", f"{{tmp}}/{name}.g6")
    add("bad-blue", "simulate", "--rule", "z", "--graph", grid, "--blue", "0,99")
    for name in ("not_json", "deep", "list", "no_steps", "str_base", "bad_rule", "illegal"):
        add(f"chronology-{name}", "simulate", "--rule", "z", "--graph", grid,
            "--chronology", f"{{tmp}}/{name}.json")
    add("partitions-missing", "family", "generate", "--partitions",
        "{tmp}/no_partitions.json")
    add("witness-bad-blocks", "witness", "verify", "--graph", grid,
        "--witness", "{tmp}/bad_witness.json")
    return cases


CASES = _cases()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cases() -> dict[str, list]:
    """name -> [exit code, stdout digest, stderr digest] for every case."""
    from forcelab.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            pathlib.Path(tmp, name).write_text(text)
        for name, argv in CASES:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([arg.replace("{tmp}", tmp) for arg in argv])
            out[name] = [
                code,
                digest(stdout.getvalue().replace(tmp, "{tmp}")),
                digest(stderr.getvalue().replace(tmp, "{tmp}")),
            ]
    return out


def report_changes(old: dict, new: dict) -> None:
    """Name on stderr the cases added, removed, or whose digests moved."""
    for label, names in (
        ("added", new.keys() - old.keys()),
        ("removed", old.keys() - new.keys()),
        ("moved", {name for name in old.keys() & new.keys() if old[name] != new[name]}),
    ):
        print(f"{label}: {', '.join(sorted(names)) or '(none)'}", file=sys.stderr)


if __name__ == "__main__":
    recorded = run_cases()
    report_changes(json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}, recorded)
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
