"""Command-line interface.

Structured results go to stdout as a single JSON object, JSON lines, or
CSV; human-readable traces go to stderr under --verbose. Exit codes:
0 success, 1 infeasible input or failed validation (JSON detail on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import bundles, pips, slices, solvers
from .errors import ForcelabError, GraphFormatError
from .forcing import RelaxedChronology, Rule, propagate, validate_chronology
from .graphs import load_graph, to_dot
from .pips import BlockPartition, PipWitness


def _parse_ids(text: str) -> list[int]:
    if not text:
        return []
    return [int(tok) for tok in text.split(",")]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _ints(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _lists_of(value, each) -> bool:
    return isinstance(value, list) and all(each(v) for v in value)


def _pair(value) -> bool:
    return _ints(value) and len(value) == 2


def _pair_lists(value) -> bool:
    return _lists_of(value, lambda v: _lists_of(v, _pair))


# The shape each key of a JSON input must have, and how to name it.
_SHAPES = {
    "rule": (lambda v: isinstance(v, str), "a string"),
    "base": (_ints, "a list of integers"),
    "steps": (_pair_lists, "a list of lists of integer pairs"),
    "K": (_is_int, "an integer"),
    "paths": (lambda v: _lists_of(v, _ints), "a list of lists of integers"),
    "blocks": (_pair_lists, "a list of lists of integer pairs"),
    "partitions": (_pair_lists, "a list of lists of integer pairs"),
}


def _load_object(path: str, keys: tuple[str, ...]) -> dict:
    """A JSON object holding every key in ``keys``, each of its shape."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise GraphFormatError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise GraphFormatError(f"{path}: expected a JSON object")
    for key in keys:
        if key not in data:
            raise GraphFormatError(f"{path}: missing key {key!r}")
        fits, shape = _SHAPES[key]
        if not fits(data[key]):
            raise GraphFormatError(f"{path}: key {key!r} must be {shape}")
    return data


def _load_chronology(path: str) -> RelaxedChronology:
    data = _load_object(path, ("rule", "base", "steps"))
    return RelaxedChronology.from_json_dict(data)


def _load_witness(path: str) -> PipWitness:
    return PipWitness.from_json_dict(_load_object(path, ("K", "paths", "blocks")))


def _load_partitions(path: str) -> list[BlockPartition]:
    data = _load_object(path, ("K", "partitions"))
    return [BlockPartition(data["K"], blocks) for blocks in data["partitions"]]


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def cmd_simulate(args) -> int:
    g = load_graph(args.graph)
    rule = Rule.from_token(args.rule)
    blue = _parse_ids(args.blue)
    if args.chronology:
        chron = _load_chronology(args.chronology)
        expansion = validate_chronology(g, chron)
        _emit(
            {
                "valid": True,
                "ct": chron.ct,
                "rule": chron.rule.value,
                "expansion": [sorted(s) for s in expansion],
            }
        )
        return 0
    result = propagate(rule, g, blue)
    if args.verbose and result.chronology is not None:
        for k, step in enumerate(result.chronology.steps, start=1):
            forces = " ".join(f"{f.src}->{f.dst}" for f in step)
            print(f"step {k}: {forces}", file=sys.stderr)
    if not result.ok:
        _emit(
            {
                "ok": False,
                "rule": rule.value,
                "stalled_blue": sorted(result.blue),
            }
        )
        return 1
    _emit(
        {
            "ok": True,
            "rule": rule.value,
            "base": sorted(set(blue)),
            "pt": result.pt,
            "steps": result.chronology.to_json_dict()["steps"],
        }
    )
    return 0


def cmd_solve(args) -> int:
    g = load_graph(args.graph)
    report = solvers.solve_parameter(g, args.param, m=args.m, cap=args.cap)
    payload = report.to_json_dict()
    payload["n"] = g.n
    if args.m is not None:
        payload["m"] = args.m
    _emit(payload)
    return 0


def cmd_witness(args) -> int:
    g = load_graph(args.graph)
    if args.action == "extract":
        if not args.chronology:
            raise ValueError("witness extract needs --chronology")
        chron = _load_chronology(args.chronology)
        witness = pips.chronology_to_witness(g, chron)
        _emit(witness.to_json_dict())
        return 0
    if not args.witness:
        raise ValueError(f"witness {args.action} needs --witness")
    witness = _load_witness(args.witness)
    if args.action == "apply":
        chron = pips.witness_to_chronology(g, witness)
        _emit(chron.to_json_dict())
        return 0
    check = pips.verify_witness(g, witness)
    _emit({"valid": check.ok, "violation": check.violation})
    return 0 if check.ok else 1


def cmd_family(args) -> int:
    parts = _load_partitions(args.partitions)
    layout = pips.family_layout(parts)
    members = pips.generate_family(
        parts, mode=args.mode, count=args.count, seed=args.seed
    )
    header = {
        "witness": layout.witness.to_json_dict(),
        "base": sorted(layout.witness.base()),
        "path_edges": [list(e) for e in layout.path_edges],
        "optional_edges": [list(e) for e in layout.cross_edges],
    }
    _emit(header)
    for member in members:
        record = {
            "graph_id": member.index,
            "n": member.graph.n,
            "edges": [list(e) for e in member.graph.edges()],
            "witness_ref": 0,
            "certified_Z_upper": member.certified_forcing_upper,
            "certified_pt_upper": member.certified_pt_upper,
        }
        _emit(record)
    return 0


def cmd_bundle(args) -> int:
    g = load_graph(args.graph)
    chron = _load_chronology(args.chronology)
    if args.action == "induce":
        bundle = bundles.induced_path_bundle(g, chron, args.vertex)
        _emit(bundle.to_json_dict(host_ref=args.chronology, x=args.vertex))
        return 0
    if args.action == "reverse":
        base, new_chron = bundles.relocate_psd_set(g, chron, args.vertex)
        _emit({"base": sorted(base), "chronology": new_chron.to_json_dict()})
        return 0
    cert = bundles.certify_rigid_linkage(g, chron, args.vertex)
    _emit(cert.to_json_dict())
    return 0


def cmd_verify(args) -> int:
    if args.graphs.startswith("all-n:"):
        text = args.graphs.split(":", 1)[1]
        try:
            max_n = int(text)
        except ValueError:
            raise ValueError(f"--graphs all-n:N takes an integer N, got {text!r}") from None
        stream = solvers.atlas_stream(max_n=max_n, connected_only=args.connected_only)
    else:
        stream = solvers.stream_from_file(args.graphs)
    checks = tuple(args.checks.split(","))
    rows = solvers.sweep_bounds(stream, checks=checks, jobs=args.jobs)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(solvers.BOUNDS_HEADER)
    failures = 0
    for row in rows:
        writer.writerow(row.as_csv_fields())
        if not row.ok:
            failures += 1
    if failures:
        print(
            json.dumps({"error": "BoundFailure", "detail": f"{failures} rows failed"}),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_export(args) -> int:
    g = load_graph(args.graph)
    colors = None
    if args.slice is not None:
        if not args.chronology:
            raise ValueError("--slice needs --chronology")
        chron = _load_chronology(args.chronology)
        report = slices.time_slice(g, chron, args.slice)
        colors = {}
        for v in report.minus:
            colors[v] = "gray75"
        for v in report.at:
            colors[v] = "dodgerblue"
        for v in report.plus:
            colors[v] = "white"
    sys.stdout.write(to_dot(g, colors=colors))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forcelab",
        description="Zero forcing processes, certificates, and exhaustive solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="propagate from a blue set or validate a schedule")
    p.add_argument("--rule", required=True, choices=["z", "zplus", "pd", "rl"])
    p.add_argument("--graph", required=True)
    p.add_argument("--blue", default="")
    p.add_argument("--chronology")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="exhaustive parameter computation")
    p.add_argument(
        "--param",
        required=True,
        choices=["z", "zplus", "pd", "pt", "ptplus", "ppt", "thr", "thrplus"],
    )
    p.add_argument("--graph", required=True)
    p.add_argument("-m", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("witness", help="convert or verify path-cover witnesses")
    p.add_argument("action", choices=["extract", "apply", "verify"])
    p.add_argument("--graph", required=True)
    p.add_argument("--chronology")
    p.add_argument("--witness")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("family", help="generate graphs from block partitions")
    p.add_argument("action", choices=["generate"])
    p.add_argument("--partitions", required=True)
    p.add_argument("--mode", default="extremes", choices=["extremes", "enumerate", "sample"])
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("bundle", help="vertex-induced bundles, PSD reversal, RL certificates")
    p.add_argument("action", choices=["induce", "reverse", "certify"])
    p.add_argument("--graph", required=True)
    p.add_argument("--chronology", required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("verify", help="sweep bound checks over a graph stream")
    p.add_argument("target", choices=["bounds"])
    p.add_argument("--graphs", required=True, help="'all-n:K' or a graph6 file")
    p.add_argument("--checks", default="bounds,thrplus,zeq")
    p.add_argument("--jobs", type=int, default=1, help="at most one worker per graph and CPU")
    p.add_argument("--connected-only", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="write DOT, optionally colored by a time slice")
    p.add_argument("format", choices=["dot"])
    p.add_argument("--graph", required=True)
    p.add_argument("--slice", type=int, default=None)
    p.add_argument("--chronology")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ForcelabError, ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
