"""Inputs and operations of the four benchmark workloads.

One operation is one call into a public forcelab function. A workload is
a fixed list of operations: a part that no seed changes (the packaged
atlas, the grids, the PSD cases on n <= 6) followed by a seeded part.

Seeds map onto ``SLOTS`` recorded input sets (slot = seed mod SLOTS), and
every slot has reference results under ``refs/``. The random graphs of
the solver workloads are drawn once from fixed generator seeds and then
relabelled by a seeded vertex permutation: each seed gets different
labelled inputs and different witness lists, while the work a scan does,
which depends on the graph's isomorphism class, stays the same. The
random schedules of ``certify-replay`` are drawn fresh per slot; there
are a thousand of them, so their total cost varies little between slots.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from random import Random
from typing import Callable

SLOTS = 8
NAMES = ("atlas-sweep", "lattice-queries", "point-queries", "certify-replay")
CAP = 21  # above every graph used here, so no search is refused


@dataclass(frozen=True)
class Prev:
    """An argument filled in with the result of an earlier operation."""

    index: int


@dataclass(frozen=True, eq=False)
class GraphArg:
    """A graph argument, kept as its edges and built anew in every pass."""

    n: int
    edges: tuple

    @classmethod
    def of(cls, g) -> "GraphArg":
        return cls(g.n, tuple(g.edges()))

    def build(self, fl):
        return fl.Graph(self.n, self.edges)


@dataclass(frozen=True, eq=False)
class ChronArg:
    """A schedule argument, kept as its base and steps and built anew in
    every pass."""

    rule: object
    base: tuple
    steps: tuple

    @classmethod
    def of(cls, chron) -> "ChronArg":
        steps = tuple(tuple((f.src, f.dst) for f in step) for step in chron.steps)
        return cls(chron.rule, tuple(sorted(chron.base)), steps)

    def build(self, fl):
        return fl.RelaxedChronology(self.rule, self.base, self.steps)


class PassInputs:
    """The arguments of one pass. Each GraphArg or ChronArg becomes a new
    forcelab object the first time the pass needs it, and ops of the pass
    that name the same argument share that object. Nothing a call keeps on
    an input object (such as a graph's cached adjacency masks) carries over
    to the next pass, so every pass pays the same one-off costs."""

    def __init__(self, fl):
        self.fl = fl
        self.built: dict = {}
        self.results: dict = {}  # op index -> result, for Prev arguments

    def args(self, op: "Op") -> tuple:
        return tuple(self._arg(a) for a in op.args)

    def _arg(self, a):
        if isinstance(a, Prev):
            return self.results.get(a.index)  # None if that op failed
        if isinstance(a, (GraphArg, ChronArg)):
            obj = self.built.get(a)
            if obj is None:
                obj = self.built[a] = a.build(self.fl)
            return obj
        return a


@dataclass(frozen=True)
class Op:
    module: str  # forcelab submodule; the function is looked up per call
    func: str
    args: tuple
    render: Callable[[object], str]  # canonical text of the result
    smoke: bool = False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def slot_of(seed: int) -> int:
    return seed % SLOTS


# ---------------------------------------------------------------------------
# Rendering: exactly what a caller would see, so that a changed value,
# witness, witness order or byte shows up as a changed digest.


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def csv_text(records) -> str:
    """CSV as the CLI writes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(records)
    return buf.getvalue()


def render_rows(rows) -> str:
    return csv_text(row.as_csv_fields() for row in rows)


def render_report(report) -> str:
    return _json(report.to_json_dict())


def render_relocation(result) -> str:
    base, chron = result
    return _json({"base": sorted(base), "chronology": chron.to_json_dict()})


def render_json_dict(obj) -> str:
    return _json(obj.to_json_dict())


# ---------------------------------------------------------------------------
# Seeded graphs and schedules, built without forcelab's own rules so that
# the inputs do not move when the code under test changes.


def random_connected_edges(rng: Random, n: int, p: float) -> list[tuple[int, int]]:
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return sorted(edges)


def relabelled(fl, n: int, edges, rng: Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return fl.Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _standard_forces(adj, blue: set[int]) -> dict[int, list[int]]:
    """Legal standard-rule forces as target -> sorted sources."""
    by_dst: dict[int, list[int]] = {}
    for u in sorted(blue):
        whites = [w for w in adj[u] if w not in blue]
        if len(whites) == 1:
            by_dst.setdefault(whites[0], []).append(u)
    return by_dst


def _closure(adj, blue: set[int]) -> set[int]:
    blue = set(blue)
    while True:
        add = set(_standard_forces(adj, blue))
        if not add:
            return blue
        blue |= add


def random_schedule(rng: Random, max_n: int = 12):
    """(n, edges, base, steps): a random valid standard relaxed schedule on
    a random connected graph with 2..max_n vertices, idle steps included."""
    n = rng.randint(2, max_n)
    edges = random_connected_edges(rng, n, rng.uniform(0.15, 0.5))
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = list(range(n))
    rng.shuffle(order)
    base = set(order[: max(1, n // 3)])
    while len(_closure(adj, base)) < n:
        base.add(rng.choice(sorted(set(range(n)) - _closure(adj, base))))
    blue, steps, idle = set(base), [], 2
    while len(blue) < n:
        if idle and rng.random() < 0.15:
            steps.append([])
            idle -= 1
            continue
        by_dst = _standard_forces(adj, blue)
        chosen = [d for d in sorted(by_dst) if rng.random() < 0.6]
        if not chosen:
            chosen = [rng.choice(sorted(by_dst))]
        step = [(rng.choice(by_dst[d]), d) for d in chosen]
        steps.append(step)
        blue.update(d for _, d in step)
    return n, edges, sorted(base), steps


# ---------------------------------------------------------------------------
# Workloads. Each builder returns (fixed ops, seeded ops); ``params`` are
# the recorded values the operation list depends on (forcing numbers).


def atlas_sweep(fl, slot: int, params: dict):
    """Every packaged graph (n <= 7) through the three sweep checks."""
    ops = [
        Op("solvers", "bounds_rows_for_graph", (gid, GraphArg.of(g)), render_rows, g.n <= 5)
        for gid, g in fl.solvers.atlas_stream(max_n=7)
    ]
    return ops, []


LATTICE_RANDOM = (16, 0.25)


def _lattice_ops(fl, g, z: dict, smoke: bool) -> list[Op]:
    rules = (fl.Rule.STANDARD, fl.Rule.PSD)
    n, g = g.n, GraphArg.of(g)
    ops = [Op("solvers", "forcing_number", (g, r, CAP), render_report, smoke) for r in rules]
    for r in rules:
        for m in range(z[r.value], n + 1):
            ops.append(
                Op("solvers", "propagation_time_m", (g, m, r, CAP), render_report,
                   smoke and m >= n - 2)
            )
    ops += [Op("solvers", "throttling", (g, r, CAP), render_report, smoke) for r in rules]
    return ops


def lattice_graphs(fl, slot: int):
    n, p = LATTICE_RANDOM
    edges = random_connected_edges(Random(f"lattice/{n}/{p}"), n, p)
    return (
        [("grid4x4", fl.grid_graph(4, 4)), ("grid3x6", fl.grid_graph(3, 6))],
        [("random16", relabelled(fl, n, edges, Random(f"lattice-queries/{slot}")))],
    )


def lattice_queries(fl, slot: int, params: dict):
    """pt(G, m) at every m from the forcing number to n, both rules, plus
    both throttling numbers and both forcing numbers."""
    fixed, seeded = lattice_graphs(fl, slot)
    z = params["z"]
    return (
        [op for name, g in fixed for op in _lattice_ops(fl, g, z[name], name == "grid4x4")],
        [op for name, g in seeded for op in _lattice_ops(fl, g, z[name], False)],
    )


POINT_PARAMS = ("z", "zplus", "pd", "pt")
POINT_RANDOM = tuple((n, p) for n in (14, 16, 18) for p in (0.15, 0.3))
POINT_PER_SHAPE = 2


def point_queries(fl, slot: int, params: dict):
    """One-off parameter queries: Z, Z+, the power domination number and
    pt at m = Z, each through ``solve_parameter``."""
    grid = GraphArg.of(fl.grid_graph(4, 5))
    fixed = [
        Op("solvers", "solve_parameter", (grid, prm, None, CAP), render_report, prm == "pd")
        for prm in POINT_PARAMS
    ]
    rng = Random(f"point-queries/{slot}")
    seeded = []
    for n, p in POINT_RANDOM:
        for i in range(POINT_PER_SHAPE):
            edges = random_connected_edges(Random(f"point/{n}/{p}/{i}"), n, p)
            g = GraphArg.of(relabelled(fl, n, edges, rng))
            seeded += [
                Op("solvers", "solve_parameter", (g, prm, None, CAP), render_report, n == 14)
                for prm in POINT_PARAMS
            ]
    return fixed, seeded


CERTIFY_RANDOM = 1000
SMOKE_CASES = 20


def certify_replay(fl, slot: int, params: dict):
    """Relocate and certify at every vertex of every minimum PSD set of every
    connected graph with n <= 6; then witness round trips and reversals of
    random standard schedules with n <= 12."""
    fixed = []
    case = 0
    for _, g in fl.solvers.atlas_stream(max_n=6, connected_only=True):
        report = fl.solvers.forcing_number(g, fl.Rule.PSD)
        graph = GraphArg.of(g)
        for base in report.witnesses:
            chron = ChronArg.of(fl.forcing.propagate(fl.Rule.PSD, g, base).chronology)
            smoke = case < SMOKE_CASES
            for x in range(g.n):
                fixed.append(Op("bundles", "relocate_psd_set", (graph, chron, x), render_relocation, smoke))
                fixed.append(Op("bundles", "certify_rigid_linkage", (graph, chron, x), render_json_dict, smoke))
            case += 1
    rng = Random(f"certify-replay/{slot}")
    seeded = []
    for i in range(CERTIFY_RANDOM):
        n, edges, base, steps = random_schedule(rng)
        g = GraphArg(n, tuple(edges))
        chron = ChronArg(fl.Rule.STANDARD, tuple(base), tuple(tuple(step) for step in steps))
        smoke = i < SMOKE_CASES
        first = len(fixed) + len(seeded)
        seeded += [
            Op("pips", "chronology_to_witness", (g, chron), render_json_dict, smoke),
            Op("pips", "witness_to_chronology", (g, Prev(first)), render_json_dict, smoke),
            Op("forcing", "reversal", (g, chron), render_json_dict, smoke),
        ]
    return fixed, seeded


BUILDERS = {
    "atlas-sweep": atlas_sweep,
    "lattice-queries": lattice_queries,
    "point-queries": point_queries,
    "certify-replay": certify_replay,
}

# The CLI invocation point-queries times from a cold process.
COLD_START_ARGV = ("solve", "--param", "z", "--graph", "inputs/grid_3x4.edges")
