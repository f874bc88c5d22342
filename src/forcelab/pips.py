"""Parallel increasing path covers.

A path cover of a graph certifies a forcing schedule when each path's
vertices carry consecutive-integer blocks that partition {0..K} and the
blocks of adjacent cross-path vertices intersect. Such a labeled cover
(a "witness") converts losslessly to and from a standard relaxed
schedule, and a collection of block partitions alone determines a whole
family of graphs sharing the same certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable, Iterator, NamedTuple

from . import solvers
from .errors import CapExceeded, InvariantViolation, WitnessError
from .forcing import (
    Force,
    RelaxedChronology,
    Replay,
    Rule,
    propagation_time_of_forces,
)
from .graphs import CoverCheck, Graph, validate_path_cover


@dataclass(frozen=True)
class BlockPartition:
    """An ordered partition of {0..k} into consecutive-integer intervals,
    stored as inclusive (lo, hi) pairs."""

    k: int
    blocks: tuple[tuple[int, int], ...]

    def __init__(self, k: int, blocks: Iterable[Iterable[int]]):
        object.__setattr__(self, "k", int(k))
        object.__setattr__(
            self, "blocks", tuple((int(lo), int(hi)) for lo, hi in blocks)
        )
        if self.k < 0 or not self.blocks:
            raise ValueError("block partition needs k >= 0 and at least one block")
        expect = 0
        for lo, hi in self.blocks:
            if lo != expect or hi < lo:
                raise ValueError(
                    f"blocks must tile 0..{self.k} in order; got {self.blocks}"
                )
            expect = hi + 1
        if expect != self.k + 1:
            raise ValueError(f"blocks must end at {self.k}; got {self.blocks}")

    def __len__(self) -> int:
        return len(self.blocks)

    @classmethod
    def from_sets(cls, k: int, sets: Iterable[Iterable[int]]) -> "BlockPartition":
        blocks = []
        for s in sets:
            vals = sorted(set(s)) or [0, -1]  # the empty interval, which the constructor rejects
            if len(vals) < vals[-1] - vals[0] + 1:
                raise ValueError(f"block {vals} is not a run of consecutive integers")
            blocks.append((vals[0], vals[-1]))
        return cls(k, blocks)

    def block_of(self, j: int) -> frozenset[int]:
        lo, hi = self.blocks[j]
        return frozenset(range(lo, hi + 1))


def _blocks_intersect(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


@dataclass(frozen=True)
class PipWitness:
    """A labeled path cover plus one block partition per path."""

    k: int
    paths: tuple[tuple[int, ...], ...]
    partitions: tuple[BlockPartition, ...]

    def __init__(self, k, paths, partitions):
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "paths", tuple(tuple(p) for p in paths))
        object.__setattr__(self, "partitions", tuple(partitions))
        if len(self.paths) != len(self.partitions):
            raise ValueError("one block partition per path is required")
        for path, part in zip(self.paths, self.partitions):
            if part.k != self.k:
                raise ValueError("all partitions must share the same horizon k")
            if len(part) != len(path):
                raise ValueError("partition size must match its path length")

    def base(self) -> frozenset[int]:
        return frozenset(p[0] for p in self.paths)

    def to_json_dict(self) -> dict:
        return {
            "K": self.k,
            "paths": [list(p) for p in self.paths],
            "blocks": [[list(b) for b in part.blocks] for part in self.partitions],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PipWitness":
        parts = [BlockPartition(data["K"], blk) for blk in data["blocks"]]
        return cls(data["K"], data["paths"], parts)


def verify_witness(g: Graph, witness: PipWitness) -> CoverCheck:
    """Check a witness against a graph, reporting the first violation.

    Valid means: the paths are a path cover of ``g`` and every edge between
    distinct paths joins vertices whose blocks intersect.
    """
    cover = validate_path_cover(g, witness.paths)
    if not cover.ok:
        return CoverCheck(False, f"path cover invalid: {cover.violation}")
    where: dict[int, tuple[int, int]] = {}
    for i, path in enumerate(witness.paths):
        for j, v in enumerate(path):
            where[v] = (i, j)
    for u, v in g.edges():
        iu, ju = where[u]
        iv, jv = where[v]
        if iu == iv:
            continue
        bu = witness.partitions[iu].blocks[ju]
        bv = witness.partitions[iv].blocks[jv]
        if not _blocks_intersect(bu, bv):
            return CoverCheck(
                False,
                f"edge {u}-{v}: blocks {list(bu)} and {list(bv)} are disjoint",
            )
    return CoverCheck(True, None)


def witness_to_chronology(g: Graph, witness: PipWitness) -> RelaxedChronology:
    """Schedule the witness: each force v(i,j) -> v(i,j+1) fires at the step
    where block j+1 of path i begins. Active times of the result reproduce
    the witness blocks exactly."""
    check = verify_witness(g, witness)
    if not check.ok:
        raise WitnessError(check.violation)
    steps: list[list[Force]] = [[] for _ in range(witness.k)]
    for path, part in zip(witness.paths, witness.partitions):
        for j in range(1, len(path)):
            lo = part.blocks[j][0]
            steps[lo - 1].append(Force(path[j - 1], path[j]))
    chron = RelaxedChronology(Rule.STANDARD, witness.base(), steps)
    rebuilt = _witness_of(Replay.guaranteed(g, chron, "witness produced an invalid schedule"))
    given = dict(zip(witness.paths, witness.partitions))  # by path: chains come sorted by base
    if dict(zip(rebuilt.paths, rebuilt.partitions)) != given:
        raise InvariantViolation("schedule does not reproduce the witness blocks")
    return chron


def chronology_to_witness(g: Graph, chron: RelaxedChronology) -> PipWitness:
    """Read a witness off a valid standard schedule: paths are its chains,
    blocks are the active-time intervals along each chain. Any other rule
    raises ValueError before the replay."""
    witness = _witness_of(Replay.standard(g, chron))
    check = verify_witness(g, witness)
    if not check.ok:
        raise InvariantViolation(
            f"chain set of a valid schedule failed as a witness: {check.violation}"
        )
    return witness


def _witness_of(r: Replay) -> PipWitness:
    cover, spans, k = r.cover, r.spans, r.chron.ct
    partitions = [BlockPartition(k, [spans[v] for v in c]) for c in cover.chains]
    return PipWitness(k, cover.chains, partitions)


# ---------------------------------------------------------------------------
# Families of graphs induced by a collection of block partitions


class FamilyLayout(NamedTuple):
    """Shared scaffolding of a family: vertices are laid out row-major per
    partition, path edges are fixed, cross edges are the optional pool."""

    n: int
    paths: tuple[tuple[int, ...], ...]
    path_edges: tuple[tuple[int, int], ...]
    cross_edges: tuple[tuple[int, int], ...]
    witness: PipWitness


@dataclass(frozen=True)
class FamilyMember:
    index: int
    graph: Graph
    chosen_edges: tuple[tuple[int, int], ...]
    witness: PipWitness
    certified_forcing_upper: int
    certified_pt_upper: int


def family_layout(partitions: Iterable[BlockPartition]) -> FamilyLayout:
    parts = tuple(partitions)
    if not parts:
        raise ValueError("at least one block partition is required")
    k = parts[0].k
    if any(p.k != k for p in parts):
        raise ValueError("all block partitions must share the same horizon")
    paths = []
    offset = 0
    for part in parts:
        paths.append(tuple(range(offset, offset + len(part))))
        offset += len(part)
    path_edges = []
    for ids in paths:
        path_edges.extend((ids[j], ids[j + 1]) for j in range(len(ids) - 1))
    cross = []
    for i1 in range(len(parts)):
        for i2 in range(i1 + 1, len(parts)):
            for j1, b1 in enumerate(parts[i1].blocks):
                for j2, b2 in enumerate(parts[i2].blocks):
                    if _blocks_intersect(b1, b2):
                        cross.append((paths[i1][j1], paths[i2][j2]))
    witness = PipWitness(k, paths, parts)
    return FamilyLayout(
        offset, tuple(paths), tuple(path_edges), tuple(sorted(cross)), witness
    )


ENUMERATE_LIMIT = 20  # at most 2**20 graphs from one enumerate call


def generate_family(
    partitions: Iterable[BlockPartition],
    mode: str = "extremes",
    count: int | None = None,
    seed: int = 0,
) -> Iterator[FamilyMember]:
    """Generate graphs whose path cover is certified by ``partitions``.

    Modes: ``extremes`` yields the edge-minimal and edge-maximal members;
    ``enumerate`` yields all 2**|cross| members (|cross| capped at
    ENUMERATE_LIMIT); ``sample`` yields ``count`` members whose cross-edge
    subsets are drawn uniformly with the given seed. An unknown mode, a
    missing or negative sample count and a pool over the limit raise at
    the call, before any member.

    Every member keeps the full set of path edges, so the witness verifies
    on each and its starting vertices form a forcing set of that member.
    """
    layout = family_layout(partitions)
    cross = layout.cross_edges
    if mode == "extremes":
        picks = [(0, 0), (1, (1 << len(cross)) - 1)]
    elif mode == "enumerate":
        if len(cross) > ENUMERATE_LIMIT:
            raise CapExceeded(
                f"{len(cross)} optional cross edges exceed the enumerate limit "
                f"of {ENUMERATE_LIMIT}"
            )
        picks = ((bits, bits) for bits in range(1 << len(cross)))
    elif mode == "sample":
        if count is None or count < 0:
            raise ValueError("sample mode needs a nonnegative count")
        rng = Random(seed)
        picks = (
            (idx, rng.getrandbits(len(cross)) if cross else 0) for idx in range(count)
        )
    else:
        raise ValueError(f"unknown family mode {mode!r}")
    return (_family_member(layout, index, bits) for index, bits in picks)


def _family_member(layout: FamilyLayout, index: int, bits: int) -> FamilyMember:
    """The member with the cross edges whose positions are set in ``bits``."""
    chosen = tuple(e for i, e in enumerate(layout.cross_edges) if bits >> i & 1)
    g = Graph(layout.n, layout.path_edges + chosen)
    pt_upper = propagation_time_of_forces(
        g, layout.witness.base(), layout.path_edges, Rule.STANDARD
    )
    return FamilyMember(index, g, chosen, layout.witness, len(layout.paths), pt_upper)


# ---------------------------------------------------------------------------
# The path-cover forcing number


def pip_number(g: Graph, cap: int | None = None) -> int:
    """Minimum size of a certifiable path cover. Equals the standard
    forcing number, so it delegates to the exhaustive solver."""
    return solvers.forcing_number(g, Rule.STANDARD, cap=cap).value


def pip_number_by_search(g: Graph, cap: int = 7) -> int:
    """Brute-force oracle: enumerate path covers and test each directly for
    a feasible block-partition labeling. Exponential; intended for
    cross-checks on graphs with at most ``cap`` vertices."""
    if g.n > cap:
        raise CapExceeded(f"witness search capped at n <= {cap}")
    best = g.n + 1

    def path_orderings(sub: frozenset[int]) -> list[tuple[int, ...]]:
        """If g[sub] is a path, return one traversal order, else []."""
        verts = sorted(sub)
        deg = {}
        for v in verts:
            deg[v] = sum(1 for w in g.adj[v] if w in sub)
        if len(verts) == 1:
            return [tuple(verts)]
        if sum(deg.values()) != 2 * (len(verts) - 1) or max(deg.values()) > 2:
            return []
        ends = [v for v in verts if deg[v] == 1]
        if len(ends) != 2:
            return []
        order = [ends[0]]
        prev = None
        while len(order) < len(verts):
            nxt = [w for w in g.adj[order[-1]] if w in sub and w != prev]
            if len(nxt) != 1:
                return []
            prev = order[-1]
            order.append(nxt[0])
        return [tuple(order)]

    def covers(remaining: frozenset[int], acc: list[tuple[int, ...]]):
        nonlocal best
        if len(acc) + (1 if remaining else 0) >= best:
            return
        if not remaining:
            if _cover_admits_witness(g, acc):
                best = len(acc)
            return
        v = min(remaining)
        rest = sorted(remaining - {v})
        for bits in range(1 << len(rest)):
            sub = frozenset([v] + [rest[i] for i in range(len(rest)) if bits >> i & 1])
            for order in path_orderings(sub):
                acc.append(order)
                covers(remaining - sub, acc)
                acc.pop()

    covers(frozenset(range(g.n)), [])
    return best


def _cover_admits_witness(g: Graph, cover: list[tuple[int, ...]]) -> bool:
    """Do block partitions exist for some orientation of these paths?

    With start times s(i, j) = min of block j on path i, a witness exists
    iff the system {s(i, 0) = 0, s strictly increasing along each path,
    and for each cross edge the successor blocks start late enough} is
    satisfiable, which reduces to acyclicity of the constraint digraph
    (first positions are never constraint targets).
    """
    m = len(cover)
    cross: list[tuple[tuple[int, int], tuple[int, int]]] = []
    where: dict[int, tuple[int, int]] = {}
    for i, path in enumerate(cover):
        for j, v in enumerate(path):
            where[v] = (i, j)
    for u, v in g.edges():
        (iu, ju), (iv, jv) = where[u], where[v]
        if iu != iv:
            cross.append(((iu, ju), (iv, jv)))
    lengths = [len(p) for p in cover]
    for flips in range(1 << m):
        pos = lambda i, j: (lengths[i] - 1 - j) if flips >> i & 1 else j
        edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
        for i, ln in enumerate(lengths):
            edges.extend((((i, j), (i, j + 1))) for j in range(ln - 1))
        ok_graph = []
        for (i1, j1), (i2, j2) in cross:
            p1, p2 = pos(i1, j1), pos(i2, j2)
            if p2 + 1 < lengths[i2]:
                ok_graph.append(((i1, p1), (i2, p2 + 1)))
            if p1 + 1 < lengths[i1]:
                ok_graph.append(((i2, p2), (i1, p1 + 1)))
        if _acyclic(edges + ok_graph):
            return True
    return False


def _acyclic(edges) -> bool:
    out: dict = {}
    indeg: dict = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
        indeg[b] = indeg.get(b, 0) + 1
        indeg.setdefault(a, indeg.get(a, 0))
    queue = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(indeg)
