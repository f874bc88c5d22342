"""Restrictions of forcing schedules to induced subgraphs, path bundles,
the PSD analog of schedule reversal, and rigid-linkage certificates.

A path bundle picks one path inside each PSD forcing tree so that the
restricted schedule is valid standard forcing on the picked vertices.
That is checked once, on the host's masks cut to those vertices, and a
rejection names the vertices by their ids in the induced subgraph.
The bundle induced by a target vertex x follows the forces entering x's
white component, read off one blue bitmask as the host's steps replay.
Reversing its in-bundle forces relocates the PSD forcing set onto x while
preserving the forcing trees (``relocate_psd_set``, the one body of the
PSD reversal), and replaying the bundle forces one at a time certifies
the bundle as a rigid linkage. Each schedule these derive is built in
normal form, stored as built (``RelaxedChronology._normalized``) and
replayed as a guaranteed one (``Replay.guaranteed``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import BundleError, InvariantViolation
from .forcing import (
    Force,
    RelaxedChronology,
    Replay,
    Rule,
    _fire,
    _legal_forces,
)
from .graphs import (
    Graph, component_masks, induced_subgraph, is_path_sequence, mask_of, set_of, union_of
)


@dataclass(frozen=True)
class Restriction:
    """A schedule filtered to a vertex subset, time-step indices intact.

    ``rule`` is the rule under which the restricted steps replay (for a
    plain restriction this matches the host; a path bundle's restriction
    replays under the standard rule).
    """

    rule: Rule
    sub_vertices: frozenset[int]
    steps: tuple[tuple[Force, ...], ...]
    initial_vertices: frozenset[int]

    @property
    def ct(self) -> int:
        return len(self.steps)

    def subgraph_chronology(self, g: Graph):
        """Induced subgraph plus the restriction re-indexed to it."""
        sub = induced_subgraph(g, self.sub_vertices)
        local = {old: new for new, old in enumerate(sub.vertices)}
        chron = RelaxedChronology(
            self.rule,
            {local[v] for v in self.initial_vertices},
            [[(local[f.src], local[f.dst]) for f in step] for step in self.steps],
        )
        return sub, chron


def restrict(
    g: Graph, chron: RelaxedChronology, sub_vertices: Iterable[int]
) -> Restriction:
    """Restrict a valid standard or PSD schedule to an induced subgraph.

    The result replays as a valid schedule of the same rule on the
    subgraph from its initial vertices; that is guaranteed for every
    induced subgraph, so a replay failure raises InvariantViolation.
    """
    if chron.rule not in (Rule.STANDARD, Rule.PSD):
        raise ValueError("restriction is defined for standard and PSD schedules")
    r = _kept(Replay(g, chron), mask_of(g.check_set(sub_vertices)), chron.rule)
    sub, sub_chron = r.subgraph_chronology(g)
    Replay.guaranteed(sub.graph, sub_chron, "restriction failed to replay on its subgraph")
    return r


def _kept(host: Replay, keep: int, rule: Rule) -> Restriction:
    """The restriction of a replayed schedule to the mask ``keep``, replaying
    under ``rule``; its initial vertices are :meth:`Replay.initials` of ``keep``."""
    steps = tuple(
        tuple(f for f in step if keep >> f.src & keep >> f.dst & 1) for step in host.chron.steps
    )
    return Restriction(rule, set_of(keep), steps, set_of(host.initials(keep)))


@dataclass(frozen=True)
class PathBundle:
    """One path per PSD forcing tree whose restricted schedule is valid
    standard forcing. Paths are oriented from their initial vertices."""

    paths: tuple[tuple[int, ...], ...]
    restriction: Restriction

    @property
    def sub_vertices(self) -> frozenset[int]:
        return self.restriction.sub_vertices

    def terminus(self) -> frozenset[int]:
        return frozenset(p[-1] for p in self.paths)

    def to_json_dict(self, host_ref: str = "", x: int | None = None) -> dict:
        return {
            "host_chronology_ref": host_ref,
            "x": x,
            "paths": [list(p) for p in self.paths],
            "terminus": sorted(self.terminus()),
        }


def _bundle_from_paths(host: Replay, paths: list[tuple[int, ...]]) -> PathBundle:
    """Shared construction: restrict to the path vertices, demand standard
    validity (:func:`_window_chains`), and demand each path be a restricted
    chain. The chains partition the path vertices, so they then equal the
    paths."""
    keep = mask_of(v for p in paths for v in p)
    r = _kept(host, keep, Rule.STANDARD)
    chains = _window_chains(host.graph.adjacency_masks(), r, keep)
    oriented = []
    for p in paths:
        o = p if p in chains else p[::-1]
        if o not in chains:
            raise BundleError(f"chain set mismatch: path {list(p)} is not a restricted chain")
        oriented.append(o)
    return PathBundle(tuple(oriented), r)


def _window_chains(adj: tuple[int, ...], r: Restriction, keep: int) -> set[tuple[int, ...]]:
    """The chains of a restriction replayed under the standard rule on the
    host's masks cut to ``keep``. Each force needs a blue source, a white
    target that is the source's one white neighbor in ``keep``, and no
    other force on its target in its step; it extends its source's chain.
    The first force that fails raises BundleError in the words of
    :func:`~forcelab.forcing.validate_chronology`, naming each vertex by
    its rank in ``keep``: its id in the induced subgraph. A source's one
    white neighbor is its target, so a blue source ends its chain and no
    later member of its chain is its neighbor: chains are induced paths."""
    blue = mask_of(r.initial_vertices)
    ends = {b: [b] for b in r.initial_vertices}  # chain end -> its chain
    for k, step in enumerate(r.steps, start=1):
        white, hit = keep & ~blue, 0
        for src, dst in step:
            if hit >> dst & 1 or not blue >> src & 1 or adj[src] & white != 1 << dst:
                s, d = ((keep & ((1 << v) - 1)).bit_count() for v in (src, dst))
                why = f"force {s}->{d} is not legal there"
                if hit >> dst & 1:
                    why = f"two forces target vertex {d}"
                raise BundleError(f"restricted schedule is not standard-valid: step {k}: {why}")
            hit |= 1 << dst
            ends[dst] = [*ends.pop(src), dst]
        blue |= hit
    return {tuple(chain) for chain in ends.values()}


def validate_path_bundle(
    g: Graph, chron: RelaxedChronology, candidate_paths: Iterable[Iterable[int]]
) -> PathBundle:
    """Check one candidate path per PSD forcing tree and assemble the bundle.

    Rejections (BundleError): a candidate is not a path, lies outside or
    across trees, the restricted schedule is not valid standard forcing,
    or its chains differ from the candidates.
    """
    if chron.rule is not Rule.PSD:
        raise ValueError("path bundles are defined over PSD schedules")
    host = Replay(g, chron)
    root, trees = host.forest.root, sorted(chron.base)
    paths = [tuple(p) for p in candidate_paths]
    if len(paths) != len(trees):
        raise BundleError(f"need exactly one path per tree ({len(trees)}), got {len(paths)}")
    by_tree: dict[int, tuple[int, ...]] = {}
    for p in paths:
        if not p:
            raise BundleError("empty candidate path")
        if not is_path_sequence(g, p):
            raise BundleError(f"candidate {list(p)} is not a path")
        home, *others = {root[v] for v in p}
        if others:
            raise BundleError(f"candidate {list(p)} is not inside a single tree")
        if home in by_tree:
            raise BundleError(f"two candidates inside the tree rooted at {home}")
        by_tree[home] = p
    return _bundle_from_paths(host, [by_tree[b] for b in trees])


def induced_path_bundle(g: Graph, chron: RelaxedChronology, x: int) -> PathBundle:
    """Grow the bundle that tracks forces into the white component of ``x``.

    Start from single-vertex paths on the base set; at each step append to
    a path exactly when its endpoint forces into x's current component;
    stop once x is blue. The result always contains the base set and x.
    For a base vertex the bundle is the trivial one.
    """
    return _induced_bundle(_psd_replay(g, chron, x), x)


def _psd_replay(g: Graph, chron: RelaxedChronology, x: int) -> Replay:
    g.check_vertex(x)
    if chron.rule is not Rule.PSD:
        raise ValueError("vertex-induced bundles are defined over PSD schedules")
    return Replay(g, chron)


def _induced_bundle(host: Replay, x: int) -> PathBundle:
    """Walk the host's steps on one blue mask until x is blue, flooding x's
    white component once per step; the flood's ``once`` mask gives the
    blue vertices next to the component, and the forest's roots name the
    tree (and bundle path) of each vertex."""
    g, chron, root = host.graph, host.chron, host.forest.root
    adj, root_bits = g.adjacency_masks(), [1 << b for b in root]
    full = (1 << g.n) - 1
    paths = {b: [b] for b in sorted(chron.base)}
    blue = mask_of(chron.base)
    for k, step in enumerate(chron.steps):
        if blue >> x & 1:
            break
        for comp, once, _ in component_masks(adj, full & ~blue):
            if comp >> x & 1:
                break
        # At most one vertex per tree may see white vertices in x's
        # component: as many root bits as vertices. Anything else means the
        # schedule is corrupt, and the least such tree is named.
        once &= blue
        if union_of(root_bits, once).bit_count() < once.bit_count():
            lookers: dict[int, list[int]] = {}
            for v in sorted(set_of(once)):
                lookers.setdefault(root[v], []).append(v)
            b, seen = min((b, seen) for b, seen in lookers.items() if len(seen) > 1)
            raise InvariantViolation(
                f"tree {b}: several vertices {seen} see the target component at step {k}"
            )
        grown = 0
        for f in step:
            blue |= 1 << f.dst
            if not comp >> f.dst & 1:
                continue
            b = root[f.src]
            if grown >> b & 1:
                raise InvariantViolation(
                    f"tree {b} forces twice into the target component at step {k + 1}"
                )
            if f.src != paths[b][-1]:
                raise InvariantViolation(
                    f"force {f.src}->{f.dst} does not extend the bundle path "
                    f"ending at {paths[b][-1]}"
                )
            paths[b].append(f.dst)
            grown |= 1 << b
    try:
        bundle = _bundle_from_paths(host, [tuple(p) for p in paths.values()])
    except BundleError as exc:
        raise InvariantViolation(f"induced bundle failed validation: {exc}") from exc
    if x not in bundle.sub_vertices or not chron.base <= bundle.sub_vertices:
        raise InvariantViolation("induced bundle must contain the base set and x")
    return bundle


def relocate_psd_set(
    g: Graph, chron: RelaxedChronology, v: int
) -> tuple[frozenset[int], RelaxedChronology]:
    """Relocate a PSD forcing set onto ``v``, preserving its forcing trees.

    Take the bundle induced by v, reverse its forces (one per step, newest
    first), then fire the remaining host forces round by round, each as
    soon as it is legal (``forcing._fire`` with them as its pool). The new
    base is the bundle terminus: same size as the original and containing
    v. The rebuilt schedule is replayed, and its forcing trees must equal
    the host's (same vertex sets, same edges; roots move). All of this is
    guaranteed for valid inputs, so a failure is an InvariantViolation.
    """
    host = _psd_replay(g, chron, v)
    bundle = _induced_bundle(host, v)
    new_base = bundle.terminus()
    in_bundle = [f for step in bundle.restriction.steps for f in step]
    new_steps = [(Force(f.dst, f.src),) for f in reversed(in_bundle)]
    # The host forces each vertex at most once and every force into a
    # bundle vertex is a bundle force, so the rest are fired until blue.
    rest = set(chron.all_forces()).difference(in_bundle)
    full = (1 << g.n) - 1
    fired, blue = _fire(
        Rule.PSD, g.adjacency_masks(), mask_of(bundle.sub_vertices), full, rest
    )
    if blue != full:
        raise InvariantViolation(
            "preserved forces stalled while rebuilding the schedule"
        )
    rebuilt = Replay.guaranteed(
        g,
        RelaxedChronology._normalized(Rule.PSD, new_base, new_steps + fired),
        "rebuilt schedule failed to validate",
    )
    if len(new_base) != len(chron.base) or v not in new_base:
        raise InvariantViolation("relocated base must keep its size and contain x")
    # Both forests have one edge per non-base vertex, so containment is equality.
    up, moved = host.forest.up, rebuilt.forest.up
    if any(u != moved[w] and moved[u.bit_length() - 1] != 1 << w for w, u in enumerate(up) if u):
        raise InvariantViolation("relocation changed the forcing trees")
    return new_base, rebuilt.chron


def psd_reversal(
    g: Graph, chron: RelaxedChronology, x: int
) -> tuple[frozenset[int], RelaxedChronology]:
    """The PSD analog of reversing a schedule: :func:`relocate_psd_set`."""
    return relocate_psd_set(g, chron, x)


@dataclass(frozen=True)
class RlCertificate:
    """A replayed rigid-linkage process: the bundle paths are the unique
    linkage between ``alpha`` (the base) and ``beta`` (the terminus)."""

    alpha: frozenset[int]
    beta: frozenset[int]
    steps: tuple[Force, ...]
    valid: bool

    def to_json_dict(self) -> dict:
        return {
            "alpha": sorted(self.alpha),
            "beta": sorted(self.beta),
            "steps": [[f.src, f.dst] for f in self.steps],
            "verdict": "valid" if self.valid else "invalid",
        }


def certify_rigid_linkage(g: Graph, chron: RelaxedChronology, x: int) -> RlCertificate:
    """Certify the bundle induced by ``x`` as a rigid linkage.

    First rebuild the host schedule as a one-force-per-step list with the
    bundle forces up front (the reordering stays PSD-valid), then replay
    just the bundle forces from the base under the rigid-linkage rule.
    Any illegal step is an InvariantViolation: the certificate is
    guaranteed for valid inputs.
    """
    bundle = _induced_bundle(_psd_replay(g, chron, x), x)
    in_bundle = [f for step in bundle.restriction.steps for f in step]
    bundle_forces = set(in_bundle)
    rest = [f for f in chron.all_forces() if f not in bundle_forces]
    reordered = RelaxedChronology._normalized(
        Rule.PSD, chron.base, [(f,) for f in in_bundle + rest]
    )
    Replay.guaranteed(g, reordered, "bundle-first reordering is not PSD-valid")
    adj = g.adjacency_masks()
    blue, idle = mask_of(chron.base), 0
    for idx, f in enumerate(in_bundle, start=1):
        if f not in _legal_forces(Rule.RIGID_LINKAGE, adj, blue, idle):
            raise InvariantViolation(
                f"bundle force {idx} ({f.src}->{f.dst}) is not a legal "
                f"rigid-linkage force"
            )
        blue |= 1 << f.dst
        idle |= 1 << f.src
    return RlCertificate(
        frozenset(chron.base), bundle.terminus(), tuple(in_bundle), True
    )


# ---------------------------------------------------------------------------
# Independent linkage enumeration (rigidity oracle)


@dataclass(frozen=True)
class LinkageSearch:
    linkages: tuple[tuple[tuple[int, ...], ...], ...]
    truncated: bool


def find_linkages(
    g: Graph, alpha: Iterable[int], beta: Iterable[int], limit: int = 10000
) -> LinkageSearch:
    """Enumerate all vertex-disjoint path systems joining ``alpha`` to
    ``beta`` (one endpoint of each path in alpha, the other in beta).

    Paths are plain paths, not necessarily induced. Each linkage is
    returned as a canonically ordered tuple of paths (each path oriented
    with its smaller endpoint first, paths sorted); enumeration stops with
    ``truncated=True`` once ``limit`` linkages are found. A ``limit``
    below 1 raises ValueError.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    a_set = g.check_set(alpha)
    b_set = g.check_set(beta)
    if len(a_set) != len(b_set):
        raise ValueError("alpha and beta must have the same size")
    order = sorted(a_set)
    found: set[tuple[tuple[int, ...], ...]] = set()
    truncated = False

    def canon(paths: list[tuple[int, ...]]):
        normed = tuple(
            sorted(p if p[0] <= p[-1] else p[::-1] for p in paths)
        )
        return normed

    def place(i: int, used: set[int], beta_left: set[int], acc: list):
        nonlocal truncated
        if truncated:
            return
        if i == len(order):
            found.add(canon(acc))
            if len(found) >= limit:
                truncated = True
            return
        start = order[i]
        if start in used:
            return

        def extend(path: list[int]):
            if truncated:
                return
            tip = path[-1]
            if tip in beta_left:
                acc.append(tuple(path))
                beta_left.discard(tip)
                place(i + 1, used | set(path), beta_left, acc)
                beta_left.add(tip)
                acc.pop()
            for w in g.adj[tip]:
                if w not in used and w not in path:
                    path.append(w)
                    extend(path)
                    path.pop()

        extend([start])

    place(0, set(), set(b_set), [])
    return LinkageSearch(tuple(sorted(found)), truncated)
