"""The color change rules stated naively, straight from their definitions.

Blue sets are Python sets and white components come from a plain
depth-first search. Nothing here shares code with the bitmask engine in
``forcelab.forcing``, which the tests check against these functions, but
:func:`legal_set_replay`: the schedule check that builds each step's whole
legal-force set with that engine, kept as a second oracle for the
per-force check of ``validate_chronology``.
"""

from forcelab.errors import ChronologyError
from forcelab.forcing import Force, Rule, _legal_forces
from forcelab.graphs import mask_of


def white_components(g, blue) -> list[set[int]]:
    """Connected components of the graph minus the blue vertices."""
    seen = set(blue)
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def forces(rule: str, g, blue, inactive=frozenset()) -> set[Force]:
    """Every force ``rule`` ("standard", "psd" or "rigid_linkage")
    permits when exactly ``blue`` is colored.

    Standard: a blue vertex with exactly one white neighbor forces it.
    PSD: the same, counted inside each white component separately.
    Rigid linkage: PSD forces from active (not inactive) vertices into
    components whose boundary holds no inactive vertex.
    """
    blue = set(blue)
    out = set()
    if rule == "standard":
        for u in blue:
            whites = [w for w in g.adj[u] if w not in blue]
            if len(whites) == 1:
                out.add(Force(u, whites[0]))
        return out
    idle = set(inactive) if rule == "rigid_linkage" else set()
    for comp in white_components(g, blue):
        boundary = {u for w in comp for u in g.adj[w]} - comp
        if boundary & idle:
            continue
        for u in blue - idle:
            inside = [w for w in g.adj[u] if w in comp]
            if len(inside) == 1:
                out.add(Force(u, inside[0]))
    return out


def rigid_linkage_verdicts(g) -> dict[frozenset[int], bool]:
    """For every base set of ``g``, whether some order of rigid-linkage
    forces, one per step, colors the whole graph. An exhaustive search
    over the (blue, idle) states that :func:`forces` steps between, each
    state's verdict worked out once and shared by all the base sets that
    reach it."""
    verdict = {}

    def completes(blue, idle):
        if (blue, idle) not in verdict:
            verdict[blue, idle] = len(blue) == g.n or any(
                completes(blue | {f.dst}, idle | {f.src})
                for f in forces("rigid_linkage", g, blue, idle)
            )
        return verdict[blue, idle]

    return {
        base: completes(base, frozenset())
        for base in (
            frozenset(v for v in range(g.n) if k >> v & 1) for k in range(1 << g.n)
        )
    }


def legal_set_replay(g, chron) -> list[frozenset[int]]:
    """``validate_chronology`` by legal-force sets: each nonempty step
    builds every force its rule allows from the blue set at its start
    (``_legal_forces``) and looks its forces up there. Same checks, order,
    messages and expansion."""
    rule = chron.rule
    if rule not in (Rule.STANDARD, Rule.PSD, Rule.RIGID_LINKAGE):
        raise ValueError(f"cannot validate schedules for rule {rule.value}")
    adj = g.adjacency_masks()
    expansion = [g.check_set(chron.base)]
    blue = mask_of(expansion[0])
    idle = 0
    linkage = rule is Rule.RIGID_LINKAGE
    for k, step in enumerate(chron.steps, start=1):
        if linkage and len(step) > 1:
            raise ChronologyError(
                f"step {k}: rigid-linkage steps carry at most one force", step=k
            )
        legal = set(_legal_forces(rule, adj, blue, idle)) if step else set()
        dsts = set()
        for f in step:
            if f.dst in dsts:
                raise ChronologyError(
                    f"step {k}: two forces target vertex {f.dst}", step=k, force=f
                )
            if f not in legal:
                raise ChronologyError(
                    f"step {k}: force {f.src}->{f.dst} is not legal there",
                    step=k,
                    force=f,
                )
            dsts.add(f.dst)
            blue |= 1 << f.dst
            if linkage:
                idle |= 1 << f.src
        expansion.append(expansion[-1] | dsts)
    if len(expansion[-1]) != g.n:
        white = sorted(set(range(g.n)) - expansion[-1])
        raise ChronologyError(
            f"white vertices remain after the last step: {white}", step=chron.ct
        )
    return expansion


def maximal_steps(rule: str, g, blue) -> list[list[Force]] | None:
    """Each round's forces when every forceable vertex is colored, one
    force per target from its least source; None when the process stalls.
    Power domination first colors the closed neighborhood of the blue set,
    then runs standard rounds."""
    blue = set(blue)
    steps = []
    if rule == "power_domination" and len(blue) < g.n:
        first = {}
        for u in sorted(blue):
            for w in g.adj[u]:
                if w not in blue:
                    first.setdefault(w, u)
        if not first:
            return None
        steps.append(sorted(Force(u, w) for w, u in first.items()))
        blue |= set(first)
    if rule == "power_domination":
        rule = "standard"
    while len(blue) < g.n:
        least = {}
        for f in forces(rule, g, blue):
            if f.dst not in least or f.src < least[f.dst].src:
                least[f.dst] = f
        if not least:
            return None
        steps.append(sorted(least.values()))
        blue |= set(least)
    return steps


def is_induced_path_partition(g, paths) -> bool:
    """True iff ``paths`` lists every vertex exactly once and each path is
    an induced path: consecutive vertices adjacent, no other pair."""
    flat = [v for p in paths for v in p]
    if sorted(flat) != list(range(g.n)) or not all(paths):
        return False
    for p in paths:
        for i, u in enumerate(p):
            for j in range(i + 1, len(p)):
                if (p[j] in g.adj[u]) != (j == i + 1):
                    return False
    return True


def forcing_forest(chron) -> dict[int, tuple[list[int], list[tuple[int, int]]]]:
    """base vertex -> (vertices, sorted (child, parent) edges) of the chain
    or tree a valid schedule traces from it. A chain (standard, rigid
    linkage) follows its base vertex's forces one at a time, so its
    vertices come in chain order; a PSD tree holds whatever a depth-first
    search over the forced vertices reaches."""
    children = {}
    for step in chron.steps:
        for f in step:
            children.setdefault(f.src, []).append(f.dst)
    out = {}
    for b in sorted(chron.base):
        verts, edges = [b], []
        if chron.rule == "psd":
            stack = [b]
            while stack:
                u = stack.pop()
                for w in children.get(u, []):
                    verts.append(w)
                    edges.append((w, u))
                    stack.append(w)
        else:
            while verts[-1] in children:
                (w,) = children[verts[-1]]
                edges.append((w, verts[-1]))
                verts.append(w)
        out[b] = (verts, sorted(edges))
    return out


def piece_ends(forest, h) -> tuple[set[int], set[int]]:
    """The first and the last vertices of the forest's pieces inside the
    vertex set ``h``: those whose forcer is not in ``h`` (base vertices
    have none), and those that force no vertex of ``h``."""
    parent = {w: u for _, edges in forest.values() for w, u in edges}
    firsts = {u for u in h if parent.get(u) not in h}
    lasts = {u for u in h if not any(parent.get(w) == u for w in h)}
    return firsts, lasts
