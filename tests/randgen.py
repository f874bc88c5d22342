"""Seeded random instances: graphs, forcing sets, and relaxed schedules."""

from random import Random

from forcelab.forcing import (
    Force,
    RelaxedChronology,
    Rule,
    possible_forces,
    propagate,
    validate_chronology,
)
from forcelab.graphs import Graph


def random_graph(rng: Random, n: int, p: float, connected: bool = False) -> Graph:
    edges = set()
    if connected and n > 1:
        for v in range(1, n):
            edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    return Graph(n, edges)


def random_forcing_set(rng: Random, g: Graph) -> frozenset[int]:
    """A (not necessarily minimal) standard forcing set, grown at random."""
    verts = list(range(g.n))
    rng.shuffle(verts)
    blue = set(verts[: max(1, g.n // 3)]) if g.n else set()
    while True:
        result = propagate(Rule.STANDARD, g, blue)
        if result.ok:
            return frozenset(blue)
        white = [v for v in range(g.n) if v not in result.blue]
        blue.add(rng.choice(white))


def random_chronology(
    rng: Random, g: Graph, base: frozenset[int], empty_prob: float = 0.15
) -> RelaxedChronology:
    """A random valid standard schedule for ``base``: each step fires a
    random nonempty subset of the legal forces, with occasional idle steps."""
    blue = set(base)
    steps = []
    idle_budget = 2
    while len(blue) < g.n:
        if idle_budget and rng.random() < empty_prob:
            steps.append([])
            idle_budget -= 1
            continue
        legal = possible_forces(Rule.STANDARD, g, blue)
        by_dst = {}
        for f in legal:
            by_dst.setdefault(f.dst, []).append(f.src)
        chosen = [d for d in by_dst if rng.random() < 0.6]
        if not chosen:
            chosen = [rng.choice(sorted(by_dst))]
        step = [Force(rng.choice(sorted(by_dst[d])), d) for d in sorted(chosen)]
        steps.append(step)
        blue.update(d for _, d in step)
    chron = RelaxedChronology(Rule.STANDARD, base, steps)
    validate_chronology(g, chron)
    return chron


def random_instance(rng: Random, max_n: int = 12, connected: bool = True):
    """(graph, forcing set, random schedule) with 2..max_n vertices."""
    n = rng.randint(2, max_n)
    g = random_graph(rng, n, rng.uniform(0.15, 0.5), connected=connected)
    base = random_forcing_set(rng, g)
    return g, base, random_chronology(rng, g, base)


def random_psd_chronology(
    rng: Random, g: Graph, base: frozenset[int], empty_prob: float = 0.12
) -> RelaxedChronology:
    """A random valid PSD schedule: per step, a random dst-distinct subset
    of the legal PSD forces, with occasional idle steps."""
    blue = set(base)
    steps = []
    idle_budget = 2
    while len(blue) < g.n:
        if idle_budget and rng.random() < empty_prob:
            steps.append([])
            idle_budget -= 1
            continue
        legal = possible_forces(Rule.PSD, g, blue)
        by_dst = {}
        for f in legal:
            by_dst.setdefault(f.dst, []).append(f.src)
        chosen = [d for d in by_dst if rng.random() < 0.55]
        if not chosen:
            chosen = [rng.choice(sorted(by_dst))]
        step = [Force(rng.choice(sorted(by_dst[d])), d) for d in sorted(chosen)]
        steps.append(step)
        blue.update(d for _, d in step)
    chron = RelaxedChronology(Rule.PSD, base, steps)
    validate_chronology(g, chron)
    return chron


def random_linkage_chronology(
    rng: Random, g: Graph, base: frozenset[int], empty_prob: float = 0.12
) -> RelaxedChronology | None:
    """A random rigid-linkage schedule: per step, one random legal force,
    with occasional idle steps. None when the random choices stall before
    every vertex is blue."""
    blue, idle = set(base), set()
    steps = []
    idle_budget = 2
    while len(blue) < g.n:
        if idle_budget and rng.random() < empty_prob:
            steps.append([])
            idle_budget -= 1
            continue
        legal = sorted(possible_forces(Rule.RIGID_LINKAGE, g, blue, idle))
        if not legal:
            return None
        f = rng.choice(legal)
        steps.append([f])
        blue.add(f.dst)
        idle.add(f.src)
    chron = RelaxedChronology(Rule.RIGID_LINKAGE, base, steps)
    validate_chronology(g, chron)
    return chron
