"""Color change processes and relaxed forcing schedules.

A relaxed schedule (``RelaxedChronology``) is an ordered list of force
sets: at each step any subset of the currently legal forces may fire,
including none. It generalizes both one-force-at-a-time lists and
maximal per-step propagation, and is the object every other module
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .errors import ChronologyError, InfeasibleError, InvariantViolation
from .graphs import Graph, component_masks, mask_of, set_of, union_of, validate_path_cover


class Rule(str, Enum):
    """Which color change process a schedule or search uses.

    POWER_DOMINATION is a process tag, not a per-step rule: its first
    step colors the closed neighborhood of the base set and every later
    step applies the STANDARD rule.
    """

    STANDARD = "standard"
    PSD = "psd"
    POWER_DOMINATION = "power_domination"
    RIGID_LINKAGE = "rigid_linkage"

    @classmethod
    def from_token(cls, token: str) -> "Rule":
        table = {
            "z": cls.STANDARD,
            "zplus": cls.PSD,
            "pd": cls.POWER_DOMINATION,
            "rl": cls.RIGID_LINKAGE,
        }
        try:
            return table[token]
        except KeyError:
            raise ValueError(f"unknown rule token {token!r}") from None


class Force(NamedTuple):
    src: int
    dst: int


def _norm_steps(steps: Iterable[Iterable]) -> tuple[tuple[Force, ...], ...]:
    out = []
    for step in steps:
        forces = sorted(Force(int(s), int(d)) for s, d in step)
        out.append(tuple(forces))
    return tuple(out)


@dataclass(frozen=True)
class RelaxedChronology:
    """An ordered family of force sets for a base set of blue vertices.

    Steps are normalized on construction: within a step forces are sorted
    by (src, dst), which also fixes the serialized JSON form. Construction
    does not validate against a graph; use :func:`validate_chronology`.
    """

    rule: Rule
    base: frozenset[int]
    steps: tuple[tuple[Force, ...], ...]

    def __init__(self, rule: Rule, base: Iterable[int], steps: Iterable[Iterable]):
        object.__setattr__(self, "rule", Rule(rule))
        object.__setattr__(self, "base", frozenset(base))
        object.__setattr__(self, "steps", _norm_steps(steps))

    @property
    def ct(self) -> int:
        """Completion time: the number of stored steps."""
        return len(self.steps)

    def all_forces(self) -> tuple[Force, ...]:
        """All forces serialized chronologically (within-step (src, dst) order)."""
        return tuple(f for step in self.steps for f in step)

    def force_set(self) -> frozenset[Force]:
        return frozenset(self.all_forces())

    def to_json_dict(self) -> dict:
        return {
            "rule": self.rule.value,
            "base": sorted(self.base),
            "steps": [[[f.src, f.dst] for f in step] for step in self.steps],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RelaxedChronology":
        return cls(Rule(data["rule"]), data["base"], data["steps"])

    @classmethod
    def _normalized(
        cls, rule: Rule, base: frozenset[int], steps: list[tuple[Force, ...]]
    ) -> "RelaxedChronology":
        """A schedule whose steps are already in normal form, each a tuple
        of ``Force`` pairs of ints sorted by (src, dst), as :func:`_fire`
        records them: stored as given, with no second normalizing pass."""
        chron = object.__new__(cls)
        object.__setattr__(chron, "rule", rule)
        object.__setattr__(chron, "base", base)
        object.__setattr__(chron, "steps", tuple(steps))
        return chron


# ---------------------------------------------------------------------------
# The rule engine. Blue sets are bitmasks over ``Graph.adjacency_masks()``.
# Each step function returns the mask of the vertices its rule colors from
# ``blue``; given a ``forces`` list, it also appends the forces behind them.


def _standard_step(adj: tuple[int, ...], blue: int, forces=None) -> int:
    """Standard rule: a blue vertex with exactly one white neighbor forces
    it. Appends every legal force, sources ascending."""
    add = 0
    rem = blue
    while rem:
        bit = rem & -rem
        rem ^= bit
        white = adj[bit.bit_length() - 1] & ~blue
        if white and not white & (white - 1):
            add |= white
            if forces is not None:
                forces.append(Force(bit.bit_length() - 1, white.bit_length() - 1))
    return add


def _psd_step(adj: tuple[int, ...], blue: int, forces=None, idle: int = 0) -> int:
    """PSD rule: within each white component, a blue vertex with exactly
    one white neighbor there forces it. The flood fill that finds each
    component (:func:`~forcelab.graphs.component_masks`) also counts which
    vertices see one member and which see several, so the forcers are
    ``once & ~twice & blue`` and each forces ``adj[v] & comp``. Nonzero
    ``idle`` gives the rigid-linkage rule: a component with an idle vertex
    on its boundary (``idle & once``) receives no force, so idle vertices
    never force. Appends every legal force, component by component with
    sources ascending."""
    add = 0
    for comp, once, twice in component_masks(adj, ((1 << len(adj)) - 1) & ~blue):
        if idle & once:
            continue
        rem = once & ~twice & blue
        while rem:
            bit = rem & -rem
            rem ^= bit
            inside = adj[bit.bit_length() - 1] & comp
            add |= inside
            if forces is not None:
                forces.append(Force(bit.bit_length() - 1, inside.bit_length() - 1))
    return add


def _power_step(adj: tuple[int, ...], blue: int, forces=None) -> int:
    """Power domination's first step: color the closed neighborhood of the
    blue set. Appends every force from a blue vertex into a white neighbor,
    sources ascending, so a new vertex's least blue neighbor comes first."""
    hood = 0
    rem = blue
    while rem:
        bit = rem & -rem
        rem ^= bit
        u = bit.bit_length() - 1
        hood |= adj[u]
        if forces is not None:
            forces.extend(Force(u, w) for w in set_of(adj[u] & ~blue))
    return hood & ~blue


def _legal_forces(rule: Rule, adj, blue: int, idle: int = 0) -> list[Force]:
    """Every force the per-step rule allows from ``blue``."""
    forces: list[Force] = []
    if rule is Rule.STANDARD:
        _standard_step(adj, blue, forces)
    else:
        _psd_step(adj, blue, forces, idle)
    return forces


# The steps of each maximal process: the first round's, then every later one's.
PROCESSES = {
    Rule.STANDARD: (_standard_step, _standard_step),
    Rule.PSD: (_psd_step, _psd_step),
    Rule.POWER_DOMINATION: (_power_step, _standard_step),
}


def _fire(rule: Rule, adj, blue: int, full: int, pool=None) -> tuple[list, int]:
    """Run the maximal process of ``rule`` from ``blue``, the one loop that
    records its forces round by round. Each round fires every legal force
    (only those in ``pool`` when a pool is given), one per target, from its
    least source. Stops once ``blue`` is ``full`` or nothing fires; returns
    the rounds' forces and the last blue mask."""
    current, later = PROCESSES[rule]
    steps: list[tuple[Force, ...]] = []
    while blue != full:
        forces: list[Force] = []
        add = current(adj, blue, forces)
        if pool is not None:
            forces = [f for f in forces if f in pool]
        least: dict[int, Force] = {}
        for f in forces:
            least.setdefault(f.dst, f)
        if not least:
            break
        steps.append(tuple(sorted(least.values())))
        blue |= add if pool is None else mask_of(least)
        current = later
    return steps, blue


def possible_forces(
    rule: Rule,
    g: Graph,
    blue: Iterable[int],
    inactive: Iterable[int] = (),
) -> frozenset[Force]:
    """All forces the given rule permits when exactly ``blue`` is colored.

    ``inactive`` (vertices that have already performed a force) only
    matters for the rigid-linkage rule and is ignored otherwise.
    """
    rule = Rule(rule)
    b = g.check_set(blue)
    if rule is Rule.POWER_DOMINATION:
        raise ValueError(
            "power domination is a process tag; it has no per-step force set"
        )
    idle = 0
    if rule is Rule.RIGID_LINKAGE:
        idle_set = g.check_set(inactive)
        if not idle_set <= b:
            raise ValueError("inactive vertices must be blue")
        idle = mask_of(idle_set)
    return frozenset(_legal_forces(rule, g.adjacency_masks(), mask_of(b), idle))


def _flood(adj: tuple[int, ...], white: int, v: int) -> int:
    """The component of the white vertex ``v`` inside the bitmask ``white``."""
    comp = front = 1 << v
    hood = 0
    while front:
        rem = front
        while rem:
            bit = rem & -rem
            rem ^= bit
            hood |= adj[bit.bit_length() - 1]
        front = hood & white & ~comp
        comp |= front
    return comp


def validate_chronology(
    g: Graph, chron: RelaxedChronology, *, expand: bool = True
) -> list[frozenset[int]] | None:
    """Replay ``chron`` on ``g`` and return its expansion sequence: the blue
    set at the start and after each step. ``expand=False`` runs the same
    checks in the same order, builds no expansion and returns None.

    Checks, step by step and force by force: no two forces in a step share
    a target, each force is legal for the blue set at the start of its
    step, and every vertex ends up blue. Each force is checked on its own,
    on bitmasks: both ends are vertices, the source is blue and the target
    white, and then the rule holds. Standard: the target is the source's
    one white neighbor. PSD: it is the source's one neighbor in the
    target's white component, flooded once for every force into it. The
    flood carries over to later steps, less their targets, while each
    target had at most one white neighbor in it: a path between two of
    its other vertices then passes no target, so what is left stays
    connected. A component that a target may have cut is flooded again.
    Rigid linkage: the PSD condition on the same carried floods, at most
    one force per step, and no idle vertex (one that has forced) next to
    the component, read off a running mask of the idle vertices'
    neighbors. No legal-force set is built, and the check shares no
    code with the rule engine it is the oracle of. Raises
    :class:`ChronologyError` naming the first offending step/force.
    """
    rule = chron.rule
    if rule not in (Rule.STANDARD, Rule.PSD, Rule.RIGID_LINKAGE):
        raise ValueError(f"cannot validate schedules for rule {rule.value}")
    adj, n = g.adjacency_masks(), g.n
    full = (1 << n) - 1
    blue = mask_of(g.check_set(chron.base))
    masks = [blue] if expand else None
    idle_hood = 0  # the neighbors of the vertices that have forced (rigid linkage)
    standard, linkage = rule is Rule.STANDARD, rule is Rule.RIGID_LINKAGE
    floods: list[int] = []  # components as flooded, read less the vertices since blue
    for k, step in enumerate(chron.steps, start=1):
        if linkage and len(step) > 1:
            raise ChronologyError(
                f"step {k}: rigid-linkage steps carry at most one force", step=k
            )
        white = full & ~blue
        cut = hit = 0  # the components a target of this step may cut; its targets
        for f in step:
            src, dst = f
            if dst >= 0 and hit >> dst & 1:
                raise ChronologyError(
                    f"step {k}: two forces target vertex {dst}", step=k, force=f
                )
            legal = 0 <= src < n and 0 <= dst < n and not white >> src & 1 and white >> dst & 1
            if legal and standard:
                legal = adj[src] & white == 1 << dst
            elif legal:
                for comp in floods:
                    if comp >> dst & 1:
                        comp &= white  # less the targets of the steps since its flood
                        break
                else:
                    comp = _flood(adj, white, dst)
                    floods.append(comp)
                legal = adj[src] & comp == 1 << dst and not idle_hood & comp
                inside = adj[dst] & comp
                if inside & (inside - 1):
                    cut |= comp
            if not legal:
                raise ChronologyError(
                    f"step {k}: force {src}->{dst} is not legal there",
                    step=k,
                    force=f,
                )
            hit |= 1 << dst
            if linkage:
                idle_hood |= adj[src]
        if cut:
            floods = [comp for comp in floods if not comp & cut]
        blue |= hit
        if expand:
            masks.append(blue)
    if blue != full:
        left = sorted(set_of(full & ~blue))
        raise ChronologyError(
            f"white vertices remain after the last step: {left}", step=chron.ct
        )
    return [set_of(mask) for mask in masks] if expand else None


@dataclass(frozen=True)
class PropagationResult:
    ok: bool
    chronology: RelaxedChronology | None
    pt: int | None
    blue: frozenset[int]


def propagate(rule: Rule, g: Graph, base: Iterable[int]) -> PropagationResult:
    """Run the full propagation process for ``rule`` from ``base``.

    STANDARD, PSD and POWER_DOMINATION (whose first step colors the closed
    neighborhood) run the maximal process of :func:`_fire`. RIGID_LINKAGE
    fires the least standard-legal force, one per step, and so completes
    exactly when the base set is a zero forcing set. Every force of a
    completing rigid-linkage schedule is a standard force: if u forced w
    while u had another white neighbor x, x lies outside w's component
    (the PSD condition), and from then on the idle u borders the white
    component holding x, which no force may enter. Conversely, standard
    forces taken one at a time are rigid-linkage forces: the target is
    its forcer's one white neighbor, and a vertex that has forced borders
    no white vertex. (See Ferrero et al., "Rigid linkages and partial
    zero forcing", Electron. J. Combin. 26 (2019).) A stall so reports
    the standard closure of the base set.

    On success ``pt`` counts the time-steps taken (per-rule propagation
    time). On failure ``blue`` holds the stalled blue set.
    """
    rule = Rule(rule)
    b = g.check_set(base)
    adj = g.adjacency_masks()
    full = (1 << g.n) - 1
    blue = mask_of(b)
    if rule is Rule.RIGID_LINKAGE:
        steps: list[tuple[Force, ...]] = []
        while blue != full and (legal := _legal_forces(Rule.STANDARD, adj, blue)):
            steps.append((legal[0],))
            blue |= 1 << legal[0].dst
    else:
        steps, blue = _fire(rule, adj, blue, full)
    if blue != full:
        return PropagationResult(False, None, None, set_of(blue))
    chron = RelaxedChronology._normalized(rule, b, steps)
    return PropagationResult(True, chron, len(steps), frozenset(g.vertices))


def propagation_time_of_forces(
    g: Graph, base: Iterable[int], forces: Iterable[Force], rule: Rule
) -> int:
    """Least number of rounds in which the given force set colors the graph:
    :func:`_fire` with the set as pool, each round firing its legal forces.

    Raises :class:`InfeasibleError` if the set stalls before the graph is
    blue. Forces still unused once the graph is blue are ignored.
    """
    rule = Rule(rule)
    if rule not in (Rule.STANDARD, Rule.PSD):
        raise ValueError("force-set propagation time needs the standard or PSD rule")
    full = (1 << g.n) - 1
    pool = {Force(int(s), int(d)) for s, d in forces}
    steps, blue = _fire(rule, g.adjacency_masks(), mask_of(g.check_set(base)), full, pool)
    if blue != full:
        raise InfeasibleError(
            "force set cannot color the remaining vertices", blue=set_of(blue)
        )
    return len(steps)


# ---------------------------------------------------------------------------
# One replay per schedule


@dataclass(frozen=True)
class ForcingTree:
    root: int
    vertices: frozenset[int]
    parent_edges: tuple[tuple[int, int], ...]  # (child, parent) pairs


@dataclass(frozen=True)
class ForcingCover:
    """Chains (standard / rigid-linkage) or trees (PSD) traced by a schedule;
    one per base vertex, ordered by base vertex."""

    rule: Rule
    chains: tuple[tuple[int, ...], ...] | None
    trees: tuple[ForcingTree, ...] | None


class _Forest(NamedTuple):
    """The chains (standard, rigid linkage) or trees (PSD) that a schedule's
    forces trace, one entry per vertex, read off its steps once per replay."""

    root: list[int]  # the base vertex whose chain or tree holds it, or -1
    up: list[int]  # the bit of its forcer, 0 if no force enters it
    down: list[int]  # the mask of the vertices it forces


class _once:
    """An attribute computed on its first read and stored in the instance
    ``__dict__``, which shadows this non-data descriptor from then on: a
    lock-free :class:`functools.cached_property` (CPython 3.11 locks). A
    read that raises stores nothing, so the next raises again."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Replay:
    """A schedule replayed once on its graph (package-internal).

    Construction makes the one :func:`validate_chronology` call, with
    ``expand=False``: every check runs and no expansion is built
    (``simulate --chronology`` and direct callers still get it). Derived
    schedules are stored as built (``RelaxedChronology._normalized``). The
    forcing forest (:attr:`forest`, the one per-vertex record of the
    forces), activity spans, cover, terminus and the boundary sets of a
    vertex subset (:meth:`initials`, :meth:`finals`, on masks) are read
    off the validated steps, so the functions that consume a schedule
    share a single replay of it. Spans and terminus trust the rule that
    :meth:`standard` checked. A schedule the library derives itself is
    replayed through :meth:`guaranteed`, the one place where a failed
    replay of such a schedule becomes an InvariantViolation.
    """

    def __init__(self, g: Graph, chron: RelaxedChronology):
        self.graph = g
        self.chron = chron
        validate_chronology(g, chron, expand=False)

    @classmethod
    def guaranteed(cls, g: Graph, chron: RelaxedChronology, what: str) -> "Replay":
        """Replay a schedule the library derived, whose validity is a
        guaranteed property: a ChronologyError is a bug, raised as an
        InvariantViolation that ``what`` prefixes."""
        try:
            return cls(g, chron)
        except ChronologyError as exc:
            raise InvariantViolation(f"{what}: {exc}") from exc

    @classmethod
    def standard(
        cls, g: Graph, chron: RelaxedChronology, what: str = "active times are"
    ) -> "Replay":
        """Replay a schedule that must use the standard rule; any other rule
        raises ValueError, naming ``what``, before the replay."""
        if chron.rule is not Rule.STANDARD:
            raise ValueError(f"{what} defined for the standard rule")
        return cls(g, chron)

    @_once
    def forest(self) -> _Forest:
        """Roots, forcer bits and forced masks, read off the forces in order
        (a forced vertex takes its forcer's root), and the guards: a chain
        vertex forces at most once; PSD trees are trees and partition."""
        chron, n = self.chron, self.graph.n
        psd = chron.rule is Rule.PSD
        root, up, down = [-1] * n, [0] * n, [0] * n
        for b in chron.base:
            root[b] = b
        for step in chron.steps:
            for src, dst in step:
                if down[src] and not psd:
                    raise InvariantViolation(f"vertex {src} forces twice")
                up[dst] = 1 << src
                down[src] |= 1 << dst
                if root[dst] < 0:
                    root[dst] = root[src]
        if psd:
            # A tree has one edge fewer than vertices; count both per root.
            excess = dict.fromkeys(sorted(chron.base), 1)
            for v, b in enumerate(root):
                if b >= 0:
                    excess[b] += down[v].bit_count() - 1
            for b, extra in excess.items():
                if extra:
                    raise InvariantViolation(f"forcing tree at {b} is not a tree")
            if -1 in root:
                raise InvariantViolation("forcing trees do not partition the vertices")
        return _Forest(root, up, down)

    @_once
    def spans(self) -> list[tuple[int, int]]:
        chron, n = self.chron, self.graph.n
        first = [0 if v in chron.base else -1 for v in range(n)]
        last = [chron.ct] * n
        for k, step in enumerate(chron.steps, start=1):
            for f in step:
                if first[f.dst] == -1:
                    first[f.dst] = k
                last[f.src] = k - 1
        return list(zip(first, last))

    @_once
    def cover(self) -> ForcingCover:
        chron, (root, up, _) = self.chron, self.forest
        # Every force extends its forcer's chain: a vertex forced twice fails the check.
        members = {b: [b] for b in sorted(chron.base)}
        for src, dst in chron.all_forces():
            if root[src] >= 0:
                members[root[src]].append(dst)
        if chron.rule is Rule.PSD:
            parent = [u.bit_length() - 1 for u in up]
            trees = tuple(
                ForcingTree(b, frozenset(vs), tuple(sorted((v, parent[v]) for v in vs[1:])))
                for b, vs in members.items()
            )
            return ForcingCover(chron.rule, None, trees)
        chains = tuple(tuple(vs) for vs in members.values())
        check = validate_path_cover(self.graph, chains)
        if not check.ok:
            raise InvariantViolation(
                f"forcing chains are not an induced path cover: {check.violation}"
            )
        return ForcingCover(chron.rule, chains, None)

    @_once
    def terminus(self) -> frozenset[int]:
        term = frozenset(v for v, forced in enumerate(self.forest.down) if not forced)
        if len(term) != len(self.chron.base):
            raise InvariantViolation("terminus size differs from the base size")
        return term

    def initials(self, h: int) -> int:
        """The vertices of the mask ``h`` that no vertex of ``h`` forces,
        base vertices among them, as a mask: see
        :func:`restriction_initials`."""
        return h & ~union_of(self.forest.down, h)

    def finals(self, h: int) -> int:
        """The vertices of the mask ``h`` that force no vertex of ``h``, as
        a mask: the :meth:`initials` of ``h`` in the reversed schedule."""
        return h & ~union_of(self.forest.up, h)


def activity_spans(g: Graph, chron: RelaxedChronology) -> list[tuple[int, int]]:
    """Per vertex, the inclusive interval [first, last] of its active times.

    A vertex is active at step k when it is blue after step k and has not
    yet performed a force. Every vertex of a valid standard schedule has a
    nonempty interval; a terminal vertex stays active through step K.
    """
    return list(Replay.standard(g, chron).spans)


def active_times(g: Graph, chron: RelaxedChronology, v: int) -> frozenset[int]:
    """The set of time-steps at which ``v`` is active."""
    g.check_vertex(v)
    lo, hi = activity_spans(g, chron)[v]
    return frozenset(range(lo, hi + 1))


def forcing_cover(g: Graph, chron: RelaxedChronology) -> ForcingCover:
    """Build the chain set or forcing-tree cover defined by a valid schedule."""
    return Replay(g, chron).cover


def terminus(g: Graph, chron: RelaxedChronology) -> frozenset[int]:
    """Vertices of a valid standard schedule that never perform a force."""
    return Replay.standard(g, chron, "terminus is").terminus


def reversal(g: Graph, chron: RelaxedChronology) -> RelaxedChronology:
    """Reverse all forces and time-steps; the result is a valid schedule
    for the terminus, with the same completion time."""
    term = Replay.standard(g, chron, "terminus is").terminus
    steps = [tuple(Force(f.dst, f.src) for f in step) for step in reversed(chron.steps)]
    rev = RelaxedChronology(Rule.STANDARD, term, steps)
    return Replay.guaranteed(g, rev, "reversal failed to validate").chron


def restriction_initials(
    g: Graph, chron: RelaxedChronology, sub_vertices: Iterable[int]
) -> frozenset[int]:
    """Initial vertices of the chain/tree pieces of ``chron`` inside a
    vertex subset: base vertices, plus vertices whose forcer lies outside.

    (A forcer is adjacent to its target inside its own chain or tree, so
    "outside the piece" and "outside the subset" coincide.)
    """
    h = g.check_set(sub_vertices)
    return set_of(Replay(g, chron).initials(mask_of(h)))
