"""Time slices of a standard forcing schedule.

Slicing a schedule at step N splits the vertices into those done forcing
before N, those active at N, and those not yet blue; the active set
separates the other two. These slice sets are the raw material for the
constructive halving of PSD and power-domination propagation times.
A built set is checked by the rounds of its process, walked through the
steps of :data:`forcelab.forcing.PROCESSES`, not by building its schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import solvers
from .errors import InvariantViolation
from .forcing import PROCESSES, RelaxedChronology, Replay, Rule
from .forcing import propagate
from .graphs import Graph, closed_neighborhood, induced_subgraph, mask_of


@dataclass(frozen=True)
class SliceReport:
    step: int
    minus: frozenset[int]  # done forcing before the step
    at: frozenset[int]     # active at the step
    plus: frozenset[int]   # not yet blue at the step


def time_slice(g: Graph, chron: RelaxedChronology, n_step: int) -> SliceReport:
    """Partition the vertices by their activity relative to step ``n_step``."""
    r = Replay.standard(g, chron)
    if not 0 <= n_step <= r.chron.ct:
        raise ValueError(f"step {n_step} outside 0..{r.chron.ct}")
    return SliceReport(n_step, *_split(r.spans, n_step))


def _split(spans: list[tuple[int, int]], step: int) -> tuple[frozenset[int], ...]:
    """The vertices done forcing before ``step``, active at it, and not yet
    blue at it, read off activity spans."""
    minus, at, plus = [], [], []
    for v, (lo, hi) in enumerate(spans):
        (minus if hi < step else plus if lo > step else at).append(v)
    return frozenset(minus), frozenset(at), frozenset(plus)


def _window(r: Replay, m_step: int, n_step: int) -> tuple[frozenset[int], ...]:
    """The window of steps ``m_step`` to ``n_step``: its active vertices,
    its end slices, the vertices done forcing before its end and not yet
    blue at its start, and the boundary sets of those two."""
    minus_m, at_m, after = _split(r.spans, m_step)
    before, at_n, plus_n = _split(r.spans, n_step)
    closed = frozenset(range(r.graph.n)) - minus_m - plus_n
    bd_n_minus = r.reversal.initials(before) if before else frozenset()
    return closed, at_m, at_n, before, after, bd_n_minus, r.initials(after)


@dataclass(frozen=True)
class IntervalSlice:
    """Vertices active within a window of steps, with all interval variants
    and the two boundary sets used by the power-domination construction."""

    m: int
    n: int
    closed: frozenset[int]      # active somewhere in [m, n]
    left_open: frozenset[int]   # closed minus the slice at m
    right_open: frozenset[int]  # closed minus the slice at n
    open: frozenset[int]        # closed minus both end slices
    bd_m_plus: frozenset[int]   # chain starts strictly after m
    bd_n_minus: frozenset[int]  # chain ends strictly before n (reversed view)


def interval_slice(
    g: Graph, chron: RelaxedChronology, m_step: int, n_step: int
) -> IntervalSlice:
    if not 0 <= m_step <= n_step <= chron.ct:
        raise ValueError(f"need 0 <= {m_step} <= {n_step} <= {chron.ct}")
    closed, at_m, at_n, _, _, bd_n_minus, bd_m_plus = _window(
        Replay.standard(g, chron), m_step, n_step
    )
    return IntervalSlice(
        m_step,
        n_step,
        closed,
        closed - at_m,
        closed - at_n,
        closed - at_m - at_n,
        bd_m_plus,
        bd_n_minus,
    )


@dataclass(frozen=True)
class ForcingAssertion:
    name: str
    base: frozenset[int]
    sub_vertices: frozenset[int]
    bound: int
    achieved: int


@dataclass(frozen=True)
class IntervalForcingReport:
    m: int
    n: int
    assertions: tuple[ForcingAssertion, ...]


def _rounds(rule: Rule, g: Graph, base) -> int:
    """Rounds the maximal ``rule`` process takes to color ``g`` from
    ``base``, -1 if it stalls, walked one step of
    :data:`forcelab.forcing.PROCESSES` at a time, keeping only the current
    mask. Power domination's neighborhood step runs first; where it adds
    nothing, no blue vertex has a white neighbor, so the later steps stall
    too."""
    adj, full = g.adjacency_masks(), (1 << g.n) - 1
    first, step = PROCESSES[rule]
    blue, rounds = mask_of(base), 0
    if first is not step and blue != full:
        blue, rounds = blue | first(adj, blue), 1
    while blue != full:
        add = step(adj, blue)
        if not add:
            return -1
        blue, rounds = blue | add, rounds + 1
    return rounds


def _rounds_on(g: Graph, verts, base, bound: int, name: str) -> ForcingAssertion:
    verts = frozenset(verts)
    base = frozenset(base) & verts
    sub = induced_subgraph(g, verts)
    local = {old: new for new, old in enumerate(sub.vertices)}
    rounds = _rounds(Rule.STANDARD, sub.graph, {local[v] for v in base})
    if rounds < 0:
        raise InvariantViolation(f"{name}: slice set fails to force its subgraph")
    if rounds > bound:
        raise InvariantViolation(
            f"{name}: took {rounds} steps, guaranteed at most {bound}"
        )
    return ForcingAssertion(name, base, verts, bound, rounds)


def check_interval_forcing(
    g: Graph, chron: RelaxedChronology, m_step: int, n_step: int
) -> IntervalForcingReport:
    """Check the four guaranteed slice forcings for a window m < n by rounds.

    Each failure is raised as :class:`InvariantViolation`: these facts hold
    for every valid schedule, so a failure is a library bug, not bad input.
    """
    if not 0 <= m_step < n_step <= chron.ct:
        raise ValueError(f"need 0 <= {m_step} < {n_step} <= {chron.ct}")
    closed, at_m, at_n, before, after, bd_n_minus, bd_m_plus = _window(
        Replay.standard(g, chron), m_step, n_step
    )
    checks = (
        _rounds_on(g, closed, at_m, n_step - m_step, "window from its start slice"),
        _rounds_on(g, closed, at_n, n_step - m_step, "window from its end slice"),
        _rounds_on(g, before, bd_n_minus, n_step - 1, "prefix from its boundary"),
        _rounds_on(
            g, after, bd_m_plus, chron.ct - m_step - 1, "suffix from its boundary"
        ),
    )
    return IntervalForcingReport(m_step, n_step, checks)


# ---------------------------------------------------------------------------
# Constructive propagation-time halving


@dataclass(frozen=True)
class SliceConstruction:
    """A PSD forcing set built from slice sets of an efficient schedule,
    with its guaranteed bound and the replayed propagation time."""

    base: frozenset[int]
    upper_bound: int
    achieved: int
    cut_times: tuple[int, ...]
    source_pt: int


@dataclass(frozen=True)
class PowerConstruction:
    base: frozenset[int]
    upper_bound: int
    achieved: int
    cut_time: int
    source_pt: int


def _efficient_replay(g: Graph, m: int, cap, scan=None) -> Replay:
    """Replay of the canonical m-efficient schedule, propagated from the
    lexicographically least size-m set of minimum propagation time, read
    from a standard-rule ``solvers._Scan`` of ``g`` (``scan``, or a new one
    under ``cap``)."""
    scan = scan or solvers._Scan(g, Rule.STANDARD, cap)
    best = sorted(scan.first(scan.time(m)[1]))
    result = propagate(Rule.STANDARD, g, best)
    if not result.ok:
        raise InvariantViolation("efficient set failed to replay")
    return Replay.standard(g, result.chronology)


def psd_set_from_slices(
    g: Graph, m: int, cut_times="auto", cap: int | None = None
) -> SliceConstruction:
    """Build a size-m PSD forcing set from slice sets of an m-efficient
    standard schedule.

    ``cut_times='auto'`` cuts once at ceil(K/2), which guarantees a PSD
    propagation time of at most ceil(pt(G, m)/2). Explicit cut times give
    the guarantee max(first gap, gaps between cuts, last gap); achieved
    time (often better for several cuts) is counted in PSD rounds.
    """
    return _psd_set(_efficient_replay(g, m, cap), m, cut_times)


def _psd_set(r: Replay, m: int, cut_times) -> SliceConstruction:
    """:func:`psd_set_from_slices` on the replay ``r`` of the m-efficient
    schedule."""
    k_total = r.chron.ct
    if cut_times == "auto":
        cuts = ((k_total + 1) // 2,)
    else:
        cuts = tuple(sorted(set(int(c) for c in cut_times)))
        if not cuts:
            raise ValueError("at least one cut time is required")
        if cuts[0] < 0 or cuts[-1] > k_total:
            raise ValueError(f"cut times must lie in 0..{k_total}")
    base: set[int] = set()
    for c in cuts:
        at = _split(r.spans, c)[1]
        if len(at) != m:
            raise InvariantViolation(
                f"slice at {c} has {len(at)} vertices, expected one per chain"
            )
        base |= at
    gaps = [cuts[0], k_total - cuts[-1]]
    gaps.extend(b - a for a, b in zip(cuts, cuts[1:]))
    bound = max(gaps)
    rounds = _rounds(Rule.PSD, r.graph, base)
    if rounds < 0:
        raise InvariantViolation("slice set failed to PSD-force the graph")
    if rounds > bound:
        raise InvariantViolation(
            f"slice set took {rounds} PSD steps, guaranteed at most {bound}"
        )
    return SliceConstruction(frozenset(base), bound, rounds, cuts, k_total)


def power_set_from_slice(g: Graph, m: int, cap: int | None = None) -> PowerConstruction:
    """Build a size-m power dominating set: the slice at ceil(K/2) of an
    m-efficient standard schedule, guaranteeing power propagation time at
    most ceil(pt(G, m)/2); achieved time is counted in rounds."""
    return _power_set(_efficient_replay(g, m, cap), m)


def _power_set(r: Replay, m: int) -> PowerConstruction:
    """:func:`power_set_from_slice` on the replay ``r`` of the m-efficient
    schedule."""
    g, k_total = r.graph, r.chron.ct
    if k_total == 0:
        return PowerConstruction(frozenset(range(g.n)), 0, 0, 0, 0)
    n_cut = (k_total + 1) // 2
    before, base, after = _split(r.spans, n_cut)
    if len(base) != m:
        raise InvariantViolation(
            f"slice at {n_cut} has {len(base)} vertices, expected one per chain"
        )
    hood = closed_neighborhood(g, base)
    bd_n_minus = r.reversal.initials(before) if before else frozenset()
    if not (bd_n_minus <= hood and r.initials(after) <= hood):
        raise InvariantViolation(
            "slice neighborhood misses a boundary set it must dominate"
        )
    rounds = _rounds(Rule.POWER_DOMINATION, g, base)
    if rounds < 0:
        raise InvariantViolation("slice set failed to power-dominate the graph")
    if rounds > n_cut:
        raise InvariantViolation(
            f"power propagation took {rounds} steps, guaranteed at most {n_cut}"
        )
    return PowerConstruction(base, n_cut, rounds, n_cut, k_total)
