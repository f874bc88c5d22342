"""Time slices of a standard forcing schedule.

Slicing a schedule at step N splits the vertices into those done forcing
before N, those active at N, and those not yet blue; the active set
separates the other two. These slice sets are the raw material for the
constructive halving of PSD and power-domination propagation times.
A built set is checked by the rounds of its process, walked through the
steps of :data:`forcelab.forcing.PROCESSES`, not by building its schedule.

Inside the module every slice, boundary set, neighborhood and built set
is a bitmask over :meth:`Graph.adjacency_masks`: :func:`_split` reads the
three slices off the activity spans, :meth:`Replay.finals` and
:meth:`Replay.initials` the boundary sets, and :func:`_rounds` walks a
process from a mask, on a window of the graph if asked. The bounds sweep
(``solvers.bounds_rows_for_graph``) reads each m row from one :func:`_halving`
call, which gives :func:`_psd_set` and :func:`_power_set` one replay and one
split; the public functions turn masks into frozensets only in what they return.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import solvers
from .errors import InvariantViolation
from .forcing import PROCESSES, RelaxedChronology, Replay, Rule
from .forcing import propagate
from .graphs import Graph, set_of, union_of


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
    return SliceReport(n_step, *map(set_of, _split(r.spans, n_step)))


def _split(spans: list[tuple[int, int]], step: int) -> tuple[int, int, int]:
    """The masks of the vertices done forcing before ``step``, active at
    it, and not yet blue at it, read off activity spans."""
    minus = at = plus = 0
    bit = 1
    for lo, hi in spans:
        if hi < step:
            minus |= bit
        elif lo > step:
            plus |= bit
        else:
            at |= bit
        bit <<= 1
    return minus, at, plus


def _window(r: Replay, m_step: int, n_step: int) -> tuple[int, ...]:
    """The masks of the window of steps ``m_step`` to ``n_step``: its
    active vertices, its end slices, the vertices done forcing before its
    end and not yet blue at its start, and the boundary sets of those two:
    where a chain leaves the first (:meth:`Replay.finals`) and where one
    enters the second (:meth:`Replay.initials`), both read off ``r``."""
    minus_m, at_m, after = _split(r.spans, m_step)
    before, at_n, plus_n = _split(r.spans, n_step)
    closed = (1 << r.graph.n) - 1 & ~minus_m & ~plus_n
    return closed, at_m, at_n, before, after, r.finals(before), r.initials(after)


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
    bd_n_minus: frozenset[int]  # chain ends strictly before n (Replay.finals)


def interval_slice(
    g: Graph, chron: RelaxedChronology, m_step: int, n_step: int
) -> IntervalSlice:
    if not 0 <= m_step <= n_step <= chron.ct:
        raise ValueError(f"need 0 <= {m_step} <= {n_step} <= {chron.ct}")
    closed, at_m, at_n, _, _, bd_n_minus, bd_m_plus = _window(
        Replay.standard(g, chron), m_step, n_step
    )
    masks = (
        closed,
        closed & ~at_m,
        closed & ~at_n,
        closed & ~at_m & ~at_n,
        bd_m_plus,
        bd_n_minus,
    )
    return IntervalSlice(m_step, n_step, *map(set_of, masks))


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


def _rounds(rule: Rule, g: Graph, blue: int, window: int | None = None) -> int:
    """Rounds the maximal ``rule`` process takes to color ``g`` from the
    mask ``blue``, -1 if it stalls, walked one step of
    :data:`forcelab.forcing.PROCESSES` at a time, keeping only the current
    mask. Given a ``window`` mask holding ``blue``, the walk colors the
    subgraph induced on it instead, on ``g``'s masks cut to the window.
    Rounds after the first take the rule's later step, as in
    :func:`forcelab.forcing._fire`: where power domination's first step
    adds nothing, no blue vertex has a white neighbor, and the walk stalls."""
    adj, full = g.adjacency_masks(), (1 << g.n) - 1
    if window is not None:
        adj = tuple(a & window if window >> v & 1 else 0 for v, a in enumerate(adj))
        full = window
    step, later = PROCESSES[rule]
    rounds = 0
    while blue != full:
        add = step(adj, blue)
        if not add:
            return -1
        blue, rounds, step = blue | add, rounds + 1, later
    return rounds


def _rounds_on(g: Graph, verts: int, base: int, bound: int, name: str) -> ForcingAssertion:
    """Check the standard rounds from the mask ``base`` on the subgraph
    induced on the mask ``verts``, which holds it, against ``bound``."""
    rounds = _rounds(Rule.STANDARD, g, base, verts)
    if rounds < 0:
        raise InvariantViolation(f"{name}: slice set fails to force its subgraph")
    if rounds > bound:
        raise InvariantViolation(
            f"{name}: took {rounds} steps, guaranteed at most {bound}"
        )
    return ForcingAssertion(name, set_of(base), set_of(verts), bound, rounds)


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


def _efficient_replay(g: Graph, m: int, scan) -> Replay:
    """Replay of the canonical m-efficient schedule, propagated from the
    lexicographically least size-m set of minimum propagation time, read
    from the standard-rule ``solvers._Scan`` ``scan`` of ``g``, and
    replayed as a guaranteed schedule."""
    result = propagate(Rule.STANDARD, g, scan.first(scan.time(m)[1]))
    if not result.ok:
        raise InvariantViolation("efficient set failed to replay")
    return Replay.guaranteed(g, result.chronology, "efficient schedule failed to validate")


def _halving(g: Graph, m: int, scan) -> tuple[int, int, int, int]:
    """A bounds sweep's m row on the standard ``solvers._Scan`` ``scan``:
    pt(G, m), the bound ceil(pt(G, m)/2), and the rounds of :func:`_psd_set`
    and :func:`_power_set`, which share one replay and one split at the bound."""
    r = _efficient_replay(g, m, scan)
    bound = (r.chron.ct + 1) // 2
    halves = _split(r.spans, bound)
    return r.chron.ct, bound, _psd_set(r, "auto", halves)[2], _power_set(r, halves)[2]


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
    r = _efficient_replay(g, m, solvers._Scan(g, Rule.STANDARD, cap))
    base, bound, rounds, cuts = _psd_set(r, cut_times)
    return SliceConstruction(set_of(base), bound, rounds, cuts, r.chron.ct)


def _psd_set(r: Replay, cut_times, halves=None) -> tuple[int, int, int, tuple[int, ...]]:
    """:func:`psd_set_from_slices` on the replay ``r`` of an efficient
    schedule; ``halves``, if given, is the :func:`_split` at the auto cut.
    Returns the set's mask, its bound, its rounds and the cut times."""
    k_total = r.chron.ct
    if cut_times == "auto":
        cuts = ((k_total + 1) // 2,)
    else:
        cuts = tuple(sorted(set(int(c) for c in cut_times)))
        if not cuts:
            raise ValueError("at least one cut time is required")
        if cuts[0] < 0 or cuts[-1] > k_total:
            raise ValueError(f"cut times must lie in 0..{k_total}")
    base = 0
    for c in cuts:
        base |= _chain_slice(r, c, halves)[1]
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
    return base, bound, rounds, cuts


def power_set_from_slice(g: Graph, m: int, cap: int | None = None) -> PowerConstruction:
    """Build a size-m power dominating set: the slice at ceil(K/2) of an
    m-efficient standard schedule, guaranteeing power propagation time at
    most ceil(pt(G, m)/2); achieved time is counted in rounds."""
    r = _efficient_replay(g, m, solvers._Scan(g, Rule.STANDARD, cap))
    base, n_cut, rounds = _power_set(r)
    return PowerConstruction(set_of(base), n_cut, rounds, n_cut, r.chron.ct)


def _power_set(r: Replay, halves=None) -> tuple[int, int, int]:
    """:func:`power_set_from_slice` on the replay ``r`` of an efficient
    schedule; ``halves``, if given, is the :func:`_split` at its cut.
    Returns the set's mask, its cut time (the bound) and its rounds; the
    neighborhood and the boundary sets it must dominate are masks too."""
    g, k_total = r.graph, r.chron.ct
    if k_total == 0:
        return (1 << g.n) - 1, 0, 0
    n_cut = (k_total + 1) // 2
    before, base, after = _chain_slice(r, n_cut, halves)
    if (r.finals(before) | r.initials(after)) & ~_closed_hood(g, base):
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
    return base, n_cut, rounds


def _chain_slice(r: Replay, cut: int, halves=None) -> tuple[int, int, int]:
    """The :func:`_split` of ``r`` at ``cut`` (``halves``, if given), whose
    slice must hold one vertex of each chain: one per base vertex of ``r``."""
    halves = halves or _split(r.spans, cut)
    if halves[1].bit_count() != len(r.chron.base):
        raise InvariantViolation(
            f"slice at {cut} has {halves[1].bit_count()} vertices, expected one per chain"
        )
    return halves


def _closed_hood(g: Graph, mask: int) -> int:
    """The closed neighborhood of the vertex mask ``mask``."""
    return mask | union_of(g.adjacency_masks(), mask)
