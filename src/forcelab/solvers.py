"""Exhaustive computation of forcing parameters on small graphs.

Everything here enumerates candidate sets outright (sizes ascending,
combinations order within a size), refuses instances above a configurable
cap, and reports every optimal witness. No heuristics: a reported value
is the true minimum over all candidates.

Two engines run the candidates, both from :mod:`forcelab.sliced`. Below
``SLICED_MIN_N`` vertices a scan first builds the rounds table of its rule
over all 2^n bitmasks (:func:`forcelab.sliced.rounds_table`, one bit-sliced
round over the whole subset lattice) and then reads each candidate's rounds
from it; the scans of one public call share one table per rule (Z then
pt(G, Z) in ``solve_parameter``; Z, pt(G, m), thr+, Z+ and pt+ in
``bounds_rows_for_graph``). From ``SLICED_MIN_N`` vertices on,
:mod:`forcelab.sliced` steps all C(n, k) candidates of a size at once,
from the subset vectors it keeps for the process, one record per n, so
the calls at one n build each size once. Either way one result loop,
``_Scan.best``, reads a size's candidates by the round they finish in,
as ints with bit i for the i-th in combinations order, and the scans of
one call share those ints for every size that one of them ran to the
end; only a report unranks them. All of it dies when the public call
returns: nothing found about a graph is cached between calls, and the
kept vectors depend on n alone. The per-mask engine of
:mod:`forcelab.forcing` runs no scan; it replays schedules; its
step-by-step walk in ``slices._rounds``, the one way the slice checks
count their sets' rounds, is the tables' oracle in tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator

from . import sliced, slices
from .errors import CapExceeded, InfeasibleError
from .forcing import Rule
from .graphs import Graph, components, graph6_decode, graph6_encode

DEFAULT_CAP = 16
SWEEP_CAP = 14
# Scans on this many vertices or more take the per-size sliced engine, and
# smaller ones a whole-lattice rounds table. One-off z, zplus, pd and pt at
# m = Z, table vs sliced, in ms per query (best of 5 per graph, mean over
# 24 random connected graphs per n, CPython 3.11, 2-core VM):
#   n = 9:  0.18/0.21, 0.33/0.71, 0.21/0.09, 0.18/0.22 (sum 0.89/1.23)
#   n = 10: 0.36/0.34, 0.58/1.16, 0.40/0.10, 0.32/0.25 (sum 1.66/1.85)
#   n = 11: 0.61/0.35, 0.82/1.40, 0.78/0.12, 0.63/0.33 (sum 2.83/2.19)
# zplus is slower sliced at every n. pd and ppt at m = Z, whose scans stop
# at one or two vertices, are faster on a table up to n = 7 and slower from
# n = 8; mean of the two, as above but over 30 graphs and in process time:
#   n = 5..9: 0.040/0.050, 0.049/0.057, 0.066/0.070, 0.096/0.076, 0.180/0.098
SLICED_MIN_N = 10
_ENV_CAP = "FORCELAB_CAP"


def effective_cap(cap: int | None, default: int = DEFAULT_CAP) -> int:
    """``cap`` if given, else ``FORCELAB_CAP`` if set, else ``default``; a
    value that int() cannot read, or below 0, raises ValueError."""
    name = "cap"
    if cap is None:
        cap, name = os.environ.get(_ENV_CAP) or default, _ENV_CAP
    try:
        limit = int(cap)
    except (TypeError, ValueError):
        limit = -1
    if limit < 0:
        raise ValueError(f"{name} must be an integer of at least 0, got {cap!r}")
    return limit


# ---------------------------------------------------------------------------
# Parameter searches


@dataclass(frozen=True)
class ParameterReport:
    parameter: str
    value: int
    witnesses: tuple[frozenset[int], ...]
    exhausted: bool

    def to_json_dict(self) -> dict:
        return {
            "parameter": self.parameter,
            "value": self.value,
            "witnesses": [sorted(w) for w in self.witnesses],
            "exhausted": self.exhausted,
        }


# Rule -> names of its forcing number, propagation time and throttling
# number; power domination has no throttling number here.
_NAMES = {
    Rule.STANDARD: ("z", "pt", "thr"),
    Rule.PSD: ("zplus", "ptplus", "thrplus"),
    Rule.POWER_DOMINATION: ("pd", "ppt"),
}


class _Scan:
    """The subset scans of one public call on one graph under one rule.

    Below ``SLICED_MIN_N`` vertices the scan builds the rounds table of its
    rule once (:func:`forcelab.sliced.rounds_table`) and keeps it as
    ``table``; only ``_finished_by_round`` reads it. From ``SLICED_MIN_N``
    on, ``table`` is None and a scan takes one size k at a time through
    :mod:`forcelab.sliced`, which steps all C(n, k) candidate sets of the
    size at once, from ``vectors``, the record of its n that
    :func:`forcelab.sliced.kept_vectors` keeps for the process, so the
    scans of one n, in one call or many, build each size once. The scans
    share the rounds of every size that one of them ran to the end
    (``finished``), and all but the kept vectors dies with the object when
    the call returns. Construction refuses a graph above the cap before
    allocating.

    Witnesses come back as ``(size, bits)`` chunks, bit i set for the
    size's i-th subset in combinations order, so the bounds sweep reads
    values and first witnesses without building the sets a report holds;
    only ``sets`` (:func:`forcelab.sliced.subsets`) and ``first``
    (:func:`forcelab.sliced.first_subset`) unrank them."""

    def __init__(self, g: Graph, rule: Rule, cap: int | None):
        limit = effective_cap(cap)
        if g.n > limit:
            raise CapExceeded(
                f"graph has {g.n} vertices, above the exhaustive cap {limit}; "
                f"pass a larger cap or set {_ENV_CAP} to override"
            )
        self.n = g.n
        self.finished: dict[int, list[tuple[int, int]]] = {}
        if g.n >= SLICED_MIN_N:
            self.rule, self.nbrs, self.table = rule, g.adj, None
            self.vectors = sliced.kept_vectors(g.n)
        else:
            self.table = sliced.rounds_table(rule, g.adj, g.n)

    def forcing(self) -> tuple[int | None, list]:
        return self.best(range(self.n + 1), lambda size, _: size)

    def time(self, m: int) -> tuple[int, list]:
        if m < 0:
            raise InfeasibleError(f"m must be at least 0, got {m}")
        if m > self.n:
            raise InfeasibleError(f"no size-{m} subsets of {self.n} vertices")
        value, found = self.best((m,), lambda _, rounds: rounds)
        if value is None:
            raise InfeasibleError(f"no forcing set of size {m} exists")
        return value, found

    def throttling(self) -> tuple[int | None, list]:
        return self.best(range(self.n + 1), lambda size, rounds: size + rounds)

    def sets(self, found: list) -> list[frozenset[int]]:
        """The witnesses of ``best`` as vertex sets, in scan order."""
        return [w for size, bits in found for w in sliced.subsets(bits, self.n, size)]

    def first(self, found: list) -> frozenset[int]:
        """The first witness of ``best``, unranking no other."""
        size, bits = found[0]
        return sliced.first_subset(bits, self.n, size)

    def best(self, sizes: Iterable[int], cost) -> tuple[int | None, list]:
        """Scan the subsets of each size in turn, in combinations order
        within a size, for the least ``cost(size, rounds)`` over forcing
        sets; costs never fall as rounds grow. Returns that cost (None if no
        set forces) and every set achieving it, in scan order. Rounds are at
        least 1 below the full set, so the scan stops at the first size
        whose least possible cost exceeds the best found, and a size at the
        first round whose cost does."""
        best, witnesses = None, []
        for size in sizes:
            if best is not None and cost(size, 0 if size == self.n else 1) > best:
                break
            tied = 0
            for rounds, finished in self._finished_by_round(size):
                if finished:
                    value = cost(size, rounds)
                    if best is None or value < best:
                        best, tied, witnesses = value, finished, []
                    elif value == best:
                        tied |= finished
                if best is not None and cost(size, rounds + 1) > best:
                    break
            if tied:
                witnesses.append((size, tied))
        return best, witnesses

    def _finished_by_round(self, size: int) -> Iterator[tuple[int, int]]:
        """``(r, bits)`` for r ascending: the size's candidates that color
        every vertex in exactly r rounds, bit i for the i-th, kept once a
        scan has run the size to the end, from
        :func:`forcelab.sliced.table_finished_by_round` on a table, else
        :func:`forcelab.sliced.finished_by_round`."""
        known = self.finished.get(size)
        if known is not None:
            yield from known
            return
        if self.table is None:
            rounds = enumerate(sliced.finished_by_round(self.rule, self.nbrs, *self.vectors(size)))
        else:
            rounds = sliced.table_finished_by_round(self.table, self.n, size)
        known = []
        for pair in rounds:
            known.append(pair)
            yield pair
        self.finished[size] = known


def _report(name: str, scan: _Scan, value: int, found: list) -> ParameterReport:
    return ParameterReport(name, value, tuple(scan.sets(found)), True)


def forcing_number(g: Graph, rule: Rule, cap: int | None = None) -> ParameterReport:
    """Minimum size of a forcing set for the rule, with every witness of
    that size, by scanning subsets in ascending size."""
    rule = Rule(rule)
    if rule not in _NAMES:
        raise ValueError(f"no forcing number for rule {rule.value}")
    scan = _Scan(g, rule, cap)
    return _report(_NAMES[rule][0], scan, *scan.forcing())


def propagation_time_m(
    g: Graph, m: int, rule: Rule, cap: int | None = None
) -> ParameterReport:
    """Minimum propagation rounds over all size-m forcing sets, with every
    m-efficient witness (lexicographically least first)."""
    rule = Rule(rule)
    if rule not in _NAMES:
        raise ValueError(f"no propagation time for rule {rule.value}")
    scan = _Scan(g, rule, cap)
    return _report(_NAMES[rule][1], scan, *scan.time(m))


def throttling(g: Graph, rule: Rule, cap: int | None = None) -> ParameterReport:
    """Minimum of |B| + rounds(B) over all forcing sets B, with every set
    achieving it."""
    rule = Rule(rule)
    if rule not in (Rule.STANDARD, Rule.PSD):
        raise ValueError("throttling is computed for the standard and PSD rules")
    scan = _Scan(g, rule, cap)
    return _report(_NAMES[rule][2], scan, *scan.throttling())


# ---------------------------------------------------------------------------
# Graph streams


def atlas_stream(
    max_n: int = 7, connected_only: bool = False
) -> Iterator[tuple[str, Graph]]:
    """Stream (graph_id, graph) for every simple graph on 1..max_n vertices
    (1 <= max_n <= 7), from the packaged graph6 data; ids are the graph6
    strings. A larger max_n raises CapExceeded and a smaller one ValueError,
    at the call, before any graph."""
    if max_n > 7:
        raise CapExceeded("packaged graph stream covers n <= 7")
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    return _atlas_graphs(max_n, connected_only)


def _atlas_graphs(max_n: int, connected_only: bool) -> Iterator[tuple[str, Graph]]:
    text = (
        resources.files("forcelab").joinpath("data/graphs_n_le_7.g6").read_text()
    )
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        g = graph6_decode(line)
        if g.n > max_n:
            continue
        if connected_only and len(components(g)) != 1:
            continue
        yield line, g


def stream_from_file(path: str) -> list[tuple[str, Graph]]:
    """Every (graph_id, graph) of a file of graph6 lines. The whole file is
    decoded at the call, so a bad line fails before any graph is used."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.strip() for line in fh]
    return [(line, graph6_decode(line)) for line in lines if line]


# ---------------------------------------------------------------------------
# Sweeps


BOUNDS_HEADER = (
    "graph_id",
    "n",
    "m",
    "Z",
    "pt",
    "bound",
    "pt_plus_achieved",
    "ppt_achieved",
    "status",
)


@dataclass(frozen=True)
class BoundsRow:
    graph_id: str
    n: int
    m: str
    z: int
    pt: str
    bound: int
    pt_plus_achieved: str
    ppt_achieved: str
    ok: bool

    def as_csv_fields(self) -> tuple[str, ...]:
        return (
            self.graph_id,
            str(self.n),
            self.m,
            str(self.z),
            self.pt,
            str(self.bound),
            self.pt_plus_achieved,
            self.ppt_achieved,
            "pass" if self.ok else "fail",
        )


def bounds_rows_for_graph(
    graph_id: str, g: Graph, checks: Iterable[str] = ("bounds", "thrplus", "zeq")
) -> list[BoundsRow]:
    """Rows checking the constructive propagation-time bounds on one graph.

    ``bounds``: for every m from the forcing number up to n, the slice
    constructions must achieve PSD and power propagation times at most
    ceil(pt(G, m)/2). ``thrplus``: exact PSD throttling is at most
    min_m(m + ceil(pt(G, m)/2)). ``zeq``: when the standard and PSD
    forcing numbers agree, exact minimum PSD propagation time is at most
    ceil(pt(G)/2). The last two appear as tagged rows (m = 'thr+', 'pt+').

    One standard ``_Scan`` serves every row, and a PSD one the ``thrplus``
    and ``zeq`` rows, built only when one of them is asked for. Values are
    read off the scans, not the public reports, so the one witness set
    unranked is the efficient set each ``bounds`` row replays
    (``_Scan.first``). ``bounds`` and ``thrplus`` read pt(G, m) for every m
    from Z to n, ``zeq`` only pt(G, Z), so a call asking for neither of the
    first two scans m = Z alone. A ``bounds`` row is one ``slices._halving``
    call: one replay of the m-efficient schedule and one split at
    ceil(pt(G, m)/2), which both constructions share; each counts its set's
    rounds by walking its process one step at a time (``slices._rounds``),
    at every n. Slices, boundary sets, neighborhoods and built sets stay
    bitmasks throughout."""
    wanted = set(_known_checks(checks))
    cap = effective_cap(None, SWEEP_CAP)
    std = _Scan(g, Rule.STANDARD, cap)
    psd_scan = _Scan(g, Rule.PSD, cap) if wanted & {"thrplus", "zeq"} else None
    z = std.forcing()[0]

    def row(m, pt: int, bound: int, ok: bool, psd: str = "", power: str = "") -> BoundsRow:
        return BoundsRow(graph_id, g.n, str(m), z, str(pt), bound, psd, power, ok)

    rows: list[BoundsRow] = []
    pt_by_m: dict[int, int] = {}
    for m in range(z, g.n + 1 if wanted & {"bounds", "thrplus"} else z + 1):
        if "bounds" in wanted:
            pt_by_m[m], bound, psd, power = slices._halving(g, m, std)
            ok = psd <= bound and power <= bound
            rows.append(row(m, pt_by_m[m], bound, ok, str(psd), str(power)))
        else:
            pt_by_m[m] = std.time(m)[0]
    # Z+ first: it runs sizes 0..Z+ to the end, and throttling then reads
    # their rounds and scans Z+ + 1 onwards, where the other order cuts size
    # Z+ short and Z+ scans it again.
    z_plus = psd_scan.forcing()[0] if "zeq" in wanted else None
    if "thrplus" in wanted:
        rhs = min(m + (pt + 1) // 2 for m, pt in pt_by_m.items())
        thr_plus = psd_scan.throttling()[0]
        rows.append(row("thr+", thr_plus, rhs, thr_plus <= rhs))
    if z_plus == z:
        pt_plus = psd_scan.time(z)[0]
        bound = (pt_by_m[z] + 1) // 2
        rows.append(row("pt+", pt_plus, bound, pt_plus <= bound))
    return rows


def sweep_bounds(
    stream: Iterable[tuple[str, Graph]],
    checks: Iterable[str] = ("bounds", "thrplus", "zeq"),
    jobs: int = 1,
) -> Iterator[BoundsRow]:
    """Run the bound checks over a graph stream; with jobs > 1 the graphs
    are processed in a pool of at most ``min(jobs, graphs, CPUs)`` worker
    processes and rows come back in input order.
    Unknown check names and jobs < 1 raise ValueError, and a graph above
    the sweep cap raises CapExceeded, at the call, before any row."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    checks = _known_checks(checks)
    cap = effective_cap(None, SWEEP_CAP)
    items = []
    for graph_id, g in stream:
        if g.n > cap:
            raise CapExceeded(
                f"graph {graph_id} has {g.n} vertices, above the sweep cap {cap}; "
                f"set {_ENV_CAP} to override"
            )
        # a pool is sent graph6 text, so it keeps no decoded graph alive
        items.append((graph_id, g) if jobs == 1 else (graph_id, graph6_encode(g), checks))
    return _sweep(items, checks, jobs)


def _known_checks(checks: Iterable[str]) -> tuple[str, ...]:
    checks = tuple(checks)
    unknown = set(checks) - {"bounds", "thrplus", "zeq"}
    if unknown:
        raise ValueError(f"unknown sweep checks: {sorted(unknown)}")
    return checks


def _sweep(items: list, checks: tuple[str, ...], jobs: int) -> Iterator[BoundsRow]:
    if jobs == 1:
        for graph_id, g in items:
            yield from bounds_rows_for_graph(graph_id, g, checks)
        return
    import multiprocessing as mp

    # no more workers than graphs or CPUs: each would only sit idle
    workers = max(1, min(jobs, len(items), os.cpu_count() or 1))
    with mp.Pool(workers) as pool:
        for rows in pool.imap(_bounds_worker, items, chunksize=8):
            yield from rows


def _bounds_worker(item: tuple[str, str, tuple[str, ...]]) -> list[BoundsRow]:
    graph_id, g6, checks = item
    return bounds_rows_for_graph(graph_id, graph6_decode(g6), checks)


def solve_parameter(
    g: Graph, param: str, m: int | None = None, cap: int | None = None
) -> ParameterReport:
    """Dispatch a named parameter to the matching exhaustive search. Only
    the propagation times take ``m``; giving it to another parameter raises
    ValueError."""
    for rule, names in _NAMES.items():
        if param in names:
            break
    else:
        raise ValueError(f"unknown parameter {param!r}")
    if m is not None and param != names[1]:
        raise ValueError(f"parameter {param!r} takes no m")
    if param == names[0]:
        return forcing_number(g, rule, cap=cap)
    if param == names[1]:
        if m is not None:
            return propagation_time_m(g, m, rule, cap=cap)
        scan = _Scan(g, rule, cap)
        return _report(param, scan, *scan.time(scan.forcing()[0]))
    return throttling(g, rule, cap=cap)
