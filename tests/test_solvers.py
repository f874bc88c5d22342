import csv
import io
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb
from random import Random

import pytest

from forcelab import forcing, sliced, slices
from forcelab.errors import CapExceeded, InfeasibleError
from forcelab.forcing import Rule, propagate
from forcelab.graphs import (
    Graph,
    complete_graph,
    components,
    cycle_graph,
    empty_graph,
    graph6_encode,
    grid_graph,
    path_graph,
    petersen_graph,
    set_of,
    star_graph,
)
from forcelab.sliced import finished_by_round
from forcelab.solvers import (
    BOUNDS_HEADER,
    DEFAULT_CAP,
    SLICED_MIN_N,
    _Scan,
    atlas_stream,
    bounds_rows_for_graph,
    forcing_number,
    propagation_time_m,
    solve_parameter,
    sweep_bounds,
    throttling,
)
import naive
from randgen import random_graph


GRID_TABLE_HEADER = ("s", "t", "Z", "Zplus", "pt", "ptplus", "status")


def grid_table_rows(max_s: int = 7, ts=(1, 2, 3)):
    """Exact grid-family values against their closed forms.

    For grids (Cartesian products of two paths) with the short side at
    most 3, both forcing numbers equal min(s, t), the propagation time is
    max(s, t) - 1, and the PSD propagation time is ceil((max(s, t) - 1) / 2).
    Each row reports the solved values and whether all four match.
    """
    for s in range(2, max_s + 1):
        for t in ts:
            g = grid_graph(s, t)
            cap = max(g.n, DEFAULT_CAP)
            lo, hi = min(s, t), max(s, t)
            z = forcing_number(g, Rule.STANDARD, cap=cap).value
            z_plus = forcing_number(g, Rule.PSD, cap=cap).value
            pt = propagation_time_m(g, z, Rule.STANDARD, cap=cap).value
            pt_plus = propagation_time_m(g, z_plus, Rule.PSD, cap=cap).value
            ok = (
                z == lo
                and z_plus == lo
                and pt == hi - 1
                and pt_plus == (hi - 1 + 1) // 2
            )
            yield (
                str(s),
                str(t),
                str(z),
                str(z_plus),
                str(pt),
                str(pt_plus),
                "pass" if ok else "fail",
            )


class TestForcingNumbers:
    def test_paths(self):
        for n in (1, 3, 7):
            assert forcing_number(path_graph(n), Rule.STANDARD).value == 1
            assert forcing_number(path_graph(n), Rule.PSD).value == 1

    def test_complete(self):
        assert forcing_number(complete_graph(5), Rule.STANDARD).value == 4

    def test_cycle(self):
        assert forcing_number(cycle_graph(6), Rule.STANDARD).value == 2

    def test_petersen(self):
        assert forcing_number(petersen_graph(), Rule.STANDARD).value == 5

    def test_star_psd_vs_standard(self):
        g = star_graph(4)
        assert forcing_number(g, Rule.STANDARD).value == 3
        assert forcing_number(g, Rule.PSD).value == 1

    def test_power_domination_star(self):
        assert forcing_number(star_graph(4), Rule.POWER_DOMINATION).value == 1

    def test_empty_graph(self):
        from forcelab.graphs import Graph

        rep = forcing_number(Graph(0), Rule.STANDARD)
        assert rep.value == 0 and rep.witnesses == (frozenset(),)

    def test_witnesses_all_replay(self):
        g = cycle_graph(5)
        rep = forcing_number(g, Rule.STANDARD)
        assert rep.exhausted
        for witness in rep.witnesses:
            assert len(witness) == rep.value
            assert propagate(Rule.STANDARD, g, witness).ok

    def test_psd_never_exceeds_standard(self):
        rng = Random(101)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8), 0.35)
            z = forcing_number(g, Rule.STANDARD).value
            zp = forcing_number(g, Rule.PSD).value
            pd = forcing_number(g, Rule.POWER_DOMINATION).value
            assert zp <= z
            assert pd <= z

    def test_cap_refusal_and_env_override(self, monkeypatch):
        g = path_graph(18)
        with pytest.raises(CapExceeded):
            forcing_number(g, Rule.STANDARD)
        assert forcing_number(g, Rule.STANDARD, cap=18).value == 1
        monkeypatch.setenv("FORCELAB_CAP", "18")
        assert forcing_number(g, Rule.STANDARD).value == 1


class TestPropagationTimes:
    def test_path_single_source(self):
        for n in (2, 5, 9):
            assert propagation_time_m(path_graph(n), 1, Rule.STANDARD).value == n - 1

    def test_grids_match_closed_forms(self):
        for s in range(2, 6):
            for t in (1, 2, 3):
                g = grid_graph(s, t)
                mn, mx = min(s, t), max(s, t)
                assert forcing_number(g, Rule.STANDARD, cap=21).value == mn
                assert forcing_number(g, Rule.PSD, cap=21).value == mn
                assert propagation_time_m(g, mn, Rule.STANDARD, cap=21).value == mx - 1
                assert (
                    propagation_time_m(g, mn, Rule.PSD, cap=21).value == (mx - 1 + 1) // 2
                )

    def test_full_set_times_zero(self):
        assert propagation_time_m(path_graph(4), 4, Rule.STANDARD).value == 0

    def test_infeasible_size(self):
        with pytest.raises(InfeasibleError):
            propagation_time_m(complete_graph(4), 1, Rule.STANDARD)
        with pytest.raises(InfeasibleError):
            propagation_time_m(path_graph(3), 7, Rule.STANDARD)
        with pytest.raises(InfeasibleError, match=r"^m must be at least 0, got -1$"):
            propagation_time_m(path_graph(3), -1, Rule.STANDARD)

    def test_witnesses_are_lexicographic_and_efficient(self):
        g = path_graph(5)
        rep = propagation_time_m(g, 1, Rule.STANDARD)
        assert rep.witnesses == (frozenset({0}), frozenset({4}))

    def test_monotone_in_m_empirically(self):
        rng = Random(103)
        for _ in range(20):
            g = random_graph(rng, rng.randint(2, 7), 0.4)
            z = forcing_number(g, Rule.STANDARD).value
            times = [
                propagation_time_m(g, m, Rule.STANDARD).value
                for m in range(z, g.n + 1)
            ]
            assert all(a >= b for a, b in zip(times, times[1:]))

    def test_power_propagation(self):
        assert propagation_time_m(path_graph(9), 1, Rule.POWER_DOMINATION).value == 4


class TestThrottling:
    def test_path_four(self):
        rep = throttling(path_graph(4), Rule.STANDARD)
        assert rep.value == 3
        assert frozenset({1, 2}) in rep.witnesses

    def test_triangle(self):
        assert throttling(complete_graph(3), Rule.STANDARD).value == 3

    @pytest.mark.parametrize("rule", [Rule.STANDARD, Rule.PSD])
    def test_whole_vertex_set_listed_last_when_it_ties(self, rule):
        # thr(K3) = 3: every pair takes one round, and V itself takes none.
        rep = throttling(complete_graph(3), rule)
        assert rep.value == 3
        assert rep.witnesses == ({0, 1}, {0, 2}, {1, 2}, {0, 1, 2})

    def test_witnesses_achieve_value(self):
        g = cycle_graph(6)
        rep = throttling(g, Rule.PSD)
        for witness in rep.witnesses:
            res = propagate(Rule.PSD, g, witness)
            assert res.ok and len(witness) + res.pt == rep.value

    def test_rule_restriction(self):
        with pytest.raises(ValueError):
            throttling(path_graph(3), Rule.POWER_DOMINATION)


class TestAtlasStream:
    def test_counts_by_size(self):
        per_n = {}
        for _, g in atlas_stream(max_n=7):
            per_n[g.n] = per_n.get(g.n, 0) + 1
        assert [per_n[i] for i in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]

    def test_connected_counts(self):
        per_n = {}
        for _, g in atlas_stream(max_n=7, connected_only=True):
            per_n[g.n] = per_n.get(g.n, 0) + 1
            assert len(components(g)) == 1
        assert [per_n[i] for i in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]

    def test_max_n_filter(self):
        assert sum(1 for _ in atlas_stream(max_n=5)) == 1 + 2 + 4 + 11 + 34

    def test_cap(self):
        with pytest.raises(CapExceeded):
            atlas_stream(max_n=8)
        for max_n in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                atlas_stream(max_n=max_n)


class TestSweeps:
    def test_empty_stream(self):
        assert list(sweep_bounds([])) == []

    def test_rows_for_path(self):
        rows = bounds_rows_for_graph("p4", path_graph(4))
        by_m = {r.m: r for r in rows}
        assert by_m["1"].pt == "3" and by_m["1"].bound == 2
        assert all(r.ok for r in rows)
        assert "thr+" in by_m and "pt+" in by_m

    def test_header_matches_fields(self):
        rows = bounds_rows_for_graph("p3", path_graph(3))
        assert len(rows[0].as_csv_fields()) == len(BOUNDS_HEADER)

    def test_small_stream_all_pass(self):
        rows = list(sweep_bounds(atlas_stream(max_n=4)))
        assert rows and all(r.ok for r in rows)

    def test_parallel_jobs_same_rows(self):
        stream = list(atlas_stream(max_n=4))
        serial = list(sweep_bounds(iter(stream)))
        parallel = list(sweep_bounds(iter(stream), jobs=2))
        assert serial == parallel

    def test_grid_table_rows_all_pass(self):
        rows = list(grid_table_rows(max_s=5))
        assert len(rows) == 12
        assert all(len(r) == len(GRID_TABLE_HEADER) for r in rows)
        assert all(r[-1] == "pass" for r in rows)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            bounds_rows_for_graph("p3", path_graph(3), checks=("nope",))

    @pytest.mark.parametrize(
        "jobs, cpus, workers", [(20000, 2, 2), (20000, 64, 3), (2, 64, 2), (2, None, 1)]
    )
    def test_pool_size_is_capped(self, monkeypatch, jobs, cpus, workers):
        # The fake pool maps in-process and starts no worker.
        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        stream = [("p2", path_graph(2)), ("p3", path_graph(3)), ("k3", complete_graph(3))]
        rows = list(sweep_bounds(iter(stream), jobs=jobs))
        assert sizes == [workers]
        assert rows == list(sweep_bounds(iter(stream)))

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected_at_the_call(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            sweep_bounds(atlas_stream(max_n=3), jobs=jobs)


class TestExhaustiveness:
    def test_no_smaller_forcing_set_exists(self):
        # independent of the bitmask engines: replay every subset below
        # the reported minimum with the step-by-step propagator
        from itertools import combinations

        for gid, g in atlas_stream(max_n=5):
            z = forcing_number(g, Rule.STANDARD).value
            for size in range(z):
                for combo in combinations(range(g.n), size):
                    assert not propagate(Rule.STANDARD, g, combo).ok, (gid, combo)


def brute_force_table(g, rule):
    """(set, rounds) for every subset in scan order, sizes ascending and
    combinations order within a size; rounds is None where the maximal
    process stalls. Rounds come from tests/naive.py."""
    table = []
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            steps = naive.maximal_steps(rule, g, combo)
            table.append((frozenset(combo), None if steps is None else len(steps)))
    return table


class TestScansAgreeWithBruteForce:
    """Values and witness tuples, in order, against a brute force over
    every subset that counts rounds with the naive rules. With
    SLICED_MIN_N above n the scans read a whole-lattice rounds table
    (``dense``); with it at 0 they run bit-sliced."""

    RULES = (Rule.STANDARD, Rule.PSD, Rule.POWER_DOMINATION)

    @pytest.mark.parametrize("constant", [99, 0], ids=["dense", "sliced"])
    def test_random_graphs(self, monkeypatch, constant):
        monkeypatch.setattr("forcelab.solvers.SLICED_MIN_N", constant)
        rng = Random(211)
        for n in [n for n in range(1, 10) for _ in range(5)]:
            g = random_graph(rng, n, rng.uniform(0.15, 0.6))
            for rule in self.RULES:
                self.check(g, rule, brute_force_table(g, rule))

    @pytest.mark.parametrize(
        "g",
        [Graph(0), Graph(1), Graph(4, [(0, 1)]), empty_graph(3)],
        ids=["K0", "K1", "P2+2K1", "E3"],
    )
    def test_edge_cases_sliced(self, monkeypatch, g):
        # C(n, 0) = 1 candidate, k = n, and V tying at thr = n.
        monkeypatch.setattr("forcelab.solvers.SLICED_MIN_N", 0)
        for rule in self.RULES:
            self.check(g, rule, brute_force_table(g, rule))

    def test_random_graphs_at_the_sliced_sizes(self):
        assert SLICED_MIN_N <= 10, "these graphs must take the sliced scan"
        rng = Random(223)
        for n in (10, 10, 11):
            g = random_graph(rng, n, rng.uniform(0.2, 0.5))
            for rule in self.RULES:
                self.check(g, rule, brute_force_table(g, rule))

    def test_sliced_rounds_of_every_candidate(self):
        # Every candidate's rounds, not only the optimal ones, in index order.
        rng = Random(229)
        for n in [n for n in range(1, 10) for _ in range(2)]:
            g = random_graph(rng, n, rng.uniform(0.15, 0.6))
            for rule in self.RULES:
                got = []
                for k, (blue, count) in enumerate(sliced.subset_vectors(n, 0)):
                    rounds = [None] * comb(n, k)
                    for r, finished in enumerate(finished_by_round(rule, g.adj, blue, count)):
                        for i in finished:
                            rounds[i] = r
                    got += rounds
                assert got == [r for _, r in brute_force_table(g, rule)]

    def test_scans_sharing_rounds_match_the_per_mask_path(self, monkeypatch):
        # One call's sliced scans share every size a scan ran to the end:
        # throttling cuts sizes short that Z then needs whole.
        rng = Random(227)
        for n in [n for n in range(4, 10) for _ in range(3)]:
            g = random_graph(rng, n, rng.uniform(0.2, 0.6))
            results = []
            for constant in (n + 1, 0):
                monkeypatch.setattr("forcelab.solvers.SLICED_MIN_N", constant)
                got = [bounds_rows_for_graph("g", g)]
                got += [solve_parameter(g, p) for p in ("pt", "ptplus", "ppt")]
                for rule in (Rule.STANDARD, Rule.PSD):
                    scan = _Scan(g, rule, None)
                    found = [scan.throttling(), scan.forcing()]
                    found += [scan.time(m) for m in range(found[1][0], n + 1)]
                    got += [(value, scan.sets(f)) for value, f in found]
                results.append(got)
            assert results[0] == results[1]

    @staticmethod
    def check(g, rule, table):
        forcing = [(s, r) for s, r in table if r is not None]
        z = min(len(s) for s, _ in forcing)
        report = forcing_number(g, rule)
        assert report.value == z
        assert report.witnesses == tuple(s for s, _ in forcing if len(s) == z)
        for m in range(g.n + 1):
            sized = [(s, r) for s, r in forcing if len(s) == m]
            if not sized:
                with pytest.raises(InfeasibleError):
                    propagation_time_m(g, m, rule)
                continue
            pt = min(r for _, r in sized)
            report = propagation_time_m(g, m, rule)
            assert report.value == pt
            assert report.witnesses == tuple(s for s, r in sized if r == pt)
        if rule is Rule.POWER_DOMINATION:
            return
        thr = min(len(s) + r for s, r in forcing)
        tied = [s for s, r in forcing if len(s) + r == thr]
        report = throttling(g, rule)
        assert report.value == thr
        assert report.witnesses == tuple(tied)


def disjoint_union(rng, *parts):
    """The parts side by side, vertices shuffled so that components
    interleave and a component's least vertex is seldom its first."""
    labels = list(range(sum(p.n for p in parts)))
    rng.shuffle(labels)
    edges, base = [], 0
    for p in parts:
        edges += [(labels[base + u], labels[base + v]) for u, v in p.edges()]
        base += p.n
    return Graph(len(labels), edges)


def random_tree(rng, n):
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def white_component_graphs():
    """Graphs with n <= 10 whose candidates leave many white components:
    disjoint unions of paths, stars, cycles and sparse connected graphs,
    forests, isolated vertices."""
    rng = Random(233)
    yield disjoint_union(rng, path_graph(3), path_graph(4), path_graph(3))
    yield disjoint_union(rng, star_graph(3), star_graph(2), Graph(1), path_graph(2))
    yield disjoint_union(rng, cycle_graph(4), cycle_graph(3), path_graph(3))
    yield disjoint_union(rng, cycle_graph(5), star_graph(4))
    yield disjoint_union(rng, path_graph(10))
    yield empty_graph(6)
    # Cycles with branches, where one blue vertex can touch a white
    # component once and another one twice.
    yield disjoint_union(rng, Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]), star_graph(3))
    for n in (7, 8):
        yield disjoint_union(rng, random_graph(rng, n, 0.3, connected=True), path_graph(10 - n))
    for n in (6, 8, 9, 10, 10):
        parts, left = [], n
        while left:
            size = rng.randint(1, left)
            parts.append(random_tree(rng, size))
            left -= size
        yield disjoint_union(rng, *parts)


class TestSlicedPsdRound:
    """``sliced._psd_round`` round by round: each candidate's new blue
    set against the naive PSD step of its old one."""

    @staticmethod
    def sets_of(vecs, width):
        return [frozenset(v for v, x in enumerate(vecs) if x >> i & 1) for i in range(width)]

    def test_rounds_match_the_naive_step(self):
        for g in white_component_graphs():
            n = g.n
            for k, (blue, count) in enumerate(sliced.subset_vectors(n, 0)):
                index, every = range(count), (1 << count) - 1
                before = self.sets_of(blue, count)
                assert before == [frozenset(c) for c in combinations(range(n), k)]
                while True:
                    new = sliced._psd_round(g.adj, blue, every)
                    after = self.sets_of(new, len(index))
                    for b, a in zip(before, after):
                        step = {f.dst for f in naive.forces("psd", g, b)}
                        assert a == b | step, (g.adj, sorted(b))
                    live = 0
                    for i, (b, a) in enumerate(zip(before, after)):
                        if a != b and len(a) < n:
                            live |= 1 << i
                    if not live:
                        break
                    # Go on with the candidates still changing only, as a scan
                    # does after _compact, so ``every`` is narrower than C(n, k).
                    blue, index, every = sliced._compact(new, live, index)
                    before = self.sets_of(blue, len(index))
                    assert before == [a for i, a in enumerate(after) if live >> i & 1]

    def test_each_white_component_is_flooded_once(self):
        # One candidate: a white path 0..7 with a blue pendant at each vertex.
        # Flooding the path once, finding the forcers and forcing needs at
        # most four reads per neighbor list; a flood from each of the eight
        # path vertices reads them eight times as often.
        class Counted(tuple):
            reads = 0

            def __getitem__(self, v):
                Counted.reads += 1
                return tuple.__getitem__(self, v)

        g = Graph(16, [(i, i + 1) for i in range(7)] + [(i, i + 8) for i in range(8)])
        blue = [0] * 8 + [1] * 8
        assert sliced._psd_round(Counted(g.adj), blue, 1) == [1] * 16
        assert Counted.reads <= 4 * g.n

    def test_one_flood_per_component_whatever_the_least_white_vertex(self):
        # In K10 the white vertices of every candidate of size k <= 8 form
        # one component, whose least vertex is any of 0..k. A pass seeds
        # every candidate at once, and reads each neighbor list at most five
        # times (seed, front, forcer search twice, forcing); a flood per
        # least white vertex reads them k + 1 times as often.
        g = complete_graph(10)
        for k, (blue, count) in enumerate(sliced.subset_vectors(g.n, 0)):
            if k > g.n - 2:
                break
            most = max(len(components(g, c)) for c in combinations(range(g.n), k))
            assert most == 1
            nbrs = CountedReads(g.adj)
            # every blue vertex sees two or more white ones: nothing is forced
            assert sliced._psd_round(nbrs, blue, (1 << count) - 1) == blue
            assert nbrs.reads <= 5 * g.n * most, k

    def test_a_vertex_isolated_in_the_graph_stays_white(self):
        # candidates {0}, {1}, {2}: 0 and 1 force each other, 2 has no forcer
        g = Graph(3, [(0, 1)])
        blue, count = next(sliced.subset_vectors(g.n, 1))
        new = sliced._psd_round(g.adj, blue, (1 << count) - 1)
        assert self.sets_of(new, count) == [{0, 1}, {0, 1}, {2}]

    def test_a_blue_centre_forces_every_leaf_without_a_flood(self):
        # Each leaf is a white component of its own, forced by the centre
        # before any flood starts: at most one read per vertex.
        g = star_graph(6)
        nbrs = CountedReads(g.adj)
        assert sliced._psd_round(nbrs, [1] + [0] * 6, 1) == [1] * 7
        assert nbrs.reads <= g.n


class CountedReads(tuple):
    """Neighbor lists that count the lists read by index."""

    def __new__(cls, lists):
        self = super().__new__(cls, lists)
        self.reads = 0
        return self

    def __getitem__(self, v):
        self.reads += 1
        return tuple.__getitem__(self, v)


def bits_of(x: int, width: int) -> list[int]:
    return [i for i in range(width) if x >> i & 1]


class TestSlicedHelpers:
    """The bookkeeping of ``sliced`` against plain loops over bits and
    :func:`itertools.combinations`."""

    def test_subset_vectors_from_every_start(self):
        for n in range(13):
            oracle = {}
            for j in range(n + 1):
                combos = list(combinations(range(n), j))
                marks = [sum(1 << i for i, c in enumerate(combos) if v in c) for v in range(n)]
                oracle[j] = marks, len(combos)
            for k in range(n + 1):
                sizes = list(sliced.subset_vectors(n, k))
                assert len(sizes) == n + 1 - k, (n, k)
                for j, got in enumerate(sizes, k):
                    assert got == oracle[j], (n, k, j)
                    assert got == next(sliced.subset_vectors(n, j)), (n, k, j)

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.05, 0.1, 0.12, 0.3, 1.0])
    def test_indices_on_both_sides_of_the_switch(self, density):
        rng = Random(241)
        for width in (1, 9, 64, 1000, 5000):
            bits = sum(1 << i for i in range(width) if rng.random() < density)
            positions = bits_of(bits, width)
            assert sliced._indices(bits, range(width)) == positions
            index = sorted(rng.sample(range(10 * width), width))
            assert sliced._indices(bits, index) == [index[i] for i in positions]

    def test_indices_take_both_paths(self):
        # one set bit in nine is where the flags take over from the search
        for bits in (0, 1 << 8, 1 << 9, (1 << 17) | 1, (1 << 18) | 1):
            assert sliced._indices(bits, range(20)) == bits_of(bits, 20)

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 13, 14, 15, 20])
    def test_compact_gathers_the_live_bits(self, n):
        rng = Random(251 + n)
        for count in (1, 7, 100, 3000):
            blue = [rng.getrandbits(count) for _ in range(n)]
            index = sorted(rng.sample(range(5 * count), count))
            for density in (0.0, 0.02, 0.25, 1.0):
                live = sum(1 << i for i in range(count) if rng.random() < density)
                positions = bits_of(live, count)
                kept = [sum((x >> i & 1) << j for j, i in enumerate(positions)) for x in blue]
                got = sliced._compact(blue, live, index)
                assert got == (kept, [index[i] for i in positions], (1 << len(positions)) - 1)

    def test_subsets_on_both_paths_follow_combinations_order(self):
        rng = Random(257)
        for n, k in [(0, 0), (5, 0), (5, 5), (7, 3), (12, 6), (14, 4), (18, 2)]:
            combos = [frozenset(c) for c in combinations(range(n), k)]
            count = len(combos)
            # 1 (walked), under and over one in 128 of the size, and all
            for picked in {1, 2, max(1, count // 128 - 1), count // 128 + 1, count}:
                indices = sorted(rng.sample(range(count), min(picked, count)))
                assert sliced.subsets(indices, n, k) == [combos[i] for i in indices]


class TestOneRoundsMemoPerRulePerCall:
    """The scans of one public call share one rounds table per rule, built
    at most once, and take no per-mask step: below SLICED_MIN_N they read
    the table, from it on they run sliced. Per-mask steps are recorded
    through PROCESSES; calls that pass a ``forces`` list come from propagate
    and replay, not from the scans, and are not counted. The only steps
    left are the slice checks' walks (``slices._rounds``). The bounds sweep
    reads its scans directly and unranks one witness set per m row, the
    efficient set it replays."""

    @staticmethod
    def record_scan_steps(monkeypatch) -> Counter:
        seen = Counter()

        def recorder(step):
            def recorded(adj, blue, forces=None, *rest):
                if forces is None:
                    seen[step, blue] += 1
                return step(adj, blue, forces, *rest)

            return recorded

        wrapped = {}  # one wrapper per function, so `first is step` still holds
        for rule, process in list(forcing.PROCESSES.items()):
            steps = tuple(wrapped.setdefault(f, recorder(f)) for f in process)
            monkeypatch.setitem(forcing.PROCESSES, rule, steps)
        return seen

    @staticmethod
    def record_table_builds(monkeypatch) -> Counter:
        builds = Counter()
        build = sliced.rounds_table

        def recorded(rule, nbrs, n):
            builds[rule] += 1
            return build(rule, nbrs, n)

        monkeypatch.setattr(sliced, "rounds_table", recorded)
        return builds

    @staticmethod
    def record_vector_builds(monkeypatch) -> list:
        """One ``[n, first size, sizes yielded]`` per generator started."""
        builds = []
        start = sliced.subset_vectors

        def recorded(n, k):
            builds.append(record := [n, k, 0])
            for vectors in start(n, k):
                record[2] += 1
                yield vectors

        monkeypatch.setattr(sliced, "subset_vectors", recorded)
        return builds

    def test_one_vector_build_per_sliced_call(self, monkeypatch):
        # Each sliced scan builds its first size once and derives each later
        # size from the last: Z reads sizes 0..Z, pt(G, m) size m only, and
        # pt at m = Z reads Z's rounds from the forcing scan.
        builds = self.record_vector_builds(monkeypatch)
        rng = Random(263)
        for g in (grid_graph(3, 4), random_graph(rng, 11, 0.3, connected=True)):
            for rule, pt in ((Rule.STANDARD, "pt"), (Rule.PSD, "ptplus"), (Rule.POWER_DOMINATION, "ppt")):
                z = forcing_number(g, rule).value
                assert builds == [[g.n, 0, z + 1]]
                builds.clear()
                for m in range(z, g.n + 1):
                    propagation_time_m(g, m, rule)
                    assert builds == [[g.n, m, 1]]
                    builds.clear()
                solve_parameter(g, pt)
                assert builds == [[g.n, 0, z + 1]]
                builds.clear()
                if rule is not Rule.POWER_DOMINATION:
                    # sizes 0..thr - 1, as size thr costs at least thr + 1;
                    # V costs n, so the scan reads it too when thr = n
                    thr = throttling(g, rule).value
                    assert builds == [[g.n, 0, thr if thr < g.n else g.n + 1]]
                    builds.clear()
                # a scan that skips sizes derives them on the way, asks for
                # the last size again without a build, and starts the
                # generator again for a smaller size
                scan = _Scan(g, rule, None)
                sizes = (z, z + 2, z + 2, z + 1)
                got = [scan.time(m) for m in sizes]
                assert builds == [[g.n, z, 3], [g.n, z + 1, 1]]
                builds.clear()
                for m, (value, found) in zip(sizes, got):
                    report = propagation_time_m(g, m, rule)
                    assert (value, tuple(scan.sets(found))) == (report.value, report.witnesses)
                builds.clear()

    def test_bounds_sweep_starts_each_vector_generator_once(self, monkeypatch):
        # The PSD scan takes Z+ before thr+, so throttling reads sizes
        # 0..Z+ as Z+ ran them and derives the next size: no generator
        # starts again.
        builds = self.record_vector_builds(monkeypatch)
        bounds_rows_for_graph("g", grid_graph(3, 4))
        assert [(n, k) for n, k, _ in builds] == [(12, 0), (12, 0)]

    def test_bounds_rows_for_graph(self, monkeypatch):
        seen = self.record_scan_steps(monkeypatch)
        builds = self.record_table_builds(monkeypatch)
        witness_sets = Counter()
        subsets = sliced.subsets

        def counted(indices, n, k):
            out = subsets(indices, n, k)
            witness_sets["built"] += len(out)
            return out

        monkeypatch.setattr(sliced, "subsets", counted)
        walked = Counter()
        walk = slices._rounds

        def counted_walk(*args):
            before = sum(seen.values())
            rounds = walk(*args)
            walked["walks"] += 1
            walked["steps"] += sum(seen.values()) - before
            return rounds

        monkeypatch.setattr(slices, "_rounds", counted_walk)
        for graph_id, g in atlas_stream(max_n=6):
            seen.clear()
            builds.clear()
            witness_sets.clear()
            walked.clear()
            rows = bounds_rows_for_graph(graph_id, g)
            m_rows = [row for row in rows if row.m.isdigit()]
            # one PSD slice check per m row, and one power slice check per
            # m row with pt > 0; m = n checks no power set
            checked = sum(1 for row in m_rows if row.pt != "0")
            assert walked["walks"] == len(m_rows) + checked, graph_id
            # every per-mask step is a slice check's, none a scan's, and a
            # check of a set short of V takes at least one
            assert sum(seen.values()) == walked["steps"] >= 2 * checked, graph_id
            assert builds == {Rule.STANDARD: 1, Rule.PSD: 1}, graph_id
            # the one witness set read per m row: the efficient set replayed
            assert witness_sets["built"] == len(m_rows), graph_id

    def test_solve_parameter_pt(self, monkeypatch):
        # The 3x4 grid (n = 12) reads tables only with the constant above 12.
        monkeypatch.setattr("forcelab.solvers.SLICED_MIN_N", 13)
        seen = self.record_scan_steps(monkeypatch)
        builds = self.record_table_builds(monkeypatch)
        g = grid_graph(3, 4)
        for param, value, rule in (
            ("pt", 3, Rule.STANDARD),
            ("ptplus", 2, Rule.PSD),
            ("ppt", 4, Rule.POWER_DOMINATION),
            ("thrplus", 5, Rule.PSD),
        ):
            builds.clear()
            assert solve_parameter(g, param).value == value
            assert builds == {rule: 1}, param
        assert not seen

    def test_no_per_mask_step_from_the_sliced_size_on(self, monkeypatch):
        seen = self.record_scan_steps(monkeypatch)
        builds = self.record_table_builds(monkeypatch)
        for g in (path_graph(SLICED_MIN_N), grid_graph(3, 4)):
            for param in ("z", "pt", "thr", "zplus", "ptplus", "thrplus", "pd", "ppt"):
                solve_parameter(g, param)
            bounds_rows_for_graph("g", g, checks=("thrplus", "zeq"))
        assert not seen and not builds


def test_rounds_tables_match_the_per_mask_engine():
    """Every entry of every rule's rounds table equals the rounds that
    ``slices._rounds`` walks with the per-mask steps of
    ``forcing.PROCESSES``, plus 2 (1 for a stall), for every atlas graph
    (n <= 7) and for 200 random graphs on 8 and 9 vertices, whose
    successors span two byte planes at n = 9."""
    rng = Random(233)
    graphs = [g for _, g in atlas_stream(max_n=7)]
    graphs += [random_graph(rng, n, rng.uniform(0.1, 0.6)) for n in (8, 9) for _ in range(100)]
    for g in graphs:
        bases = [set_of(mask) for mask in range(1 << g.n)]
        for rule in (Rule.STANDARD, Rule.PSD, Rule.POWER_DOMINATION):
            table = sliced.rounds_table(rule, g.adj, g.n)
            expected = [slices._rounds(rule, g, base) + 2 for base in bases]
            assert list(table) == expected, (graph6_encode(g), rule)


def test_sliced_scan_stays_small_on_26_vertices():
    """A rounds table on 26 vertices would take 64 MB; the sliced scan
    of P26 steps 1 + 26 candidate sets."""
    tracemalloc.start()
    try:
        report = forcing_number(path_graph(26), Rule.STANDARD, cap=26)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.value == 1 and report.witnesses == ({0}, {25})
    assert peak < 1 << 20


def test_sliced_psd_scan_stays_small_on_20_vertices():
    """Every PSD round of all C(20, 5) = 15,504 candidates of the 4x5 grid
    peaks near 0.3 MB, with vectors of 2 KB; the bound is about twice that.
    White connectivity kept as n^2 vectors would take 0.76 MB on its own."""
    g = grid_graph(4, 5)
    tracemalloc.start()
    try:
        vectors = sliced.subset_vectors(g.n, 5)  # held through the rounds, as a scan holds it
        rounds = sum(1 for _ in finished_by_round(Rule.PSD, g.adj, *next(vectors)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rounds == 11
    assert peak < 640 << 10


class TestSolveParameter:
    def test_dispatch(self):
        g = grid_graph(3, 2)
        assert solve_parameter(g, "z").value == 2
        assert solve_parameter(g, "zplus").value == 2
        assert solve_parameter(g, "pt").value == 2
        assert solve_parameter(g, "ptplus").value == 1
        assert solve_parameter(g, "thr").value >= 3

    def test_unknown(self):
        with pytest.raises(ValueError):
            solve_parameter(path_graph(3), "zz")

    @pytest.mark.parametrize("param", ["z", "zplus", "pd", "thr", "thrplus"])
    def test_m_refused_without_a_propagation_time(self, param):
        with pytest.raises(ValueError, match="takes no m"):
            solve_parameter(path_graph(3), param, m=1)
