import csv
import io
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations
from math import comb
from random import Random

import pytest

from forcelab import forcing, sliced, slices, solvers
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

    @pytest.mark.slow
    def test_every_grid_up_to_24_vertices_passes(self, monkeypatch):
        # The halving bounds past the atlas: all 43 s x t grids with
        # 2 <= st <= 24, paths included, under a cap raised to 24.
        monkeypatch.setenv("FORCELAB_CAP", "24")
        grids = [(s, t) for s in range(1, 25) for t in range(s, 25) if 2 <= s * t <= 24]
        assert len(grids) == 43
        for s, t in grids:
            g = grid_graph(s, t)
            rows = bounds_rows_for_graph(f"grid_{s}x{t}", g)
            failed = [r for r in rows if not r.ok]
            assert rows and not failed, (graph6_encode(g), failed)

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
                for k, (blue, count) in enumerate(every_size(n)):
                    rounds = [None] * comb(n, k)
                    for r, finished in enumerate(finished_by_round(rule, g.adj, blue, count)):
                        for i in bits_of(finished, count):
                            rounds[i] = r
                    got += rounds
                assert got == [r for _, r in brute_force_table(g, rule)]

    def test_rounds_after_two_cuts(self, monkeypatch):
        # Every graph here has sizes whose PSD scan cuts its vectors twice,
        # so their later finishers are expanded back through both cuts.
        cuts = []
        compress = sliced._compress

        def counted(blue, live):
            cuts.append(live)
            return compress(blue, live)

        monkeypatch.setattr(sliced, "_compress", counted)
        rng = Random(263)
        for n in (12, 12, 13, 13):
            g = random_graph(rng, n, rng.uniform(0.15, 0.5))
            got, most = [], 0
            for k, (blue, count) in enumerate(every_size(n)):
                cuts.clear()
                rounds = [None] * comb(n, k)
                for r, finished in enumerate(finished_by_round(Rule.PSD, g.adj, blue, count)):
                    for i in bits_of(finished, count):
                        rounds[i] = r
                got += rounds
                most = max(most, len(cuts))
            assert most >= 2, graph6_encode(g)
            assert got == [r for _, r in brute_force_table(g, Rule.PSD)], graph6_encode(g)

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
            for k, (blue, count) in enumerate(every_size(n)):
                every = (1 << count) - 1
                before = self.sets_of(blue, count)
                assert before == [frozenset(c) for c in combinations(range(n), k)]
                while True:
                    new = sliced._psd_round(g.adj, blue, every)
                    after = self.sets_of(new, every.bit_length())
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
                    # does after a cut, so ``every`` is narrower than C(n, k).
                    blue = sliced._compress(new, live)[0]
                    every = (1 << live.bit_count()) - 1
                    before = self.sets_of(blue, every.bit_length())
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

    @pytest.mark.parametrize("length", [8, 16, 20, 40])
    @pytest.mark.parametrize("labels", ["reversed", "shuffled"])
    def test_each_white_component_is_flooded_once_whatever_the_labels(self, labels, length):
        # The pendant path above, its path vertices labelled in reverse or
        # at random. Sweeps that visit only the vertices with a newly
        # reached neighbor read each neighbor list a few times. Sweeps over
        # every unreached vertex take one sweep per run of rising labels
        # along the path: on these shuffles that stays under the bound up
        # to 20 path vertices and passes it at 40.
        rng = Random(277 + length)
        for _ in range(1 if labels == "reversed" else 10):
            path = list(range(length))
            if labels == "reversed":
                path.reverse()
            else:
                rng.shuffle(path)
            g = Graph(2 * length, list(zip(path, path[1:])) + [(v, v + length) for v in path])
            nbrs = CountedReads(g.adj)
            blue = [0] * length + [1] * length
            assert sliced._psd_round(nbrs, blue, 1) == [1] * g.n
            assert nbrs.reads <= 4 * g.n, path

    def test_one_flood_per_component_whatever_the_least_white_vertex(self):
        # In K10 the white vertices of every candidate of size k <= 8 form
        # one component, whose least vertex is any of 0..k. A pass seeds
        # every candidate at once, and reads each neighbor list at most five
        # times (seed, front, forcer search twice, forcing); a flood per
        # least white vertex reads them k + 1 times as often.
        g = complete_graph(10)
        for k, (blue, count) in enumerate(every_size(g.n)):
            if k > g.n - 2:
                break
            most = max(len(components(g, c)) for c in combinations(range(g.n), k))
            assert most == 1
            nbrs = CountedReads(g.adj)
            # every blue vertex sees two or more white ones: nothing is forced
            assert sliced._psd_round(nbrs, blue, (1 << count) - 1) == list(blue)
            assert nbrs.reads <= 5 * g.n * most, k

    def test_a_vertex_isolated_in_the_graph_stays_white(self):
        # candidates {0}, {1}, {2}: 0 and 1 force each other, 2 has no forcer
        g = Graph(3, [(0, 1)])
        blue, count = sliced.SubsetVectors(g.n)(1)
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


def every_size(n: int) -> list:
    """``(X, count)`` of each size of the subsets of range(n), ascending."""
    vectors = sliced.SubsetVectors(n)
    return [vectors(k) for k in range(n + 1)]


def band_levels(n: int, h: int, k: int) -> int:
    """The ``sliced._level`` calls that build size k of range(n) from the
    whole column of size h < k, or from nothing with h = -1: level s takes
    the sizes from max(h + 1, k - s) to min(k, n - s). The per-scan
    generator that ``SubsetVectors`` replaced built a first size this way
    with h = -1 and each later one as a whole column of n calls."""
    return sum(max(0, min(k, n - s) - max(h + 1, k - s) + 1) for s in range(n))


def count_levels(monkeypatch) -> Counter:
    """Counts the ``sliced._level`` calls from now on."""
    calls = Counter()
    level = sliced._level

    def counted(*args):
        calls["levels"] += 1
        return level(*args)

    monkeypatch.setattr(sliced, "_level", counted)
    return calls


class TestSlicedHelpers:
    """The bookkeeping of ``sliced`` against plain loops over bits and
    :func:`itertools.combinations`."""

    def test_subset_vectors_from_every_start(self):
        # Whatever size is asked first, it is built from size 0, held from
        # the start, and every size read after it, below or above, is its
        # combinations-order marks; every level of every column held is the
        # marks over its vertex suffix, the levels that later sizes read.
        # Each size built is held.
        for n in range(13):
            oracle = {}
            for s in range(n + 1):
                for j in range(n - s + 1):
                    combos = list(combinations(range(s, n), j))
                    marks = [sum(1 << i for i, c in enumerate(combos) if v in c) for v in range(s, n)]
                    oracle[j, s] = tuple(marks), len(combos)
            for k in range(n + 1):
                vectors = sliced.SubsetVectors(n)
                assert vectors(k) == oracle[k, 0], (n, k)
                assert sorted(vectors.columns) == sorted({0, k}), (n, k)
                for j in [*range(n, -1, -1), *range(n + 1)]:
                    assert vectors(k) == oracle[k, 0] and vectors(j) == oracle[j, 0], (n, k, j)
                held = sorted(vectors.columns)
                assert held == list(range(n + 1)), (n, k)
                for j in held:
                    column = vectors.columns[j]
                    assert column == [oracle[j, s] for s in range(n - j + 1)], (n, j)

    def test_a_size_is_built_from_the_largest_held_below(self, monkeypatch):
        # Size k is built from the whole column of the largest size held
        # below it, in exactly band_levels(n, h, k) calls: no more than the
        # generator it replaced took from nothing, nor column by column
        # from that size.
        calls = count_levels(monkeypatch)
        for n in range(3, 15):
            for held in ([], [1], [2, n - 1], list(range(0, n + 1, 3))):
                vectors = sliced.SubsetVectors(n)
                for j in held:
                    vectors(j)
                for k in range(n + 1):
                    if k in vectors.columns:
                        continue
                    h = max(j for j in vectors.columns if j < k)
                    calls.clear()
                    grown = sliced.SubsetVectors(n)
                    grown.columns = dict(vectors.columns)
                    grown(k)
                    assert calls["levels"] == band_levels(n, h, k), (n, held, k)
                    assert calls["levels"] <= min(band_levels(n, -1, k), n * (k - h)), (n, held, k)

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.05, 0.1, 0.12, 0.3, 1.0])
    def test_subsets_on_both_sides_of_the_switch(self, density):
        # sizes of 1, 9, 56, 1,001 and 5,005 subsets
        rng = Random(241)
        for n, k in ((4, 4), (9, 1), (8, 3), (14, 4), (15, 6)):
            combos = [frozenset(c) for c in combinations(range(n), k)]
            bits = sum(1 << i for i in range(len(combos)) if rng.random() < density)
            assert sliced.subsets(bits, n, k) == [combos[i] for i in bits_of(bits, len(combos))]

    def test_subsets_take_both_paths(self, monkeypatch):
        # one set bit in 32 of a block is where the flags take over from the
        # split: C(10, 5) = 252 subsets hold 8 * 32 = 256 >= 252 > 7 * 32
        picked = record_picked_blocks(monkeypatch)
        combos = [frozenset(c) for c in combinations(range(10), 5)]
        for count, whole in ((7, False), (8, True)):
            bits = sum(1 << i for i in range(0, 252, 31)[:count])
            picked.clear()
            assert sliced.subsets(bits, 10, 5) == [combos[i] for i in bits_of(bits, 252)]
            assert (picked == [(0, 5)]) is whole, picked

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 13, 14, 15, 20])
    def test_compress_gathers_the_live_bits(self, n):
        rng = Random(251 + n)
        for count in (1, 7, 100, 3000):
            blue = [rng.getrandbits(count) for _ in range(n)]
            for density in (0.0, 0.02, 0.25, 1.0):
                live = sum(1 << i for i in range(count) if rng.random() < density)
                positions = bits_of(live, count)
                kept = [sum((x >> i & 1) << j for j, i in enumerate(positions)) for x in blue]
                assert sliced._compress(blue, live)[0] == kept

    @pytest.mark.parametrize("n", [0, 1, 6, 7, 8, 13, 14, 15, 20])
    def test_expand_puts_the_bits_back(self, n):
        # x's low bits go to the set bits of ``live`` in order, and a
        # compress of what expand gives returns x.
        rng = Random(269 + n)
        for count in (1, 7, 100, 3000):
            for density in (0.0, 0.02, 0.25, 1.0):
                live = sum(1 << i for i in range(count) if rng.random() < density)
                positions = bits_of(live, count)
                blue = [rng.getrandbits(len(positions)) for _ in range(n)]
                spread = [sum((x >> j & 1) << i for j, i in enumerate(positions)) for x in blue]
                kept, stages = sliced._compress(spread, live)
                assert kept == blue
                assert [sliced._expand(x, [(live, stages)]) for x in blue] == spread

    def test_subsets_on_both_paths_follow_combinations_order(self, monkeypatch):
        # Each case reaches one branch of the walk; ``picked`` lists the
        # blocks (s, j) taken out of combinations(range(s, n), j).
        picked = record_picked_blocks(monkeypatch)
        head = comb(17, 8)  # the 9-subsets of range(18) holding 0 come first
        cases = [
            ("no bits", 18, 9, [], []),
            ("j = 0", 5, 0, [0], [(0, 0)]),
            ("one bit deep in a large size", 18, 9, [30000], [(12, 3)]),
            ("a full block", 12, 6, range(924), [(0, 6)]),
            ("a dense block", 7, 3, [2, 30], [(0, 3)]),
            ("a split with an empty head", 18, 9, [head + 5, 40000], [(9, 1), (12, 3)]),
            ("a split with an empty tail", 18, 9, [7, head - 1], [(8, 1), (9, 8)]),
        ]
        for name, n, k, indices, blocks in cases:
            combos = [frozenset(c) for c in combinations(range(n), k)]
            picked.clear()
            bits = sum(1 << i for i in indices)
            assert sliced.subsets(bits, n, k) == [combos[i] for i in indices], name
            assert picked == blocks, name
        rng = Random(257)
        for n, k in [(0, 0), (5, 0), (5, 5), (7, 3), (12, 6), (14, 4), (18, 2)]:
            combos = [frozenset(c) for c in combinations(range(n), k)]
            count = len(combos)
            # one, under and over one in 32 of the size, and all
            for chosen in {1, 2, max(1, count // 32 - 1), count // 32 + 1, count}:
                indices = sorted(rng.sample(range(count), min(chosen, count)))
                bits = sum(1 << i for i in indices)
                assert sliced.subsets(bits, n, k) == [combos[i] for i in indices]

    @pytest.mark.parametrize("n, k", [(9, 2), (12, 3), (16, 4), (20, 3)])
    def test_subsets_iterate_as_their_combinations_tuples(self, n, k):
        # Vertices 8 and up collide with lower ones in the 8-slot table of a
        # small frozenset, so its iteration order is its insertion order
        # there: each set must come from its ascending tuple.
        combos = list(combinations(range(n), k))
        assert any(list(frozenset(c)) != list(frozenset(c[::-1])) for c in combos)
        rng = Random(271 + n)
        for density in (0.001, 0.02, 0.2, 1.0):
            bits = sum(1 << i for i in range(len(combos)) if rng.random() < density)
            expected = [list(frozenset(combos[i])) for i in bits_of(bits, len(combos))]
            assert [list(w) for w in sliced.subsets(bits, n, k)] == expected


def record_picked_blocks(monkeypatch) -> list[tuple[int, int]]:
    """Record (s, j) for every combinations(range(s, n), j) that
    ``sliced`` makes from now on."""
    picked = []

    def recorded(pool, j):
        picked.append((pool.start, j))
        return combinations(pool, j)

    monkeypatch.setattr(sliced, "combinations", recorded)
    return picked


def test_first_witness_unranks_every_index():
    # _Scan.first against combinations() for every n <= 10, k and index,
    # with other bits above the lowest set, as a scan's ties have them.
    for n in range(11):
        scan = _Scan(Graph(n), Rule.STANDARD, None)
        for k in range(n + 1):
            for i, c in enumerate(combinations(range(n), k)):
                got = scan.first([(k, 1 << i | 5 << (i + 1)), (k + 1, 1)])
                assert got == frozenset(c) and list(got) == list(frozenset(c)), (n, k, i)


def test_per_n_constants_match_a_fresh_computation():
    # The lattice vectors and the k-subset masks a table scan reads are
    # kept per n (and k) for the process, as tuples.
    for n in range(SLICED_MIN_N):
        vectors = sliced._lattice_vectors(n)
        assert isinstance(vectors, tuple)
        assert vectors == tuple(
            sum(1 << b for b in range(1 << n) if b >> v & 1) for v in range(n)
        )
        for k in range(n + 1):
            masks = sliced._subset_masks(n, k)
            assert isinstance(masks, tuple)
            assert masks == tuple(sum(1 << v for v in c) for c in combinations(range(n), k))


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
    def record_vector_builds(monkeypatch) -> dict:
        """From no record kept on, ``asked`` lists each ``(n, size)`` a
        scan reads from its ``sliced.SubsetVectors``, ``built`` each one
        built, and ``levels`` counts the ``sliced._level`` calls."""
        seen = {"asked": [], "built": [], "levels": 0}
        call, band, level = sliced.SubsetVectors.__call__, sliced.SubsetVectors._band, sliced._level

        def asked(vectors, k):
            seen["asked"].append((vectors.n, k))
            return call(vectors, k)

        def built(vectors, columns, k):
            seen["built"].append((vectors.n, k))
            return band(vectors, columns, k)

        def counted(*args):
            seen["levels"] += 1
            return level(*args)

        sliced.kept_vectors.cache_clear()
        monkeypatch.setattr(sliced.SubsetVectors, "__call__", asked)
        monkeypatch.setattr(sliced.SubsetVectors, "_band", built)
        monkeypatch.setattr(sliced, "_level", counted)
        return seen

    def test_one_vector_build_per_size_across_calls(self, monkeypatch):
        # Z reads sizes 0..Z, pt(G, m) size m only, and pt at m = Z reads
        # Z's rounds from the forcing scan. Across every call on two graphs
        # of one n, under all three rules, each size above 0 (held from the
        # start) is built once, in ascending order, as one new column from
        # the size below, and read from the record after that.
        seen = self.record_vector_builds(monkeypatch)
        asked = seen["asked"]
        rng = Random(263)
        n = 12
        for g in (grid_graph(3, 4), random_graph(rng, n, 0.3, connected=True)):
            for rule, pt in ((Rule.STANDARD, "pt"), (Rule.PSD, "ptplus"), (Rule.POWER_DOMINATION, "ppt")):
                z = forcing_number(g, rule).value
                assert asked == [(n, k) for k in range(z + 1)]
                asked.clear()
                for m in range(z, n + 1):
                    propagation_time_m(g, m, rule)
                    assert asked == [(n, m)]
                    asked.clear()
                solve_parameter(g, pt)
                assert asked == [(n, k) for k in range(z + 1)]
                asked.clear()
                if rule is not Rule.POWER_DOMINATION:
                    # sizes 0..thr - 1, as size thr costs at least thr + 1;
                    # V costs n, so the scan reads it too when thr = n
                    thr = throttling(g, rule).value
                    assert asked == [(n, k) for k in range(thr if thr < n else n + 1)]
                    asked.clear()
                # a scan that skips sizes reads only those it asks for, the
                # last one again, and one below it
                scan = _Scan(g, rule, None)
                sizes = (z, z + 2, z + 2, z + 1)
                got = [scan.time(m) for m in sizes]
                assert asked == [(n, m) for m in sizes]
                for m, (value, found) in zip(sizes, got):
                    report = propagation_time_m(g, m, rule)
                    assert (value, tuple(scan.sets(found))) == (report.value, report.witnesses)
                asked.clear()
        assert seen["built"] == [(n, k) for k in range(1, n + 1)]
        assert seen["levels"] == sum(band_levels(n, k - 1, k) for k in range(1, n + 1))
        # A call at another n builds that n's sizes, and scans back at the
        # first n build nothing: its record still holds every size.
        seen["built"].clear()
        seen["levels"] = 0
        z = forcing_number(path_graph(11), Rule.STANDARD).value
        g = grid_graph(3, 4)
        for m in (5, 4, 7):
            _Scan(g, Rule.PSD, None).time(m)
        assert seen["built"] == [(11, k) for k in range(1, z + 1)]
        assert seen["levels"] == sum(band_levels(11, k - 1, k) for k in range(1, z + 1))
        # A one-off size at an n not yet scanned is built from size 0
        # alone, in no more levels than the replaced generator took; a size
        # below it then is too, and one above it is built from it.
        seen["built"].clear()
        seen["levels"] = 0
        g = path_graph(13)
        for m in (5, 4, 7):
            _Scan(g, Rule.PSD, None).time(m)
        assert seen["built"] == [(13, 5), (13, 4), (13, 7)]
        levels = [band_levels(13, 0, 5), band_levels(13, 0, 4), band_levels(13, 5, 7)]
        assert seen["levels"] == sum(levels) == 45 + 40 + 14
        assert levels[0] + levels[1] < band_levels(13, -1, 5) + band_levels(13, -1, 4)
        assert levels[2] < 2 * 13

    def test_bounds_sweep_builds_each_size_once(self, monkeypatch):
        # The standard scan builds sizes 1..n once each, Z first and then
        # one for each pt(G, m). The PSD scan builds none, and takes Z+
        # before thr+, so throttling reads sizes 0..Z+ as Z+ ran them and
        # goes on from the next size: it reads no size twice.
        seen = self.record_vector_builds(monkeypatch)
        g = grid_graph(3, 4)
        bounds_rows_for_graph("g", g)
        assert seen["built"] == [(g.n, k) for k in range(1, g.n + 1)]
        assert seen["levels"] == sum(band_levels(g.n, k - 1, k) for k in range(1, g.n + 1)) == 78
        asked = seen["asked"]
        assert asked[: g.n + 1] == [(g.n, k) for k in range(g.n + 1)]
        psd = asked[g.n + 1 :]
        assert psd == [(g.n, k) for k in range(len(psd))]
        assert len(psd) > forcing_number(g, Rule.PSD).value + 1

    def test_calls_alternating_n_build_each_size_once(self, monkeypatch):
        # One record per n: calls at n = 10, 11 and 12 in turn, under two
        # rules, build each (n, size) once, and a scan at another n
        # releases none of them.
        seen = self.record_vector_builds(monkeypatch)
        rng = Random(271)
        graphs = [random_graph(rng, n, 0.3, connected=True) for n in (10, 11, 12)]
        for rule in (Rule.STANDARD, Rule.PSD):
            for g in graphs:
                forcing_number(g, rule)
            for m in range(13):
                for g in graphs:
                    if m <= g.n:
                        run(propagation_time_m, g, m, rule)
        built = seen["built"]
        assert len(built) == len(set(built))
        assert sorted(built) == [(g.n, k) for g in graphs for k in range(1, g.n + 1)]
        for g in graphs:
            assert sorted(sliced.kept_vectors(g.n).columns) == list(range(g.n + 1))

    def test_bounds_rows_for_graph(self, monkeypatch):
        seen = self.record_scan_steps(monkeypatch)
        builds = self.record_table_builds(monkeypatch)
        witness_sets = Counter()
        subsets, first = sliced.subsets, solvers._Scan.first

        def counted(bits, n, k):
            out = subsets(bits, n, k)
            witness_sets["built"] += len(out)
            return out

        def counted_first(scan, found):
            witness_sets["first"] += 1
            return first(scan, found)

        monkeypatch.setattr(sliced, "subsets", counted)
        monkeypatch.setattr(solvers._Scan, "first", counted_first)
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
            # the one witness set read per m row, the efficient set
            # replayed, unranked alone: no report's sets are built
            assert witness_sets == {"first": len(m_rows)}, graph_id

    def test_bounds_sweep_builds_a_psd_table_only_for_psd_checks(self, monkeypatch):
        # Only thr+ and pt+ read the PSD scan: a bounds-only sweep builds no
        # PSD table, and each PSD check alone builds one, with the rows of
        # the default call. The standard scan is asked pt(G, m) for every m
        # from Z to n by bounds and thr+ rows, and for m = Z alone by pt+.
        graphs = list(atlas_stream(max_n=5))
        rows = {graph_id: bounds_rows_for_graph(graph_id, g) for graph_id, g in graphs}
        builds = self.record_table_builds(monkeypatch)
        rules, asked = {}, []
        init, time = solvers._Scan.__init__, solvers._Scan.time

        def recorded_init(scan, g, rule, cap):
            rules[scan] = rule
            init(scan, g, rule, cap)

        def recorded_time(scan, m):
            if rules[scan] is Rule.STANDARD:
                asked.append(m)
            return time(scan, m)

        monkeypatch.setattr(solvers._Scan, "__init__", recorded_init)
        monkeypatch.setattr(solvers._Scan, "time", recorded_time)
        for checks, kept, psd_tables, all_m in (
            (("bounds",), str.isdigit, 0, True),
            (("thrplus",), "thr+".__eq__, 1, True),
            (("zeq",), "pt+".__eq__, 1, False),
        ):
            for graph_id, g in graphs:
                builds.clear()
                asked.clear()
                got = bounds_rows_for_graph(graph_id, g, checks)
                assert (builds[Rule.STANDARD], builds[Rule.PSD]) == (1, psd_tables), checks
                assert got == [row for row in rows[graph_id] if kept(row.m)], checks
                z = rows[graph_id][0].z
                assert asked == list(range(z, g.n + 1 if all_m else z + 1)), (checks, graph_id)

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
        for rule in (Rule.STANDARD, Rule.PSD, Rule.POWER_DOMINATION):
            table = sliced.rounds_table(rule, g.adj, g.n)
            expected = [slices._rounds(rule, g, mask) + 2 for mask in range(1 << g.n)]
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
    peaks near 0.22 MB, with vectors of 2 KB; the bound is about three
    times that. White connectivity kept as n^2 vectors would take 0.76 MB
    on its own."""
    g = grid_graph(4, 5)
    tracemalloc.start()
    try:
        blue = sliced.SubsetVectors(g.n)(5)
        rounds = sum(1 for _ in finished_by_round(Rule.PSD, g.adj, *blue))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rounds == 11
    assert peak < 640 << 10


def test_kept_vectors_hold_one_record_per_n():
    """All-m scans of the 4x4 grid keep every size of n = 16, about 0.29 MB;
    all-m scans of the 3x6 grid at cap 18 keep every size of n = 18 beside
    them, about 1.18 MB more. A scan at another n releases neither."""
    big, above, small = grid_graph(4, 4), grid_graph(3, 6), grid_graph(2, 5)
    assert big.n == DEFAULT_CAP < above.n
    sliced.kept_vectors.cache_clear()  # the records are built in the traced region
    tracemalloc.start()
    try:
        held = []
        for g in (big, above):
            z = forcing_number(g, Rule.STANDARD, cap=g.n).value
            for m in range(z, g.n + 1):
                propagation_time_m(g, m, Rule.STANDARD, cap=g.n)
            held.append(tracemalloc.get_traced_memory()[0])
        forcing_number(small, Rule.STANDARD)
        held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    for g in (big, above):
        assert sorted(sliced.kept_vectors(g.n).columns) == list(range(g.n + 1))
    held_big, held_above, held_small = held
    assert 240 << 10 < held_big < 320 << 10
    assert 1100 << 10 < held_above - held_big < 1200 << 10
    assert held_small >= held_above


def test_threads_share_the_kept_vectors():
    """Four threads run both rules' Z and pt(G, m) at every m on graphs at
    n = 10 and n = 11 at once, eight times over, starting from no kept
    record, so they race on first builds while other scans read the same
    records; every report equals a serial run's."""
    rng = Random(283)
    calls = []
    for n in (10, 11):
        g = random_graph(rng, n, 0.3, connected=True)
        for rule in (Rule.STANDARD, Rule.PSD):
            calls.append((forcing_number, g, rule))
            calls += [(propagation_time_m, g, m, rule) for m in range(n + 1)]
    calls = calls[::2] + calls[1::2]  # n = 10 and n = 11 interleaved
    serial = [run(f, *args) for f, *args in calls]
    sliced.kept_vectors.cache_clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda call: run(*call), calls * 8, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert threaded == serial * 8


def run(f, *args):
    """A report, or the type of the error it raised."""
    try:
        return f(*args)
    except InfeasibleError as e:
        return type(e)


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
