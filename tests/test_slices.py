import ast
import inspect
import pathlib
import tracemalloc
from random import Random

import pytest

from forcelab.errors import InfeasibleError, InvariantViolation
from forcelab.forcing import Rule, propagate
from forcelab.graphs import (
    Graph,
    grid_graph,
    induced_subgraph,
    is_vertex_cut,
    mask_of,
    path_graph,
    set_of,
)
from forcelab.slices import (
    _efficient_replay,
    check_interval_forcing,
    interval_slice,
    power_set_from_slice,
    psd_set_from_slices,
    time_slice,
)
from forcelab import forcing, sliced, slices, solvers
from randgen import random_chronology, random_forcing_set, random_graph


class TestTimeSlice:
    def test_step_zero_is_base(self, grid34_chords, demo_chron):
        rep = time_slice(grid34_chords, demo_chron, 0)
        assert rep.at == demo_chron.base
        assert rep.minus == frozenset()
        assert rep.plus == frozenset(range(12)) - demo_chron.base

    def test_demo_step_four(self, grid34_chords, demo_chron):
        rep = time_slice(grid34_chords, demo_chron, 4)
        assert rep.at == frozenset({2, 5, 9})
        assert rep.minus == frozenset({0, 1, 4, 8})
        assert rep.plus == frozenset({3, 6, 7, 10, 11})

    def test_no_edges_cross_the_slice(self, grid34_chords, demo_chron):
        for n_step in range(demo_chron.ct + 1):
            rep = time_slice(grid34_chords, demo_chron, n_step)
            for u in rep.minus:
                assert not any(w in rep.plus for w in grid34_chords.adj[u])

    def test_out_of_range(self, grid34_chords, demo_chron):
        with pytest.raises(ValueError):
            time_slice(grid34_chords, demo_chron, 9)

    def test_partition_and_cut_random(self):
        rng = Random(43)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 10), 0.35, connected=True)
            base = random_forcing_set(rng, g)
            chron = random_chronology(rng, g, base)
            for n_step in range(chron.ct + 1):
                rep = time_slice(g, chron, n_step)
                assert rep.minus | rep.at | rep.plus == frozenset(range(g.n))
                assert not rep.minus & rep.at and not rep.at & rep.plus
                assert not rep.minus & rep.plus
                for u in rep.minus:
                    assert not any(w in rep.plus for w in g.adj[u])
                if rep.minus and rep.plus:
                    assert is_vertex_cut(g, rep.at)


class TestIntervalSlice:
    def test_whole_range_is_everything(self, grid34_chords, demo_chron):
        isl = interval_slice(grid34_chords, demo_chron, 0, demo_chron.ct)
        assert isl.closed == frozenset(range(12))

    def test_demo_window(self, grid34_chords, demo_chron):
        isl = interval_slice(grid34_chords, demo_chron, 3, 5)
        assert isl.closed == frozenset({1, 2, 5, 6, 8, 9})

    def test_boundary_sets_at_four(self, grid34_chords, demo_chron):
        isl = interval_slice(grid34_chords, demo_chron, 4, 4)
        assert isl.bd_n_minus == frozenset({1, 4, 8})
        assert isl.bd_m_plus == frozenset({3, 6, 10})

    def test_nesting_identities(self, grid34_chords, demo_chron):
        for m_step in range(demo_chron.ct + 1):
            for n_step in range(m_step, demo_chron.ct + 1):
                isl = interval_slice(grid34_chords, demo_chron, m_step, n_step)
                at_m = time_slice(grid34_chords, demo_chron, m_step).at
                at_n = time_slice(grid34_chords, demo_chron, n_step).at
                assert isl.open <= isl.left_open <= isl.closed
                assert isl.open <= isl.right_open <= isl.closed
                assert isl.closed == isl.open | at_m | at_n
                assert isl.open == isl.closed - at_m - at_n


class TestIntervalForcing:
    def test_full_window_replays_base(self, grid34_chords, demo_chron):
        report = check_interval_forcing(grid34_chords, demo_chron, 0, demo_chron.ct)
        start = report.assertions[0]
        assert start.base == demo_chron.base
        assert start.achieved <= demo_chron.ct

    def test_demo_two_to_six(self, grid34_chords, demo_chron):
        report = check_interval_forcing(grid34_chords, demo_chron, 2, 6)
        assert len(report.assertions) == 4
        for a in report.assertions:
            assert a.achieved <= a.bound

    def test_bad_range(self, grid34_chords, demo_chron):
        with pytest.raises(ValueError):
            check_interval_forcing(grid34_chords, demo_chron, 3, 3)

    def test_random_windows_never_fail(self):
        rng = Random(47)
        done = attempts = 0
        while done < 500 and attempts < 2000:  # a broken engine fails, not spins
            attempts += 1
            g = random_graph(rng, rng.randint(2, 9), 0.35, connected=True)
            base = random_forcing_set(rng, g)
            chron = random_chronology(rng, g, base)
            if chron.ct < 1:
                continue
            m_step = rng.randrange(chron.ct)
            n_step = rng.randint(m_step + 1, chron.ct)
            check_interval_forcing(g, chron, m_step, n_step)
            done += 1
        assert done == 500, attempts


class TestPsdConstruction:
    def test_long_path_single_cut(self):
        built = psd_set_from_slices(path_graph(9), 1)
        assert built.base == frozenset({4})
        assert built.upper_bound == 4
        assert built.achieved == 4
        assert built.source_pt == 8

    def test_long_path_two_cuts(self):
        built = psd_set_from_slices(path_graph(9), 1, cut_times=[2, 6])
        assert built.base == frozenset({2, 6})
        assert built.upper_bound == 4  # guaranteed: the largest gap
        assert built.achieved == 2     # replay meets in the middle

    def test_grid_five_by_two(self):
        built = psd_set_from_slices(grid_graph(5, 2), 2)
        assert built.source_pt == 4
        assert built.upper_bound == 2
        assert built.achieved <= 2
        assert len(built.base) == 2

    def test_whole_graph_base(self):
        g = path_graph(3)
        built = psd_set_from_slices(g, 3)
        assert built.base == frozenset(range(3))
        assert built.upper_bound == 0 and built.achieved == 0

    def test_infeasible_size(self):
        with pytest.raises(InfeasibleError):
            psd_set_from_slices(grid_graph(3, 3), 1)

    def test_floor_cut_also_works_for_odd_pt(self):
        g = path_graph(6)  # pt(G, 1) = 5
        for cut in (2, 3):
            built = psd_set_from_slices(g, 1, cut_times=[cut])
            assert built.achieved <= 3

    def test_size_is_preserved(self):
        rng = Random(53)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 8), 0.4, connected=True)
            z = solvers.forcing_number(g, Rule.STANDARD).value
            m = rng.randint(z, g.n)
            built = psd_set_from_slices(g, m)
            assert len(built.base) == m


class TestPowerConstruction:
    def test_long_path(self):
        built = power_set_from_slice(path_graph(9), 1)
        assert built.base == frozenset({4})
        assert built.upper_bound == 4
        assert built.achieved <= 4

    def test_grid_five_by_two(self):
        built = power_set_from_slice(grid_graph(5, 2), 2)
        assert built.upper_bound == 2
        assert built.achieved <= 2

    def test_whole_graph_base(self):
        built = power_set_from_slice(path_graph(4), 4)
        assert built.base == frozenset(range(4))
        assert built.achieved == 0

    def test_replayed_power_time_verified(self):
        rng = Random(59)
        for _ in range(25):
            g = random_graph(rng, rng.randint(2, 8), 0.4, connected=True)
            z = solvers.forcing_number(g, Rule.STANDARD).value
            m = rng.randint(z, g.n)
            built = power_set_from_slice(g, m)
            res = propagate(Rule.POWER_DOMINATION, g, built.base)
            assert res.ok and res.pt == built.achieved


class TestThrottlingUpperBound:
    def test_psd_throttling_bounded_by_slice_construction(self):
        rng = Random(61)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 7), 0.4, connected=True)
            z = solvers.forcing_number(g, Rule.STANDARD).value
            best = min(
                m + (solvers.propagation_time_m(g, m, Rule.STANDARD).value + 1) // 2
                for m in range(z, g.n + 1)
            )
            thr_plus = solvers.throttling(g, Rule.PSD).value
            assert thr_plus <= best


class TestAchievedTimesMatchPropagate:
    """The constructions and interval checks count rounds and build no
    schedule; ``propagate``, which they no longer call, is the oracle."""

    def test_constructions_with_and_without_scans(self):
        """Each construction, from the public function and from a replay of
        the sweep's standard scan, against ``propagate`` and the rule's own
        rounds table (r + 2 for r rounds)."""
        rng = Random(67)
        sizes = set()
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 12), rng.choice((0.3, 0.5)), True)
            std = solvers._Scan(g, Rule.STANDARD, None)
            tables = {
                rule: sliced.rounds_table(rule, g.adj, g.n)
                for rule in (Rule.PSD, Rule.POWER_DOMINATION)
            }
            sizes.add(std.table is None)
            z = std.forcing()[0]
            for m in range(z, g.n + 1):
                replay = _efficient_replay(g, m, None, std)
                k_total = replay.chron.ct
                cuts = sorted(rng.sample(range(k_total + 1), min(2, k_total + 1)))
                built = {
                    Rule.PSD: (
                        psd_set_from_slices(g, m),
                        slices._psd_set(replay, m, "auto"),
                        slices._psd_set(replay, m, cuts),
                        psd_set_from_slices(g, m, cuts),
                    ),
                    Rule.POWER_DOMINATION: (
                        power_set_from_slice(g, m),
                        slices._power_set(replay, m),
                    ),
                }
                for rule, sets in built.items():
                    for b in sets:
                        assert b.achieved == propagate(rule, g, b.base).pt
                        assert tables[rule][mask_of(b.base)] - 2 == b.achieved
        assert sizes == {False, True}  # replays from both scan engines

    def test_interval_checks(self):
        rng = Random(71)
        done = attempts = 0
        while done < 200 and attempts < 800:  # a broken engine fails, not spins
            attempts += 1
            g = random_graph(rng, rng.randint(2, 12), 0.35, connected=True)
            chron = random_chronology(rng, g, random_forcing_set(rng, g))
            if chron.ct < 1:
                continue
            m_step = rng.randrange(chron.ct)
            n_step = rng.randint(m_step + 1, chron.ct)
            for a in check_interval_forcing(g, chron, m_step, n_step).assertions:
                sub = induced_subgraph(g, a.sub_vertices)
                local = {old: new for new, old in enumerate(sub.vertices)}
                oracle = propagate(Rule.STANDARD, sub.graph, {local[v] for v in a.base})
                assert a.achieved == oracle.pt
            done += 1
        assert done == 200, attempts


def _propagated_rounds(rule, g, base) -> int:
    res = propagate(rule, g, base)
    return res.pt if res.ok else -1


class TestRoundsEdgeCases:
    """``slices._rounds``, the walk, and the rule's own rounds table
    (r + 2 for r rounds, 1 for a stall), against ``propagate(...).pt``."""

    @pytest.mark.parametrize(
        "g, base, expected",
        [(path_graph(4), range(4), 0), (path_graph(4), (), -1), (Graph(0), (), 0)],
        ids=["full-base", "empty-base-stalls", "K0"],
    )
    def test_power_domination(self, g, base, expected):
        table = sliced.rounds_table(Rule.POWER_DOMINATION, g.adj, g.n)
        assert _propagated_rounds(Rule.POWER_DOMINATION, g, base) == expected
        assert slices._rounds(Rule.POWER_DOMINATION, g, base) == expected
        assert table[mask_of(base)] - 2 == expected

    def test_table_and_walk_agree_on_every_mask(self):
        rng = Random(239)
        for n in [n for n in range(1, 10) for _ in range(2)]:
            g = random_graph(rng, n, rng.uniform(0.15, 0.6))
            for rule in (Rule.STANDARD, Rule.PSD, Rule.POWER_DOMINATION):
                table = sliced.rounds_table(rule, g.adj, g.n)
                for mask in range(1 << n):
                    base = set_of(mask)
                    walked = slices._rounds(rule, g, base)
                    assert table[mask] - 2 == walked
                    assert walked == _propagated_rounds(rule, g, base)


class TestOracleIndependence:
    """The rounds tables of ``sliced`` are checked against the per-mask
    steps of ``forcing``, so the two must share no code beyond ``Rule``."""

    def test_sliced_imports_only_rule_from_forcing(self):
        tree = ast.parse(pathlib.Path(sliced.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.startswith("forcelab.forcing") for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                if node.module in ("forcing", "forcelab.forcing"):
                    assert names == {"Rule"}, ast.unparse(node)
                elif node.module in (None, "forcelab"):
                    assert "forcing" not in names, ast.unparse(node)

    def test_rounds_walks_the_forcing_processes(self):
        tree = ast.parse(pathlib.Path(slices.__file__).read_text())
        imported = {
            a.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "forcing"
            for a in node.names
        }
        assert "PROCESSES" in imported
        (func,) = (
            node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_rounds"
        )
        names = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
        assert "PROCESSES" in names and "sliced" not in names
        assert slices.PROCESSES is forcing.PROCESSES


class TestNoTablePerCall:
    """Rounds are walked one step at a time, keeping only the current
    mask, so a check's memory does not grow with 2^n."""

    @pytest.mark.parametrize("n", [40, 70])
    def test_full_window_of_a_long_path(self, n):
        g = path_graph(n)
        chron = propagate(Rule.STANDARD, g, [0]).chronology
        report = check_interval_forcing(g, chron, 0, chron.ct)
        assert [a.achieved for a in report.assertions] == [n - 1, n - 1, n - 2, n - 2]

    def test_construction_memory_on_p20(self):
        psd_set_from_slices(path_graph(20), 1, cap=20)
        g = path_graph(20)
        tracemalloc.start()
        try:
            built = psd_set_from_slices(g, 1, cap=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built.achieved == propagate(Rule.PSD, g, built.base).pt
        assert peak < 256 * 1024  # a 2^20-byte table would exceed this


def test_public_functions_take_no_private_parameters():
    """The sweep hands its replay to the module-private ``_psd_set`` and
    ``_power_set``, not to underscore keywords of the public functions."""
    public = {
        name: func
        for name, func in inspect.getmembers(slices, inspect.isfunction)
        if not name.startswith("_") and func.__module__ == slices.__name__
    }
    assert {"psd_set_from_slices", "power_set_from_slice", "time_slice"} <= set(public)
    for name, func in public.items():
        params = inspect.signature(func).parameters
        assert not [p for p in params if p.startswith("_")], name


def test_bounds_rows_propagate_once_per_m_row(monkeypatch):
    """Only the efficient schedule of each m is built; the constructions
    check their sets by rounds."""
    calls = []

    def counted(rule, g, base):
        calls.append(rule)
        return propagate(rule, g, base)

    monkeypatch.setattr(forcing, "propagate", counted)
    monkeypatch.setattr(slices, "propagate", counted)
    graphs = [*solvers.atlas_stream(max_n=5), ("P10", path_graph(10))]
    for graph_id, g in graphs:
        calls.clear()
        rows = solvers.bounds_rows_for_graph(graph_id, g, checks=("bounds",))
        assert calls == [Rule.STANDARD] * len(rows), graph_id


class TestChecksStillRaise:
    """A construction whose set stalls or exceeds its bound raises
    InvariantViolation with the same message as when it replayed."""

    @pytest.mark.parametrize(
        "rounds, build, message",
        [
            (-1, lambda: psd_set_from_slices(path_graph(9), 1),
             "slice set failed to PSD-force the graph"),
            (99, lambda: psd_set_from_slices(path_graph(9), 1),
             "slice set took 99 PSD steps, guaranteed at most 4"),
            (-1, lambda: power_set_from_slice(path_graph(9), 1),
             "slice set failed to power-dominate the graph"),
            (99, lambda: power_set_from_slice(path_graph(9), 1),
             "power propagation took 99 steps, guaranteed at most 4"),
            (-1, lambda: solvers.bounds_rows_for_graph("P9", path_graph(9)),
             "slice set failed to PSD-force the graph"),
            (-1, lambda: check_interval_forcing(path_graph(5), _P5_CHRON, 1, 3),
             "window from its start slice: slice set fails to force its subgraph"),
            (99, lambda: check_interval_forcing(path_graph(5), _P5_CHRON, 1, 3),
             "window from its start slice: took 99 steps, guaranteed at most 2"),
        ],
    )
    def test_patched_rounds(self, monkeypatch, rounds, build, message):
        monkeypatch.setattr(slices, "_rounds", lambda *args: rounds)
        with pytest.raises(InvariantViolation) as exc:
            build()
        assert str(exc.value) == message


_P5_CHRON = forcing.RelaxedChronology(
    Rule.STANDARD, [0], [[(0, 1)], [(1, 2)], [(2, 3)], [(3, 4)]]
)
