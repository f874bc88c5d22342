"""How often each schedule consumer replays the schedules it handles.

``validate_chronology`` performs every replay, so counting its calls under
every name a forcelab module holds for it counts replays. A function that
takes a schedule replays it once; each derived schedule whose validity is
a guaranteed property (a reversal, a restriction, a rebuilt schedule, a
bundle-first reordering, a witness round trip) gets one independent
replay of its own, through ``Replay.guaranteed``. A path bundle's
restriction is no such schedule: it is checked once, on the host's masks
cut to the bundle's vertices, and is never replayed, nor is its induced
subgraph built, even when that check rejects it. The slices read both
boundary sets of a vertex subset off the one replay they hold and replay
no reversal. The bounds sweep replays one efficient schedule per m row,
and none when it is asked for no m rows. Every count is exact, so a lost or an extra replay both fail.
"""

import sys

import pytest

from forcelab import bundles, forcing, graphs, pips, slices, solvers
from forcelab.errors import BundleError
from forcelab.forcing import Rule, propagate
from forcelab.graphs import path_graph, star_graph


def counting(monkeypatch, original):
    """Record the arguments of every call of ``original``, under every name
    a forcelab module holds for it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "forcelab":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def replays(monkeypatch):
    calls = counting(monkeypatch, forcing.validate_chronology)

    def count(func, *args):
        calls.clear()
        func(*args)
        return len(calls)

    count.calls = calls
    return count


@pytest.fixture(scope="module")
def psd_chron(grid34):
    base = solvers.forcing_number(grid34, Rule.PSD).witnesses[0]
    return propagate(Rule.PSD, grid34, base).chronology


def test_witness_conversions_replay_once(replays, grid34_chords, demo_chron):
    assert replays(pips.chronology_to_witness, grid34_chords, demo_chron) == 1
    witness = pips.chronology_to_witness(grid34_chords, demo_chron)
    assert replays(pips.witness_to_chronology, grid34_chords, witness) == 1


def test_witness_extraction_checks_the_rule_before_replaying(replays, grid34, psd_chron):
    with pytest.raises(ValueError, match="active times are defined for the standard rule"):
        replays(pips.chronology_to_witness, grid34, psd_chron)
    assert replays.calls == []


def test_reversal_replays_input_and_result(replays, grid34_chords, demo_chron):
    assert replays(forcing.reversal, grid34_chords, demo_chron) == 2


@pytest.mark.parametrize(
    "func", [slices.power_set_from_slice, slices.psd_set_from_slices]
)
def test_slice_constructions_replay_once(replays, grid34, func):
    for m in range(3, grid34.n + 1):
        assert replays(func, grid34, m) == 1


@pytest.mark.parametrize(
    "func", [slices.interval_slice, slices.check_interval_forcing]
)
def test_slice_windows_replay_once(replays, grid34_chords, demo_chron, func):
    for m_step in range(demo_chron.ct):
        assert replays(func, grid34_chords, demo_chron, m_step, demo_chron.ct) == 1


def test_bounds_rows_replay_each_efficient_schedule_once(replays, grid34):
    # Both slice constructions of an m row read one replay of the
    # m-efficient schedule, boundary sets included.
    for g in [g for _, g in solvers.atlas_stream(5)] + [grid34]:
        rows = solvers.bounds_rows_for_graph("g", g)
        expected = sum(r.m.isdigit() for r in rows)
        assert replays(solvers.bounds_rows_for_graph, "g", g) == expected


def test_bounds_rows_replay_nothing_without_bounds_rows(replays, grid34):
    # thr+ and pt+ read pt(G, m) off the standard scan; only an m row
    # builds and replays an efficient schedule.
    for g in [g for _, g in solvers.atlas_stream(5)] + [grid34]:
        tagged = [r for r in solvers.bounds_rows_for_graph("g", g) if not r.m.isdigit()]
        assert replays(solvers.bounds_rows_for_graph, "g", g, ("thrplus", "zeq")) == 0
        assert solvers.bounds_rows_for_graph("g", g, ("thrplus", "zeq")) == tagged


def test_bounds_rows_split_each_efficient_schedule_once(monkeypatch):
    # Both slice constructions of an m row take one split at their shared
    # cut: one per m row, 5,557 over the graphs with n <= 7.
    calls = []
    split = slices._split
    monkeypatch.setattr(slices, "_split", lambda *args: calls.append(1) or split(*args))
    rows = 0
    for graph_id, g in solvers.atlas_stream(7):
        rows += sum(r.m.isdigit() for r in solvers.bounds_rows_for_graph(graph_id, g))
    assert len(calls) == rows == 5557


# The host, plus the rebuilt schedule (relocation) or the bundle-first
# reordering (certificate). The bundle's standard restriction is checked on
# the host's masks, not replayed.
BUNDLE_REPLAYS = {
    bundles.relocate_psd_set: 2,
    bundles.psd_reversal: 2,
    bundles.certify_rigid_linkage: 2,
    bundles.induced_path_bundle: 1,
}


@pytest.mark.parametrize("func", list(BUNDLE_REPLAYS))
def test_bundle_operations(replays, grid34, psd_chron, func):
    for x in range(grid34.n):
        assert replays(func, grid34, psd_chron, x) == BUNDLE_REPLAYS[func]


def test_derived_bundle_schedules_are_stored_in_normal_form(replays):
    # The rebuilt relocation and the bundle-first reordering skip the
    # normalizing pass: every schedule that reaches the check must equal,
    # field by field, the one the normalizing constructor builds from it.
    cases = 0
    for _, g in solvers.atlas_stream(max_n=5, connected_only=True):
        for base in solvers.forcing_number(g, Rule.PSD).witnesses:
            chron = propagate(Rule.PSD, g, base).chronology
            for x in range(g.n):
                for func in (bundles.relocate_psd_set, bundles.certify_rigid_linkage):
                    assert replays(func, g, chron, x) == 2
                    for _, c in replays.calls:
                        # The dataclass compares rule, base and steps in turn.
                        assert c == forcing.RelaxedChronology(c.rule, c.base, c.steps)
                        assert type(c.base) is frozenset and type(c.steps) is tuple
                        assert all(type(step) is tuple for step in c.steps)
                        assert all(type(f) is forcing.Force for f in c.all_forces())
                        assert all(type(v) is int for f in c.all_forces() for v in f)
                    cases += 1
    assert cases == 1800  # 190 schedules, both calls at each vertex


@pytest.fixture
def windows(monkeypatch):
    """The calls of the bundle check on the host's masks."""
    calls = []
    window = bundles._window_chains
    monkeypatch.setattr(
        bundles, "_window_chains", lambda *args: calls.append(1) or window(*args)
    )
    return calls


@pytest.mark.parametrize("func", list(BUNDLE_REPLAYS))
def test_bundle_operations_check_one_window(windows, grid34, psd_chron, func):
    # Each operation builds one bundle and checks it once on the host's masks.
    for x in range(grid34.n):
        windows.clear()
        func(grid34, psd_chron, x)
        assert len(windows) == 1


def test_a_candidate_bundle_checks_one_window(windows, replays):
    g = path_graph(4)
    chron = propagate(Rule.PSD, g, {0, 3}).chronology
    assert replays(bundles.validate_path_bundle, g, chron, [(1, 0), (2, 3)]) == 1
    assert len(windows) == 1


def test_a_rejected_candidate_replays_only_its_host(monkeypatch, replays):
    # From the center of a star, one step forces every leaf; a candidate
    # through the center keeps two of those forces, and the window check
    # words the rejection itself, with no subgraph built or replayed.
    induced = counting(monkeypatch, graphs.induced_subgraph)
    g = star_graph(3)
    chron = propagate(Rule.PSD, g, {0}).chronology
    with pytest.raises(BundleError, match="step 1: force 0->1 is not legal there"):
        replays(bundles.validate_path_bundle, g, chron, [(1, 0, 2)])
    assert len(replays.calls) == 1
    assert induced == []
