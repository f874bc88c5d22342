"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

The sweeps here are exhaustive over the packaged graph stream (all 1,252
simple graphs on up to seven vertices; the connected ones where stated)
plus 1,000 seeded random instances, and every check runs at zero
tolerance: a single failing case fails the criterion.
"""

import csv
import hashlib
import io
import json
from random import Random

import pytest

from forcelab import bundles, pips, slices, solvers
from forcelab.cli import main as cli_main
from forcelab.forcing import (
    Rule,
    activity_spans,
    propagate,
    propagation_time_of_forces,
    reversal,
    terminus,
    validate_chronology,
)
from forcelab.graphs import grid_graph, is_vertex_cut, load_graph
from randgen import random_instance

SEED = 20260809


@pytest.fixture(scope="module")
def atlas_rows():
    return list(solvers.sweep_bounds(solvers.atlas_stream(max_n=7)))


@pytest.fixture(scope="module")
def instances():
    rng = Random(SEED)
    return [random_instance(rng, max_n=12, connected=True) for _ in range(1000)]


def _psd_cases(max_n: int, min_n: int = 0):
    """Every connected graph with ``min_n`` to ``max_n`` vertices with every
    minimum PSD forcing set and its canonical propagating schedule."""
    cases = []
    for gid, g in solvers.atlas_stream(max_n=max_n, connected_only=True):
        if g.n < min_n:
            continue
        report = solvers.forcing_number(g, Rule.PSD)
        for base in report.witnesses:
            chron = propagate(Rule.PSD, g, base).chronology
            cases.append((gid, g, report.value, chron))
    return cases


@pytest.fixture(scope="module")
def psd_cases():
    """Every connected graph on up to 6 vertices with every minimum PSD
    forcing set and its canonical propagating schedule."""
    return _psd_cases(6)


# Target vertices summed over every minimum PSD set of every connected
# 7-vertex graph: 15,456 sets on 7 vertices each.
CASES_7 = 108_192


@pytest.fixture(scope="module")
def psd_cases_7():
    """The same on the 853 connected graphs with 7 vertices."""
    return _psd_cases(7, min_n=7)


def test_criterion_01_psd_halving_bound(atlas_rows):
    """Slice-built PSD sets beat ceil(pt/2) on every graph and size."""
    m_rows = [r for r in atlas_rows if r.m.isdigit()]
    graphs_seen = {r.graph_id for r in m_rows}
    assert len(graphs_seen) == 1252
    failures = [
        r for r in m_rows if int(r.pt_plus_achieved) > r.bound or not r.ok
    ]
    assert failures == []
    # the two derived-inequality rows ride along in the same sweep
    assert all(r.ok for r in atlas_rows if r.m == "thr+")
    assert all(r.ok for r in atlas_rows if r.m == "pt+")
    print(
        f"\nACCEPTANCE 1 PASS: PSD halving bound held on {len(m_rows)} "
        f"(graph, m) pairs over {len(graphs_seen)} graphs"
    )


def test_full_atlas_sweep_is_pinned(atlas_rows):
    """The whole n <= 7 sweep, as ``verify bounds --graphs all-n:7`` prints
    it: 7,824 rows under the header, pinned by the digest (16 hex digits of
    SHA-256) of the CSV text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(solvers.BOUNDS_HEADER)
    writer.writerows(row.as_csv_fields() for row in atlas_rows)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    assert (len(atlas_rows), digest) == (7824, "8d699a21ad072b2d")


def test_criterion_02_power_halving_bound(atlas_rows):
    """Slice-built power dominating sets beat ceil(pt/2) everywhere."""
    m_rows = [r for r in atlas_rows if r.m.isdigit()]
    failures = [r for r in m_rows if int(r.ppt_achieved) > r.bound]
    assert failures == []
    print(
        f"ACCEPTANCE 2 PASS: power-domination halving bound held on "
        f"{len(m_rows)} (graph, m) pairs"
    )


def test_criterion_03_grid_sharpness():
    """Exact grid values: Z = Z+ = min(s,t), pt = max(s,t)-1,
    pt+ = ceil((max(s,t)-1)/2) for 2 <= s <= 7, t in {1,2,3}."""
    checked = 0
    for s in range(2, 8):
        for t in (1, 2, 3):
            g = grid_graph(s, t)
            lo, hi = min(s, t), max(s, t)
            assert solvers.forcing_number(g, Rule.STANDARD, cap=21).value == lo
            assert solvers.forcing_number(g, Rule.PSD, cap=21).value == lo
            assert (
                solvers.propagation_time_m(g, lo, Rule.STANDARD, cap=21).value
                == hi - 1
            )
            assert (
                solvers.propagation_time_m(g, lo, Rule.PSD, cap=21).value
                == (hi - 1 + 1) // 2
            )
            checked += 1
    print(f"ACCEPTANCE 3 PASS: {checked} grids match all four closed forms exactly")


def test_criterion_04_path_cover_number_equals_forcing_number():
    """Direct witness search agrees with the exhaustive solver on every
    connected graph with at most 6 vertices."""
    checked = 0
    for gid, g in solvers.atlas_stream(max_n=6, connected_only=True):
        direct = pips.pip_number_by_search(g)
        solved = solvers.forcing_number(g, Rule.STANDARD).value
        assert direct == solved, f"{gid}: search {direct} != solver {solved}"
        checked += 1
    assert checked == 143
    print(f"ACCEPTANCE 4 PASS: witness search = solver on {checked} connected graphs")


@pytest.mark.slow
def test_criterion_04_on_every_connected_7_vertex_graph():
    """Criterion 4 on the 853 connected graphs with 7 vertices (opt-in:
    ``--runslow``)."""
    checked = 0
    for gid, g in solvers.atlas_stream(max_n=7, connected_only=True):
        if g.n < 7:
            continue
        direct = pips.pip_number_by_search(g)
        solved = solvers.forcing_number(g, Rule.STANDARD).value
        assert direct == solved, f"{gid}: search {direct} != solver {solved}"
        checked += 1
    assert checked == 853
    print(f"ACCEPTANCE 4 PASS: witness search = solver on {checked} connected 7-vertex graphs")


def test_criterion_05_witness_round_trip(instances):
    """Schedule -> witness verifies; witness -> schedule reproduces the
    active times exactly, on 1,000 random instances."""
    for g, base, chron in instances:
        witness = pips.chronology_to_witness(g, chron)
        assert pips.verify_witness(g, witness).ok
        back = pips.witness_to_chronology(g, witness)
        assert activity_spans(g, back) == activity_spans(g, chron)
        assert back == chron
    print(f"ACCEPTANCE 5 PASS: witness round trip exact on {len(instances)} instances")


def test_criterion_06_reversal_laws(instances):
    """Terminus forces the graph; reversal validates, keeps the completion
    time, is an involution, and preserves force-set propagation time."""
    for g, base, chron in instances:
        term = terminus(g, chron)
        assert propagate(Rule.STANDARD, g, term).ok
        rev = reversal(g, chron)  # validates internally
        assert rev.ct == chron.ct
        assert reversal(g, rev) == chron
        fwd = propagation_time_of_forces(g, base, chron.all_forces(), Rule.STANDARD)
        bwd = propagation_time_of_forces(g, term, rev.all_forces(), Rule.STANDARD)
        assert fwd == bwd
    print(f"ACCEPTANCE 6 PASS: reversal laws held on {len(instances)} instances")


def test_criterion_07_slices_cut(instances):
    """Every nontrivial time slice separates done-from-pending vertices
    with no crossing edges and is a vertex cut."""
    slices_checked = 0
    for g, base, chron in instances:
        for n_step in range(chron.ct + 1):
            rep = slices.time_slice(g, chron, n_step)
            for u in rep.minus:
                assert not any(w in rep.plus for w in g.adj[u])
            if rep.minus and rep.plus:
                assert is_vertex_cut(g, rep.at)
                slices_checked += 1
    print(
        f"ACCEPTANCE 7 PASS: {slices_checked} nontrivial slices were cuts "
        f"with no crossing edges"
    )


def _relocate_everywhere(psd_cases) -> int:
    """Relocate every case onto each of its vertices; returns the count."""
    relocations = 0
    for gid, g, z_plus, chron in psd_cases:
        for x in range(g.n):
            new_base, new_chron = bundles.relocate_psd_set(g, chron, x)
            assert len(new_base) == z_plus, gid
            assert x in new_base, gid
            validate_chronology(g, new_chron)
            relocations += 1
    return relocations


def test_criterion_08_psd_relocation(psd_cases):
    """For every connected graph (n <= 6), minimum PSD set, canonical
    schedule, and target vertex: relocation keeps the size, contains the
    target, revalidates, and preserves the forcing trees."""
    relocations = _relocate_everywhere(psd_cases)
    print(f"ACCEPTANCE 8 PASS: {relocations} relocations preserved trees and size")


@pytest.mark.slow
def test_criterion_08_on_every_connected_7_vertex_graph(psd_cases_7):
    """Criterion 8 on the connected graphs with 7 vertices (opt-in:
    ``--runslow``)."""
    relocations = _relocate_everywhere(psd_cases_7)
    assert relocations == CASES_7
    print(f"ACCEPTANCE 8 PASS: {relocations} relocations on connected n = 7")


def _certify_everywhere(psd_cases) -> int:
    """Certify every case's bundle at each of its vertices against the
    linkage oracle; returns the count."""
    certified = 0
    for gid, g, _, chron in psd_cases:
        for x in range(g.n):
            bundle = bundles.induced_path_bundle(g, chron, x)
            cert = bundles.certify_rigid_linkage(g, chron, x)
            assert cert.valid, gid
            search = bundles.find_linkages(g, cert.alpha, cert.beta)
            assert not search.truncated
            assert len(search.linkages) == 1, gid
            expected = tuple(
                sorted(p if p[0] <= p[-1] else p[::-1] for p in bundle.paths)
            )
            assert search.linkages[0] == expected, gid
            certified += 1
    return certified


def test_criterion_09_rigid_linkage_certificates(psd_cases):
    """Every vertex-induced bundle certifies as a rigid-linkage process and
    the exhaustive oracle finds exactly one matching linkage."""
    certified = _certify_everywhere(psd_cases)
    print(f"ACCEPTANCE 9 PASS: {certified} bundles certified rigid, oracle-confirmed")


@pytest.mark.slow
def test_criterion_09_on_every_connected_7_vertex_graph(psd_cases_7):
    """Criterion 9 on the connected graphs with 7 vertices (opt-in:
    ``--runslow``)."""
    certified = _certify_everywhere(psd_cases_7)
    assert certified == CASES_7
    print(f"ACCEPTANCE 9 PASS: {certified} bundles certified on connected n = 7")


def test_criterion_10_shipped_worked_examples(inputs_dir, capsys):
    """The shipped input files reproduce the worked examples bit-exactly."""
    # 1. the showcase schedule's active-time table on the chorded grid
    g = load_graph(str(inputs_dir / "grid_3x4_chords.edges"))
    with open(inputs_dir / "grid_3x4_chronology.json") as fh:
        chron_data = json.load(fh)
    from forcelab.forcing import RelaxedChronology

    chron = RelaxedChronology.from_json_dict(chron_data)
    expected_spans = [
        (0, 0), (1, 3), (4, 5), (6, 8),
        (0, 2), (3, 4), (5, 7), (8, 8),
        (0, 3), (4, 5), (6, 6), (7, 8),
    ]
    assert activity_spans(g, chron) == expected_spans
    with open(inputs_dir / "grid_3x4_witness.json") as fh:
        assert pips.chronology_to_witness(g, chron).to_json_dict() == json.load(fh)

    # 2. the three-partition family: 6 path edges and the exact 13
    #    optional cross edges; the maximal member equals the shipped graph
    with open(inputs_dir / "fan_partitions.json") as fh:
        data = json.load(fh)
    parts = [pips.BlockPartition(data["K"], blk) for blk in data["partitions"]]
    layout = pips.family_layout(parts)
    assert layout.path_edges == ((0, 1), (1, 2), (4, 5), (5, 6), (6, 7), (7, 8))
    assert layout.cross_edges == (
        (0, 3), (0, 4), (1, 3), (1, 5), (1, 6), (1, 7), (2, 3), (2, 8),
        (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
    )
    members = list(pips.generate_family(parts, mode="extremes"))
    assert members[1].graph == load_graph(str(inputs_dir / "fan_family_max.edges"))

    # 3. the tree witness verifies, both via the library and the CLI
    tree = load_graph(str(inputs_dir / "tree_three_paths.edges"))
    with open(inputs_dir / "tree_three_paths_witness.json") as fh:
        witness = pips.PipWitness.from_json_dict(json.load(fh))
    assert pips.verify_witness(tree, witness).ok
    code = cli_main([
        "witness", "verify",
        "--graph", str(inputs_dir / "tree_three_paths.edges"),
        "--witness", str(inputs_dir / "tree_three_paths_witness.json"),
    ])
    capsys.readouterr()
    assert code == 0
    print("ACCEPTANCE 10 PASS: shipped worked examples reproduce bit-exactly")
