"""The InvariantViolation guards behind derived schedules and path bundles.

Each guard checks a property that holds for every valid input, so no valid
input reaches it. These tests reach them by swapping ``validate_chronology``,
under every name a forcelab module holds for it, for a replay that trusts
hand-built corrupt schedules (returning their expansion without checking a
force) or rejects every schedule, or by patching the helper a guard checks,
and they pin each guard's exact message.
"""

import sys

import pytest

from forcelab import bundles, forcing, pips, slices, solvers
from forcelab.bundles import (
    certify_rigid_linkage,
    induced_path_bundle,
    psd_reversal,
    relocate_psd_set,
)
from forcelab.errors import ChronologyError, InvariantViolation
from forcelab.forcing import RelaxedChronology, Rule, propagate
from forcelab.graphs import CoverCheck, Graph, path_graph, star_graph

CHECKED = forcing.validate_chronology


@pytest.fixture
def validation(monkeypatch):
    """Install a replacement for ``validate_chronology`` in every module."""

    def install(check):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "forcelab":
                for attr, value in list(vars(module).items()):
                    if value is CHECKED:
                        monkeypatch.setattr(module, attr, check)

    return install


def trusting(*chrons):
    """A replay that returns the expansion of the given schedules (of every
    schedule, when none is given) without checking their forces, and checks
    every other schedule as usual."""

    def check(g, chron, **kwargs):
        if chrons and not any(chron is c for c in chrons):
            return CHECKED(g, chron, **kwargs)
        blue = set(chron.base)
        expansion = [frozenset(blue)]
        for step in chron.steps:
            blue.update(f.dst for f in step)
            expansion.append(frozenset(blue))
        return expansion

    return check


def rejecting(g, chron, **kwargs):
    raise ChronologyError("step 1: rejected", step=1)


def psd(n, edges, base, steps):
    return Graph(n, edges), RelaxedChronology(Rule.PSD, base, steps)


BUNDLE_OPERATIONS = [
    induced_path_bundle,
    psd_reversal,
    relocate_psd_set,
    certify_rigid_linkage,
]

# Triangle 0-1-2 from {0}: 0 forces 1 while seeing both white vertices.
TRIANGLE = [(0, 1), (1, 2), (0, 2)]


@pytest.mark.parametrize("func", BUNDLE_OPERATIONS)
@pytest.mark.parametrize(
    "graph, x, message",
    [
        (psd(3, TRIANGLE, {0}, [[(0, 1)], [(1, 2)]]), 2,
         "tree 0: several vertices [0, 1] see the target component at step 1"),
        # After step 2 both trees see 3 twice, tree 1 by the lower vertices:
        # the least tree is named, with its vertices sorted.
        (psd(6, [(0, 4), (4, 5), (1, 2), (5, 3), (3, 1), (3, 2), (3, 4)], {0, 1},
             [[(0, 4)], [(4, 5), (1, 2)], [(5, 3)]]), 3,
         "tree 0: several vertices [4, 5] see the target component at step 2"),
        (psd(4, [(0, 1), (1, 3), (3, 2), (2, 0)], {0}, [[(0, 1), (0, 2)], [(1, 3)]]), 3,
         "tree 0 forces twice into the target component at step 1"),
        # 0 forces 1, then 0 (no longer the end of its path) forces 2.
        (psd(6, [(0, 1), (0, 2), (2, 3), (1, 4), (4, 3), (4, 5)], {0, 5},
             [[(0, 1), (5, 4)], [(0, 2)], [(2, 3)]]), 3,
         "force 0->2 does not extend the bundle path ending at 1"),
        # Both bundle paths grow at step 1, where 0 sees 1 and 2.
        (psd(4, [(0, 1), (0, 2), (2, 3), (1, 2)], {0, 3}, [[(0, 1), (3, 2)]]), 1,
         "induced bundle failed validation: restricted schedule is not "
         "standard-valid: step 1: force 0->1 is not legal there"),
    ],
)
def test_corrupt_bundle_walks(validation, func, graph, x, message):
    g, chron = graph
    validation(trusting(chron))
    with pytest.raises(InvariantViolation) as exc:
        func(g, chron, x)
    assert str(exc.value) == message


# From {0} on the triangle, 0 forces 1 and then 2; only the first is illegal.
CORRUPT_FAN = psd(3, TRIANGLE, {0}, [[(0, 1)], [(0, 2)]])


@pytest.mark.parametrize("func", [psd_reversal, relocate_psd_set])
def test_rebuild_stalls(validation, func):
    g, chron = CORRUPT_FAN
    validation(trusting(chron))
    with pytest.raises(InvariantViolation) as exc:
        func(g, chron, 0)
    assert str(exc.value) == "preserved forces stalled while rebuilding the schedule"


@pytest.mark.parametrize(
    "func, message",
    [
        (psd_reversal, "rebuilt schedule failed to validate: "
         "step 1: force 1->0 is not legal there"),
        (relocate_psd_set, "rebuilt schedule failed to validate: "
         "step 1: force 1->0 is not legal there"),
        (certify_rigid_linkage, "bundle-first reordering is not PSD-valid: "
         "step 1: force 0->1 is not legal there"),
    ],
)
def test_derived_bundle_schedules_replay_independently(validation, func, message):
    g, chron = CORRUPT_FAN
    validation(trusting(chron))
    with pytest.raises(InvariantViolation) as exc:
        func(g, chron, 1)
    assert str(exc.value) == message


# 1 forces 3 while 5 is white in the same component; the reordering still
# replays, since 2 turns blue first and cuts 3 off, but once 1 is idle it
# borders the component {4, 5} that the last bundle force enters.
IDLE_NEIGHBOR = psd(6, [(0, 2), (2, 3), (2, 4), (1, 3), (1, 5), (5, 4)], {0, 1},
                    [[(0, 2), (1, 3)], [(2, 4)], [(4, 5)]])


@pytest.mark.parametrize(
    "graph, trusted, x, message",
    [
        (CORRUPT_FAN, "all", 1, "bundle force 1 (0->1) is not a legal rigid-linkage force"),
        (IDLE_NEIGHBOR, "host", 4, "bundle force 3 (2->4) is not a legal rigid-linkage force"),
    ],
)
def test_certificate_checks_each_bundle_force(validation, graph, trusted, x, message):
    g, chron = graph
    validation(trusting() if trusted == "all" else trusting(chron))
    with pytest.raises(InvariantViolation) as exc:
        certify_rigid_linkage(g, chron, x)
    assert str(exc.value) == message


def test_relocation_checks_size_and_target(validation, monkeypatch):
    # The terminus always holds one path end per tree and x; a terminus of
    # the roots breaks the second, and the trusted replay lets it through.
    g = path_graph(3)
    chron = propagate(Rule.PSD, g, {0}).chronology
    validation(trusting())
    monkeypatch.setattr(
        bundles.PathBundle, "terminus", lambda self: frozenset(p[0] for p in self.paths)
    )
    with pytest.raises(InvariantViolation) as exc:
        relocate_psd_set(g, chron, 2)
    assert str(exc.value) == "relocated base must keep its size and contain x"


def test_relocation_checks_the_forcing_trees(monkeypatch):
    # A rebuild that fires from least sources, not from the host's forces,
    # is valid but grows other trees: on the path 0-2-1 from {0, 1} the
    # host forces 2 from 1 and the unpooled rebuild from 0.
    g = Graph(3, [(0, 2), (1, 2)])
    chron = RelaxedChronology(Rule.PSD, {0, 1}, [[(1, 2)]])
    fire = forcing._fire
    monkeypatch.setattr(
        bundles, "_fire", lambda rule, adj, blue, full, pool: fire(rule, adj, blue, full)
    )
    with pytest.raises(InvariantViolation) as exc:
        relocate_psd_set(g, chron, 0)
    assert str(exc.value) == "relocation changed the forcing trees"


def test_reversal_replays_independently(validation):
    # Path 1-0-2-3 from {0, 3}: 0 forces 1 while 2 is white, so the
    # reversal's first force 2->3 sees two white neighbors.
    g = Graph(4, [(0, 1), (0, 2), (2, 3)])
    chron = RelaxedChronology(Rule.STANDARD, {0, 3}, [[(0, 1)], [(3, 2)]])
    validation(trusting(chron))
    with pytest.raises(InvariantViolation) as exc:
        forcing.reversal(g, chron)
    assert str(exc.value) == (
        "reversal failed to validate: step 1: force 2->3 is not legal there"
    )


def test_restriction_replays_on_its_subgraph(validation):
    g = path_graph(4)
    chron = propagate(Rule.STANDARD, g, {0}).chronology
    validation(lambda h, c, **kw: CHECKED(h, c, **kw) if c is chron else rejecting(h, c))
    with pytest.raises(InvariantViolation) as exc:
        bundles.restrict(g, chron, {1, 2})
    assert str(exc.value) == (
        "restriction failed to replay on its subgraph: step 1: rejected"
    )


def test_witness_schedule_replays_independently(validation):
    g = path_graph(4)
    witness = pips.chronology_to_witness(g, propagate(Rule.STANDARD, g, {0}).chronology)
    validation(rejecting)
    with pytest.raises(InvariantViolation) as exc:
        pips.witness_to_chronology(g, witness)
    assert str(exc.value) == "witness produced an invalid schedule: step 1: rejected"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda w: pips.PipWitness(w.k, [p[::-1] for p in w.paths], w.partitions),
        lambda w: pips.PipWitness(w.k, w.paths, [pips.BlockPartition(w.k, [(0, 0), (1, w.k)])]),
    ],
    ids=["reversed-path", "moved-block"],
)
def test_witness_schedule_gives_back_its_blocks(monkeypatch, corrupt):
    # The witness rebuilt from the schedule must hold the given paths with
    # the given blocks; a path or a block that differs fails.
    g = path_graph(2)
    witness = pips.PipWitness(3, [(0, 1)], [pips.BlockPartition(3, [(0, 1), (2, 3)])])
    rebuild = pips._witness_of
    monkeypatch.setattr(pips, "_witness_of", lambda r: corrupt(rebuild(r)))
    with pytest.raises(InvariantViolation) as exc:
        pips.witness_to_chronology(g, witness)
    assert str(exc.value) == "schedule does not reproduce the witness blocks"


@pytest.mark.parametrize(
    "build", [slices.psd_set_from_slices, slices.power_set_from_slice]
)
def test_efficient_schedule_replays_as_guaranteed(validation, build):
    validation(rejecting)
    with pytest.raises(InvariantViolation) as exc:
        build(path_graph(5), 1)
    assert str(exc.value) == "efficient schedule failed to validate: step 1: rejected"


# The forest guards behind forcing_cover and terminus, one corrupt schedule
# each. [[(1, 2)]] names a source that is never blue, so its target has no
# root at all; on the edge 0-1 from {0, 1}, 0 forces a vertex of another chain.
@pytest.mark.parametrize(
    "g, rule, base, steps, message",
    [
        (star_graph(2), Rule.STANDARD, {0}, [[(0, 1)], [(0, 2)]], "vertex 0 forces twice"),
        (Graph(3, TRIANGLE), Rule.STANDARD, {0}, [[(0, 1)], [(1, 2)]],
         "forcing chains are not an induced path cover: path 0 is not induced: chord 0-2"),
        (path_graph(2), Rule.STANDARD, {0, 1}, [[(0, 1)]],
         "forcing chains are not an induced path cover: vertex 1 appears more than once"),
        (Graph(3, TRIANGLE), Rule.PSD, {0}, [[(0, 1), (0, 2)], [(1, 2)]],
         "forcing tree at 0 is not a tree"),
        (path_graph(3), Rule.PSD, {0}, [[(0, 1)]],
         "forcing trees do not partition the vertices"),
        (path_graph(3), Rule.PSD, {0}, [[(1, 2)]],
         "forcing trees do not partition the vertices"),
    ],
)
def test_corrupt_forcing_covers(validation, g, rule, base, steps, message):
    chron = RelaxedChronology(rule, base, steps)
    validation(trusting(chron))
    with pytest.raises(InvariantViolation) as exc:
        forcing.forcing_cover(g, chron)
    assert str(exc.value) == message


def test_corrupt_terminus(validation):
    chron = RelaxedChronology(Rule.STANDARD, {0}, [[(0, 1)]])
    validation(trusting(chron))
    with pytest.raises(InvariantViolation) as exc:
        forcing.terminus(path_graph(3), chron)
    assert str(exc.value) == "terminus size differs from the base size"


@pytest.mark.parametrize(
    "g, steps, attr, message",
    [
        (path_graph(3), [[(0, 1)]], "terminus", "terminus size differs from the base size"),
        (star_graph(2), [[(0, 1)], [(0, 2)]], "forest", "vertex 0 forces twice"),
    ],
)
def test_a_failed_guard_fails_again_on_the_same_replay(validation, g, steps, attr, message):
    # a read that raises stores nothing, so the next read runs the guard again
    chron = RelaxedChronology(Rule.STANDARD, {0}, steps)
    validation(trusting(chron))
    replay = forcing.Replay(g, chron)
    for _ in range(2):
        with pytest.raises(InvariantViolation) as exc:
            getattr(replay, attr)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: slices.power_set_from_slice(path_graph(9), 1),
        lambda: solvers.bounds_rows_for_graph("P9", path_graph(9)),
    ],
    ids=["power", "sweep"],
)
def test_power_set_dominates_its_boundary_sets(monkeypatch, build):
    # The slice at the cut of P9 from an end is {4}; a closed neighborhood
    # of nothing misses the boundary vertices 3 and 5.
    monkeypatch.setattr(slices, "_closed_hood", lambda g, mask: 0)
    with pytest.raises(InvariantViolation) as exc:
        build()
    assert str(exc.value) == "slice neighborhood misses a boundary set it must dominate"


@pytest.mark.parametrize(
    "build",
    [
        lambda: slices.psd_set_from_slices(path_graph(5), 1),
        lambda: slices.power_set_from_slice(path_graph(5), 1),
        lambda: solvers.bounds_rows_for_graph("P5", path_graph(5), ("bounds",)),
    ],
    ids=["psd", "power", "sweep"],
)
def test_efficient_set_must_replay(monkeypatch, build):
    # A propagation from no vertex stalls, as a scan's witness never does.
    monkeypatch.setattr(slices, "propagate", lambda rule, g, base: propagate(rule, g, ()))
    with pytest.raises(InvariantViolation) as exc:
        build()
    assert str(exc.value) == "efficient set failed to replay"


def test_chain_set_must_be_a_witness(monkeypatch):
    g = path_graph(4)
    chron = propagate(Rule.STANDARD, g, {0}).chronology
    monkeypatch.setattr(pips, "verify_witness", lambda g, w: CoverCheck(False, "rejected"))
    with pytest.raises(InvariantViolation) as exc:
        pips.chronology_to_witness(g, chron)
    assert str(exc.value) == "chain set of a valid schedule failed as a witness: rejected"


@pytest.mark.parametrize("func", [induced_path_bundle, relocate_psd_set, certify_rigid_linkage])
def test_induced_bundle_holds_the_base_and_x(monkeypatch, func):
    # Paths cut back to their base vertices still make a valid bundle, but
    # one without x.
    g = path_graph(3)
    chron = propagate(Rule.PSD, g, {0}).chronology
    build = bundles._bundle_from_paths
    monkeypatch.setattr(
        bundles, "_bundle_from_paths", lambda host, paths: build(host, [p[:1] for p in paths])
    )
    with pytest.raises(InvariantViolation) as exc:
        func(g, chron, 2)
    assert str(exc.value) == "induced bundle must contain the base set and x"
