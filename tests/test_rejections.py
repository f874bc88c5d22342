"""Library input rejections, each pinned by exception type and message.

Every call here refuses its input before doing any work; the CLI's
rejections of malformed files are pinned by the golden cases instead.
"""

import pytest

from forcelab.bundles import validate_path_bundle
from forcelab.errors import BundleError
from forcelab.forcing import (
    Force,
    RelaxedChronology,
    Rule,
    possible_forces,
    propagation_time_of_forces,
    validate_chronology,
)
from forcelab.graphs import (
    CoverCheck,
    Graph,
    cycle_graph,
    grid_graph,
    path_graph,
    validate_path_cover,
)
from forcelab.pips import BlockPartition, PipWitness, family_layout
from forcelab.slices import interval_slice, psd_set_from_slices
from forcelab.solvers import forcing_number, propagation_time_m

P3, P5 = path_graph(3), path_graph(5)
P5_CHRON = RelaxedChronology(Rule.STANDARD, [0], [[(0, 1)], [(1, 2)], [(2, 3)], [(3, 4)]])
P3_PSD = RelaxedChronology(Rule.PSD, [1], [[(1, 0), (1, 2)]])
ONE_STEP = BlockPartition(1, [(0, 1)])

REJECTIONS = {
    "graph-negative-n": (lambda: Graph(-1), ValueError,
                         "vertex count must be nonnegative, got -1"),
    "neighbors-out-of-range": (lambda: P3.neighbors(3), ValueError,
                               "vertex 3 out of range for n=3"),
    "degree-out-of-range": (lambda: P3.degree(-1), ValueError,
                            "vertex -1 out of range for n=3"),
    "cycle-of-2": (lambda: cycle_graph(2), ValueError, "cycle needs at least 3 vertices"),
    "grid-0x2": (lambda: grid_graph(0, 2), ValueError, "grid dimensions must be positive"),
    "partition-negative-k": (lambda: BlockPartition(-1, [(0, 0)]), ValueError,
                             "block partition needs k >= 0 and at least one block"),
    "partition-no-blocks": (lambda: BlockPartition(0, []), ValueError,
                            "block partition needs k >= 0 and at least one block"),
    "witness-partition-count": (lambda: PipWitness(1, [[0], [1]], [ONE_STEP]), ValueError,
                                "one block partition per path is required"),
    "witness-horizons": (lambda: PipWitness(1, [[0, 1]], [BlockPartition(2, [(0, 0), (1, 2)])]),
                         ValueError, "all partitions must share the same horizon k"),
    "witness-path-length": (lambda: PipWitness(1, [[0, 1, 2]], [ONE_STEP]),
                            ValueError, "partition size must match its path length"),
    "family-no-partitions": (lambda: family_layout([]), ValueError,
                             "at least one block partition is required"),
    "bundle-empty-candidate": (lambda: validate_path_bundle(P3, P3_PSD, [[]]), BundleError,
                               "empty candidate path"),
    "rule-token": (lambda: Rule.from_token("x"), ValueError, "unknown rule token 'x'"),
    "rl-inactive-not-blue": (lambda: possible_forces(Rule.RIGID_LINKAGE, P3, [0], [1]),
                             ValueError, "inactive vertices must be blue"),
    "validate-power-domination": (
        lambda: validate_chronology(P3, RelaxedChronology(Rule.POWER_DOMINATION, [1], [])),
        ValueError, "cannot validate schedules for rule power_domination"),
    "forces-time-power-domination": (
        lambda: propagation_time_of_forces(P3, [0], [Force(0, 1)], Rule.POWER_DOMINATION),
        ValueError, "force-set propagation time needs the standard or PSD rule"),
    "forcing-number-rl": (lambda: forcing_number(P3, Rule.RIGID_LINKAGE), ValueError,
                          "no forcing number for rule rigid_linkage"),
    "propagation-time-rl": (lambda: propagation_time_m(P3, 1, Rule.RIGID_LINKAGE), ValueError,
                            "no propagation time for rule rigid_linkage"),
    "interval-m-after-n": (lambda: interval_slice(P5, P5_CHRON, 3, 2), ValueError,
                           "need 0 <= 3 <= 2 <= 4"),
    "slices-no-cut": (lambda: psd_set_from_slices(P5, 1, []), ValueError,
                      "at least one cut time is required"),
    "slices-cut-out-of-range": (lambda: psd_set_from_slices(P5, 1, [5]), ValueError,
                                "cut times must lie in 0..4"),
}


@pytest.mark.parametrize("call, error, message", REJECTIONS.values(), ids=REJECTIONS)
def test_rejection(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_path_cover_with_an_empty_path():
    # validate_path_cover reports, not raises, so callers can word it.
    assert validate_path_cover(P3, [[0, 1, 2], []]) == CoverCheck(False, "path 1 is empty")
