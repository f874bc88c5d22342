import pathlib

import pytest

from forcelab.forcing import RelaxedChronology, Rule
from forcelab.graphs import Graph, grid_graph
from forcelab.pips import BlockPartition, PipWitness

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", help="also run tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long exhaustive checks, run only with --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def inputs_dir() -> pathlib.Path:
    return INPUTS


@pytest.fixture(scope="session")
def ladder() -> Graph:
    """Two 4-paths joined by rungs; ids 0..3 top row, 4..7 bottom row."""
    return Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7),
                     (0, 4), (1, 5), (2, 6), (3, 7)])


@pytest.fixture(scope="session")
def ladder_chord(ladder) -> Graph:
    return Graph(8, list(ladder.edges()) + [(1, 6)])


@pytest.fixture(scope="session")
def grid34() -> Graph:
    """3x4 grid, row-major ids: row i is 4i..4i+3."""
    return grid_graph(3, 4)


@pytest.fixture(scope="session")
def grid34_chords(grid34) -> Graph:
    return Graph(12, list(grid34.edges()) + [(1, 4), (5, 8), (3, 6), (6, 11)])


@pytest.fixture(scope="session")
def grid34_chords5(grid34_chords) -> Graph:
    return Graph(12, list(grid34_chords.edges()) + [(2, 9)])


@pytest.fixture(scope="session")
def demo_chron() -> RelaxedChronology:
    """Eight-step schedule from the left column of the 3x4 grid; valid on
    the grid and on both chorded variants. Step 2 is deliberately empty."""
    return RelaxedChronology(
        Rule.STANDARD,
        [0, 4, 8],
        [[(0, 1)], [], [(4, 5)], [(8, 9), (1, 2)], [(5, 6)],
         [(2, 3), (9, 10)], [(10, 11)], [(6, 7)]],
    )


# Frozen activity table for demo_chron on the chorded grid: (first, last)
# active step per vertex id.
DEMO_SPANS = [(0, 0), (1, 3), (4, 5), (6, 8),
              (0, 2), (3, 4), (5, 7), (8, 8),
              (0, 3), (4, 5), (6, 6), (7, 8)]


@pytest.fixture(scope="session")
def demo_spans():
    return DEMO_SPANS


@pytest.fixture(scope="session")
def three_path_tree() -> Graph:
    """Ten-vertex tree covered by paths (0,1,2), (3,4,5), (6,7,8,9) with
    cross links 1-3 and 4-7."""
    return Graph(10, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8), (8, 9),
                      (1, 3), (4, 7)])


@pytest.fixture(scope="session")
def tree_witness() -> PipWitness:
    k = 4
    return PipWitness(
        k,
        [(0, 1, 2), (3, 4, 5), (6, 7, 8, 9)],
        [
            BlockPartition(k, [(0, 0), (1, 1), (2, 4)]),
            BlockPartition(k, [(0, 1), (2, 2), (3, 4)]),
            BlockPartition(k, [(0, 0), (1, 2), (3, 3), (4, 4)]),
        ],
    )


@pytest.fixture(scope="session")
def fan_partitions():
    k = 4
    return [
        BlockPartition(k, [(0, 0), (1, 3), (4, 4)]),
        BlockPartition(k, [(0, 4)]),
        BlockPartition(k, [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]),
    ]
