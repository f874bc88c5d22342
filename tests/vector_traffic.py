"""Time solver traffic that reads subset vectors at changing n.

Opt-in, not a test (pytest does not collect this file). Run from anywhere
(``src`` and ``tests`` are put on the path here):

    python tests/vector_traffic.py [--runs 30] [--rounds 3]

The benchmark's solver workloads group their calls by graph, so they read
the subset vectors that ``sliced.kept_vectors`` keeps mostly at the n read
just before. These three cases do not:

- ``one-off``: 15 one-off pt(G, n // 2) calls, each at another n than the
  call before, n = 12..16 three times over;
- ``alternating``: Z, then pt(G, m) for m = Z..Z+2, alternating a graph at
  n = 14 and one at n = 15 call by call;
- ``same-n``: pt(G, n - 3), then ``solve_parameter(g, "pt")``, on one graph
  at n = 16.

Each case is timed ``cold``, with no record kept when a run starts (the
cost a new process pays), and ``warm``, after runs of the case that kept
their records. A line gives, per round, the median wall time of ``--runs``
runs, then, per run, the vector reads, the reads served from a record and
the ``sliced._level`` calls.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time
from random import Random

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from forcelab import sliced  # noqa: E402
from forcelab.forcing import Rule  # noqa: E402
from forcelab.solvers import forcing_number, propagation_time_m, solve_parameter  # noqa: E402
from randgen import random_graph  # noqa: E402


def graph(n: int, seed: int):
    return random_graph(Random(seed), n, 0.3, connected=True)


def one_off() -> list:
    graphs = [graph(n, n) for n in range(12, 17)]
    return [(propagation_time_m, g, g.n // 2, Rule.STANDARD) for _ in range(3) for g in graphs]


def alternating() -> list:
    pair = [graph(14, 14), graph(15, 15)]
    calls = [(forcing_number, g, Rule.STANDARD) for g in pair]
    zs = [forcing_number(g, Rule.STANDARD).value for g in pair]
    for step in range(3):
        calls += [(propagation_time_m, g, z + step, Rule.STANDARD) for g, z in zip(pair, zs)]
    return calls


def same_n() -> list:
    g = graph(16, 16)
    return [(propagation_time_m, g, g.n - 3, Rule.STANDARD), (solve_parameter, g, "pt")]


CASES = {"one-off": one_off, "alternating": alternating, "same-n": same_n}


class Counts:
    """Counts vector reads, reads of a size already held, and ``_level``
    calls while it is installed."""

    def __init__(self):
        self.reads = self.held = self.levels = 0
        self.call, self.level = sliced.SubsetVectors.__call__, sliced._level

    def __enter__(self):
        counts, call, level = self, self.call, self.level

        def read(vectors, k):
            counts.reads += 1
            counts.held += k in vectors.columns
            return call(vectors, k)

        def counted(*args):
            counts.levels += 1
            return level(*args)

        sliced.SubsetVectors.__call__, sliced._level = read, counted
        return self

    def __exit__(self, *exc):
        sliced.SubsetVectors.__call__, sliced._level = self.call, self.level


def run(calls: list) -> float:
    start = time.perf_counter()
    for f, *args in calls:
        f(*args)
    return time.perf_counter() - start


def measure(calls: list, cold: bool, runs: int) -> float:
    """The median of ``runs`` runs of ``calls``, in ms."""
    times = []
    for _ in range(runs):
        if cold:
            sliced.kept_vectors.cache_clear()
        times.append(run(calls))
    return 1000 * statistics.median(times)


def counted(calls: list, cold: bool) -> str:
    sliced.kept_vectors.cache_clear()
    if not cold:
        run(calls)
    with Counts() as c:
        run(calls)
    return f"{c.reads} reads, {c.held} from a record, {c.levels} _level calls"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    for name, make in CASES.items():
        calls = make()
        for cold in (True, False):
            medians = []
            for _ in range(args.rounds):
                sliced.kept_vectors.cache_clear()
                medians.append(measure(calls, cold, args.runs))
            ms = ", ".join(f"{t:.2f}" for t in medians)
            print(f"{name:<12} {'cold' if cold else 'warm'}: {ms} ms; {counted(calls, cold)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
