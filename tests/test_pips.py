from random import Random

import pytest

from forcelab.errors import CapExceeded, WitnessError
from forcelab.forcing import Force, RelaxedChronology, Rule, propagate
from forcelab.graphs import Graph, complete_graph, grid_graph, path_graph, petersen_graph
from forcelab.pips import (
    BlockPartition,
    PipWitness,
    chronology_to_witness,
    family_layout,
    generate_family,
    pip_number,
    pip_number_by_search,
    verify_witness,
    witness_to_chronology,
)
from forcelab import solvers
from forcelab.solvers import forcing_number
from randgen import random_chronology, random_forcing_set, random_graph


class TestBlockPartition:
    def test_valid(self):
        part = BlockPartition(4, [(0, 0), (1, 2), (3, 4)])
        assert len(part) == 3
        assert part.block_of(1) == frozenset({1, 2})

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            BlockPartition(4, [(0, 0), (2, 4)])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            BlockPartition(4, [(0, 2), (2, 4)])

    def test_short_rejected(self):
        with pytest.raises(ValueError):
            BlockPartition(4, [(0, 3)])

    def test_from_sets(self):
        part = BlockPartition.from_sets(2, [{0}, {1, 2}])
        assert part.blocks == ((0, 0), (1, 2))

    def test_from_sets_rejects_an_empty_set(self):
        with pytest.raises(ValueError, match="blocks must tile 0..2 in order"):
            BlockPartition.from_sets(2, [set(), {0, 1, 2}])

    def test_from_sets_rejects_a_set_with_a_gap(self):
        with pytest.raises(ValueError, match=r"block \[0, 2\] is not a run of consecutive integers"):
            BlockPartition.from_sets(3, [{0, 2}, {3}])


class TestVerifyWitness:
    def test_tree_witness(self, three_path_tree, tree_witness):
        assert verify_witness(three_path_tree, tree_witness).ok

    def test_showcase_graph_witness(self, grid34_chords5, demo_spans):
        witness = PipWitness(
            8,
            [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)],
            [
                BlockPartition(8, [demo_spans[v] for v in row])
                for row in ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))
            ],
        )
        assert verify_witness(grid34_chords5, witness).ok

    def test_partition_gap_is_a_construction_error(self, tree_witness):
        with pytest.raises(ValueError):
            BlockPartition(4, [(0, 1), (3, 3), (3, 4)])

    def test_disjoint_blocks_on_edge_rejected(self, three_path_tree, tree_witness):
        # same paths, but slide the second partition so the cross edge 1-3
        # pairs {1} with {2}: blocks no longer intersect
        k = 4
        bad = PipWitness(
            k,
            tree_witness.paths,
            [
                tree_witness.partitions[0],
                BlockPartition(k, [(0, 0), (1, 2), (3, 4)]),
                tree_witness.partitions[2],
            ],
        )
        # edge 1-3 joins path-0 block {1} and path-1 block {0}; still fine,
        # but edge 4-7 now joins {1,2} with {1,2}; craft a real violation:
        worse = PipWitness(
            k,
            tree_witness.paths,
            [
                BlockPartition(k, [(0, 2), (3, 3), (4, 4)]),
                tree_witness.partitions[1],
                tree_witness.partitions[2],
            ],
        )
        check = verify_witness(three_path_tree, worse)
        assert not check.ok
        assert "disjoint" in check.violation

    def test_bad_cover_reported(self, three_path_tree, tree_witness):
        shuffled = PipWitness(
            4,
            [(0, 2, 1), (3, 4, 5), (6, 7, 8, 9)],
            tree_witness.partitions,
        )
        check = verify_witness(three_path_tree, shuffled)
        assert not check.ok and "path cover" in check.violation


class TestWitnessChronologyBridge:
    def test_tree_witness_schedules(self, three_path_tree, tree_witness):
        chron = witness_to_chronology(three_path_tree, tree_witness)
        assert chron.base == frozenset({0, 3, 6})
        assert chron.ct == 4
        assert chron.steps[0] == (Force(0, 1), Force(6, 7))

    def test_showcase_witness_reproduces_demo(self, grid34_chords, demo_chron, demo_spans):
        witness = PipWitness(
            8,
            [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)],
            [
                BlockPartition(8, [demo_spans[v] for v in row])
                for row in ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))
            ],
        )
        assert witness_to_chronology(grid34_chords, witness) == demo_chron

    def test_single_path_singleton_blocks(self):
        g = path_graph(4)
        witness = PipWitness(
            3, [(0, 1, 2, 3)], [BlockPartition(3, [(j, j) for j in range(4)])]
        )
        chron = witness_to_chronology(g, witness)
        assert chron.steps == ((Force(0, 1),), (Force(1, 2),), (Force(2, 3),))

    def test_idle_leading_and_trailing_steps(self):
        # no block starts at 1 or ends the horizon with a force, so the
        # schedule keeps idle steps at both ends
        g = path_graph(2)
        witness = PipWitness(
            3, [(0, 1)], [BlockPartition(3, [(0, 1), (2, 3)])]
        )
        chron = witness_to_chronology(g, witness)
        assert chron.steps == ((), (Force(0, 1),), ())

    def test_all_singletons_always_verify(self, three_path_tree):
        trivial = PipWitness(
            0, [(v,) for v in range(10)], [BlockPartition(0, [(0, 0)])] * 10
        )
        chron = witness_to_chronology(three_path_tree, trivial)
        assert chron.ct == 0 and chron.base == frozenset(range(10))

    def test_invalid_witness_raises(self):
        from forcelab.graphs import cycle_graph

        # on a 4-cycle the misaligned orientation pairs {1} with {0}
        bad = PipWitness(
            1,
            [(0, 1), (2, 3)],
            [BlockPartition(1, [(0, 0), (1, 1)])] * 2,
        )
        with pytest.raises(WitnessError):
            witness_to_chronology(cycle_graph(4), bad)

    def test_extract_demo_table(self, grid34_chords, demo_chron, demo_spans):
        witness = chronology_to_witness(grid34_chords, demo_chron)
        assert witness.k == 8
        assert witness.paths == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11))
        for path, part in zip(witness.paths, witness.partitions):
            assert [demo_spans[v] for v in path] == list(part.blocks)

    def test_trivial_chronology_on_edgeless_graph(self):
        g = Graph(3)
        chron = RelaxedChronology(Rule.STANDARD, {0, 1, 2}, [])
        witness = chronology_to_witness(g, chron)
        assert witness.paths == ((0,), (1,), (2,))
        assert all(part.blocks == ((0, 0),) for part in witness.partitions)

    def test_round_trip_random(self):
        rng = Random(37)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), 0.35)
            base = random_forcing_set(rng, g)
            chron = random_chronology(rng, g, base)
            witness = chronology_to_witness(g, chron)
            assert verify_witness(g, witness).ok
            back = witness_to_chronology(g, witness)
            assert back == chron
            # the paths may come in any order
            flipped = PipWitness(witness.k, witness.paths[::-1], witness.partitions[::-1])
            assert witness_to_chronology(g, flipped) == chron


class TestFamilies:
    def test_fan_layout_edge_sets(self, fan_partitions):
        layout = family_layout(fan_partitions)
        assert layout.n == 9
        assert layout.path_edges == (
            (0, 1), (1, 2), (4, 5), (5, 6), (6, 7), (7, 8)
        )
        assert layout.cross_edges == (
            (0, 3), (0, 4), (1, 3), (1, 5), (1, 6), (1, 7), (2, 3), (2, 8),
            (3, 4), (3, 5), (3, 6), (3, 7), (3, 8),
        )

    def test_fan_maximal_member_matches_shipped_graph(self, fan_partitions, inputs_dir):
        from forcelab.graphs import load_graph

        members = list(generate_family(fan_partitions, mode="extremes"))
        shipped = load_graph(str(inputs_dir / "fan_family_max.edges"))
        assert members[1].graph == shipped
        assert members[0].graph.m == 6  # path edges only

    def test_single_path_family_is_one_path(self):
        parts = [BlockPartition(3, [(j, j) for j in range(4)])]
        members = list(generate_family(parts, mode="enumerate"))
        assert len(members) == 1
        assert members[0].graph == path_graph(4)

    def test_single_block_rows_build_complete_graph(self):
        parts = [BlockPartition(2, [(0, 2)]) for _ in range(4)]
        layout = family_layout(parts)
        assert layout.path_edges == ()
        assert len(layout.cross_edges) == 6
        members = list(generate_family(parts, mode="extremes"))
        assert members[1].graph == complete_graph(4)
        assert members[1].certified_forcing_upper == 4

    def test_every_member_carries_a_verified_certificate(self, tree_witness):
        parts = list(tree_witness.partitions)
        for member in generate_family(parts, mode="sample", count=25, seed=3):
            assert verify_witness(member.graph, member.witness).ok
            res = propagate(Rule.STANDARD, member.graph, member.witness.base())
            assert res.ok and res.pt <= member.certified_pt_upper

    def test_enumerate_mode_counts(self):
        parts = [
            BlockPartition(1, [(0, 0), (1, 1)]),
            BlockPartition(1, [(0, 1)]),
        ]
        layout = family_layout(parts)
        members = list(generate_family(parts, mode="enumerate"))
        assert len(members) == 1 << len(layout.cross_edges)
        seen = {m.graph for m in members}
        assert len(seen) == len(members)

    def test_enumerate_threshold(self):
        parts = [BlockPartition(4, [(0, 4)]) for _ in range(8)]  # 28 cross edges
        with pytest.raises(CapExceeded):
            list(generate_family(parts, mode="enumerate"))

    @pytest.mark.parametrize(
        "mode, count, error",
        [
            ("enumerate", None, CapExceeded),
            ("sample", None, ValueError),
            ("sample", -1, ValueError),
            ("nope", 3, ValueError),
        ],
    )
    def test_bad_arguments_raise_at_the_call(self, mode, count, error):
        parts = [BlockPartition(4, [(0, 4)]) for _ in range(8)]  # 28 cross edges
        with pytest.raises(error):
            generate_family(parts, mode=mode, count=count)  # no next() needed

    def test_mismatched_horizon_rejected(self):
        with pytest.raises(ValueError):
            family_layout([
                BlockPartition(2, [(0, 2)]),
                BlockPartition(3, [(0, 3)]),
            ])

    def test_sampling_is_seeded(self, fan_partitions):
        a = [m.graph for m in generate_family(fan_partitions, "sample", count=6, seed=9)]
        b = [m.graph for m in generate_family(fan_partitions, "sample", count=6, seed=9)]
        assert a == b

    def test_propagating_family_members_keep_bounds(self):
        # members built from a maximal schedule keep both certified bounds
        g = grid_graph(2, 3)
        res = propagate(Rule.STANDARD, g, {0, 3})
        witness = chronology_to_witness(g, res.chronology)
        members = list(generate_family(list(witness.partitions), mode="enumerate"))
        for member in members:
            z = solvers.forcing_number(member.graph, Rule.STANDARD).value
            assert z <= len(witness.paths)
            replay = propagate(Rule.STANDARD, member.graph, witness.base())
            assert replay.ok and replay.pt <= res.pt


class TestPipNumber:
    def test_paths(self):
        for n in (1, 2, 6):
            assert pip_number(path_graph(n)) == 1

    def test_small_grids_match_min_dimension(self):
        for s, t in [(2, 2), (3, 2), (4, 3)]:
            assert pip_number(grid_graph(s, t)) == min(s, t)

    def test_petersen(self):
        assert pip_number(petersen_graph()) == 5

    def test_direct_search_matches_solver_on_tiny_graphs(self):
        # disconnected graphs included: the equality needs no connectivity
        # Graph(0): the empty cover admits the empty witness, and Z is 0
        rng = Random(41)
        graphs = [random_graph(rng, rng.randint(1, 6), rng.uniform(0.1, 0.6)) for _ in range(40)]
        for g in [Graph(0), *graphs]:
            assert pip_number_by_search(g) == forcing_number(g, Rule.STANDARD).value

    def test_direct_search_cap(self):
        with pytest.raises(CapExceeded):
            pip_number_by_search(path_graph(9), cap=8)
