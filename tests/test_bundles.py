from random import Random

import pytest

from forcelab.bundles import (
    certify_rigid_linkage,
    find_linkages,
    induced_path_bundle,
    psd_reversal,
    relocate_psd_set,
    restrict,
    validate_path_bundle,
)
from forcelab.errors import BundleError
from forcelab.forcing import (
    Force,
    RelaxedChronology,
    Replay,
    Rule,
    possible_forces,
    propagate,
    validate_chronology,
)
from forcelab.graphs import Graph, cycle_graph, path_graph, star_graph
from forcelab import bundles, solvers
from randgen import random_chronology, random_forcing_set, random_graph


def psd_chronology(g, base):
    res = propagate(Rule.PSD, g, base)
    assert res.ok
    return res.chronology


class TestRestrict:
    def test_whole_graph_identity(self, grid34_chords, demo_chron):
        r = restrict(grid34_chords, demo_chron, range(12))
        assert r.initial_vertices == demo_chron.base
        assert r.steps == demo_chron.steps
        assert r.ct == demo_chron.ct

    def test_single_vertex(self, grid34_chords, demo_chron):
        r = restrict(grid34_chords, demo_chron, {6})
        assert r.initial_vertices == frozenset({6})
        assert all(step == () for step in r.steps)

    def test_psd_star_edge(self):
        g = star_graph(3)
        chron = psd_chronology(g, {0})
        r = restrict(g, chron, {0, 2})
        assert r.initial_vertices == frozenset({0})
        assert sum(len(s) for s in r.steps) == 1

    def test_step_indices_preserved(self, grid34_chords, demo_chron):
        r = restrict(grid34_chords, demo_chron, {4, 5, 6, 7})
        fired = {k: step for k, step in enumerate(r.steps, start=1) if step}
        assert fired == {3: (Force(4, 5),), 5: (Force(5, 6),), 8: (Force(6, 7),)}

    def test_subgraph_bases_force_their_subgraphs(self):
        rng = Random(67)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            base = random_forcing_set(rng, g)
            chron = random_chronology(rng, g, base)
            keep = frozenset(v for v in range(g.n) if rng.random() < 0.6)
            r = restrict(g, chron, keep)
            sub, sub_chron = r.subgraph_chronology(g)
            # the restriction already validated; check the pt comparison
            res = propagate(Rule.STANDARD, sub.graph, sub_chron.base)
            assert res.ok
            assert res.pt <= chron.ct

    def test_psd_restriction_always_valid_and_no_slower(self):
        rng = Random(71)
        done = attempts = 0
        while done < 30 and attempts < 120:  # a broken engine fails, not spins
            attempts += 1
            g = random_graph(rng, rng.randint(2, 9), 0.35)
            rep = solvers.forcing_number(g, Rule.PSD)
            chron = psd_chronology(g, rep.witnesses[0])
            keep = frozenset(v for v in range(g.n) if rng.random() < 0.6)
            r = restrict(g, chron, keep)  # raises if the guarantee breaks
            sub, sub_chron = r.subgraph_chronology(g)
            res = propagate(Rule.PSD, sub.graph, sub_chron.base)
            assert res.ok and res.pt <= chron.ct
            done += 1
        assert done == 30, attempts

    def test_rejects_other_rules(self, grid34_chords):
        pd = propagate(Rule.POWER_DOMINATION, grid34_chords, {5}).chronology
        with pytest.raises(ValueError):
            restrict(grid34_chords, pd, {0, 1})


SPIDER = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4)])


class TestValidatePathBundle:
    def test_trivial_singletons(self):
        chron = psd_chronology(SPIDER, {0})
        bundle = validate_path_bundle(SPIDER, chron, [(0,)])
        assert bundle.paths == ((0,),)
        assert bundle.terminus() == frozenset({0})

    def test_single_leg(self):
        chron = psd_chronology(SPIDER, {0})
        bundle = validate_path_bundle(SPIDER, chron, [(0, 1, 2)])
        assert bundle.paths == ((0, 1, 2),)
        assert bundle.restriction.initial_vertices == frozenset({0})

    def test_interior_subpath(self):
        chron = psd_chronology(SPIDER, {0})
        bundle = validate_path_bundle(SPIDER, chron, [(1, 2)])
        assert bundle.restriction.initial_vertices == frozenset({1})

    def test_path_through_fork_rejected(self):
        chron = psd_chronology(SPIDER, {0})
        with pytest.raises(BundleError):
            validate_path_bundle(SPIDER, chron, [(1, 0, 3)])

    def test_skipping_tree_vertices_rejected(self):
        chron = psd_chronology(SPIDER, {0})
        with pytest.raises(BundleError):
            validate_path_bundle(SPIDER, chron, [(0, 2)])  # 0-2 not an edge

    def test_cross_tree_candidate_rejected(self):
        g = path_graph(4)
        chron = psd_chronology(g, {0, 3})
        with pytest.raises(BundleError):
            validate_path_bundle(g, chron, [(1, 2), (3,)])

    def test_candidate_count_enforced(self):
        g = path_graph(4)
        chron = psd_chronology(g, {0, 3})
        with pytest.raises(BundleError):
            validate_path_bundle(g, chron, [(0, 1)])

    @pytest.mark.parametrize(
        "candidates, message",
        [
            ([(99,)], "candidate [99] is not a path"),
            ([(-1,)], "candidate [-1] is not a path"),
            ([(0, 99)], "candidate [0, 99] is not a path"),
            ([(1, 2), (3,)], "candidate [1, 2] is not inside a single tree"),
            ([(0,), (1,)], "two candidates inside the tree rooted at 0"),
        ],
    )
    def test_rejection_messages(self, candidates, message):
        # Out-of-range vertices are no path, whatever the candidate's length.
        g = path_graph(4)
        chron = psd_chronology(g, {0} if len(candidates) == 1 else {0, 3})
        with pytest.raises(BundleError) as exc:
            validate_path_bundle(g, chron, candidates)
        assert str(exc.value) == message

    def test_restricted_rejection_messages(self):
        # 1 forces 4 while 2, kept, is white too. The text names the
        # induced subgraph's vertices 1, 2, 3, 4 as 0, 1, 2, 3.
        g = Graph(5, [(0, 1), (1, 2), (1, 4), (2, 3)])
        chron = RelaxedChronology(Rule.PSD, {1, 3}, [[(1, 0), (1, 4), (3, 2)]])
        with pytest.raises(BundleError) as exc:
            validate_path_bundle(g, chron, [(1, 4), (3, 2)])
        assert str(exc.value) == (
            "restricted schedule is not standard-valid: step 1: force 0->3 is not legal there"
        )
        # One candidate per tree makes every candidate a restricted chain
        # once the restriction is standard-valid, so a chain mismatch takes
        # a path list that is no bundle: here two paths on one chain.
        g = path_graph(3)
        host = Replay(g, psd_chronology(g, {0}))
        with pytest.raises(BundleError) as exc:
            bundles._bundle_from_paths(host, [(0, 1), (2,)])
        assert str(exc.value) == "chain set mismatch: path [0, 1] is not a restricted chain"

    def test_reversed_candidates_accepted(self):
        g = path_graph(4)
        chron = psd_chronology(g, {0, 3})
        bundle = validate_path_bundle(g, chron, [(1, 0), (2, 3)])
        assert bundle.paths == ((0, 1), (3, 2))

    def test_standard_rule_host_rejected(self):
        g = path_graph(3)
        chron = propagate(Rule.STANDARD, g, {0}).chronology
        with pytest.raises(ValueError):
            validate_path_bundle(g, chron, [(0, 1, 2)])


class TestInducedBundle:
    def test_base_vertex_gives_trivial_bundle(self):
        chron = psd_chronology(SPIDER, {0})
        bundle = induced_path_bundle(SPIDER, chron, 0)
        assert bundle.paths == ((0,),)

    def test_star_leaf(self):
        g = star_graph(3)
        chron = psd_chronology(g, {0})
        bundle = induced_path_bundle(g, chron, 2)
        assert bundle.paths == ((0, 2),)

    def test_contains_base_and_target(self):
        rng = Random(73)
        done = attempts = 0
        while done < 60 and attempts < 240:  # a broken engine fails, not spins
            attempts += 1
            g = random_graph(rng, rng.randint(2, 9), 0.35)
            rep = solvers.forcing_number(g, Rule.PSD)
            base = rng.choice(rep.witnesses)
            chron = psd_chronology(g, base)
            x = rng.randrange(g.n)
            bundle = induced_path_bundle(g, chron, x)
            assert x in bundle.sub_vertices
            assert base <= bundle.sub_vertices
            assert len(bundle.paths) == len(base)
            done += 1
        assert done == 60, attempts

    def test_late_vertex_bundle_bounds_psd_time(self):
        # for a maximal PSD schedule and any x forced in its final step,
        # pt(H, B) <= pt+(G, B) <= |V(H)| - |B| over the bundle subgraph H
        rng = Random(149)
        done = attempts = 0
        while done < 30 and attempts < 120:  # a broken engine fails, not spins
            attempts += 1
            g = random_graph(rng, rng.randint(2, 8), 0.4, connected=True)
            rep = solvers.forcing_number(g, Rule.PSD)
            base = rep.witnesses[0]
            res = propagate(Rule.PSD, g, base)
            chron = res.chronology
            if chron.ct == 0:
                continue
            for x in sorted(f.dst for f in chron.steps[-1]):
                bundle = induced_path_bundle(g, chron, x)
                sub, sub_chron = bundle.restriction.subgraph_chronology(g)
                inner = propagate(Rule.STANDARD, sub.graph, sub_chron.base)
                assert inner.ok
                assert inner.pt <= res.pt
                assert res.pt <= len(bundle.sub_vertices) - len(base)
            done += 1
        assert done == 30, attempts

    def test_propagating_bundle_has_a_force_every_step(self):
        rng = Random(79)
        done = attempts = 0
        while done < 30 and attempts < 120:  # a broken engine fails, not spins
            attempts += 1
            g = random_graph(rng, rng.randint(2, 9), 0.35, connected=True)
            rep = solvers.forcing_number(g, Rule.PSD)
            chron = psd_chronology(g, rep.witnesses[0])
            x = rng.randrange(g.n)
            bundle = induced_path_bundle(g, chron, x)
            fired_steps = [k for k, step in enumerate(bundle.restriction.steps) if step]
            if fired_steps:
                # at least one force per step until the bundle is blue
                assert fired_steps == list(range(fired_steps[-1] + 1))
            done += 1
        assert done == 30, attempts


class TestPsdReversal:
    def test_base_vertex_keeps_base(self):
        chron = psd_chronology(SPIDER, {0})
        new_base, new_chron = psd_reversal(SPIDER, chron, 0)
        assert new_base == frozenset({0})
        assert new_chron.force_set() == chron.force_set()

    def test_path_full_flip(self):
        g = path_graph(5)
        chron = psd_chronology(g, {0})
        new_base, new_chron = psd_reversal(g, chron, 4)
        assert new_base == frozenset({4})
        assert new_chron.force_set() == frozenset(
            Force(i + 1, i) for i in range(4)
        )

    def test_relocation_examples(self):
        g = star_graph(3)
        chron = psd_chronology(g, {0})
        new_base, new_chron = relocate_psd_set(g, chron, 2)
        assert new_base == frozenset({2})
        validate_chronology(g, new_chron)

    def test_exhaustive_small_sweep(self):
        rng = Random(83)
        done = attempts = 0
        while done < 25 and attempts < 100:  # a broken engine fails, not spins
            attempts += 1
            g = random_graph(rng, rng.randint(2, 7), 0.4, connected=True)
            rep = solvers.forcing_number(g, Rule.PSD)
            for base in rep.witnesses[:3]:
                chron = psd_chronology(g, base)
                for x in range(g.n):
                    new_base, new_chron = relocate_psd_set(g, chron, x)
                    assert len(new_base) == rep.value
                    assert x in new_base
            done += 1
        assert done == 25, attempts


class TestRelaxedPsdSchedules:
    def test_relocation_and_rigidity_beyond_propagating_schedules(self):
        # the guarantees hold for any valid PSD schedule, not just the
        # maximal per-step ones; exercise delayed and idle-step schedules
        from randgen import random_psd_chronology

        rng = Random(127)
        cases = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.15, 0.55))
            rep = solvers.forcing_number(g, Rule.PSD)
            base = rng.choice(rep.witnesses)
            chron = random_psd_chronology(rng, g, base)
            for x in range(g.n):
                new_base, _ = relocate_psd_set(g, chron, x)
                assert len(new_base) == len(base) and x in new_base
                cert = certify_rigid_linkage(g, chron, x)
                search = find_linkages(g, cert.alpha, cert.beta)
                assert len(search.linkages) == 1
                cases += 1
        assert cases > 200


class TestRigidLinkage:
    def test_trivial_certificate(self):
        chron = psd_chronology(SPIDER, {0})
        cert = certify_rigid_linkage(SPIDER, chron, 0)
        assert cert.alpha == cert.beta == frozenset({0})
        assert cert.steps == () and cert.valid

    def test_path_certificate(self):
        g = path_graph(5)
        chron = psd_chronology(g, {0})
        cert = certify_rigid_linkage(g, chron, 4)
        assert cert.alpha == frozenset({0})
        assert cert.beta == frozenset({4})
        assert [f.dst for f in cert.steps] == [1, 2, 3, 4]

    def test_standard_schedules_replay_as_rigid_linkage(self):
        # serialized standard forcing is always a valid RL process
        rng = Random(89)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 9), 0.35)
            res = propagate(Rule.STANDARD, g, random_forcing_set(rng, g))
            blue = set(res.chronology.base)
            inactive = set()
            for f in res.chronology.all_forces():
                legal = possible_forces(Rule.RIGID_LINKAGE, g, blue, inactive)
                assert f in legal
                blue.add(f.dst)
                inactive.add(f.src)

    def test_certificates_match_linkage_oracle(self):
        rng = Random(97)
        done = attempts = 0
        while done < 20 and attempts < 80:  # a broken engine fails, not spins
            attempts += 1
            g = random_graph(rng, rng.randint(2, 6), 0.45, connected=True)
            rep = solvers.forcing_number(g, Rule.PSD)
            chron = psd_chronology(g, rep.witnesses[0])
            x = rng.randrange(g.n)
            bundle = induced_path_bundle(g, chron, x)
            cert = certify_rigid_linkage(g, chron, x)
            search = find_linkages(g, cert.alpha, cert.beta)
            assert not search.truncated
            assert len(search.linkages) == 1
            normalized = tuple(
                sorted(p if p[0] <= p[-1] else p[::-1] for p in bundle.paths)
            )
            assert search.linkages[0] == normalized
            done += 1
        assert done == 20, attempts


class TestFindLinkages:
    def test_path_unique(self):
        search = find_linkages(path_graph(5), [0], [4])
        assert search.linkages == (((0, 1, 2, 3, 4),),)

    def test_cycle_has_two(self):
        search = find_linkages(cycle_graph(4), [0], [2])
        assert len(search.linkages) == 2

    def test_singleton_overlap(self):
        search = find_linkages(path_graph(3), [0, 1], [1, 2])
        # vertex 1 must stand alone; 0 reaches 2 through... blocked, so
        # only the linkage {path 0, path (1)}? 0 must end at 2 via 1: used.
        assert search.linkages == ()

    def test_adjacent_pair_identity(self):
        search = find_linkages(path_graph(2), [0, 1], [0, 1])
        assert search.linkages == (((0,), (1,)),)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            find_linkages(path_graph(3), [0], [1, 2])

    def test_limit_truncates(self):
        g = cycle_graph(6)
        search = find_linkages(g, [0], [3], limit=1)
        assert search.truncated and len(search.linkages) == 1

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, limit):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            find_linkages(path_graph(4), [0], [3], limit=limit)
