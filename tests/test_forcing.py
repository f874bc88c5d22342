import tracemalloc
from functools import partial
from random import Random

import pytest
from hypothesis import given, settings

from forcelab import forcing, sliced, slices, solvers
from forcelab.bundles import restrict
from forcelab.errors import ChronologyError, InfeasibleError
from forcelab.forcing import (
    Force,
    RelaxedChronology,
    Replay,
    Rule,
    _psd_step,
    active_times,
    activity_spans,
    forcing_cover,
    possible_forces,
    propagate,
    propagation_time_of_forces,
    restriction_initials,
    reversal,
    terminus,
    validate_chronology,
)
from forcelab.graphs import (
    Graph,
    cycle_graph,
    mask_of,
    path_graph,
    set_of,
    star_graph,
)
import naive
from randgen import (
    random_chronology,
    random_forcing_set,
    random_graph,
    random_instance,
    random_linkage_chronology,
    random_psd_chronology,
)
from strategies import graphs


class TestPossibleForces:
    def test_ladder_chord_start(self, ladder_chord):
        got = possible_forces(Rule.STANDARD, ladder_chord, {0, 4})
        assert got == {Force(0, 1), Force(4, 5)}

    def test_psd_star_forks(self):
        got = possible_forces(Rule.PSD, star_graph(3), {0})
        assert got == {Force(0, 1), Force(0, 2), Force(0, 3)}

    def test_all_blue_no_forces(self):
        assert possible_forces(Rule.STANDARD, path_graph(4), range(4)) == frozenset()

    def test_power_domination_rejected(self):
        with pytest.raises(ValueError):
            possible_forces(Rule.POWER_DOMINATION, path_graph(3), {0})

    def test_standard_needs_unique_white(self):
        assert possible_forces(Rule.STANDARD, star_graph(3), {0}) == frozenset()

    def test_rl_skips_components_behind_inactive(self):
        # 1 has forced; any white component it borders is frozen
        g = path_graph(4)
        got = possible_forces(Rule.RIGID_LINKAGE, g, {0, 1}, inactive={1})
        assert got == frozenset()
        got = possible_forces(Rule.RIGID_LINKAGE, g, {0, 1}, inactive=())
        assert got == {Force(1, 2)}


class TestEngineAgreesWithNaiveReference:
    """The bitmask engine against the set-based rules in tests/naive.py."""

    @staticmethod
    def random_cases(seed, count):
        rng = Random(seed)
        for _ in range(count):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.6))
            blue = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            yield rng, g, blue

    def test_possible_forces_random(self):
        for rng, g, blue in self.random_cases(107, 300):
            for rule in (Rule.STANDARD, Rule.PSD):
                assert possible_forces(rule, g, blue) == naive.forces(rule, g, blue)
            idle = frozenset(v for v in blue if rng.random() < 0.4)
            assert possible_forces(Rule.RIGID_LINKAGE, g, blue, idle) == (
                naive.forces(Rule.RIGID_LINKAGE, g, blue, idle)
            )

    def test_rounds_random(self):
        """Propagation rounds, and propagate's steps, for the maximal
        processes; ``slices._rounds``, the walk the slice checks count
        with, and the rule's own rounds table (r + 2 for r rounds, 1 for a
        stall) must agree with them. For the standard and PSD rules, every
        mask of the process is then read back the same two ways."""
        rules = (Rule.STANDARD, Rule.PSD, Rule.POWER_DOMINATION)
        for _, g, blue in self.random_cases(109, 200):
            for rule in rules:
                steps = naive.maximal_steps(rule, g, blue)
                rounds = -1 if steps is None else len(steps)
                res = propagate(rule, g, blue)
                assert (res.pt if res.ok else -1) == rounds
                if res.ok:
                    assert [list(s) for s in res.chronology.steps] == steps
                table = sliced.rounds_table(rule, g.adj, g.n)
                assert slices._rounds(rule, g, mask_of(blue)) == rounds
                assert table[mask_of(blue)] - 2 == rounds
                if rule is Rule.POWER_DOMINATION:
                    continue
                colored = set(blue)
                for k, step in enumerate(steps or ()):
                    colored |= {f.dst for f in step}
                    left = rounds - k - 1
                    assert slices._rounds(rule, g, mask_of(colored)) == left
                    assert table[mask_of(colored)] - 2 == left


def disjoint_union(*parts: Graph) -> Graph:
    edges, offset = [], 0
    for part in parts:
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        offset += part.n
    return Graph(offset, edges)


class TestPsdStepEdgeCases:
    """The PSD step's once/twice counting on stars, paths and cycles."""

    def test_star_centre_forces_every_leaf(self):
        star = star_graph(3)
        assert possible_forces(Rule.PSD, star, {0}) == naive.forces(Rule.PSD, star, {0})
        assert possible_forces(Rule.PSD, star, {0}) == {Force(0, 1), Force(0, 2), Force(0, 3)}
        assert possible_forces(Rule.STANDARD, star, {0}) == frozenset()

    def test_cycle_with_one_blue_vertex_has_no_psd_force(self):
        # the white path 1-2-3 holds both of 0's neighbors
        assert possible_forces(Rule.PSD, cycle_graph(4), {0}) == frozenset()

    def test_idle_star_centre_forces_nothing(self):
        got = possible_forces(Rule.RIGID_LINKAGE, star_graph(3), {0}, inactive={0})
        assert got == frozenset()

    def test_forces_listed_by_component_then_source(self):
        # White components {1}, {2}, {3, 4}, in order of their least vertex:
        # 6 forces into the first, 0 into the second, 5 and 7 into the last.
        g = Graph(8, [(1, 6), (0, 2), (5, 4), (4, 3), (3, 7), (0, 5)])
        forces = []
        add = _psd_step(g.adjacency_masks(), 0b11100001, forces)
        assert forces == [Force(6, 1), Force(0, 2), Force(5, 4), Force(7, 3)]
        assert add == 0b11110

    def test_unions_of_stars_paths_and_cycles_random(self):
        rng = Random(113)
        shapes = (star_graph, path_graph, cycle_graph)
        for _ in range(300):
            parts = [rng.choice(shapes)(rng.randint(3, 6)) for _ in range(rng.randint(1, 4))]
            g = disjoint_union(*parts)
            blue = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            idle = frozenset(v for v in blue if rng.random() < 0.3)
            for rule in (Rule.STANDARD, Rule.PSD):
                assert possible_forces(rule, g, blue) == naive.forces(rule, g, blue)
            assert possible_forces(Rule.RIGID_LINKAGE, g, blue, idle) == (
                naive.forces(Rule.RIGID_LINKAGE, g, blue, idle)
            )
            forces = []
            _psd_step(g.adjacency_masks(), sum(1 << v for v in blue), forces)
            assert len(forces) == len(set(forces))


class TestValidateChronology:
    def test_demo_valid_on_both_grids(self, grid34, grid34_chords, demo_chron):
        for g in (grid34, grid34_chords):
            expansion = validate_chronology(g, demo_chron)
            assert expansion[0] == frozenset({0, 4, 8})
            assert expansion[-1] == frozenset(range(12))
            assert expansion[2] == expansion[1]  # idle step

    def test_ladder_family_valid_on_both(self, ladder, ladder_chord):
        chron = RelaxedChronology(
            Rule.STANDARD,
            [0, 4],
            [[(0, 1), (4, 5)], [(5, 6)], [(1, 2)], [(2, 3), (6, 7)]],
        )
        validate_chronology(ladder, chron)
        validate_chronology(ladder_chord, chron)

    def test_premature_force_reports_step_and_force(self, grid34, demo_chron):
        steps = list(demo_chron.steps)
        steps[0], steps[3] = steps[3], steps[0]
        bad = RelaxedChronology(Rule.STANDARD, demo_chron.base, steps)
        with pytest.raises(ChronologyError) as err:
            validate_chronology(grid34, bad)
        assert err.value.step == 1
        assert err.value.force == Force(1, 2)

    def test_duplicate_target_rejected(self):
        g = path_graph(3)
        bad = RelaxedChronology(Rule.STANDARD, {0, 2}, [[(0, 1), (2, 1)]])
        with pytest.raises(ChronologyError) as err:
            validate_chronology(g, bad)
        assert "target" in str(err.value)

    def test_incomplete_coloring_rejected(self):
        bad = RelaxedChronology(Rule.STANDARD, {0}, [[(0, 1)]])
        with pytest.raises(ChronologyError) as err:
            validate_chronology(path_graph(4), bad)
        assert "remain" in str(err.value)

    def test_expansion_growth_matches_step_sizes(self):
        rng = Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 9), 0.35)
            base = random_forcing_set(rng, g)
            chron = random_chronology(rng, g, base)
            expansion = validate_chronology(g, chron)
            for k, step in enumerate(chron.steps, start=1):
                assert expansion[k - 1] <= expansion[k]
                assert len(expansion[k]) - len(expansion[k - 1]) == len(step)

    @pytest.mark.parametrize("make", [random_chronology, random_psd_chronology,
                                      random_linkage_chronology])
    def test_per_force_check_matches_legal_sets(self, make):
        # Every single-force mutation of random valid schedules gets the same
        # expansion, or the same exception with the same message, step and
        # force, from the per-force check and from whole legal-force sets.
        # Without the expansion the check raises the same exception, and
        # nothing where the expansion is returned.
        rng = Random(19)
        schedules = mutations = 0
        for _ in range(400):
            g = random_graph(rng, rng.randint(3, 9), rng.uniform(0.2, 0.6), connected=True)
            chron = make(rng, g, random_forcing_set(rng, g))
            if chron is None:
                continue
            schedules += 1
            for bad in single_force_mutations(chron, g.n):
                mutations += 1
                got = outcome(validate_chronology, g, bad)
                assert got == outcome(naive.legal_set_replay, g, bad), bad
                lean = outcome(partial(validate_chronology, expand=False), g, bad)
                assert lean == (None if isinstance(got, list) else got), bad
            if schedules == 100:
                break
        assert schedules == 100 and mutations > 12000

    @pytest.mark.parametrize(
        "rule, g, base, floods",
        [
            # From the middle of P2000 each step forces the near end of both
            # white paths, each of which stays a path: two floods in all,
            # where flooding at every step takes 1,999.
            (Rule.PSD, path_graph(2000), {1000}, 2),
            # Forced from a leaf, the centre of K1,3 had two white neighbors,
            # so its component splits and each leaf is flooded again.
            (Rule.PSD, star_graph(3), {1}, 3),
            # Rigid linkage carries its floods as PSD does: from an end of
            # a path, one flood serves every step.
            (Rule.RIGID_LINKAGE, path_graph(6), {0}, 1),
            (Rule.RIGID_LINKAGE, path_graph(2000), {0}, 1),
        ],
        ids=["psd-P2000-middle", "psd-star-split", "rl-P6", "rl-P2000"],
    )
    def test_floods_carry_over_steps(self, monkeypatch, rule, g, base, floods):
        chron = propagate(rule, g, base).chronology
        calls = []
        flood = forcing._flood
        monkeypatch.setattr(forcing, "_flood", lambda *args: calls.append(1) or flood(*args))
        expansion = validate_chronology(g, chron)
        assert len(calls) == floods
        assert len(expansion) == chron.ct + 1 and len(expansion[-1]) == g.n


# The standard schedule from an end of P4000, and the PSD and rigid-linkage
# schedules of P2000: a replay that kept the blue set of every step would
# hold n^2 / 2 vertex entries (330 MB on P4000).
@pytest.mark.parametrize(
    "rule, n, base",
    [(Rule.STANDARD, 4000, 0), (Rule.PSD, 2000, 1000), (Rule.RIGID_LINKAGE, 2000, 0)],
    ids=["standard-P4000", "psd-P2000-middle", "rl-P2000"],
)
def test_replay_memory_is_bounded(rule, n, base):
    g = path_graph(n)
    if rule is Rule.STANDARD:  # one force a step, as propagate fires it
        chron = RelaxedChronology(rule, {base}, [[(v, v + 1)] for v in range(base, n - 1)])
    else:
        chron = propagate(rule, g, {base}).chronology
    g.adjacency_masks()
    tracemalloc.start()
    try:
        Replay(g, chron)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize(
    "rule, names",
    [(Rule.STANDARD, ("forest", "spans", "cover", "terminus")), (Rule.PSD, ("forest", "cover"))],
)
def test_replay_properties_compute_once_per_replay(monkeypatch, rule, names):
    # cover and terminus read the forest too; each runs once per replay.
    # Terminus is defined, and spans trusted, under the standard rule only.
    runs = dict.fromkeys(names, 0)
    for name in names:
        prop = vars(Replay)[name]
        assert getattr(Replay, name) is prop  # read off the class, as help() does

        def counted(replay, func=prop.func, name=name):
            runs[name] += 1
            return func(replay)

        monkeypatch.setattr(prop, "func", counted)
    g = path_graph(6)
    chron = propagate(rule, g, {0} if rule is Rule.STANDARD else {2}).chronology
    for replays in (1, 2):
        replay = Replay(g, chron)
        for name in names * 3:
            assert getattr(replay, name) == getattr(replay, name)
        assert runs == dict.fromkeys(names, replays)


def single_force_mutations(chron, n):
    """Every schedule one force edit away from ``chron``: a force's source
    or target set to another value in -1..n, a force dropped or moved to
    another step (or a new last one), a force of range(n) added to a step
    (a second force into a target among them), a step emptied, and an
    empty step inserted anywhere."""
    steps = [list(step) for step in chron.steps]

    def edited(i, step):
        return RelaxedChronology(chron.rule, chron.base, steps[:i] + [step] + steps[i + 1 :])

    for i, step in enumerate(steps):
        for j, f in enumerate(step):
            rest = step[:j] + step[j + 1 :]
            for v in range(-1, n + 1):
                if v != f.src:
                    yield edited(i, rest + [Force(v, f.dst)])
                if v != f.dst:
                    yield edited(i, rest + [Force(f.src, v)])
            yield edited(i, rest)
            for t in range(len(steps) + 1):
                if t != i:
                    moved = steps[:i] + [rest] + steps[i + 1 :] + [[]]
                    moved[t] = moved[t] + [f]
                    yield RelaxedChronology(chron.rule, chron.base, moved)
        for src in range(n):
            for dst in range(n):
                if Force(src, dst) not in step:
                    yield edited(i, step + [Force(src, dst)])
        if step:
            yield edited(i, [])
    for i in range(len(steps) + 1):
        yield RelaxedChronology(chron.rule, chron.base, steps[:i] + [[]] + steps[i:])


def outcome(check, g, chron):
    """What ``check`` makes of the schedule: its result, or the type,
    message, step and force of what it raises."""
    try:
        return check(g, chron)
    except (ChronologyError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "step", None), getattr(exc, "force", None)


class TestPropagate:
    def test_path_from_endpoint(self):
        for n in (1, 2, 5, 9):
            res = propagate(Rule.STANDARD, path_graph(n), {0})
            assert res.ok and res.pt == n - 1

    def test_ladder_pt(self, ladder):
        assert propagate(Rule.STANDARD, ladder, {0, 4}).pt == 3

    def test_failure_returns_stalled_blue(self):
        res = propagate(Rule.STANDARD, star_graph(3), {0})
        assert not res.ok and res.blue == frozenset({0})
        assert res.chronology is None and res.pt is None

    def test_all_blue_zero_steps(self):
        res = propagate(Rule.STANDARD, path_graph(3), {0, 1, 2})
        assert res.ok and res.pt == 0 and res.chronology.steps == ()

    def test_no_empty_steps_emitted(self):
        rng = Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 9), 0.3)
            res = propagate(Rule.STANDARD, g, random_forcing_set(rng, g))
            assert all(step for step in res.chronology.steps)

    def test_psd_star(self):
        res = propagate(Rule.PSD, star_graph(3), {0})
        assert res.ok and res.pt == 1

    def test_power_domination_counts_first_step(self):
        g = star_graph(4)
        res = propagate(Rule.POWER_DOMINATION, g, {0})
        assert res.ok and res.pt == 1
        res = propagate(Rule.POWER_DOMINATION, path_graph(5), {2})
        assert res.ok and res.pt == 2  # dominate {1,2,3}, then one round
        res = propagate(Rule.POWER_DOMINATION, path_graph(3), {0, 1, 2})
        assert res.ok and res.pt == 0

    def test_power_domination_stalls_without_neighbors(self):
        g = Graph(3, [(1, 2)])  # vertex 0 isolated
        res = propagate(Rule.POWER_DOMINATION, g, {1})
        assert not res.ok

    def test_rl_greedy_path(self):
        res = propagate(Rule.RIGID_LINKAGE, path_graph(4), {0})
        assert res.ok and res.pt == 3
        assert all(len(step) == 1 for step in res.chronology.steps)

    def test_rl_completes_where_the_least_rl_force_stalls(self):
        # 1 -> 0 is the least rigid-linkage force from {1, 3}, and the idle
        # 1 would then border 2; the least standard force comes first.
        res = propagate(Rule.RIGID_LINKAGE, path_graph(4), {1, 3})
        assert res.ok and res.chronology.steps == ((Force(3, 2),), (Force(1, 0),))

    def test_rl_stall_reports_the_standard_closure(self):
        res = propagate(Rule.RIGID_LINKAGE, star_graph(3), {0})
        assert not res.ok and res.blue == {0}

    def test_canonical_tiebreak_smallest_source(self):
        g = path_graph(3)
        res = propagate(Rule.STANDARD, g, {0, 2})
        assert res.chronology.steps == ((Force(0, 1),),)


def check_rigid_linkage_verdicts(sizes) -> list[int]:
    """Check ``propagate`` under rigid linkage against the exhaustive order
    search of tests/naive.py on every base set of every atlas graph whose
    size is in ``sizes``: the same verdict, a completing schedule that
    replays under the rule, and a stall at the standard closure. Returns
    the numbers of stalling and of completing base sets."""
    counts = [0, 0]
    for _, g in solvers.atlas_stream(max_n=max(sizes)):
        if g.n not in sizes:
            continue
        for base, completes in naive.rigid_linkage_verdicts(g).items():
            res = propagate(Rule.RIGID_LINKAGE, g, base)
            assert res.ok == completes, (g, base)
            if res.ok:
                assert len(validate_chronology(g, res.chronology)[-1]) == g.n
            else:
                assert res.blue == propagate(Rule.STANDARD, g, base).blue, (g, base)
            counts[res.ok] += 1
    return counts


class TestRigidLinkageVerdicts:
    def test_every_base_set_up_to_six_vertices(self):
        assert check_rigid_linkage_verdicts(range(1, 7)) == [6426, 4864]

    @pytest.mark.slow
    def test_every_base_set_on_seven_vertices(self):
        assert check_rigid_linkage_verdicts([7]) == [75480, 58152]


class TestActiveTimes:
    def test_demo_table(self, grid34_chords, demo_chron, demo_spans):
        assert activity_spans(grid34_chords, demo_chron) == demo_spans
        assert active_times(grid34_chords, demo_chron, 6) == frozenset({5, 6, 7})
        assert active_times(grid34_chords, demo_chron, 8) == frozenset({0, 1, 2, 3})

    def test_single_file_path(self):
        g = path_graph(4)
        chron = propagate(Rule.STANDARD, g, {0}).chronology
        for v in range(3):
            assert active_times(g, chron, v) == frozenset({v})
        assert active_times(g, chron, 3) == frozenset({3})

    def test_rejects_non_standard(self):
        res = propagate(Rule.PSD, star_graph(3), {0})
        with pytest.raises(ValueError):
            activity_spans(star_graph(3), res.chronology)

    def test_intervals_are_nonempty_and_tile_chains(self):
        rng = Random(5)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 10), 0.3)
            base = random_forcing_set(rng, g)
            chron = random_chronology(rng, g, base)
            spans = activity_spans(g, chron)
            assert all(lo <= hi for lo, hi in spans)
            for chain in forcing_cover(g, chron).chains:
                assert spans[chain[0]][0] == 0
                assert spans[chain[-1]][1] == chron.ct
                for a, b in zip(chain, chain[1:]):
                    assert spans[a][1] + 1 == spans[b][0]


class TestForcingCover:
    def test_ladder_chains(self, ladder):
        chron = propagate(Rule.STANDARD, ladder, {0, 4}).chronology
        cover = forcing_cover(ladder, chron)
        assert cover.chains == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_trivial_base_chains(self):
        g = path_graph(3)
        chron = propagate(Rule.STANDARD, g, {0, 1, 2}).chronology
        assert forcing_cover(g, chron).chains == ((0,), (1,), (2,))

    def test_psd_star_single_tree(self):
        g = star_graph(3)
        chron = propagate(Rule.PSD, g, {0}).chronology
        cover = forcing_cover(g, chron)
        assert len(cover.trees) == 1
        tree = cover.trees[0]
        assert tree.root == 0 and tree.vertices == frozenset(range(4))
        assert tree.parent_edges == ((1, 0), (2, 0), (3, 0))

    def test_chain_count_and_cover_validity(self):
        rng = Random(13)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 10), 0.35)
            base = random_forcing_set(rng, g)
            chron = random_chronology(rng, g, base)
            cover = forcing_cover(g, chron)
            assert len(cover.chains) == len(base)
            assert naive.is_induced_path_partition(g, cover.chains)

    def test_forest_readers_match_the_naive_forest(self):
        """Covers, terminus and both boundary sets of the one forest record
        against tests/naive.py, which builds chains and trees from the
        definitions: random standard schedules with idle steps, greedy
        rigid-linkage schedules and maximal PSD schedules."""
        rng = Random(29)
        checked = {rule: 0 for rule in (Rule.STANDARD, Rule.RIGID_LINKAGE, Rule.PSD)}
        for _ in range(40):
            g, base, chron = random_instance(rng, max_n=10, connected=rng.random() < 0.7)
            schedules = [chron]
            for rule in (Rule.RIGID_LINKAGE, Rule.PSD):
                small = set(rng.sample(range(g.n), max(1, g.n // 4)))
                for start in (small, base):
                    result = propagate(rule, g, start)
                    if result.ok:
                        schedules.append(result.chronology)
                        break
            for chron in schedules:
                checked[chron.rule] += 1
                forest = naive.forcing_forest(chron)
                cover = forcing_cover(g, chron)
                if chron.rule is Rule.PSD:
                    got = [(t.root, set(t.vertices), list(t.parent_edges))
                           for t in cover.trees]
                    assert got == [(b, set(vs), es) for b, (vs, es) in forest.items()]
                else:
                    assert cover.chains == tuple(tuple(vs) for vs, _ in forest.values())
                if chron.rule is Rule.STANDARD:
                    forcers = {u for _, es in forest.values() for _, u in es}
                    assert terminus(g, chron) == set(range(g.n)) - forcers
                for _ in range(3):
                    h = frozenset(v for v in range(g.n) if rng.random() < 0.5)
                    firsts, lasts = naive.piece_ends(forest, h)
                    assert restriction_initials(g, chron, h) == firsts
                    assert set_of(Replay(g, chron).finals(mask_of(h))) == lasts
                    if chron.rule is not Rule.RIGID_LINKAGE:
                        assert restrict(g, chron, h).initial_vertices == firsts
        assert min(checked.values()) >= 10, checked


class TestTerminusAndReversal:
    def test_ladder_terminus(self, ladder):
        chron = propagate(Rule.STANDARD, ladder, {0, 4}).chronology
        assert terminus(ladder, chron) == frozenset({3, 7})

    def test_trivial_terminus_is_base(self):
        g = path_graph(3)
        chron = propagate(Rule.STANDARD, g, {0, 1, 2}).chronology
        assert terminus(g, chron) == frozenset({0, 1, 2})

    def test_demo_terminus(self, grid34_chords, demo_chron):
        assert terminus(grid34_chords, demo_chron) == frozenset({3, 7, 11})

    def test_ladder_reversal_validates_for_far_ends(self, ladder):
        chron = propagate(Rule.STANDARD, ladder, {0, 4}).chronology
        rev = reversal(ladder, chron)
        assert rev.base == frozenset({3, 7})
        assert rev.ct == chron.ct

    def test_single_edge_reversal(self):
        g = path_graph(2)
        chron = RelaxedChronology(Rule.STANDARD, {0}, [[(0, 1)]])
        rev = reversal(g, chron)
        assert rev.base == frozenset({1})
        assert rev.steps == ((Force(1, 0),),)

    def test_demo_reversal_structure(self, grid34_chords, demo_chron):
        rev = reversal(grid34_chords, demo_chron)
        assert rev.base == frozenset({3, 7, 11})
        assert rev.ct == demo_chron.ct
        # mirrored step: reversed step 5 flips original step 4
        assert rev.steps[4] == (Force(2, 1), Force(9, 8))
        # the idle step moves from position 2 to position 7
        assert rev.steps[6] == ()
        assert reversal(grid34_chords, rev) == demo_chron

    def test_reversal_properties_random(self):
        rng = Random(17)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 10), 0.35)
            base = random_forcing_set(rng, g)
            chron = random_chronology(rng, g, base)
            term = terminus(g, chron)
            assert term == {c[-1] for c in forcing_cover(g, chron).chains}
            assert propagate(Rule.STANDARD, g, term).ok
            rev = reversal(g, chron)
            assert rev.ct == chron.ct
            assert reversal(g, rev) == chron


class TestForceSetPropagation:
    def test_demo_force_set_on_plain_grid(self, grid34, demo_chron):
        pt = propagation_time_of_forces(
            grid34, demo_chron.base, demo_chron.all_forces(), Rule.STANDARD
        )
        assert pt == 3

    def test_demo_force_set_on_chorded_grid(self, grid34_chords, demo_chron):
        # the chords delay the repacked schedule; frozen replay value
        pt = propagation_time_of_forces(
            grid34_chords, demo_chron.base, demo_chron.all_forces(), Rule.STANDARD
        )
        assert pt == 6

    def test_propagating_family_is_already_packed(self):
        rng = Random(23)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 10), 0.35)
            res = propagate(Rule.STANDARD, g, random_forcing_set(rng, g))
            pt = propagation_time_of_forces(
                g, res.chronology.base, res.chronology.all_forces(), Rule.STANDARD
            )
            assert pt == res.pt

    def test_reversal_preserves_force_set_time(self):
        rng = Random(29)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 10), 0.35)
            base = random_forcing_set(rng, g)
            chron = random_chronology(rng, g, base)
            rev = reversal(g, chron)
            fwd = propagation_time_of_forces(g, base, chron.all_forces(), Rule.STANDARD)
            bwd = propagation_time_of_forces(
                g, rev.base, rev.all_forces(), Rule.STANDARD
            )
            assert fwd == bwd

    def test_unused_forces_ignored_once_the_graph_is_blue(self):
        # 2 -> 0 never becomes legal: vertex 0 is blue from the start
        pool = [Force(0, 1), Force(1, 2), Force(2, 0)]
        assert propagation_time_of_forces(path_graph(3), {0}, pool, Rule.STANDARD) == 2

    def test_two_pool_forces_into_one_target(self):
        # P3 as 0-2-1: from {0, 1} both ends force 2 in the same round
        g = Graph(3, [(0, 2), (2, 1)])
        pool = [Force(0, 2), Force(1, 2)]
        for rule in (Rule.STANDARD, Rule.PSD):
            assert propagation_time_of_forces(g, {0, 1}, pool, rule) == 1

    def test_incomplete_force_set_errors(self):
        g = path_graph(4)
        with pytest.raises(InfeasibleError):
            propagation_time_of_forces(g, {0}, [Force(0, 1), Force(2, 3)], Rule.STANDARD)


class TestOrderIndependence:
    def test_final_blue_matches_any_single_force_order(self):
        rng = Random(31)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 9), 0.3)
            verts = list(range(g.n))
            rng.shuffle(verts)
            blue = set(verts[: max(1, g.n // 2)]) if g.n else set()
            maximal = propagate(Rule.STANDARD, g, blue)
            single = set(blue)
            while True:
                legal = possible_forces(Rule.STANDARD, g, single)
                if not legal:
                    break
                f = rng.choice(sorted(legal))
                single.add(f.dst)
            assert frozenset(single) == maximal.blue


class TestJson:
    def test_round_trip(self, demo_chron):
        data = demo_chron.to_json_dict()
        assert data["rule"] == "standard"
        assert RelaxedChronology.from_json_dict(data) == demo_chron

    def test_steps_sorted_deterministically(self):
        chron = RelaxedChronology(Rule.STANDARD, [0, 3], [[(3, 2), (0, 1)]])
        assert chron.steps[0] == (Force(0, 1), Force(3, 2))


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=50, deadline=None)
def test_propagate_expansion_is_monotone(g):
    res = propagate(Rule.STANDARD, g, {0})
    if res.ok:
        expansion = validate_chronology(g, res.chronology)
        assert expansion[0] == frozenset({0})
        for a, b in zip(expansion, expansion[1:]):
            assert a < b
