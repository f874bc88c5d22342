"""A path bundle is checked once, on the host's masks cut to its vertices,
and that check words its own rejections. The oracle here is the check on
the bundle's induced subgraph: the restriction re-indexed to it,
replayed, and its chain cover compared with the paths. Both must give the
same bundle, or the same exception with the same text, on every bundle of
every minimum PSD set's schedule of every connected graph with n <= 6,
on seeded random candidate lists, and on hand-built corrupt steps.
"""

from random import Random

import pytest

from forcelab import bundles, solvers
from forcelab.errors import BundleError, ChronologyError, InvariantViolation
from forcelab.forcing import Force, Replay, Rule, propagate
from forcelab.graphs import mask_of, path_graph


def subgraph_chains(g, r):
    """The chains of a restriction replayed on its induced subgraph."""
    sub, sub_chron = r.subgraph_chronology(g)
    try:
        sub_replay = Replay(sub.graph, sub_chron)
    except ChronologyError as exc:
        raise BundleError(f"restricted schedule is not standard-valid: {exc}") from exc
    return {tuple(sub.vertices[v] for v in c) for c in sub_replay.cover.chains}


def subgraph_bundle(host, paths):
    """The bundle check on the induced subgraph of the path vertices."""
    r = bundles._kept(host, mask_of(v for p in paths for v in p), Rule.STANDARD)
    chains = subgraph_chains(host.graph, r)
    oriented = []
    for p in paths:
        o = p if p in chains else p[::-1]
        if o not in chains:
            raise BundleError(f"chain set mismatch: path {list(p)} is not a restricted chain")
        oriented.append(o)
    if chains != set(oriented):
        raise BundleError("chain set mismatch: restriction has extra chains")
    return bundles.PathBundle(tuple(oriented), r)


def outcome(func, *args):
    try:
        bundle = func(*args)
    except (BundleError, InvariantViolation) as exc:
        return type(exc), str(exc)
    r = bundle.restriction
    return bundle.paths, r.rule, r.sub_vertices, r.steps, r.initial_vertices


@pytest.fixture(scope="module")
def hosts():
    """The schedule of every minimum PSD set of every connected graph with
    n <= 6, replayed."""
    out = []
    for _, g in solvers.atlas_stream(max_n=6, connected_only=True):
        for base in solvers.forcing_number(g, Rule.PSD).witnesses:
            out.append(Replay(g, propagate(Rule.PSD, g, base).chronology))
    return out


def test_every_induced_bundle_matches_the_subgraph_check(monkeypatch, hosts):
    checked = 0
    for host in hosts:
        for x in range(host.graph.n):
            with monkeypatch.context() as m:
                m.setattr(bundles, "_bundle_from_paths", subgraph_bundle)
                expected = outcome(bundles._induced_bundle, host, x)
            assert outcome(bundles._induced_bundle, host, x) == expected
            assert expected[0] not in (BundleError, InvariantViolation)
            checked += 1
    assert checked == 8652


def random_candidates(rng, host):
    """One random walk inside each forcing tree, each walk reversed at
    random, the list shuffled."""
    g, root = host.graph, host.forest.root
    out = []
    for b in sorted(host.chron.base):
        tree = sorted(v for v in range(g.n) if root[v] == b)
        walk = [rng.choice(tree)]
        while rng.random() < 0.75:
            nxt = sorted(w for w in g.adj[walk[-1]] if root[w] == b and w not in walk)
            if not nxt:
                break
            walk.append(rng.choice(nxt))
        out.append(walk[::-1] if rng.random() < 0.5 else walk)
    rng.shuffle(out)
    return out


def test_random_candidates_match_the_subgraph_check(monkeypatch, hosts):
    rng = Random(2111)
    rejected = 0
    for _ in range(3000):
        host = rng.choice(hosts)
        g, chron, candidates = host.graph, host.chron, random_candidates(rng, host)
        with monkeypatch.context() as m:
            m.setattr(bundles, "_bundle_from_paths", subgraph_bundle)
            expected = outcome(bundles.validate_path_bundle, g, chron, candidates)
        assert outcome(bundles.validate_path_bundle, g, chron, candidates) == expected
        rejected += expected[0] is BundleError
    assert rejected == 658


# Steps a replayed host never holds, so only a hand-built restriction on the
# path 0-1-2 reaches these guards of the window check. The last force's
# source lies outside the kept vertices, so the induced subgraph has no id
# for it: the window check names it by its rank among them, 0.
@pytest.mark.parametrize(
    "keep, initials, step, why",
    [
        # two forces on one target
        ({0, 1, 2}, {0, 2}, [(0, 1), (2, 1)], "two forces target vertex 1"),
        # a source forced in the same step
        ({0, 1, 2}, {0}, [(0, 1), (1, 2)], "force 1->2 is not legal there"),
        # a source that is not blue in the window
        ({1, 2}, {2}, [(0, 1)], "force 0->0 is not legal there"),
    ],
)
def test_window_check_rejects_corrupt_steps(keep, initials, step, why):
    g = path_graph(3)
    r = bundles.Restriction(
        Rule.STANDARD, frozenset(keep), (tuple(Force(*f) for f in step),), frozenset(initials)
    )
    message = f"restricted schedule is not standard-valid: step 1: {why}"
    with pytest.raises(BundleError) as exc:
        bundles._window_chains(g.adjacency_masks(), r, mask_of(keep))
    assert str(exc.value) == message
    if all(v in keep for f in step for v in f):
        with pytest.raises(BundleError) as oracle:
            subgraph_chains(g, r)
        assert str(oracle.value) == message
