from collections import deque
from importlib import resources

import pytest
from hypothesis import given, settings

from forcelab.errors import GraphFormatError
from forcelab.graphs import (
    GRAPH6_MAX_N,
    Graph,
    boundary,
    closed_neighborhood,
    complete_graph,
    components,
    cycle_graph,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    grid_graph,
    induced_subgraph,
    is_path_sequence,
    is_vertex_cut,
    mask_of,
    parse_edge_list,
    path_graph,
    set_of,
    star_graph,
    to_dot,
    validate_path_cover,
)
from strategies import graphs, graphs_with_subset


def bfs_component(adj, start, removed):
    """Independent BFS oracle for component membership."""
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen and v not in removed:
                seen.add(v)
                queue.append(v)
    return seen


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])

    def test_dedupes_and_sorts(self):
        g = Graph(3, [(2, 0), (0, 2), (0, 1)])
        assert g.adj == ((1, 2), (0,), (0,))
        assert g.m == 2

    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0
        assert components(g) == []


class TestInducedSubgraph:
    def test_triangle_pair(self):
        tri = complete_graph(3)
        sub = induced_subgraph(tri, {0, 1})
        assert sub.graph == Graph(2, [(0, 1)])
        assert sub.vertices == (0, 1)

    def test_full_set_identity(self):
        g = path_graph(4)
        sub = induced_subgraph(g, range(4))
        assert sub.graph == g
        assert sub.vertices == (0, 1, 2, 3)

    def test_fan_top_row_is_p3(self, inputs_dir):
        with open(inputs_dir / "fan_family_max.edges") as fh:
            g = parse_edge_list(fh.read())
        sub = induced_subgraph(g, {0, 1, 2})
        assert sub.graph == path_graph(3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), {0, 9})

    @given(graphs_with_subset())
    @settings(max_examples=60, deadline=None)
    def test_preserves_adjacency(self, gs):
        g, s = gs
        sub = induced_subgraph(g, s)
        for i, u in enumerate(sub.vertices):
            for j, v in enumerate(sub.vertices):
                assert sub.graph.has_edge(i, j) == g.has_edge(u, v) if i != j else True


class TestComponents:
    def test_path_cut_vertex(self):
        assert components(path_graph(3), {1}) == [frozenset({0}), frozenset({2})]

    def test_connected_whole(self):
        g = cycle_graph(5)
        assert components(g) == [frozenset(range(5))]

    def test_chorded_grid_split(self, grid34_chords):
        # removing the three mid-schedule vertices splits off the four
        # early ones; verified against an independent BFS oracle
        removed = {2, 5, 9}
        got = components(grid34_chords, removed)
        assert got == [frozenset({0, 1, 4, 8}), frozenset({3, 6, 7, 10, 11})]
        oracle = bfs_component(grid34_chords.adj, 0, removed)
        assert oracle == {0, 1, 4, 8}

    @given(graphs_with_subset())
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, gs):
        g, removed = gs
        comps = components(g, removed)
        union = set()
        for comp in comps:
            assert comp, "components are nonempty"
            assert not comp & union
            union |= comp
        assert union == set(range(g.n)) - removed
        # no edges between distinct components
        for i, a in enumerate(comps):
            for b in comps[i + 1:]:
                assert not any(g.has_edge(u, v) for u in a for v in b)
        # ordered by minimum id
        mins = [min(c) for c in comps]
        assert mins == sorted(mins)


class TestMasks:
    def test_repeated_vertex_sets_its_bit_once(self):
        assert mask_of([2, 2]) == 0b100
        assert mask_of([0, 3, 0, 3, 3]) == 0b1001
        assert mask_of(iter([5, 1, 5])) == 0b100010

    def test_round_trip(self):
        for verts in ([], [0], [1, 4, 6], list(range(30))):
            assert mask_of(verts) == sum(1 << v for v in set(verts))
            assert set_of(mask_of(verts)) == frozenset(verts)


class TestVertexCut:
    def test_path_middle(self):
        assert is_vertex_cut(path_graph(3), {1})

    def test_complete_graph_has_no_cut(self):
        for v in range(4):
            assert not is_vertex_cut(complete_graph(4), {v})

    def test_whole_set_rejected(self):
        with pytest.raises(ValueError):
            is_vertex_cut(path_graph(2), {0, 1})

    def test_every_label_slice_cuts_the_showcase_graph(
        self, grid34_chords5, demo_chron, demo_spans
    ):
        for j in range(1, 8):
            at = {v for v, (lo, hi) in enumerate(demo_spans) if lo <= j <= hi}
            assert is_vertex_cut(grid34_chords5, at), f"slice {j}"


class TestNeighborhoods:
    def test_empty_set(self):
        assert closed_neighborhood(path_graph(4), ()) == frozenset()

    def test_star_center(self):
        assert closed_neighborhood(star_graph(4), {0}) == frozenset(range(5))

    def test_grid_corner_column(self, grid34):
        assert closed_neighborhood(grid34, {4}) == frozenset({4, 0, 8, 5})

    def test_boundary(self):
        assert boundary(path_graph(4), {1, 2}) == frozenset({0, 3})

    @given(graphs_with_subset())
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, gs):
        g, s = gs
        smaller = frozenset(list(s)[: len(s) // 2])
        assert closed_neighborhood(g, smaller) <= closed_neighborhood(g, s)


class TestPathCover:
    def test_path_covers_itself(self):
        assert validate_path_cover(path_graph(5), [(0, 1, 2, 3, 4)]).ok

    def test_triangle_sequence_not_induced(self):
        check = validate_path_cover(complete_graph(3), [(0, 1, 2)])
        assert not check.ok
        assert "induced" in check.violation

    def test_chorded_grid_rows(self, grid34_chords):
        rows = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]
        assert validate_path_cover(grid34_chords, rows).ok

    def test_missing_vertex(self):
        check = validate_path_cover(path_graph(3), [(0, 1)])
        assert not check.ok and "not covered" in check.violation

    def test_duplicate_vertex(self):
        check = validate_path_cover(path_graph(3), [(0, 1), (1, 2)])
        assert not check.ok and "more than once" in check.violation

    @pytest.mark.parametrize(
        "seq, ok",
        [((0, 1, 2), True), ((1,), True), ((), False), ((0, 2), False), ((0, 1, 0), False),
         ((99,), False), ((-1,), False), ((0, 99), False), ((2, 3), False)],
    )
    def test_path_sequence(self, seq, ok):
        assert is_path_sequence(path_graph(3), seq) is ok


class TestEdgeListFormat:
    def test_round_trip(self, grid34_chords):
        text = format_edge_list(grid34_chords)
        assert parse_edge_list(text) == grid34_chords

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("2 2\n0 1\n1 0\n")

    def test_header_mismatch_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("2 2\n0 1\n")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("2 1\n1 1\n")

    def test_vertex_count_above_graph6_max_rejected(self):
        with pytest.raises(GraphFormatError, match=str(GRAPH6_MAX_N)):
            parse_edge_list(f"{GRAPH6_MAX_N + 1} 0\n")

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphFormatError, match="-1 vertices"):
            parse_edge_list("-1 0\n")


class TestGraph6:
    def test_known_strings(self):
        # 'D?{' is a documented sample encoding of a 5-vertex graph
        assert graph6_decode("A_") == Graph(2, [(0, 1)])
        assert graph6_encode(Graph(2, [(0, 1)])) == "A_"
        assert graph6_decode(">>graph6<<A_") == Graph(2, [(0, 1)])

    def test_round_trip(self, grid34_chords5):
        assert graph6_decode(graph6_encode(grid34_chords5)) == grid34_chords5

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, g):
        assert graph6_decode(graph6_encode(g)) == g

    @pytest.mark.parametrize("s", ["A_zzzz", "A_z", "A_?", "?A", "DQo?"])
    def test_characters_past_the_edge_bits_rejected(self, s):
        with pytest.raises(GraphFormatError, match="too long"):
            graph6_decode(s)

    @pytest.mark.parametrize("s", ["A~", "A`", "B~", "DQp"])
    def test_nonzero_padding_bits_rejected(self, s):
        with pytest.raises(GraphFormatError, match="padding"):
            graph6_decode(s)

    @pytest.mark.parametrize("s", ["~??A_", "~???", "~??}" + "?" * 316])
    def test_four_byte_size_below_63_rejected(self, s):
        with pytest.raises(GraphFormatError, match="four-byte size form"):
            graph6_decode(s)

    def test_four_byte_size_from_63(self):
        g = path_graph(63)
        assert graph6_encode(g).startswith("~??~")
        assert graph6_decode(graph6_encode(g)) == g

    def test_packaged_lines_are_canonical(self):
        # a sweep's graph_id is its graph6 line, so each line must be the
        # one string that decodes to its graph
        text = resources.files("forcelab").joinpath("data/graphs_n_le_7.g6").read_text()
        lines = text.split()
        assert len(lines) == 1252
        assert all(graph6_encode(graph6_decode(line)) == line for line in lines)


class TestDot:
    def test_plain(self):
        text = to_dot(path_graph(2))
        assert "graph G {" in text and "0 -- 1;" in text

    def test_colors_and_labels(self):
        text = to_dot(path_graph(2), labels={0: "a"}, colors={1: "dodgerblue"})
        assert 'label="a"' in text
        assert 'fillcolor="dodgerblue"' in text


class TestConstructors:
    def test_grid_shape(self):
        g = grid_graph(3, 4)
        assert g.n == 12 and g.m == 17
        assert g.has_edge(0, 4) and g.has_edge(0, 1) and not g.has_edge(0, 5)

    def test_grid_symmetric_formula(self):
        assert grid_graph(2, 3).m == grid_graph(3, 2).m
