"""Simple-graph core: immutable graphs, subgraph and cut primitives,
path-cover validation, and text formats (edge list, graph6, DOT)."""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import GraphFormatError

GRAPH6_MAX_N = 258047  # the most vertices a graph6 header can state


class Graph:
    """Finite simple undirected graph on vertex ids 0..n-1.

    Neighbor tuples are sorted and duplicate-free. Instances never mutate
    after construction, so they are safe to share between threads.
    """

    __slots__ = ("n", "adj", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in nbrs)
        self._masks: tuple[int, ...] | None = None

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    @property
    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in ascending order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor sets as integer bitmasks; built once and cached."""
        if self._masks is None:
            self._masks = tuple(mask_of(nbrs) for nbrs in self.adj)
        return self._masks

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def check_set(self, verts: Iterable[int]) -> frozenset[int]:
        s = frozenset(verts)
        n = self.n
        for v in s:
            if not 0 <= v < n:
                self.check_vertex(v)
        return s

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Subgraph(NamedTuple):
    """An induced subgraph together with its id mapping.

    ``vertices[new_id] == old_id``; new ids follow the sorted order of the
    selected vertex set.
    """

    graph: Graph
    vertices: tuple[int, ...]


def induced_subgraph(g: Graph, verts: Iterable[int]) -> Subgraph:
    """Induced subgraph on ``verts`` plus the new-id -> old-id bijection."""
    s = g.check_set(verts)
    order = tuple(sorted(s))
    local = {old: new for new, old in enumerate(order)}
    edges = [
        (local[u], local[v]) for u in order for v in g.adj[u] if u < v and v in s
    ]
    return Subgraph(Graph(len(order), edges), order)


def mask_of(verts: Iterable[int]) -> int:
    """Bitmask of a set of vertex ids: bit v is set for every v in it, once
    however often v is listed."""
    mask = 0
    for v in verts:
        mask |= 1 << v
    return mask


def set_of(mask: int) -> frozenset[int]:
    """The vertex ids whose bits are set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def union_of(masks: tuple[int, ...], mask: int) -> int:
    """The OR of ``masks[v]`` over the bits v set in ``mask``; over
    :meth:`Graph.adjacency_masks`, the vertices next to a member of it."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= masks[low.bit_length() - 1]
    return out


def component_masks(adj: tuple[int, ...], mask: int):
    """Flood-fill each connected component of the subgraph induced on the
    bitmask ``mask`` (``adj`` as from :meth:`Graph.adjacency_masks`); yield
    ``(comp, once, twice)`` in order of minimum vertex id. At each member's
    neighbor mask a, ``twice |= once & a`` and then ``once |= a``: ``once``
    holds the vertices next to a member, ``twice`` those next to two."""
    rem = mask
    while rem:
        comp = frontier = rem & -rem
        once = twice = 0
        while frontier:
            f = frontier
            while f:
                bit = f & -f
                f ^= bit
                a = adj[bit.bit_length() - 1]
                twice |= once & a
                once |= a
            frontier = once & mask & ~comp
            comp |= frontier
        yield comp, once, twice
        rem &= ~comp


def components(g: Graph, removed: Iterable[int] = ()) -> list[frozenset[int]]:
    """Connected components of ``g`` minus ``removed``, ordered by their
    minimum vertex id."""
    keep = ((1 << g.n) - 1) & ~mask_of(g.check_set(removed))
    return [set_of(c) for c, _, _ in component_masks(g.adjacency_masks(), keep)]


def is_vertex_cut(g: Graph, verts: Iterable[int]) -> bool:
    """True iff deleting ``verts`` strictly increases the component count."""
    s = g.check_set(verts)
    if len(s) == g.n:
        raise ValueError("cut candidate must be a proper subset of the vertices")
    return len(components(g, s)) > len(components(g))


def closed_neighborhood(g: Graph, verts: Iterable[int]) -> frozenset[int]:
    """Union of closed neighborhoods N[v] over v in ``verts``."""
    s = g.check_set(verts)
    out = set(s)
    for v in s:
        out.update(g.adj[v])
    return frozenset(out)


def boundary(g: Graph, verts: Iterable[int]) -> frozenset[int]:
    """Vertices outside ``verts`` with at least one neighbor inside."""
    s = g.check_set(verts)
    out = set()
    for v in s:
        for u in g.adj[v]:
            if u not in s:
                out.add(u)
    return frozenset(out)


class CoverCheck(NamedTuple):
    ok: bool
    violation: str | None


def validate_path_cover(g: Graph, paths: Iterable[Iterable[int]]) -> CoverCheck:
    """Check that ``paths`` is a partition of the vertices into induced paths.

    Returns the first violation found instead of raising, so callers can
    report it.
    """
    seqs = [tuple(p) for p in paths]
    seen: set[int] = set()
    for idx, seq in enumerate(seqs):
        if not seq:
            return CoverCheck(False, f"path {idx} is empty")
        for v in seq:
            if not (0 <= v < g.n):
                return CoverCheck(False, f"path {idx} has out-of-range vertex {v}")
            if v in seen:
                return CoverCheck(False, f"vertex {v} appears more than once")
            seen.add(v)
        for a, b in zip(seq, seq[1:]):
            if not g.has_edge(a, b):
                return CoverCheck(False, f"path {idx}: {a} and {b} are not adjacent")
        for i in range(len(seq)):
            for j in range(i + 2, len(seq)):
                if g.has_edge(seq[i], seq[j]):
                    return CoverCheck(
                        False,
                        f"path {idx} is not induced: chord {seq[i]}-{seq[j]}",
                    )
    if len(seen) != g.n:
        missing = min(set(range(g.n)) - seen)
        return CoverCheck(False, f"vertex {missing} is not covered")
    return CoverCheck(True, None)


def is_path_sequence(g: Graph, seq: tuple[int, ...]) -> bool:
    """True iff ``seq`` lists distinct vertices of ``g``, consecutive ones adjacent."""
    if not seq or len(set(seq)) != len(seq) or not all(0 <= v < g.n for v in seq):
        return False
    return all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# Constructors for standard families


def empty_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def grid_graph(s: int, t: int) -> Graph:
    """Cartesian product of paths P_s and P_t; vertex (a, b) has id a*t + b."""
    if s < 1 or t < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for a in range(s):
        for b in range(t):
            if a + 1 < s:
                edges.append((a * t + b, (a + 1) * t + b))
            if b + 1 < t:
                edges.append((a * t + b, a * t + b + 1))
    return Graph(s * t, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v".


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer header {lines[0]!r}") from exc
    if n < 0:
        raise GraphFormatError(f"header declares {n} vertices, below 0")
    if n > GRAPH6_MAX_N:
        raise GraphFormatError(f"header declares {n} vertices, above {GRAPH6_MAX_N}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(lines) - 1}")
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-integer edge line {ln!r}") from exc
        if u == v:
            raise GraphFormatError(f"self-loop {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge {u} {v} out of range for n={n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"duplicate edge {u} {v}")
        seen.add(key)
        edges.append(key)
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph6 (ASCII encoding of small simple graphs, upper triangle column-major)


def graph6_decode(line: str) -> Graph:
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise GraphFormatError(f"invalid graph6 characters in {s!r}")
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
        if n <= 62:
            raise GraphFormatError(f"graph6 four-byte size form used for n={n}, below 63")
    else:
        raise GraphFormatError("graph6 strings beyond 18-bit sizes are not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) < need:
        raise GraphFormatError(f"graph6 string too short for n={n}")
    if len(body) > need:
        raise GraphFormatError(f"graph6 string too long for n={n}")
    if need and body[-1] & ((1 << (6 * need - n * (n - 1) // 2)) - 1):
        raise GraphFormatError(f"graph6 padding bits are not zero for n={n}")
    bits = []
    for b in body:
        for k in range(5, -1, -1):
            bits.append((b >> k) & 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def graph6_encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= GRAPH6_MAX_N:
        head = "~" + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    else:
        raise GraphFormatError("graph too large for graph6 encoding")
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return head + "".join(chars)


def load_graph(path: str) -> Graph:
    """Load a graph file; '.g6' means graph6 (first line), otherwise edge list."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if path.endswith(".g6"):
        for line in text.splitlines():
            if line.strip():
                return graph6_decode(line)
        raise GraphFormatError(f"no graph6 line in {path}")
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# DOT export


def to_dot(
    g: Graph,
    labels: dict[int, str] | None = None,
    colors: dict[int, str] | None = None,
    name: str = "G",
) -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        attrs = []
        if labels and v in labels:
            attrs.append(f'label="{labels[v]}"')
        if colors and v in colors:
            attrs.append("style=filled")
            attrs.append(f'fillcolor="{colors[v]}"')
        if attrs:
            lines.append(f"  {v} [{', '.join(attrs)}];")
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
