"""Bit-sliced subset scans: every candidate set of one size at once, or
every subset of the vertices at once.

The k-subsets of the vertices 0..n-1 are indexed 0..C(n, k)-1 in
:func:`itertools.combinations` order. Vertex v gets one C(n, k)-bit int
whose bit i is set when v is blue in the process started from the i-th
subset, so one round of a rule is a few big-int operations per edge for
all C(n, k) processes together (bit-slicing, as in Biham's DES). A PSD
round forces the white vertices with no white neighbor first, then floods
the rest in passes: each pass seeds every subset at its least white
vertex not yet reached, so one flood gives every subset one whole white
component, and a round takes as many passes as the most components a
subset has. One :func:`subset_vectors` generator gives a scan the vectors of
every size it asks for, deriving each size from the last. Once few
candidates still change, a PSD scan packs seven vectors into one byte
per candidate and drops the bytes of the rest (``_compact``); witnesses
are read off set bits by one pass over the spelled-out bits (``_indices``).
:func:`rounds_table` runs one round on 2^n-bit vectors instead,
whose bit B stands for the bitmask B, and reads every mask's rounds off
the successors that round gives. The rule rounds here are written out on
those vectors; they share no code with the per-mask engine of
:mod:`forcelab.forcing`, which stays their oracle.
"""

from __future__ import annotations

import re
import sys
from functools import cache
from itertools import combinations, compress
from math import comb
from typing import Iterator

from .forcing import Rule


def subset_vectors(n: int, k: int) -> Iterator[tuple[list[int], int]]:
    """Yield ``(X, count)`` for the sizes k, k + 1, ..., n in turn: ``X[v]``
    marks the subsets of range(n) of the size holding v, bit i for the i-th
    subset in combinations order, and ``count`` is C(n, size). The subsets
    of range(s, n) list those holding s first, then the rest, so level s of
    a size (its vectors over range(s, n)) comes from level s + 1 of the
    size below and of the size itself by one shift per vertex. Size k is
    built level by level over the smaller sizes it needs, keeping its own
    vectors at every level; each later size is one new column of levels
    from the last, and only the last column is kept."""
    below = {0: ([], 1)}  # size j -> level s + 1 of size j
    column = [None] * n + [below.get(k, ([], 0))]  # column[s]: level s of size k
    for s in range(n - 1, -1, -1):
        none = [0] * (n - 1 - s), 0
        below = {
            j: _level(*below.get(j - 1, none), *below.get(j, none))
            for j in range(max(0, k - s), min(k, n - s) + 1)
        }
        column[s] = below.get(k) or ([0] * (n - s), 0)
    yield column[0]
    for _ in range(k, n):
        later = [None] * n + [([], 0)]
        for s in range(n - 1, -1, -1):
            later[s] = _level(*column[s + 1], *later[s + 1])
        column = later
        yield column[0]


def _level(with_s: list[int], low: int, without: list[int], high: int) -> tuple[list[int], int]:
    """Level s of size j from level s + 1: first the ``low`` =
    C(n - s - 1, j - 1) subsets of size j - 1 (vectors ``with_s``), each
    with s added, then the ``high`` subsets of size j (``without``)."""
    return [(1 << low) - 1] + [a | b << low for a, b in zip(with_s, without)], low + high


def finished_by_round(rule: Rule, nbrs, blue: list[int], count: int) -> Iterator[list[int]]:
    """Yield, for r = 0, 1, ..., the indices of the candidates whose maximal
    process colors every vertex in exactly r rounds, ascending; stop once
    every other candidate has stalled. ``nbrs[v]`` lists the neighbors of
    v, and ``blue`` and ``count`` are one size's candidates, as
    :func:`subset_vectors` yields them.

    A candidate that did not change in a round never changes again. Once at
    most an eighth of the candidates still change, a PSD scan cuts its
    vectors down to those bits (``_compact``), and ``index`` maps the bits
    left to candidate indices; a standard round costs too little to repay
    the cut."""
    index = range(count)
    every = (1 << count) - 1
    done = every
    for x in blue:
        done &= x
    yield _indices(done, index)
    live = every ^ done
    step, later = _ROUNDS[rule]
    while live:
        new = step(nbrs, blue, every)
        moved = 0
        for a, b in zip(blue, new):
            moved |= a ^ b
        blue, done = new, every
        for x in blue:
            done &= x
        yield _indices(done & moved, index)
        live = moved & ~done
        if rule is Rule.PSD and live and live.bit_count() * 8 <= len(index):
            blue, index, every = _compact(blue, live, index)
        step = later


def _power_round(nbrs, blue: list[int], every: int) -> list[int]:
    """Power domination's first round: the closed neighborhood."""
    out = []
    for x, nv in zip(blue, nbrs):
        for u in nv:
            x |= blue[u]
        out.append(x)
    return out


def _standard_round(nbrs, blue: list[int], every: int) -> list[int]:
    """A blue vertex with exactly one white neighbor forces it. ``one`` and
    ``two`` mark the subsets where u has at least one, and at least two,
    white neighbors; a forcer's target is its one white neighbor, and
    OR-ing into an already blue neighbor changes nothing."""
    white = [every ^ x for x in blue]
    out = list(blue)
    for u, nu in enumerate(nbrs):
        xu = blue[u]
        if not xu:
            continue
        one = two = 0
        for x in nu:
            w = white[x]
            two |= one & w
            one |= w
        forcing = xu & (one ^ two)
        if forcing:
            for w in nu:
                out[w] |= forcing
    return out


def _psd_round(nbrs, blue: list[int], every: int) -> list[int]:
    """Within each white component, a blue vertex with exactly one
    neighbor there forces it. A white vertex with no white neighbor is a
    component of its own, forced by any neighbor, so it is taken first
    (``alone``); a vertex with no neighbor at all stays white.
    ``unreached[u]`` marks the subsets where u is white and no flood has
    reached it yet. Each pass seeds every subset at its least unreached
    vertex: going up the vertices, ``taken`` marks the subsets already
    seeded, so r seeds where it is unreached and not taken. One frontier
    flood from all the seeds then gives each subset exactly one component,
    and passes repeat until nothing is unreached: as many as the most
    components a subset has. ``reach[u]`` collects the subsets where the
    pass finds u. ``exact[v]`` marks where a blue v has exactly one
    neighbor in the reach, and each reached w is forced where it is reached
    and some neighbor's ``exact`` is set."""
    white = [every ^ x for x in blue]
    out = list(blue)
    unreached = []
    for w, (xw, nw) in enumerate(zip(white, nbrs)):
        if xw and nw:
            near = 0
            for u in nw:
                near |= white[u]
            alone = xw & ~near
            if alone:
                out[w] |= alone
                xw ^= alone
        unreached.append(xw)
    while True:
        taken = 0
        front = {}
        for r, x in enumerate(unreached):
            if x:
                seed = x & ~taken
                if seed:
                    front[r] = seed
                    unreached[r] = x ^ seed
                taken |= x
        if not front:
            return out
        reach = front.copy()
        while front:
            nxt = {}
            for x, dx in front.items():
                for y in nbrs[x]:
                    a = dx & unreached[y]
                    if a:
                        unreached[y] ^= a
                        nxt[y] = nxt.get(y, 0) | a
            for y, a in nxt.items():
                reach[y] = reach.get(y, 0) | a
            front = nxt
        exact = {}
        for w in reach:
            for v in nbrs[w]:
                if v in exact:
                    continue
                xv = blue[v]
                one = two = 0
                if xv:
                    for u in nbrs[v]:
                        if u in reach:
                            a = reach[u]
                            two |= one & a
                            one |= a
                exact[v] = xv & (one ^ two)
        for w, a in reach.items():
            forced = 0
            for v in nbrs[w]:
                forced |= exact[v]
            out[w] |= forced & a


# The rounds of each maximal process: the first round's, then every later one's.
_ROUNDS = {
    Rule.STANDARD: (_standard_round, _standard_round),
    Rule.PSD: (_psd_round, _psd_round),
    Rule.POWER_DOMINATION: (_power_round, _standard_round),
}


_ONE = re.compile(b"1")
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_UNMARKED = bytes(range(128))
# _READ[b] spells each byte of a plane as '1' where its bit b is set, else '0'.
_READ = [bytes(b"01"[c >> b & 1] for c in range(256)) for b in range(7)]


def _spelled(x: int) -> bytes:
    """One ASCII '0' or '1' per bit of ``x``, bit 0 first, up to its top
    set bit."""
    return bin(x)[:1:-1].encode()


def _compact(blue: list[int], live: int, index):
    """Keep only the bits of ``live`` in every vector, in order. Seven
    vectors at a time share a byte plane, one byte per candidate, spelled
    high index first so that no byte order is reversed: the '0'/'1' bytes
    of ``format`` less ASCII '0' are 0/1, shifted to bit b for the plane's
    b-th vector and to bit 7 for ``live``. translate() drops the bytes
    below 128, and each vector is read back from its bit of the rest."""
    count = len(index)
    spell = f"0{count}b"
    zeros = int.from_bytes(b"0" * count, "big")
    marks = int.from_bytes(format(live, spell).encode(), "big") - zeros << 7
    kept = []
    for c in range(0, len(blue), 7):
        chunk = blue[c : c + 7]
        # each spelled vector brings '0' << b into every byte: take all off at once
        plane = marks - zeros * ((1 << len(chunk)) - 1)
        for b, x in enumerate(chunk):
            plane += int.from_bytes(format(x, spell).encode(), "big") << b
        plane = plane.to_bytes(count, "big").translate(None, _UNMARKED)
        kept += [int(plane.translate(_READ[b]) or b"0", 2) for b in range(len(chunk))]
    index = _indices(live, index)
    return kept, index, (1 << len(index)) - 1


# _BIT_OF[b] turns a spelled vector into one byte per mask holding 1 << b
# where the bit is set; _AFTER[k] is the rounds byte of a mask whose
# successor's byte is k: an unfilled 0 (the mask is its own successor) and
# 1 both stall, and r rounds after one round take r + 1.
_BIT_OF = [bytes.maketrans(b"01", bytes((0, 1 << b))) for b in range(8)]
_AFTER = bytes(k + 1 if k > 1 else 1 for k in range(255)) + b"\xff"


@cache
def _lattice_vectors(n: int) -> tuple[int, ...]:
    """``X[v]`` has bit B set when v is in the bitmask B, for all 2^n masks
    B, built by doubling shifts: bits 2^v..2^(v+1)-1 set, then repeated
    every 2^(v+1) bits. Built once per n in a process, on first use: the
    solvers build tables only below ``solvers.SLICED_MIN_N`` vertices,
    where these vectors are small."""
    out = []
    for v in range(n):
        half = 1 << v
        x, width = ((1 << half) - 1) << half, half << 1
        while width >> n == 0:
            x |= x << width
            width <<= 1
        out.append(x)
    return tuple(out)


def _successors(blue: list[int], n: int):
    """The mask of the vertices set at bit B of the vectors ``blue``, for
    every mask B, up to 16 vertices. Vertex v's vector is spelled out into
    the byte plane of vertices 8(v // 8).., as 1 << (v % 8) where set. A
    graph up to 8 vertices has one plane, read as bytes; above that the two
    planes are interleaved into one native 16-bit word per mask."""
    planes = [0] * ((n + 7) // 8 or 1)
    for v, x in enumerate(blue):
        planes[v >> 3] |= int.from_bytes(_spelled(x).translate(_BIT_OF[v & 7]), "little")
    size = 1 << n
    if len(planes) == 1:
        return planes[0].to_bytes(size, "little")
    words = bytearray(2 * size)
    low = sys.byteorder == "big"  # where a word's low byte sits
    words[low::2] = planes[0].to_bytes(size, "little")
    words[1 - low :: 2] = planes[1].to_bytes(size, "little")
    return memoryview(words).cast("H")


def rounds_table(rule: Rule, nbrs, n: int) -> bytearray:
    """The rounds of the maximal ``rule`` process from every bitmask B of
    range(n), one byte per mask at index B: 1 if the process stalls from B,
    r + 2 if it colors every vertex in r rounds. One later round on the lattice
    vectors gives each mask's successor c, a superset, so c >= B and the
    table fills from the top mask down; a distinct first round (power
    domination's neighborhood) then maps every mask through the table of
    the later ones."""
    blue = _lattice_vectors(n)
    every = (1 << (1 << n)) - 1
    first, later = _ROUNDS[rule]
    table = bytearray(1 << n)
    table[-1] = 2
    succ = _successors(later(nbrs, blue, every), n)
    for b in range(len(table) - 2, -1, -1):
        table[b] = _AFTER[table[succ[b]]]
    if first is not later:
        succ = _successors(first(nbrs, blue, every), n)
        table = bytearray(map(table.__getitem__, succ)).translate(_AFTER)
        table[-1] = 2
    return table


def _indices(bits: int, index) -> list[int]:
    """``index[i]`` for every set bit i of ``bits``, ascending, from the
    bits spelled out one byte each: through 0/1 flags when at least one bit
    in nine is set, else by finding each '1'."""
    if bits.bit_count() * 9 >= bits.bit_length():
        return list(compress(index, _spelled(bits).translate(_FLAGS)))
    return [index[match.start()] for match in _ONE.finditer(_spelled(bits))]


def subsets(indices: list[int], n: int, k: int) -> list[frozenset[int]]:
    """The k-subsets of range(n) at the given ascending indices of
    combinations order. Two or more, at least one in 128 of the size, are
    picked out of combinations() through one 0/1 flag per index; fewer are
    unranked one by one, walking the vertices and skipping the
    C(n - v - 1, j - 1) subsets that hold v when the index lies past them."""
    count = comb(n, k)
    if len(indices) > 1 and len(indices) * 128 >= count:
        flags = bytearray(count)
        for i in indices:
            flags[i] = 1
        return list(map(frozenset, compress(combinations(range(n), k), flags)))
    out = []
    for index in indices:
        j, verts = k, []
        for v in range(n):
            if not j:
                break
            holding = comb(n - v - 1, j - 1)
            if index < holding:
                verts.append(v)
                j -= 1
            else:
                index -= holding
        out.append(frozenset(verts))
    return out
