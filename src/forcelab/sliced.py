"""Bit-sliced subset scans: every candidate set of one size at once, or
every subset of the vertices at once.

The k-subsets of the vertices 0..n-1 are indexed 0..C(n, k)-1 in
:func:`itertools.combinations` order. Vertex v gets one C(n, k)-bit int
whose bit i is set when v is blue in the process started from the i-th
subset, so one round of a rule is a few big-int operations per edge for
all C(n, k) processes together (bit-slicing, as in Biham's DES). A PSD
round forces the white vertices with no white neighbor first, then floods
the rest in passes of sweeps: each pass seeds every subset at its least
white vertex not yet reached, so one flood gives every subset one whole
white component, and a round takes as many passes as the most components
a subset has. One :func:`subset_vectors` generator gives a scan the
vectors of every size it asks for, deriving each size from the last. Once
few candidates still change, a PSD scan compresses its vectors to their
bits (Warren's bit-parallel compress) and expands later finishers back.
Finishers stay such bit vectors; :func:`subsets` unranks them for a report.
:func:`rounds_table` runs one round on 2^n-bit vectors instead,
whose bit B stands for the bitmask B, and reads every mask's rounds off
the successors that round gives; :func:`table_finished_by_round` reads a
size's finishers off those bytes. What depends on n alone is kept for the
process: the lattice vectors, a size's masks and the byte translations
that spell the table's bytes. The rule rounds here are written out on
those vectors; they share no code with the per-mask engine of
:mod:`forcelab.forcing`, which stays their oracle.
"""

from __future__ import annotations

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


def finished_by_round(rule: Rule, nbrs, blue: list[int], count: int) -> Iterator[int]:
    """Yield, for r = 0, 1, ..., the candidates whose maximal process
    colors every vertex in exactly r rounds, as an int with bit i set for
    the i-th; stop once every other candidate has stalled. ``nbrs[v]`` lists
    the neighbors of v, and ``blue`` and ``count`` are one size's
    candidates, as :func:`subset_vectors` yields them.

    A candidate that did not change in a round never changes again. Once at
    most an eighth of the candidates still change, a PSD scan compresses
    its vectors to those bits, and expands every later finisher back
    through each such cut, the last cut first; a standard round costs too
    little to repay the cut."""
    done = every = (1 << count) - 1
    for x in blue:
        done &= x
    yield done
    live = every ^ done
    step, later = _ROUNDS[rule]
    cuts = []
    while live:
        new = step(nbrs, blue, every)
        moved = 0
        for a, b in zip(blue, new):
            moved |= a ^ b
        blue, done = new, every
        for x in blue:
            done &= x
        yield _expand(done & moved, cuts)
        live = moved & ~done
        if rule is Rule.PSD and live and live.bit_count() * 8 <= every.bit_length():
            blue, stages = _compress(blue, live)
            cuts.append((live, stages))
            every = (1 << live.bit_count()) - 1
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
    seeded, so r seeds where it is unreached and not taken. Sweeps up and
    down the vertices in turn flood from all the seeds: a vertex ORs its
    neighbors' ``reach`` into its own where it is unreached, and after the
    first sweep only a vertex with a neighbor reached since its last visit
    (``stale``) is visited, whatever the labels. One flood gives each subset
    one component, and passes repeat until nothing is unreached: as many as
    the most components a subset has. A blue v with exactly one neighbor in
    the reach (``exact``) forces it."""
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
        reach = [0] * len(blue)
        for r, x in enumerate(unreached):
            if x:
                seed = x & ~taken
                if seed:
                    reach[r] = seed
                    unreached[r] = x ^ seed
                taken |= x
        if not taken:
            return out
        stale = list(map(bool, unreached))
        order = range(len(blue))
        while True in stale:
            for v in order:
                if stale[v]:
                    stale[v] = False
                    nv = nbrs[v]
                    a = 0
                    for u in nv:
                        a |= reach[u]
                    a &= unreached[v]
                    if a:
                        reach[v] |= a
                        unreached[v] ^= a
                        for u in nv:
                            if unreached[u]:
                                stale[u] = True
            order = order[::-1]
        for v, xv in enumerate(blue):
            if xv:
                nv = nbrs[v]
                one = two = 0
                for u in nv:
                    a = reach[u]
                    if a:
                        two |= one & a
                        one |= a
                exact = xv & (one ^ two)
                if exact:
                    for u in nv:
                        out[u] |= exact & reach[u]


# The rounds of each maximal process: the first round's, then every later one's.
_ROUNDS = {
    Rule.STANDARD: (_standard_round, _standard_round),
    Rule.PSD: (_psd_round, _psd_round),
    Rule.POWER_DOMINATION: (_power_round, _standard_round),
}


_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _spelled(x: int) -> bytes:
    """One ASCII '0' or '1' per bit of ``x``, bit 0 first, up to its top
    set bit."""
    return bin(x)[:1:-1].encode()


def _compress(blue: list[int], live: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The vectors cut down to the set bits of ``live``, in order, and the
    stages ``(s, mv)`` that did it (Warren, Hacker's Delight, 7-4): stage j
    moves right by s = 2^j the bits ``mv`` of ``m``, ``live`` as moved so
    far, whose count of unset ``live`` bits below has bit j set: the prefix
    XOR ``mp`` of marks ``mk``, thinned by each stage. O(log^2 w) operations
    on w-bit ints, O(log w) a vector."""
    top, m = live.bit_length(), live
    mk = ((1 << top) - 1 ^ live) << 1
    blue, stages, s = [x & live for x in blue], [], 1
    while s <= top - live.bit_count():
        mp, j = mk, 1
        while j < top:
            mp ^= mp << j
            j <<= 1
        mv = mp & m
        if mv:
            stages.append((s, mv))
            blue = [x ^ (t := x & mv) | t >> s for x in blue]
        m = m ^ mv | mv >> s
        mk &= ~mp
        s <<= 1
    return blue, stages


def _expand(x: int, cuts) -> int:
    """Undo the cuts ``(live, stages)`` of :func:`_compress` on ``x``, the
    last first, each stage taking its bits back from s places up (Hacker's
    Delight, 7-5); what lands off ``live`` is dropped."""
    for live, stages in reversed(cuts):
        for s, mv in reversed(stages):
            x ^= (x ^ x << s) & mv
        x &= live
    return x


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


@cache
def _subset_masks(n: int, k: int) -> tuple[int, ...]:
    """The bitmasks of the k-subsets of range(n) in combinations order: a
    size's table indices. Only tables, below ``solvers.SLICED_MIN_N``
    vertices, read them, and those hold 1,023 masks in all."""
    return tuple(map(sum, combinations([1 << v for v in range(n)], k)))


@cache
def _digits(b: int) -> bytes:
    """The translation of a byte to ASCII '1' where it is ``b``, else '0'."""
    return bytes(49 if c == b else 48 for c in range(256))


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


def table_finished_by_round(table: bytearray, n: int, k: int) -> Iterator[tuple[int, int]]:
    """``(r, bits)`` for r ascending: the k-subsets of range(n) that the
    :func:`rounds_table` ``table`` gives r rounds, bit i for the i-th in
    combinations order. Their rounds bytes are read in one pass, last first,
    and int() reads each r's bits off them spelled as ASCII digits."""
    spelled = bytes(map(table.__getitem__, _subset_masks(n, k)))[::-1]
    for b in sorted(set(spelled)):
        if b > 1:
            yield b - 2, int(spelled.translate(_digits(b)), 2)


def subsets(bits: int, n: int, k: int) -> list[frozenset[int]]:
    """The k-subsets of range(n) at the set bits of ``bits``, bit i for the
    i-th in combinations order, in that order, by a walk over blocks of that
    order: the j-subsets of range(s, n) hold the C(n - s - 1, j - 1) with s
    first, so a block splits in two there, and an empty one is skipped. A
    block with at least one set bit in 32 is picked out of combinations()
    by one 0/1 flag per subset, behind the vertices the walk took below s."""
    out, blocks = [], [(bits, 0, k, ())] if bits else []
    while blocks:
        bits, s, j, prefix = blocks.pop()
        if bits.bit_count() << 5 >= comb(n - s, j):
            picked = compress(combinations(range(s, n), j), _spelled(bits).translate(_FLAGS))
            out += map(frozenset, map(prefix.__add__, picked) if prefix else picked)
            continue
        low = comb(n - s - 1, j - 1)
        if tail := bits >> low:
            blocks.append((tail, s + 1, j, prefix))
        if head := bits & (1 << low) - 1:
            blocks.append((head, s + 1, j - 1, prefix + (s,)))
    return out
