"""Cached flat tables and the bit-sliced plane evaluator (internal).

Claw-freeness asks whether some plane meets E in a basis, and the
verification sweeps ask it of thousands of ground sets.  One identity,
the counting order, serves every plane rule: sort the seven points of a
plane, and position j = 1..7 holds the point with coefficient vector j
over the plane's reduced echelon basis.  So hits sum to zero iff their
positions xor to zero, and a bit-sliced hit count (four full adders)
with that xor decides a claw (three hits off a line) and the PG-sum
forbidden restrictions.  The lane tables of `_lanes(n)` spread one set
over the positions of every plane at n <= PLANE_TABLE_MAX; the sweep at
n <= 4 spreads every ground set over one plane's positions, to list the
claw-free sets and to screen claw tests: a claw of E inside a flat is a
claw of E, so `claw_free_mask` first looks up the restrictions of E to
the 4-flats through span(e1, e2, e3) in the n = 4 sweep, which decides
n <= 4 outright.  The even-plane test needs no planes: it is a degree test.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .gf2 import _half_masks, flats_of_dim, ground_mask, iter_bits

#: plane lists are materialised only up to this dimension
PLANE_TABLE_MAX = 6
#: whole-subset sweeps and tables over every ground set stop here
SWEEP_MAX = 4


@lru_cache(maxsize=None)
def flat_members(n: int, d: int) -> tuple[int, ...]:
    """Membership masks of all d-dimensional flats (small n only)."""
    return tuple(f.members for f in flats_of_dim(n, d))


@lru_cache(maxsize=None)
def _lanes(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """For each byte k of E, the ints that spread its points 8k + i over
    seven lanes of one bit per plane, lane j - 1 holding the planes whose
    point at position j is in E; and the lane width.  The kernels read
    this, not `plane_array`, so a traced run records no span per call."""
    if not 3 <= n <= PLANE_TABLE_MAX:
        raise ValueError(f"plane tables cover 3 <= n <= {PLANE_TABLE_MAX}")
    planes = flat_members(n, 3)
    width = len(planes)
    spread = [bytearray((7 * width + 7) // 8) for _ in range(1 << n)]
    for i, plane in enumerate(planes):
        for j, p in enumerate(iter_bits(plane)):
            bit = j * width + i
            spread[p][bit >> 3] |= 1 << (bit & 7)
    byte_tables = []
    for low in range(0, 1 << n, 8):
        table = [0]
        for p in range(low, low + 8):
            point = int.from_bytes(spread[p], "little")
            table += [t | point for t in table]
        byte_tables.append(tuple(table))
    return tuple(byte_tables), width


def plane_array(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The lane tables of every plane (3 <= n <= 6), built at set-up."""
    return _lanes(n)


@lru_cache(maxsize=None)
def planes_through_point(n: int) -> tuple[tuple[int, ...], ...]:
    """For each point value, the masks of the planes containing it (no
    library caller: kept only because the benchmark's set-up names it)."""
    per_point: list[list[int]] = [[] for _ in range(1 << n)]
    for pm in flat_members(n, 3):
        for p in iter_bits(pm):
            per_point[p].append(pm)
    return tuple(map(tuple, per_point))


def _spread(mask: int, n: int) -> tuple[int, ...]:
    """The seven position lanes of E over every plane."""
    byte_tables, width = _lanes(n)
    x = 0
    for table, byte in zip(byte_tables, mask.to_bytes(len(byte_tables), "little")):
        x |= table[byte]
    full = (1 << width) - 1
    return (x & full, x >> width & full, x >> 2 * width & full, x >> 3 * width & full,
            x >> 4 * width & full, x >> 5 * width & full, x >> 6 * width)


def _tally(x1: int, x2: int, x3: int, x4: int, x5: int, x6: int, x7: int) -> tuple[int, ...]:
    """Bit-sliced over seven position lanes: the planes with a claw, the
    hit count as (ones, twos, fours) from four full adders, and the lanes
    where the hits' coefficient vectors (the positions j) xor to nonzero.
    A claw is three hits whose vectors xor to nonzero."""
    a, b = x1 ^ x2, x4 ^ x5
    s1, c1 = a ^ x3, x1 & x2 | a & x3  # each full adder: a sum and a carry
    s2, c2 = b ^ x6, x4 & x5 | b & x6
    d = s1 ^ s2
    ones, c3 = d ^ x7, s1 & s2 | d & x7
    e = c1 ^ c2
    twos, fours = e ^ c3, c1 & c2 | e & c3
    nonzero = (x1 ^ x3 ^ x5 ^ x7) | (x2 ^ x3 ^ x6 ^ x7) | (x4 ^ x5 ^ x6 ^ x7)
    return ones & twos & nonzero & ~fours, ones, twos, fours, nonzero


def pg_sum_forbidden_mask(mask: int, n: int) -> bool:
    """No plane meets E in five or six points, in a claw, or in four
    points that sum to zero (n <= PLANE_TABLE_MAX; vacuous for n < 3)."""
    if n < 3:
        return True
    claws, ones, twos, fours, nonzero = _tally(*_spread(mask, n))
    return not claws | fours & ((ones ^ twos) | ~(ones | twos | nonzero))


def claw_free_mask(mask: int, n: int) -> bool:
    """Claw-freeness: no plane meets E in three points off a line.

    Byte 0 of E holds the points 1..7 of V = span(e1, e2, e3), and for
    k >= 1 the 4-flat V ∪ (8k + V) holds bytes 0 and k.  Its local point
    w is (w & 7) ^ (8k if w & 8), a linear map, so the restriction of E
    to it is the n = 4 ground set of code (byte 0 >> 1) | byte k << 7.
    A claw there is a claw of E, so those codes are looked up first in
    the sweep column (`_screen_rows`).  At n <= 4 the one lookup is the
    whole test (E is padded to two bytes, so n = 3 reads byte 1 = 0);
    beyond, the evaluator judges the sets the screen passes.
    """
    if n < 3:
        return True
    data = mask.to_bytes(max(2, 1 << (n - 3)), "little")
    if 0 in data[1:].translate(_screen_rows()[data[0] >> 1]):
        return False
    return n <= SWEEP_MAX or not _tally(*_spread(mask, n))[0]


def anticlaw_free_mask(mask: int, n: int) -> bool:
    """No plane meets E in four points whose three absentees are independent.

    Those three absentees are exactly a claw of the complement, so this is
    claw-freeness of G \\ E (no library caller: kept only because the
    benchmark's tracer names it).
    """
    return claw_free_mask(ground_mask(n) & ~mask, n)


@lru_cache(maxsize=None)
def _low_degree_monomials(n: int) -> int:
    """Bitset of the vectors of weight at most 2: the monomials of degree <= 2."""
    m = 1
    for i in range(n):
        for j in range(i + 1):
            m |= 1 << ((1 << i) | (1 << j))
    return m


def even_plane_mask(mask: int, n: int) -> bool:
    """Every plane meets E in an even number of points (vacuous for n < 3).

    Equivalently the truth table of E (with f(0) = 0) has algebraic degree
    at most 2: a Möbius transform gives its monomials, and none of weight
    3 or more may survive.  See the README for why this is exact.
    """
    anf = mask & ~1
    for i, half in enumerate(_half_masks(n)):
        anf ^= (anf & half) << (1 << i)
    return not anf & ~_low_degree_monomials(n)


@lru_cache(maxsize=None)
def sweep_tables(n: int) -> int:
    """The claw-free column over every ground set at n <= 4: bit k is set
    when the ground set with mask k << 1 is claw-free.

    Point v lies in ground set k iff bit v - 1 of k is set, so its column
    over the codes is periodic: 2^(v-1) zeros, then 2^(v-1) ones.  Each
    plane's seven columns, in counting order, are the lanes of the claw
    rule.  Below n = 3 there are no planes and the column is all ones.
    """
    if n > SWEEP_MAX:
        raise ValueError(f"whole-subset sweeps are supported only for n <= {SWEEP_MAX}")
    codes = ground_codes(n)
    columns = [0] * (1 << n)
    for v in range(1, 1 << n):
        half = 1 << (v - 1)
        column, period = ((1 << half) - 1) << half, 2 * half
        while period < codes:
            column |= column << period
            period *= 2
        columns[v] = column
    claws = 0
    for plane in flat_members(n, 3) if n >= 3 else ():
        claws |= _tally(*(columns[p] for p in iter_bits(plane)))[0]
    return (1 << codes) - 1 & ~claws


@lru_cache(maxsize=None)
def _screen_rows() -> tuple[bytes, ...]:
    """Row r holds, for each byte c, 1 if the n = 4 ground set of code
    r | c << 7 is claw-free and 0 if not: the stride-128 slices of the
    sweep column as one flag byte per code, tables for `bytes.translate`."""
    flags = bin(sweep_tables(SWEEP_MAX))[:1:-1].ljust(ground_codes(SWEEP_MAX), "0")
    flags = flags.encode().translate(bytes.maketrans(b"01", b"\0\1"))
    return tuple(flags[r::128] for r in range(128))


@lru_cache(maxsize=None)
def claw_free_masks_list(n: int) -> tuple[int, ...]:
    """All claw-free ground-set masks at dimension n <= 4, ascending."""
    return tuple(m.start() << 1 for m in re.finditer("1", bin(sweep_tables(n))[:1:-1]))


def ground_codes(n: int) -> int:
    """Number of distinct ground sets at dimension n."""
    return 1 << ((1 << n) - 1)


__all__ = [
    "PLANE_TABLE_MAX",
    "SWEEP_MAX",
    "flat_members",
    "plane_array",
    "planes_through_point",
    "pg_sum_forbidden_mask",
    "claw_free_mask",
    "anticlaw_free_mask",
    "even_plane_mask",
    "sweep_tables",
    "claw_free_masks_list",
    "ground_codes",
    "ground_mask",
]
