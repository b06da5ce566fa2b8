"""Cached flat tables and plane kernels (internal).

Claw-freeness asks whether some plane meets E in a basis, and the
verification sweeps ask it of thousands of ground sets.  The plane lists
are materialised once per dimension up to PLANE_TABLE_MAX.  For one set,
`claw_free_on` intersects the planes with E in numpy and looks the 3-point
hits up in the set of lines (three points of a plane are a basis unless
they are a line).  `claw_free_mask` runs it on at most two blocks of the
plane table, the first 155 planes and then the rest, and stops at the
first block with a claw, so at n = 6 a set with a claw among the first
planes skips the other 1 240.  `pg_sum_forbidden_mask` looks up the
PG-sum forbidden restrictions in the same set, walking the plane bitsets
up to the first forbidden hit.  The whole-subset sweep at n <= 4 applies
the claw rule one plane at a time to every ground set, only to list the
claw-free sets; every other question about a set goes to the one-set
kernels.  The even-plane test needs no planes: it is a degree test.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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
def plane_array(n: int) -> np.ndarray:
    """All plane membership masks as a uint64 vector (3 <= n <= 6)."""
    if not 3 <= n <= PLANE_TABLE_MAX:
        raise ValueError(f"plane tables cover 3 <= n <= {PLANE_TABLE_MAX}")
    return np.array(flat_members(n, 3), dtype=np.uint64)


@lru_cache(maxsize=None)
def planes_through_point(n: int) -> tuple[np.ndarray, ...]:
    """For each point value, the masks of the planes containing it: the
    plane oracle for `matroid._claw_pair`, the claws through a point."""
    per_point: list[list[int]] = [[] for _ in range(1 << n)]
    for pm in flat_members(n, 3):
        for p in iter_bits(pm):
            per_point[p].append(pm)
    return tuple(np.array(lst, dtype=np.uint64) for lst in per_point)


@lru_cache(maxsize=None)
def _lines() -> frozenset[int]:
    """Membership masks of the lines of PG(PLANE_TABLE_MAX - 1, 2).

    The lines of PG(n-1,2) for smaller n are lines here too, with the same
    point values, so one set serves every plane table.
    """
    return frozenset(flat_members(PLANE_TABLE_MAX, 2))


def claw_free_on(planes: np.ndarray, mask: int) -> bool:
    """No plane of `planes` meets E in a basis.

    Three points of a plane are a basis unless they are a line, so every
    3-point hit must be a line.
    """
    inter = planes & np.uint64(mask)
    return _lines().issuperset(inter[np.bitwise_count(inter) == 3].tolist())


def pg_sum_forbidden_mask(mask: int, n: int) -> bool:
    """No plane meets E in five or six points, in a claw, or in four
    points that sum to zero (n <= PLANE_TABLE_MAX; vacuous for n < 3).

    A plane's seven points sum to zero, so four of them sum to zero
    exactly when the other three are a line: the 3-point hits and the
    complements of the 4-point hits are looked up in the line set, one
    plane bitset at a time, up to the first forbidden hit.
    """
    if n < 3:
        return True
    if n > PLANE_TABLE_MAX:
        raise ValueError(f"plane tables cover 3 <= n <= {PLANE_TABLE_MAX}")
    lines = _lines()
    for plane in flat_members(n, 3):
        hit = plane & mask
        size = hit.bit_count()
        if 4 < size < 7 or (size == 3 and hit not in lines) or (size == 4 and plane ^ hit in lines):
            return False
    return True


#: planes in the first block of a scan: the size of the n = 5 plane table
_FIRST_BLOCK = 155


@lru_cache(maxsize=None)
def _plane_blocks(n: int) -> tuple[np.ndarray, ...]:
    """`plane_array(n)` as views: the first _FIRST_BLOCK planes, then the rest."""
    planes = plane_array(n)
    if len(planes) <= _FIRST_BLOCK:
        return (planes,)
    return planes[:_FIRST_BLOCK], planes[_FIRST_BLOCK:]


def claw_free_mask(mask: int, n: int) -> bool:
    """Claw-freeness: no plane meets E in three points off a line.

    The planes are scanned in at most two blocks by `claw_free_on`, and a
    claw in the first block stops the scan.  The first block is as long as
    the n = 5 table, so below n = 6 there is one block; at n = 6 most sets
    with a claw show one in the first 155 of the 1 395 planes, while a
    claw-free set pays a second numpy pass.
    """
    if n < 3:
        return True
    for block in _plane_blocks(n):
        if not claw_free_on(block, mask):
            return False
    return True


def anticlaw_free_mask(mask: int, n: int) -> bool:
    """No plane meets E in four points whose three absentees are independent.

    Those three absentees are exactly a claw of the complement, so this is
    claw-freeness of G \\ E.
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
def sweep_tables(n: int) -> np.ndarray:
    """The claw-free column over every ground set at n <= 4, which
    `claw_free_masks_list` reads.

    Index by code k where mask = k << 1.  Each plane meets every ground set
    at once and its 3-point hits are judged as in `claw_free_on`, against
    the plane's own seven lines.  Below n = 3 there are no planes and the
    column is all True.
    """
    if n > SWEEP_MAX:
        raise ValueError(f"whole-subset sweeps are supported only for n <= {SWEEP_MAX}")
    masks = np.arange(ground_codes(n), dtype=np.uint64) << np.uint64(1)
    claw_free = np.ones(len(masks), dtype=bool)
    all_lines = np.array(list(_lines()), dtype=np.uint64)
    for plane in plane_array(n) if n >= 3 else ():
        lines = all_lines[all_lines & ~plane == 0]
        inter = masks & plane
        claw_free &= (np.bitwise_count(inter) != 3) | np.isin(inter, lines)
    return claw_free


@lru_cache(maxsize=None)
def claw_free_masks_list(n: int) -> tuple[int, ...]:
    """All claw-free ground-set masks at dimension n <= 4, ascending."""
    return tuple(int(k) << 1 for k in np.flatnonzero(sweep_tables(n)))


def ground_codes(n: int) -> int:
    """Number of distinct ground sets at dimension n."""
    return 1 << ((1 << n) - 1)


__all__ = [
    "PLANE_TABLE_MAX",
    "SWEEP_MAX",
    "flat_members",
    "plane_array",
    "planes_through_point",
    "claw_free_on",
    "pg_sum_forbidden_mask",
    "claw_free_mask",
    "anticlaw_free_mask",
    "even_plane_mask",
    "sweep_tables",
    "claw_free_masks_list",
    "ground_codes",
    "ground_mask",
]
