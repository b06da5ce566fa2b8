"""Cached flat tables and plane kernels (internal).

Claw-freeness asks whether some plane meets E in a basis, and the
verification sweeps ask it of thousands of ground sets.  The plane lists
are materialised once per dimension up to PLANE_TABLE_MAX.  For one set,
`claw_free_on` intersects the planes with E in numpy and looks the 3-point
hits up in the set of lines (three points of a plane are a basis unless
they are a line); `pg_sum_forbidden_mask` does the same for the PG-sum
forbidden restrictions.  The whole-subset sweeps at n <= 4 apply the same
rule one plane at a time to every ground set.  The even-plane test needs
no planes: it is a degree test.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf2 import _half_masks, flats_of_dim, ground_mask, iter_bits

#: plane lists are materialised only up to this dimension
PLANE_TABLE_MAX = 6


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
    complements of the 4-point hits are looked up in the line set.
    """
    if n < 3:
        return True
    planes = plane_array(n)
    inter = planes & np.uint64(mask)
    count = np.bitwise_count(inter)
    if np.any((count == 5) | (count == 6)):
        return False
    lines = _lines()
    four = count == 4
    return lines.issuperset(inter[count == 3].tolist()) and lines.isdisjoint(
        (planes[four] ^ inter[four]).tolist()
    )


def claw_free_mask(mask: int, n: int) -> bool:
    """Claw-freeness: no plane meets E in three points off a line."""
    return n < 3 or claw_free_on(plane_array(n), mask)


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
def sweep_tables(n: int) -> dict[str, np.ndarray]:
    """Per-ground-set property columns over all subsets, for n <= 4.

    Keys: claw_free, anticlaw_free, pg_sum_forbidden_route (no restriction
    to a plane is one of the four non-PG-sum witnesses).  Index by code k
    where mask = k << 1.  Each plane meets every ground set at once and its
    hits are judged as in `claw_free_on` and `pg_sum_forbidden_mask`,
    against the plane's own seven lines.  Below n = 3 there are no planes
    and every column is all True.
    """
    if n > 4:
        raise ValueError("whole-subset sweeps are supported only for n <= 4")
    masks = np.arange(ground_codes(n), dtype=np.uint64) << np.uint64(1)
    claw_free = np.ones(len(masks), dtype=bool)
    pg_ok = claw_free.copy()
    all_lines = np.array(list(_lines()), dtype=np.uint64)
    for plane in plane_array(n) if n >= 3 else ():
        lines = all_lines[all_lines & ~plane == 0]
        inter = masks & plane
        count = np.bitwise_count(inter)
        claw_free &= (count != 3) | np.isin(inter, lines)
        # a claw is a witness too, and only a 4-point hit leaves a line as its
        # complement in the plane
        pg_ok &= claw_free & (count != 5) & (count != 6) & ~np.isin(plane ^ inter, lines)
    return {
        "claw_free": claw_free,
        # anticlaw-free E is claw-free G \ E, whose code is the last code ^ k
        "anticlaw_free": claw_free[::-1].copy(),
        "pg_sum_forbidden_route": pg_ok,
    }


@lru_cache(maxsize=None)
def claw_free_masks_list(n: int) -> tuple[int, ...]:
    """All claw-free ground-set masks at dimension n <= 4, ascending."""
    table = sweep_tables(n)["claw_free"]
    return tuple(int(k) << 1 for k in np.flatnonzero(table))


def ground_codes(n: int) -> int:
    """Number of distinct ground sets at dimension n."""
    return 1 << ((1 << n) - 1)


__all__ = [
    "PLANE_TABLE_MAX",
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
