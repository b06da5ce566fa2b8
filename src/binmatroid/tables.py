"""Cached flat tables and plane kernels (internal).

Claw-freeness asks whether some plane meets E in a basis, and the
verification sweeps ask it of thousands of ground sets.  The plane lists
are materialised once per dimension up to PLANE_TABLE_MAX.  For one set,
`claw_free_on` intersects the planes with E in numpy and looks the 3-point
hits up in the set of lines (three points of a plane are a basis unless
they are a line); `pg_sum_forbidden_mask` does the same for the PG-sum
forbidden restrictions.  For whole-subset sweeps at n <= 4, each plane's seven
membership bits are classified through small lookup tables.  The
even-plane test needs no planes: it is a degree test.
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
    plane oracle for `census._claw_through_table`."""
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
    """Claw-freeness via plane patterns: no plane meets E in a basis."""
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


# ---------------------------------------------------------------------------
# Whole-sweep tables for n <= 4: one bool per ground set
# ---------------------------------------------------------------------------
#
# Ground sets are indexed by code k, mask = k << 1 (bit 0 is never used).
# For each plane the seven membership bits are gathered into a 7-bit local
# pattern; linearity makes zero-sums local, so each pattern classifies the
# restriction to that plane outright.

_XORV = np.zeros(128, dtype=np.uint8)
_POP = np.zeros(128, dtype=np.uint8)
for _b in range(128):
    _POP[_b] = bin(_b).count("1")
    acc = 0
    for _i in range(7):
        if (_b >> _i) & 1:
            acc ^= _i + 1
    _XORV[_b] = acc

#: pattern is a claw: three points, independent
_PAT_CLAW = (_POP == 3) & (_XORV != 0)
#: pattern shows the restriction is one of the four non-PG-sum witnesses
_PAT_PG_BAD = (
    ((_POP == 3) & (_XORV != 0))
    | ((_POP == 4) & (_XORV == 0))
    | (_POP == 5)
    | (_POP == 6)
)


def _local_patterns(n: int, codes: np.ndarray) -> list[np.ndarray]:
    """Per-plane 7-bit local patterns for every ground-set code."""
    out = []
    for pm in flat_members(n, 3):
        lm = np.zeros(len(codes), dtype=np.uint8)
        for i, p in enumerate(iter_bits(pm)):
            lm |= ((codes >> np.uint32(p - 1)) & np.uint32(1)).astype(np.uint8) << np.uint8(i)
        out.append(lm)
    return out


@lru_cache(maxsize=None)
def sweep_tables(n: int) -> dict[str, np.ndarray]:
    """Per-ground-set property columns over all subsets, for n <= 4.

    Keys: claw_free, anticlaw_free, pg_sum_forbidden_route (no restriction
    to a plane is one of the four non-PG-sum witnesses).  Index by code k
    where mask = k << 1.  Below n = 3 there are no planes and every column
    is all True.
    """
    if n > 4:
        raise ValueError("whole-subset sweeps are supported only for n <= 4")
    ncodes = 1 << ((1 << n) - 1)
    codes = np.arange(ncodes, dtype=np.uint32)
    claw_free = np.ones(ncodes, dtype=bool)
    pg_ok = np.ones(ncodes, dtype=bool)
    if n >= 3:
        for lm in _local_patterns(n, codes):
            claw_free &= ~_PAT_CLAW[lm]
            pg_ok &= ~_PAT_PG_BAD[lm]
    return {
        "claw_free": claw_free,
        # anticlaw-free E is claw-free G \ E, whose code is (ncodes - 1) ^ k
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
