"""numpy plane kernels, kept as oracles for the bit-sliced evaluator of
`binmatroid.tables`: the one-pass claw scan over a uint64 plane array,
the PG-sum forbidden-restriction loop over plane bitsets, and the
whole-subset claw sweep at n <= 4.  Each judges a plane's hits by
looking them up in the set of lines, not by counting order."""

import functools

import numpy as np

from binmatroid import tables


@functools.lru_cache(maxsize=None)
def lines():
    """Membership masks of the lines of PG(5,2).  The lines of PG(n-1,2)
    for n <= 6 are lines here too, with the same point values."""
    return frozenset(tables.flat_members(tables.PLANE_TABLE_MAX, 2))


@functools.lru_cache(maxsize=None)
def plane_array(n):
    """All plane membership masks as a uint64 vector (3 <= n <= 6)."""
    return np.array(tables.flat_members(n, 3), dtype=np.uint64)


def claw_free_on(planes, mask):
    """No plane of `planes` meets E in a basis: every 3-point hit is a line."""
    inter = np.asarray(planes, dtype=np.uint64) & np.uint64(mask)
    return lines().issuperset(inter[np.bitwise_count(inter) == 3].tolist())


def pg_sum_forbidden_loop(mask, n):
    """No plane meets E in five or six points, a claw, or four points whose
    three absentees are a line (so the four sum to zero), plane by plane
    up to the first forbidden hit."""
    if n < 3:
        return True
    for plane in tables.flat_members(n, 3):
        hit = plane & mask
        size = hit.bit_count()
        if 4 < size < 7 or (size == 3 and hit not in lines()) or (size == 4 and plane ^ hit in lines()):
            return False
    return True


def sweep_column(n):
    """The claw-free verdict of every ground set at n <= 4, indexed by
    code k where mask = k << 1: one plane at a time meets every ground set,
    and its 3-point hits are looked up among the plane's own seven lines."""
    masks = np.arange(tables.ground_codes(n), dtype=np.uint64) << np.uint64(1)
    claw_free = np.ones(len(masks), dtype=bool)
    all_lines = np.array(sorted(lines()), dtype=np.uint64)
    for plane in plane_array(n) if n >= 3 else ():
        own = all_lines[all_lines & ~plane == 0]
        inter = masks & plane
        claw_free &= (np.bitwise_count(inter) != 3) | np.isin(inter, own)
    return claw_free
