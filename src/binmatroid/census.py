"""Orbit bookkeeping, family enumeration, seeded samplers, and censuses.

Orbits of ground sets under the full linear group are walked with three
generator maps (a coordinate cycle, a swap, and one shear), which
together generate the group.  Walking stays within any closed family, so
an invariant family can be split into isomorphism classes without any
per-element canonical-form search.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterable, Optional

from . import tables
from .gf2 import (
    TranslateTable,
    _half_masks,
    check_dim,
    echelon_basis,
    ground_mask,
    iter_bits,
    xor_translate,
)
from .matroid import (
    MAX_CANONICAL_DIM,
    BinaryMatroid,
    canonical_form,
    is_full_rank,
    linear_map_table,
    seq_key,
    transform_mask,
)
from .construct import lift_join
from .recognize import classify, claw_free_any
from .structure import has_decomposer


# ---------------------------------------------------------------------------
# GL(n,2) orbit machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gl_generators(n: int) -> tuple[tuple[int, ...], ...]:
    """Point-permutation tables of maps generating GL(n,2)."""
    if n <= 1:
        return ()
    basis = [1 << i for i in range(n)]
    cycle = [1 << ((i + 1) % n) for i in range(n)]
    swap = list(basis)
    swap[0], swap[1] = swap[1], swap[0]
    shear = list(basis)
    shear[0] = 0b11  # e1 -> e1 + e2
    return tuple(
        tuple(linear_map_table(imgs, n)) for imgs in (cycle, swap, shear)
    )


def orbit_of(mask: int, n: int) -> set[int]:
    """Full GL-orbit of a ground set (use only when orbits are known small)."""
    gens = gl_generators(n)
    seen = {mask}
    frontier = [mask]
    while frontier:
        m = frontier.pop()
        for t in gens:
            im = transform_mask(m, t)
            if im not in seen:
                seen.add(im)
                frontier.append(im)
    return seen


def orbit_split(masks: Iterable[int], n: int) -> dict[int, int]:
    """Map each mask of a GL-closed family to its class representative.

    The representative is the orbit element with the least membership
    sequence, i.e. the canonical form.
    """
    todo = set(masks)
    out: dict[int, int] = {}
    while todo:
        orbit = orbit_of(todo.pop(), n)
        rep = min(orbit, key=lambda m: seq_key(m, n))
        for m in orbit:
            out[m] = rep
        todo -= orbit
    return out


@lru_cache(maxsize=None)
def canon_table(n: int) -> dict[int, int]:
    """Canonical representative for every ground set, n <= 4."""
    if n > tables.SWEEP_MAX:
        raise ValueError(
            f"whole-space canonical tables are kept only for n <= {tables.SWEEP_MAX}"
        )
    return orbit_split(range(0, 1 << (1 << n), 2), n)


# ---------------------------------------------------------------------------
# The even-plane family as a linear solution space
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def even_plane_basis(n: int) -> tuple[int, ...]:
    """Reduced echelon basis of the even-plane family.

    The even-plane ground sets are the truth tables of degree at most 2
    with f(0) = 0 (`tables.even_plane_mask`), so the monomials x_i and
    x_i x_j span the family.  A reduced echelon basis of a space is
    unique, so this is the nullspace basis of the per-plane parity rows.
    """
    coords = [ground_mask(n) & ~half for half in _half_masks(n)]
    return echelon_basis(coords[i] & coords[j] for i in range(n) for j in range(i + 1))


@lru_cache(maxsize=None)
def even_plane_masks(n: int) -> tuple[int, ...]:
    """All even-plane ground sets at dimension n (2^k of them)."""
    basis = even_plane_basis(n)
    if len(basis) > 20:
        raise ValueError("even-plane family too large to materialise")
    masks = [0]
    for b in basis:
        masks += [m ^ b for m in masks]
    return tuple(masks)


def random_even_plane_mask(n: int, rng: random.Random) -> int:
    """Uniform member of the even-plane family without materialising it."""
    m = 0
    for b in even_plane_basis(n):
        if rng.getrandbits(1):
            m ^= b
    return m


@lru_cache(maxsize=None)
def even_plane_classes(n: int) -> tuple[int, ...]:
    """Isomorphism-class representatives of the even-plane family."""
    reps = sorted(set(orbit_split(even_plane_masks(n), n).values()))
    return tuple(reps)


# ---------------------------------------------------------------------------
# Seeded samplers
# ---------------------------------------------------------------------------


def _free_points(table: TranslateTable) -> int:
    """The points q outside E, the table's set, with E ∪ {q} claw-free,
    for E claw-free.

    Every claw of E ∪ {q} then runs through q: it is {q, y, z} with y < z
    in E and y + z, q + y, q + z, q + y + z outside E.  The last follows
    from the others, or {y, z, q + y + z} would be a claw of E.  So q is
    free iff it lies in E + y or E + z for every pair y < z of E with
    z outside E + y (README, "Identities instead of plane searches")."""
    T, get = table.entries, table.get
    E = T[0]
    free = ground_mask(table.n) & ~E
    while E & (E - 1):  # a pair of points of E is left
        low = E & -E
        E ^= low
        y = low.bit_length() - 1
        Ty = T[y] or get(y)
        for z in iter_bits(E & ~Ty):
            free &= Ty | (T[z] or get(z))
    return free


def _greedy_claw_free(n: int, rng: random.Random) -> int:
    """Random insertion order, random keep rate; a drawn point p is kept
    unless it completes a claw.  E stays claw-free, and the points that
    would not complete one are kept as a bitset, so each test reads one
    bit; when a point joins E, `_free_points` recomputes it from a fresh
    table of E, which computes only the translates E + y, y in E, that
    it reads.  Reading a bit draws no random number, so the RNG stream
    is the one that a claw test of each drawn point gives."""
    order = list(range(1, 1 << n))
    rng.shuffle(order)
    keep = rng.uniform(0.25, 1.0)
    E = 0
    free = ground_mask(n)
    for p in order:
        if rng.random() > keep:
            continue
        if free >> p & 1:
            E |= 1 << p
            free = _free_points(TranslateTable(E, n))
    return E


def _greedy_triangle_free(n: int, rng: random.Random) -> int:
    """Points taken in a random order, each kept with a random probability
    unless it closes a triangle of T: a point p does iff it is the sum of
    two points of T, and those sums grow by T + p when p joins."""
    order = list(range(1, 1 << n))
    rng.shuffle(order)
    keep = rng.uniform(0.3, 1.0)
    T = sums = 0
    for p in order:
        if rng.random() > keep:
            continue
        if not (sums >> p) & 1:
            sums |= xor_translate(T, p, n)
            T |= 1 << p
    return T


def _doubled(E: int, n: int) -> int:
    """The nonzero v with pi(v) in E or pi(v) = 0, at dimension n + 1,
    where pi drops the top coordinate; claw-free whenever E is.

    A claw x, y, z of it projects to three distinct points of E, since two
    equal projections, or a zero one, would put a pair sum in the set.  As
    pi is linear, no pair or triple of those points sums into E or to 0,
    so they are a claw of E.
    """
    return E | (E | 1) << (1 << n)


def sample_claw_free_mask(n: int, rng: random.Random) -> int:
    """One seeded claw-free ground set from a mixture of strategies:
    greedy insertion, lift-joins of smaller claw-free sets, even-plane
    members, complements of triangle-free sets, dimension extension, and
    plain rejection.  Below n = 5 it draws from the sweep's list of all
    claw-free sets; from n = 5 on, one mixture serves every dimension,
    its candidates tested by the 4-flat screen and the bit-sliced plane
    evaluator to n = 6."""
    if n <= tables.SWEEP_MAX:
        pool = tables.claw_free_masks_list(n)
        return pool[rng.randrange(len(pool))]
    roll = rng.random()
    if roll < 0.30:
        return _greedy_claw_free(n, rng)
    if roll < 0.50:
        n1 = rng.randint(1, n - 1)
        left = BinaryMatroid(n1, sample_claw_free_mask(n1, rng))
        right = BinaryMatroid(n - n1, sample_claw_free_mask(n - n1, rng))
        return lift_join(left, right).mask
    if roll < 0.62:
        return random_even_plane_mask(n, rng)
    if roll < 0.74:
        return ground_mask(n) & ~_greedy_triangle_free(n, rng)
    if roll < 0.92:
        # extend a claw-free set one dimension with a random layer
        base = sample_claw_free_mask(n - 1, rng)
        half = 1 << (n - 1)
        for _ in range(24):
            choice = rng.random()
            if choice < 0.3:
                return _doubled(base, n - 1)
            layer = rng.getrandbits(half)
            if choice < 0.6:
                layer ^= base
            cand = base | layer << half
            if claw_free_any(cand, n):
                return cand
        return _greedy_claw_free(n, rng)
    # rejection from uniform subsets at a random density
    density = rng.uniform(0.05, 0.95)
    for _ in range(24):
        cand = 0
        for v in range(1, 1 << n):
            if rng.random() < density:
                cand |= 1 << v
        if claw_free_any(cand, n):
            return cand
    return _greedy_claw_free(n, rng)


def sample_uniform_mask(n: int, rng: random.Random) -> int:
    return rng.getrandbits((1 << n) - 1) << 1


# ---------------------------------------------------------------------------
# Census records
# ---------------------------------------------------------------------------

CLASS_KEYS = (
    "even_plane",
    "complement_triangle_free",
    "strict_pg_sum",
    "pg_sum",
    "target",
    "bose_burton",
    "triangle_free",
    "decomposable",
)


def _census_from_reps(
    n: int, reps: Iterable[int], filter_claw_free: bool, extra: dict
) -> dict:
    """The census record of a set of class representatives, which it
    walks in `seq_key` order."""
    reps = sorted(reps, key=lambda m: seq_key(m, n) if n else 0)
    by_class = {k: 0 for k in CLASS_KEYS}
    claw_free_count = 0
    min_density: Optional[int] = None
    witnesses: list[list[int]] = []
    for mask in reps:
        M = BinaryMatroid(n, mask)
        flags = classify(M)
        if flags.claw_free:
            claw_free_count += 1
        family = flags.claw_free if filter_claw_free else True
        if not family:
            continue
        by_class["even_plane"] += flags.even_plane
        by_class["complement_triangle_free"] += flags.complement_triangle_free
        by_class["strict_pg_sum"] += flags.strict_pg_sum
        by_class["pg_sum"] += flags.pg_sum
        by_class["target"] += flags.target
        by_class["bose_burton"] += flags.bose_burton_order is not None
        by_class["triangle_free"] += flags.triangle_free
        by_class["decomposable"] += has_decomposer(M)
        if flags.claw_free and is_full_rank(M):
            size = M.size
            if min_density is None or size < min_density:
                min_density = size
                witnesses = [M.points()]
            elif size == min_density:
                witnesses.append(M.points())
    witnesses.sort()
    record = {
        "n": n,
        "count_total": len(reps),
        "count_claw_free": claw_free_count,
        "count_by_class": by_class,
        "min_density_fullrank": min_density,
        "minimizer_witnesses": witnesses,
    }
    record.update(extra)
    record["filter"] = "claw_free" if filter_claw_free else "all"
    return record


def exhaustive_census(n: int, filter_claw_free: bool = False) -> dict:
    """Canonical-form-deduplicated census over every ground set (n <= 4)."""
    check_dim(n)
    if n > tables.SWEEP_MAX:
        raise ValueError(f"exhaustive enumeration is capped at n = {tables.SWEEP_MAX}")
    table = canon_table(n)
    if filter_claw_free:
        reps = {table[m] for m in tables.claw_free_masks_list(n)}
    else:
        reps = set(table.values())
    return _census_from_reps(n, reps, filter_claw_free, {"mode": "exhaustive"})


def sampled_census(
    n: int, samples: int, seed: int, filter_claw_free: bool = False
) -> dict:
    """Seeded sampled census of canonical forms for n <= 6, and of raw
    masks beyond, where the record adds "dedupe": "raw_mask"."""
    check_dim(n)
    rng = random.Random(seed)
    seen: set[int] = set()
    for _ in range(samples):
        if filter_claw_free:
            mask = (
                sample_claw_free_mask(n, rng)
                if n >= 3
                else sample_uniform_mask(n, rng)
            )
        else:
            mask = sample_uniform_mask(n, rng)
        if n <= MAX_CANONICAL_DIM:
            mask = canonical_form(BinaryMatroid(n, mask)).mask
        seen.add(mask)
    extra = {"mode": "sample", "samples": samples, "seed": seed}
    if n > MAX_CANONICAL_DIM:
        extra["dedupe"] = "raw_mask"
    return _census_from_reps(n, seen, filter_claw_free, extra)
