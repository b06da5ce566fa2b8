"""Basic-class predicates and the bounding-formula evaluator.

Each predicate is decided by an identity rather than a plane search:
even-plane is algebraic degree at most 2 (`tables.even_plane_mask`),
anticlaw-free is claw-free complement, and the PG-sum witness grows one
maximal flat from the lowest point and tests the rest for flatness.  The
forbidden-restriction scan over planes is kept as an independent PG-sum
route, and the verification suites cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gf2 import (
    Flat,
    closure_mask,
    flats_of_dim,
    ground_mask,
    is_flat,
    iter_bits,
    xor_translate,
)
from .matroid import BinaryMatroid, find_claw, rank_mask
from . import tables


@dataclass(frozen=True)
class ClassFlags:
    """Per-matroid class membership record (wire keys for reports)."""

    claw_free: bool
    anticlaw_free: bool
    triangle_free: bool
    complement_triangle_free: bool
    even_plane: bool
    pg_sum: bool
    strict_pg_sum: bool
    bose_burton_order: Optional[int]
    target: bool


def triangle_free_mask(mask: int, n: int) -> bool:
    for x in iter_bits(mask):
        if mask & xor_translate(mask, x, n):
            return False
    return True


def is_triangle_free(M: BinaryMatroid) -> bool:
    """No two ground-set points sum to a third."""
    return triangle_free_mask(M.mask, M.n)


def is_complement_triangle_free(M: BinaryMatroid) -> bool:
    return triangle_free_mask(ground_mask(M.n) & ~M.mask, M.n)


def claw_free_any(mask: int, n: int) -> bool:
    """Claw-freeness at any dimension: plane tables for n <= 6, the pair
    scan of `find_claw` beyond."""
    if n <= tables.PLANE_TABLE_MAX:
        return tables.claw_free_mask(mask, n)
    return find_claw(BinaryMatroid(n, mask)) is None


def is_claw_free(M: BinaryMatroid) -> bool:
    """Fast plane-pattern route for small n; see matroid.find_claw for witnesses."""
    return claw_free_any(M.mask, M.n)


def is_anticlaw_free(M: BinaryMatroid) -> bool:
    """No plane restriction is the complement of a claw: the complement
    is claw-free."""
    return claw_free_any(ground_mask(M.n) & ~M.mask, M.n)


def is_even_plane(M: BinaryMatroid) -> bool:
    """Every plane meets the ground set evenly; vacuously true for n < 3.

    Decided at every n by the degree test of `tables.even_plane_mask`.
    """
    return tables.even_plane_mask(M.mask, M.n)


def pg_sum_witness_mask(mask: int, n: int) -> Optional[tuple[int, int]]:
    """Masks of two disjoint flats whose union is the ground set, or None.

    The maximal flat inside E through the lowest point of E is grown
    greedily, and the rest of E is tested for flatness.  If E is a union
    of two disjoint flats, every flat inside E lies wholly in one part (a
    vector space is never a union of two proper subspaces), so the grown
    flat is a whole part and no other anchor needs to be tried.

    The growth carries V, the points whose coset over the span lies in
    E ∪ {0}.  Absorbing p maps V to V ∩ (V + p), so V only shrinks, and
    the next point absorbed is the lowest of V outside the span: each of
    at most n steps costs two translates.
    """
    if mask == 0:
        return (0, 0)
    span = 1
    valid = mask | 1
    while cand := valid & ~span:
        p = (cand & -cand).bit_length() - 1
        valid &= xor_translate(valid, p, n)
        span |= xor_translate(span, p, n)
    rest = mask & ~span
    return (span & ~1, rest) if is_flat(rest, n) else None


def is_pg_sum_direct(M: BinaryMatroid) -> Optional[tuple[Flat, Flat]]:
    """Witness pair of disjoint flats whose union is the ground set, or None."""
    witness = pg_sum_witness_mask(M.mask, M.n)
    if witness is None:
        return None
    f1, f2 = witness
    return (closure_mask(f1, M.n), closure_mask(f2, M.n))


def pg_sum_forbidden_mask(mask: int, n: int) -> bool:
    if n < 3:
        return True
    members = (
        tables.flat_members(n, 3)
        if n <= tables.PLANE_TABLE_MAX
        else (F.members for F in flats_of_dim(n, 3))
    )
    for pm in members:
        inside = mask & pm
        s = inside.bit_count()
        if s in (5, 6):
            return False
        if s == 3 or s == 4:
            acc = 0
            for v in iter_bits(inside):
                acc ^= v
            if (s == 3) == (acc != 0):
                return False
    return True


def is_pg_sum_forbidden(M: BinaryMatroid) -> bool:
    """Forbidden-restriction route: no plane restriction is a claw, a
    four-point zero-sum set, or has five or six points."""
    return pg_sum_forbidden_mask(M.mask, M.n)


def is_pg_sum(M: BinaryMatroid) -> bool:
    """Authoritative PG-sum predicate (direct route)."""
    return pg_sum_witness_mask(M.mask, M.n) is not None


def _is_strict(witness: Optional[tuple[int, int]], mask: int, n: int) -> bool:
    """Both flats of a PG-sum witness nonempty and the ground set full-rank."""
    return witness is not None and all(witness) and rank_mask(mask, n) == n


def strict_pg_sum_mask(mask: int, n: int) -> bool:
    return _is_strict(pg_sum_witness_mask(mask, n), mask, n)


def is_strict_pg_sum(M: BinaryMatroid) -> bool:
    """Full-rank with the ground set a union of two disjoint nonempty flats."""
    return strict_pg_sum_mask(M.mask, M.n)


def is_bose_burton(M: BinaryMatroid) -> Optional[int]:
    """The order t if the complement of the ground set is a flat, else None."""
    rest = ground_mask(M.n) & ~M.mask
    flat = closure_mask(rest, M.n)
    if flat.members != rest:
        return None
    return M.n - flat.dim


def _target_descent(E: int, n: int, members: int) -> Optional[list[tuple[int, str]]]:
    """Descent to the empty flat by alternating closures, or None.

    From a flat B, either the outer layer lies in E (descend to
    cl(B \\ E)) or avoids it (descend to cl(B ∩ E)); both branches are
    tried, and a strict dimension decrease is required, so the recursion
    is exact and terminates within n levels.
    """
    if members == 0:
        return []
    for sub, label in ((members & ~E, "in"), (members & E, "out")):
        next_members = closure_mask(sub, n).members
        if next_members != members:
            tail = _target_descent(E, n, next_members)
            if tail is not None:
                return [(next_members, label)] + tail
    return None


def is_target(M: BinaryMatroid) -> Optional[list[Flat]]:
    """Witness chain of nested flats whose alternate layers give E, or None.

    The chain is normalised so that ground-set layers sit at even
    positions; the assembled chain is re-checked against E before being
    returned.
    """
    E, n = M.mask, M.n
    descent = _target_descent(E, n, ground_mask(n))
    if descent is None:
        return None
    # ascending flats; labels[i] labels the layer between masks[i] and masks[i+1]
    masks = [m for m, _ in reversed(descent)] + [ground_mask(n)]
    labels = [lab for _, lab in reversed(descent)]
    chain: list[int] = [masks[0]] if masks else [0]
    for i, lab in enumerate(labels):
        want_even = lab == "in"
        if ((len(chain) - 1) % 2 == 0) != want_even:
            if len(chain) == 1:
                # fold the out-of-E bottom layer into the chain base
                chain = [masks[i + 1]]
                continue
            chain.append(chain[-1])
        chain.append(masks[i + 1])
    while len(chain) >= 2 and (len(chain) - 2) % 2 == 1:
        chain.pop()  # a trailing out-of-E layer carries no content
    rebuilt = 0
    for i in range(0, len(chain) - 1, 2):
        rebuilt |= chain[i + 1] & ~chain[i]
    if rebuilt != E:
        raise AssertionError("target chain assembly disagrees with the ground set")
    return [closure_mask(m, n) for m in chain]


def chi_bound(k: int, dim_n: int) -> int:
    """Critical-number bound (k + 2)·2^(k+1) + k·(dim_n + 4)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return (k + 2) * (1 << (k + 1)) + k * (dim_n + 4)


def classify(M: BinaryMatroid) -> ClassFlags:
    """All class flags in one record."""
    return _classify(M)


def _classify(
    M: BinaryMatroid,
    claw_free: Optional[bool] = None,
    anticlaw_free: Optional[bool] = None,
) -> ClassFlags:
    """The class flags of M; a claw flag the caller supplies is taken as
    given (`structure.tree_flags` reads both off a decomposition tree).

    Even-plane, complement triangle-free and PG-sum sets are claw-free
    (README, "Invariants at the leaves"), so the claw scan runs only when
    none of them holds.  They can hold anticlaws, so that scan always runs.
    """
    witness = pg_sum_witness_mask(M.mask, M.n)
    even_plane = is_even_plane(M)
    co_triangle_free = is_complement_triangle_free(M)
    if claw_free is None:
        claw_free = (
            even_plane or co_triangle_free or witness is not None or is_claw_free(M)
        )
    if anticlaw_free is None:
        anticlaw_free = is_anticlaw_free(M)
    return ClassFlags(
        claw_free=claw_free,
        anticlaw_free=anticlaw_free,
        triangle_free=is_triangle_free(M),
        complement_triangle_free=co_triangle_free,
        even_plane=even_plane,
        pg_sum=witness is not None,
        strict_pg_sum=_is_strict(witness, M.mask, M.n),
        bose_burton_order=is_bose_burton(M),
        target=is_target(M) is not None,
    )
