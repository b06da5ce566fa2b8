"""Basic-class predicates and the bounding-formula evaluator.

Each predicate is decided by an identity rather than a plane search:
even-plane is algebraic degree at most 2 (`tables.even_plane_mask`),
anticlaw-free is claw-free complement, and the PG-sum witness grows one
maximal flat from the lowest point and tests the rest for flatness.  Both
that witness and the target chain rest on one fact: a flat over F_2 is
never the union of two proper subflats, so the PG-sum growth needs one
anchor and the target descent is forced.  The forbidden-restriction
rule (`tables.pg_sum_forbidden_mask`, n <= 6), read off the plane hit
counts of the claw test, is an independent PG-sum route;
`verify.verify_pgsum` runs both on every ground set at n <= 4 and on
samples at n = 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gf2 import (
    Flat,
    ground_mask,
    is_flat,
    iter_bits,
    span_mask,
    xor_translate,
)
from .matroid import BinaryMatroid, find_claw
from . import tables
from .tables import pg_sum_forbidden_mask  # the plane-evaluator PG-sum route, re-exported


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
    """Claw-freeness at any dimension: the 4-flat screen and the
    bit-sliced plane evaluator of `tables.claw_free_mask` for n <= 6, the
    A-walk of `find_claw` beyond."""
    if n <= tables.PLANE_TABLE_MAX:
        return tables.claw_free_mask(mask, n)
    return find_claw(BinaryMatroid(n, mask)) is None


def is_claw_free(M: BinaryMatroid) -> bool:
    """Claw-freeness by `claw_free_any`; see matroid.find_claw for witnesses."""
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
    return (Flat(M.n, f1), Flat(M.n, f2))


def is_pg_sum_forbidden(M: BinaryMatroid) -> bool:
    """Forbidden-restriction route: no plane restriction is a claw, a
    four-point zero-sum set, or has five or six points (n <= 6)."""
    return pg_sum_forbidden_mask(M.mask, M.n)


def is_pg_sum(M: BinaryMatroid) -> bool:
    """Authoritative PG-sum predicate (direct route)."""
    return pg_sum_witness_mask(M.mask, M.n) is not None


def _is_strict(witness: Optional[tuple[int, int]], n: int) -> bool:
    """Both flats of a PG-sum witness nonempty and the ground set full-rank:
    disjoint flats of dimensions a and b span a + b dimensions."""
    if witness is None or not all(witness):
        return False
    return (witness[0].bit_count() + 1) * (witness[1].bit_count() + 1) == 1 << n


def strict_pg_sum_mask(mask: int, n: int) -> bool:
    return _is_strict(pg_sum_witness_mask(mask, n), n)


def is_strict_pg_sum(M: BinaryMatroid) -> bool:
    """Full-rank with the ground set a union of two disjoint nonempty flats."""
    return strict_pg_sum_mask(M.mask, M.n)


def is_bose_burton(M: BinaryMatroid) -> Optional[int]:
    """The order t if the complement of the ground set is a flat, else None."""
    rest = ground_mask(M.n) & ~M.mask
    if not is_flat(rest, M.n):
        return None
    return M.n - rest.bit_count().bit_length()


def is_target(M: BinaryMatroid) -> Optional[list[Flat]]:
    """Witness chain of nested flats whose alternate layers give E, or None.

    The chain is walked down from G: from a flat B the next flat is
    cl(B \\ E), whose layer lies in E, or else cl(B ∩ E), whose layer
    avoids it; M is not a target when neither is proper.  A flat is never
    the union of two proper subflats, so at most one is proper and the
    walk is forced, and the layers alternate (README, "Identities instead
    of plane searches").  Read upward, E is the union of the layers at
    even positions, so the bottom flat is dropped when the lowest layer
    avoids E, and the top one when the highest layer does.

    The walk reads only member bitsets (`gf2.span_mask`); a `Flat` is
    built from the members of each flat of the chain it returns, and
    none is built for a non-target.
    """
    E, n = M.mask, M.n
    chain = [ground_mask(n)]
    inside = []
    while B := chain[-1]:
        F = span_mask(B & ~E, n) & ~1
        inside.append(F != B)
        if not inside[-1]:
            F = span_mask(B & E, n) & ~1
            if F == B:
                return None
        chain.append(F)
    chain.reverse()
    if inside and not inside[-1]:
        chain.pop(0)
    if len(chain) > 1 and not inside[0]:
        chain.pop()
    return [Flat(n, B) for B in chain]


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
        strict_pg_sum=_is_strict(witness, M.n),
        bose_burton_order=is_bose_burton(M),
        target=is_target(M) is not None,
    )
