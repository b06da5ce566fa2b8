"""Decomposer discovery, recursive lift-join decomposition, reconstruction.

A decomposer is a nonempty proper flat F with no mixed cosets: every
translate of F either lies inside the ground set or avoids it.  Having
one is equivalent to the matroid splitting as a lift-join of its
restrictions to F and to any maximal flat disjoint from F.

Decomposers are found per anchor point by a fixpoint closure, not by
flat enumeration: the minimal decomposer through a is the closure of a
under "collect every point whose pair under some member of the flat is
mixed".  The fixpoint is monotone, so it underlies every decomposer
containing the anchor; an anchor whose span or defect union reaches a
point in no decomposer is in none either.  `_anchor_spans` walks the
anchors in order with the bitset of those in no decomposer and drops
each anchor that reaches it; the first few such anchors also serve as
point probes, which refute a later anchor a from E's membership at b
and b + a alone, with no translate.  `find_decomposer` and
`has_decomposer_mask` both read their spans from it.

`tree_flags` and `fold_invariants` read class flags and invariants off a
decomposition tree through the lift-join identities, so only the leaves
are searched, and a leaf only for what its basic-class tags leave open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .construct import lift_join
from .gf2 import (
    Flat,
    TranslateTable,
    closure_mask,
    complementary_flat,
    cosets,
    echelon_basis,
    ground_mask,
    is_flat,
    iter_bits,
    xor_translate,
)
from .matroid import (
    BinaryMatroid,
    InvariantRecord,
    _clique_search,
    _sigma_search,
    clique_number,
    is_full_rank,
    linear_map_table,
    rank_mask,
    restrict,
)
from .recognize import (
    ClassFlags,
    _classify,
    classify,
    claw_free_any,
    is_complement_triangle_free,
    is_even_plane,
    is_strict_pg_sum,
    pg_sum_witness_mask,
)


class StructureTheoremViolation(RuntimeError):
    """A claw-free leaf fell outside every basic class (never expected)."""


def defect_set(M: BinaryMatroid, a: int) -> int:
    """Points x (other than a) for which exactly one of x, x+a is in E.

    Symmetric under translation by a; empty exactly when {a} is a
    one-point decomposer.
    """
    if not 1 <= a < (1 << M.n):
        raise ValueError(f"anchor {a} out of range")
    E = M.mask
    return (E ^ xor_translate(E, a, M.n)) & ~1 & ~(1 << a)


def minimal_decomposer_containing(M: BinaryMatroid, a: int) -> Optional[Flat]:
    """Fixpoint flat through a, or None if the closure blows up to G.

    Start from cl({a}) and repeatedly absorb the defect sets of all
    members; a stable proper flat has no mixed cosets, and any decomposer
    containing a contains the fixpoint.  Callers trying many anchors read
    `_fixpoint_span` over one shared table instead.
    """
    if not 1 <= a < (1 << M.n):
        raise ValueError(f"anchor {a} out of range")
    span = _fixpoint_span(TranslateTable(M.mask, M.n), a)
    if span is None:
        return None
    return closure_mask(span & ~1, M.n)


def find_decomposer(M: BinaryMatroid) -> Optional[Flat]:
    """Minimum-dimension decomposer, ties broken by lexicographic basis.

    None iff no proper nonempty flat decomposes M (equivalently, M is
    not a lift-join of smaller matroids).  The fixpoint spans come from
    `_anchor_spans`.
    """
    best: Optional[Flat] = None
    for span in _anchor_spans(TranslateTable(M.mask, M.n)):
        F = closure_mask(span & ~1, M.n)
        if best is None or (F.dim, F.basis) < (best.dim, best.basis):
            best = F
            if best.dim == 1:
                break  # later anchors cannot beat a first singleton
    return best


#: Anchors in no decomposer that `_anchor_spans` keeps as point probes.
_PROBES = 4


def _anchor_spans(table: TranslateTable) -> Iterator[int]:
    """The fixpoint span of each anchor, in anchor order, that stays proper.

    An anchor whose span blows up to G lies in no decomposer, so it joins
    the bad-anchor bitset, and a later anchor is dropped as soon as its
    fixpoint reaches that bitset (see `_fixpoint_span`).  The first
    `_PROBES` anchors that blow up become probes: a decomposer through a
    holds every b with [b in E] != [b + a in E], since b and b + a share
    a coset, so a probe b with that mismatch drops a with two lookups in
    a membership string.  The string is built at the first bad anchor,
    so a walk that yields before one pays nothing for the probes.
    """
    bad = 0
    probes: list[int] = []
    member = ""
    for a in range(1, 1 << table.n):
        if probes and any(member[b] != member[b ^ a] for b in probes):
            bad |= 1 << a
            continue
        span = _fixpoint_span(table, a, bad)
        if span is not None:
            yield span
            continue
        bad |= 1 << a
        if len(probes) < _PROBES:
            if not probes:
                # member[v] is "1" iff v lies in E, for every v in F_2^n
                member = bin(table.entries[0] | 1 << (1 << table.n))[:2:-1]
            probes.append(a)


def _fixpoint_span(table: TranslateTable, a: int, bad: int = 0) -> Optional[int]:
    """Span mask of the anchor fixpoint, or None when it blows up to G.

    The defect set of a member b is E ^ (E+b), read from the translate
    table of the ground set E.  `bad` holds points known to lie in no
    proper decomposer.  Every decomposer through a contains the growing
    span and the union `need` of its members' defect sets, which the
    span absorbs next, so the search gives up as soon as either meets
    `bad`: `need` is tested after each member's defect set joins it.
    The span absorbs the lowest point still outside it and is re-masked,
    so one anchor costs at most n growth steps.
    """
    n = table.n
    trans, get = table.entries, table.get
    E = trans[0]
    full_span = ground_mask(n) | 1
    span = 1 | (1 << a)
    processed = 1
    while span != full_span:
        fresh = span & ~processed
        if not fresh:
            return span
        processed = span
        need = 0
        for b in iter_bits(fresh):
            need |= E ^ (trans[b] or get(b))
            if need & bad:
                return None
        rest = need & ~span
        while rest:
            low = rest & -rest
            span |= xor_translate(span, low.bit_length() - 1, n)
            if span & bad:
                return None
            rest &= ~span
    return None


def has_decomposer_mask(mask: int, n: int) -> bool:
    """Existence-only decomposer check with early exits."""
    if n <= 1:
        return False
    if rank_mask(mask, n) < n:
        return True  # any hyperplane over the closure of E decomposes
    return next(_anchor_spans(TranslateTable(mask, n)), None) is not None


def has_decomposer(M: BinaryMatroid) -> bool:
    """Existence-only variant of find_decomposer."""
    return has_decomposer_mask(M.mask, M.n)


def is_decomposer(M: BinaryMatroid, F: Flat) -> bool:
    """Direct check: every coset of F is contained in or disjoint from E."""
    if F.n != M.n:
        raise ValueError("flat lives in a different ambient space")
    if F.dim == 0 or F.dim == M.n:
        raise ValueError("a decomposer must be a nonempty proper flat")
    E = M.mask
    for c in cosets(F):
        inside = E & c
        if inside and inside != c:
            return False
    return True


# ---------------------------------------------------------------------------
# Decomposition trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    matroid: BinaryMatroid
    tags: ClassFlags


@dataclass(frozen=True)
class Join:
    left: "DecompositionNode"
    right: "DecompositionNode"
    flat: Flat  # the decomposer, in the parent's coordinates
    cofactor: Flat  # the complementary flat used for the right factor


DecompositionNode = Union[Leaf, Join]


def _leaf(M: BinaryMatroid, tags: Optional[ClassFlags] = None) -> Leaf:
    if tags is None:
        tags = classify(M)
    if (
        M.n > 1
        and tags.claw_free
        and not (tags.even_plane or tags.complement_triangle_free or tags.strict_pg_sum)
    ):
        raise StructureTheoremViolation(
            f"claw-free matroid (n={M.n}, points={M.points()}) has no decomposer "
            "and is outside every basic class"
        )
    return Leaf(M, tags)


def decompose(M: BinaryMatroid, stop_at_basic: bool = False) -> DecompositionNode:
    """Recursive lift-join factorisation.

    By default leaves are matroids with no decomposer (maximal
    factorisation); with stop_at_basic the recursion also stops when a
    factor lands in a basic class (even-plane, complement triangle-free,
    or strict PG-sum).
    """
    tags = None
    if stop_at_basic:
        tags = classify(M)
        if tags.even_plane or tags.complement_triangle_free or tags.strict_pg_sum:
            return Leaf(M, tags)
    F = find_decomposer(M)
    if F is None:
        return _leaf(M, tags)
    J = complementary_flat(F)
    return Join(
        left=decompose(restrict(M, F), stop_at_basic),
        right=decompose(restrict(M, J), stop_at_basic),
        flat=F,
        cofactor=J,
    )


def reconstruct(node: DecompositionNode) -> BinaryMatroid:
    """Fold the tree back through lift-joins."""
    if isinstance(node, Leaf):
        return node.matroid
    return lift_join(reconstruct(node.left), reconstruct(node.right))


def tree_point_map(node: DecompositionNode) -> list[int]:
    """Point table of the coordinate change recorded by the decomposition.

    Applying the returned table to the source matroid's points yields
    reconstruct(node) exactly, which exhibits the isomorphism between a
    matroid and the fold of its decomposition.
    """
    if isinstance(node, Leaf):
        return list(range(1 << node.matroid.n))
    lt = tree_point_map(node.left)
    rt = tree_point_map(node.right)
    dF = node.flat.dim
    n = node.flat.n
    rows = list(node.flat.basis) + list(node.cofactor.basis)
    fwd = linear_map_table(rows, n)
    table = [0] * (1 << n)
    low = (1 << dF) - 1
    for y in range(1 << n):
        table[fwd[y]] = lt[y & low] | (rt[y >> dF] << dF)
    return table


def leaves(node: DecompositionNode) -> list[Leaf]:
    if isinstance(node, Leaf):
        return [node]
    return leaves(node.left) + leaves(node.right)


def fold_invariants(node: DecompositionNode) -> InvariantRecord:
    """Invariants of the matroid a decomposition tree folds back to.

    A leaf answers omega, alpha and sigma from its tags where a basic
    class bounds them (`_leaf_invariants`) and searches otherwise.  Over
    a join of M1 = M|F and M2 = M|J, omega and alpha add; sigma is max(σ1, σ2),
    raised to at least 2 when E1 misses a point of F and E2 is nonempty;
    and M is full-rank iff M2 is.  Since omega is 0 exactly on the empty
    set and n exactly on the full one, the factors' records decide the
    sigma condition.  README, "Invariants through the decomposition
    tree", has the proofs.
    """
    if isinstance(node, Leaf):
        return _leaf_invariants(node)
    r1 = fold_invariants(node.left)
    r2 = fold_invariants(node.right)
    alpha = r1.alpha + r2.alpha
    sigma = max(r1.sigma, r2.sigma)
    if r1.omega < node.flat.dim and r2.omega > 0:
        sigma = max(sigma, 2)
    return InvariantRecord(
        omega=r1.omega + r2.omega,
        chi=node.flat.n - alpha,
        alpha=alpha,
        sigma=sigma,
        full_rank=r2.full_rank,
    )


def _leaf_invariants(leaf: Leaf) -> InvariantRecord:
    """The invariants of a leaf, read off its tags where they decide them.

    Six identities answer what a tag decides:

    - a claw-free set has sigma 0 when empty, 1 when a flat, else 2;
    - an even-plane set has omega 0 when empty, 1 when triangle-free,
      else 2;
    - an even-plane set has alpha n - k - [|E| >= 2^(n-1)], where 2k is
      the rank of its polar form (`_dickson_alpha`);
    - a set with triangle-free complement has alpha 0 when full, else 1;
    - a strict PG-sum of an a-flat and a b-flat has omega max(a, b) and
      alpha min(a, b);
    - sigma is alpha + 1 when a coset of the flat the alpha search found
      meets E in alpha + 1 independent points (`matroid._coset_witness`).

    The sigma search stops at alpha + 1 and takes alpha, and its table of
    the complement, from the alpha search rather than searching again.
    README, "Invariants at the leaves", has the proofs; `invariants` is
    the oracle.
    """
    M, tags = leaf.matroid, leaf.tags
    E, n = M.mask, M.n
    if tags.strict_pg_sum:
        # the dimensions of the two flats, least first
        low, high = sorted(
            (F.bit_count() + 1).bit_length() - 1 for F in pg_sum_witness_mask(E, n)
        )
    if tags.even_plane:
        omega = 0 if E == 0 else 1 if tags.triangle_free else 2
    elif tags.strict_pg_sum:
        omega = high
    else:
        omega = clique_number(M)
    if tags.complement_triangle_free:
        alpha = 0 if E == ground_mask(n) else 1
    elif tags.strict_pg_sum:
        alpha = low
    elif tags.even_plane:
        alpha = _dickson_alpha(E, n)
    else:
        table = TranslateTable(ground_mask(n) & ~E, n)
        alpha, _, flat = _clique_search(table, None)
    if tags.claw_free:
        sigma = 0 if E == 0 else 1 if is_flat(E, n) else 2
    else:
        # a leaf with a claw is in no basic class: the alpha search built T's table
        sigma = _sigma_search(table, alpha, flat=flat)
    return InvariantRecord(
        omega=omega, chi=n - alpha, alpha=alpha, sigma=sigma, full_rank=is_full_rank(M)
    )


def _dickson_alpha(E: int, n: int) -> int:
    """alpha of an even-plane set E, by Dickson's classification.

    E is f^{-1}(1) for a quadratic form f, whose polar form
    B(x, y) = f(x + y) + f(x) + f(y) is read on the basis vectors; with
    2k its rank, alpha = n - k - [|E| >= 2^(n-1)].  README, "Invariants
    at the leaves".
    """
    rows = [0] * n
    for i in range(n):
        fi = (E >> (1 << i)) & 1
        for j in range(i):
            if ((E >> ((1 << i) | (1 << j))) ^ (E >> (1 << j)) ^ fi) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    k = len(echelon_basis(rows)) // 2
    return n - k - (2 * E.bit_count() >= 1 << n)


def tree_flags(M: BinaryMatroid, node: DecompositionNode) -> ClassFlags:
    """Class flags of M, given a decomposition tree of M.

    A leaf root carries M's flags.  Under a join root, M is claw-free
    (anticlaw-free) iff every leaf is, since both properties pass through
    a lift-join in both directions; the other flags are computed on M.
    """
    if isinstance(node, Leaf):
        return node.tags
    tags = [leaf.tags for leaf in leaves(node)]
    return _classify(
        M,
        claw_free=all(t.claw_free for t in tags),
        anticlaw_free=all(t.anticlaw_free for t in tags),
    )


# ---------------------------------------------------------------------------
# Structure-theorem report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Which of the four structure outcomes hold for a claw-free matroid."""

    even_plane: bool
    complement_triangle_free: bool
    strict_pg_sum: bool
    decomposer: Optional[Flat]

    @property
    def ok(self) -> bool:
        return (
            self.even_plane
            or self.complement_triangle_free
            or self.strict_pg_sum
            or self.decomposer is not None
        )


def verify_structure_theorem(M: BinaryMatroid) -> StructureReport:
    """Evaluate all four outcomes for a claw-free matroid."""
    if not claw_free_any(M.mask, M.n):
        raise ValueError("matroid has a claw; the structure outcomes do not apply")
    return StructureReport(
        even_plane=is_even_plane(M),
        complement_triangle_free=is_complement_triangle_free(M),
        strict_pg_sum=is_strict_pg_sum(M),
        decomposer=find_decomposer(M),
    )


# ---------------------------------------------------------------------------
# Coset confinement under restricted triangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionInstance:
    """A partition (P, Q, R) of the points, with an optional split of R."""

    n: int
    p_mask: int
    q_mask: int
    r_mask: int
    r1_mask: Optional[int] = None
    r2_mask: Optional[int] = None

    def __post_init__(self):
        g = ground_mask(self.n)
        if self.p_mask | self.q_mask | self.r_mask != g:
            raise ValueError("P, Q, R must cover all points")
        if (
            self.p_mask & self.q_mask
            or self.p_mask & self.r_mask
            or self.q_mask & self.r_mask
        ):
            raise ValueError("P, Q, R must be pairwise disjoint")
        if (self.r1_mask is None) != (self.r2_mask is None):
            raise ValueError("supply both halves of the refinement or neither")
        if self.r1_mask is not None:
            if self.r1_mask & self.r2_mask or self.r1_mask | self.r2_mask != self.r_mask:
                raise ValueError("R1, R2 must partition R")


@dataclass(frozen=True)
class CosetReport:
    hypothesis_met: bool
    closure_inside_pq: Optional[bool] = None
    cosets_confined: Optional[bool] = None
    refinement_hypothesis_met: Optional[bool] = None
    refinement_confined: Optional[bool] = None

    @property
    def ok(self) -> bool:
        """True unless a met hypothesis failed to deliver its conclusion."""
        if not self.hypothesis_met:
            return True
        if not (self.closure_inside_pq and self.cosets_confined):
            return False
        if self.refinement_hypothesis_met and not self.refinement_confined:
            return False
        return True


def check_coset_confinement(inst: PartitionInstance) -> CosetReport:
    """Verify: if no triangle meets P and meets R exactly once, then cl(P)
    stays inside P ∪ Q and every coset of cl(P) lies within Q or within R
    (within Q, R1 or R2 under the refinement hypothesis)."""
    n = inst.n
    p, q, r = inst.p_mask, inst.q_mask, inst.r_mask
    # a triangle {x, y, x + y} with x in P meets R exactly once iff its
    # point in R is x + y with y in P ∪ Q; one meeting P, R1 and R2 is
    # {x, y, x + y} with x in P, y in R2 and x + y in R1 (README, "Identities")
    hypothesis = not any(r & xor_translate(p | q, x, n) for x in iter_bits(p))
    refinement_hyp: Optional[bool] = None
    if inst.r1_mask is not None:
        r1, r2 = inst.r1_mask, inst.r2_mask
        refinement_hyp = not any(r1 & xor_translate(r2, x, n) for x in iter_bits(p))
    if not hypothesis:
        return CosetReport(hypothesis_met=False, refinement_hypothesis_met=refinement_hyp)

    F = closure_mask(p, n)
    closure_ok = F.members & ~(p | q) == 0
    confined = True
    refinement_confined: Optional[bool] = True if refinement_hyp else None
    if F.dim < n:
        for c in cosets(F):
            if not (c & ~q == 0 or c & ~r == 0):
                confined = False
                break
        if refinement_hyp:
            for c in cosets(F):
                if not (c & ~q == 0 or c & ~r1 == 0 or c & ~r2 == 0):
                    refinement_confined = False
                    break
    return CosetReport(
        hypothesis_met=True,
        closure_inside_pq=closure_ok,
        cosets_confined=confined,
        refinement_hypothesis_met=refinement_hyp,
        refinement_confined=refinement_confined,
    )


# ---------------------------------------------------------------------------
# Small exhaustive claims
# ---------------------------------------------------------------------------


def has_singleton_decomposer(M: BinaryMatroid) -> Optional[int]:
    """The least a whose defect set is empty, or None.

    These are exactly the one-element decomposers: E + a and E agree
    outside {0, a}, so a + E = E (a outside E) or a + (E ∪ {0}) = E ∪ {0}
    (a inside E).
    """
    if M.n <= 1:
        return None
    return next((a for a in range(1, 1 << M.n) if not defect_set(M, a)), None)
