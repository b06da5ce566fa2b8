"""Simple binary matroids: restrictions, invariants, and isomorphism.

A matroid here is a pair (E, G) with G = PG(n-1,2) and E a set of points
of G, stored as a bitset.  The ambient space is part of the identity: E
need not span G.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

from .gf2 import (
    Flat,
    TranslateTable,
    bits_list,
    check_dim,
    closure,
    flats_of_dim,
    ground_mask,
    iter_bits,
    translates,
    xor_translate,
    _half_masks,
)

#: canonical_form is exact only up to this dimension (cost safeguard).
MAX_CANONICAL_DIM = 6


class BudgetExceeded(RuntimeError):
    """Raised when a search exceeds its cooperative node budget."""


@dataclass(frozen=True)
class BinaryMatroid:
    """Ground set bitset over F_2^n; bit 0 is always clear."""

    n: int
    mask: int

    def __post_init__(self):
        check_dim(self.n)
        if self.mask & 1:
            raise ValueError("ground set cannot contain the zero vector")
        if self.mask >> (1 << self.n):
            raise ValueError(f"ground set out of range for dimension {self.n}")

    @classmethod
    def from_points(cls, points: Iterable[int], n: int) -> "BinaryMatroid":
        m = 0
        for p in points:
            m |= 1 << p
        return cls(n, m)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def points(self) -> list[int]:
        return bits_list(self.mask)

    def __contains__(self, v: int) -> bool:
        return v >= 1 and (self.mask >> v) & 1 == 1


@dataclass(frozen=True)
class InvariantRecord:
    """Report row of the basic invariants (keys are the wire names)."""

    omega: int
    chi: int
    alpha: int
    sigma: int
    full_rank: bool


def restrict(M: BinaryMatroid, flat: Flat) -> BinaryMatroid:
    """Induced restriction M|F, re-embedded into dimension dim F.

    The re-embedding uses the flat's canonical coordinate map, so equal
    inputs give bit-identical outputs.
    """
    sub = M.mask & flat.members
    local = 0
    for v in iter_bits(sub):
        local |= 1 << flat.to_local(v)
    return BinaryMatroid(flat.dim, local)


def complement(M: BinaryMatroid) -> BinaryMatroid:
    """The matroid on G \\ E; an involution."""
    return BinaryMatroid(M.n, ground_mask(M.n) & ~M.mask)


def rank_mask(mask: int, n: int) -> int:
    """Rank of a point bitset, with an early exit at full rank."""
    span = 1
    dim = 0
    full = (ground_mask(n) | 1)
    for p in iter_bits(mask):
        if not (span >> p) & 1:
            span |= xor_translate(span, p, n)
            dim += 1
            if span == full:
                break
    return dim


def rank(M: BinaryMatroid) -> int:
    """Dimension of the closure of the ground set."""
    return rank_mask(M.mask, M.n)


def is_full_rank(M: BinaryMatroid) -> bool:
    """Whether the ground set spans the ambient space."""
    return rank_mask(M.mask, M.n) == M.n


def find_claw(M: BinaryMatroid) -> Optional[tuple[int, int, int]]:
    """First independent triple x,y,z in E whose pairwise and triple sums
    all avoid E, in lexicographic order; None if the matroid is claw-free.

    For each pair x < y with x+y outside E, the valid third points are a
    single mask expression over the translates E+x, E+y and E+(x+y), so
    pairs whose sum lands in E cost one test.
    """
    E, n = M.mask, M.n
    table = TranslateTable(E, n)
    trans, get = table.entries, table.get
    pts = bits_list(E)
    for i, x in enumerate(pts):
        ex = trans[x] or get(x)
        for j in range(i + 1, len(pts)):
            y = pts[j]
            s = x ^ y
            if (E >> s) & 1:
                continue
            zs = (
                E
                & ~ex
                & ~(trans[y] or get(y))
                & ~(trans[s] or get(s))
                & ~((1 << (y + 1)) - 1)
            )
            if zs:
                return (x, y, (zs & -zs).bit_length() - 1)
    return None


def find_anticlaw(M: BinaryMatroid) -> Optional[Flat]:
    """A plane whose restriction is the complement of a claw, or None.

    Such a plane P has |E ∩ P| = 4 with the three missing points
    independent, i.e. those points are a claw of the complement; the
    plane returned is the closure of `find_claw(complement(M))`.
    """
    claw = find_claw(complement(M))
    return None if claw is None else closure(claw, M.n)


#: Largest span S, in vectors, over which a node of the clique and induced
#: independence searches reads its children's bitsets from the translate
#: table, |S| reads each; deeper nodes (S is None) translate their own
#: bitset by p, popcount(p) half-swaps, which is cheaper there.
_TABLE_SPAN = 4


def clique_number(M: BinaryMatroid, budget: Optional[int] = None) -> int:
    """Dimension of the largest flat contained in the ground set.

    Depth-first search over greedy-minimal generator sequences.  Each
    node keeps a validity bitset V (points whose whole coset over the
    current span S lies in E, the meet of E+s over s in S) so that child
    candidate sets are a few mask operations.  While S is small, V+p is
    the meet of the translates E+(s+p), read from one table; deeper, V
    is translated by p.  A capacity bound prunes branches that cannot
    beat the best dimension found, and the search stops once it reaches
    the bound of `_holds_hyperplane`: n - 1 when E holds a hyperplane,
    else n - 2.
    """
    E, n = M.mask, M.n
    if E == 0:
        return 0
    if E == ground_mask(n):
        return n
    top = n - 1 if _holds_hyperplane(E, n) else n - 2
    halves = _half_masks(n)
    table = TranslateTable(E, n)
    trans, get = table.entries, table.get
    best = 1
    nodes = 0

    def dfs(
        V: int, C: int, dim: int, pivots: dict[int, int], S: Optional[list[int]]
    ) -> None:
        nonlocal best, nodes
        if dim > best:
            best = dim
        pop = V.bit_count()
        if best == top or dim + ((pop >> dim) + 1).bit_length() - 1 <= best:
            return
        grow = S is not None and len(S) < _TABLE_SPAN
        rest = C
        while rest and best < top:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"clique_number budget {budget} exceeded")
            r = p
            while True:
                h = r.bit_length() - 1
                row = pivots.get(h)
                if row is None:
                    break
                r ^= row
            if S is None:
                shifted = xor_translate(V, p, n)
            else:
                shifted = -1
                for s in S:
                    s ^= p
                    shifted &= trans[s] or get(s)
            Vc = V & shifted
            Cc = rest & shifted & halves[h]
            child_piv = dict(pivots)
            child_piv[h] = r
            child_S = S + [s ^ p for s in S] if grow else None
            dfs(Vc, Cc, dim + 1, child_piv, child_S)

    dfs(E, E, 0, {}, [0])
    return best


def _holds_hyperplane(E: int, n: int) -> bool:
    """Whether a ground set other than G holds a hyperplane.

    E holds a hyperplane iff its complement C lies in the complement of
    one, an affine hyperplane, iff 0 is outside the affine hull of C,
    that is iff c0 is outside span{c + c0 : c in C} for any c0 in C.  The
    span grows from the lowest point of C whose sum with c0 lies outside
    it, at most n - 1 steps of two translates each.
    """
    C = ground_mask(n) & ~E
    c0 = (C & -C).bit_length() - 1
    span = 1
    while not (span >> c0) & 1:
        out = C & ~xor_translate(span, c0, n)
        if not out:
            return True
        span |= xor_translate(span, ((out & -out).bit_length() - 1) ^ c0, n)
    return False


def critical_number(M: BinaryMatroid, budget: Optional[int] = None) -> int:
    """n minus the clique number of the complement."""
    return M.n - clique_number(complement(M), budget=budget)


def independence_number(M: BinaryMatroid, budget: Optional[int] = None) -> int:
    """Clique number of the complement (largest empty restriction)."""
    return clique_number(complement(M), budget=budget)


def induced_independence_number(M: BinaryMatroid, budget: Optional[int] = None) -> int:
    """Largest size of an independent J ⊆ E whose closure meets E only in J.

    Branch and bound over ascending point insertions; two bitsets are
    propagated per node: Z (points whose whole coset over the span S of
    the chosen points avoids E) and the candidate set.  While S is small,
    Z+p is the complement of the union of the translates E+(s+p), read
    from one table; deeper, Z is translated by p.
    """
    E, n = M.mask, M.n
    if E == 0:
        return 0
    full = (1 << (1 << n)) - 1
    table = TranslateTable(E, n)
    trans, get = table.entries, table.get
    best = 0
    nodes = 0

    def dfs(Z: int, C: int, size: int, S: Optional[list[int]]) -> None:
        nonlocal best, nodes
        if size > best:
            best = size
        if size + C.bit_count() <= best:
            return
        grow = S is not None and len(S) < _TABLE_SPAN
        rest = C
        while rest:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(
                    f"induced_independence_number budget {budget} exceeded"
                )
            if S is None:
                shifted = xor_translate(Z, p, n)
            else:
                hit = 0
                for s in S:
                    s ^= p
                    hit |= trans[s] or get(s)
                shifted = full & ~hit
            child_S = S + [s ^ p for s in S] if grow else None
            dfs(Z & shifted, rest & shifted, size + 1, child_S)

    dfs(full & ~E, E, 0, [0])
    return best


def invariants(M: BinaryMatroid) -> InvariantRecord:
    """All basic invariants in one record."""
    omega = clique_number(M)
    alpha = clique_number(complement(M))
    return InvariantRecord(
        omega=omega,
        chi=M.n - alpha,
        alpha=alpha,
        sigma=induced_independence_number(M),
        full_rank=is_full_rank(M),
    )


# ---------------------------------------------------------------------------
# Canonical forms and isomorphism
# ---------------------------------------------------------------------------
#
# Isomorphisms of PG(n-1,2) are exactly the invertible linear maps of
# F_2^n, so two matroids are isomorphic iff their ground sets lie in the
# same GL(n,2) orbit.  The canonical form of M is the orbit element whose
# membership sequence over point values 1, 2, ..., 2^n - 1 is
# lexicographically least (prefer absences at small values).
#
# The search walks preimages w_1, ..., w_n of the standard basis.  After
# choosing w_1..w_k the image's membership is determined on local values
# 1 .. 2^k - 1, so the sequence is decided in contiguous segments and the
# usual prefix pruning applies.  Ties at the leaves are automorphisms;
# each search frame carries those that fix its prefix pointwise and skips
# siblings in their orbits.  The most symmetric ground sets still take
# many nodes; `budget` offers a cooperative cap for those.


def seq_key(mask: int, n: int) -> tuple[int, ...]:
    """Membership sequence of a bitset over point values 1..2^n-1."""
    return tuple((mask >> v) & 1 for v in range(1, 1 << n))


def linear_map_table(images: list[int], n: int) -> list[int]:
    """Point-image table of the linear map sending basis vector i to images[i]."""
    size = 1 << n
    table = [0] * size
    for i in range(n):
        step = 1 << i
        img = images[i]
        for v in range(step, step << 1):
            table[v] = table[v - step] ^ img
    return table


def apply_linear_map(M: BinaryMatroid, images: list[int]) -> BinaryMatroid:
    """Image of the ground set under the linear map given by basis images."""
    table = linear_map_table(images, M.n)
    out = 0
    for v in iter_bits(M.mask):
        out |= 1 << table[v]
    return BinaryMatroid(M.n, out)


#: canonical masks kept by `_canonical_mask`, least recently used evicted first
CANONICAL_CACHE_SIZE = 8192
_canonical_cache: OrderedDict[tuple[int, int], int] = OrderedDict()


def _canonical_mask(n: int, E: int, budget: Optional[int] = None) -> int:
    """Canonical mask of (n, E), cached on (n, E) alone.

    A cache hit is returned whatever the budget; a search that raises
    `BudgetExceeded` caches nothing.
    """
    key = (n, E)
    img = _canonical_cache.get(key)
    if img is not None:
        _canonical_cache.move_to_end(key)
        return img
    img = _canonical_search(n, E, budget)
    _canonical_cache[key] = img
    if len(_canonical_cache) > CANONICAL_CACHE_SIZE:
        _canonical_cache.popitem(last=False)
    return img


def _least_segment(
    cands: int, pre: list[int], trans: list[int], bound: Optional[int]
) -> tuple[int, int]:
    """Least segment key over a candidate bitset, and the candidates with it.

    The key of a candidate w has bit j, most significant first, equal to
    the membership of w ^ pre[j]; bit w of trans[u] is the membership of
    w ^ u.  Key bits are read one at a time: a bit is 0 when some remaining
    candidate has it 0, and only those candidates stay.  Once the key is
    known to exceed `bound` (None for no bound), reading stops and no
    candidate is returned, with a key above `bound`.
    """
    key = 0
    shift = len(pre)
    for u in pre:
        shift -= 1
        zero = cands & ~trans[u]
        if zero:
            cands = zero
            key <<= 1
        else:
            key = (key << 1) | 1
            if bound is not None and key > bound >> shift:
                return key << shift, 0
    return key, cands


def _canonical_search(n: int, E: int, budget: Optional[int]) -> int:
    ground = ground_mask(n)
    if n == 0 or E == 0 or E == ground:
        return E
    npoints = 1 << n
    trans = translates(E, n)
    best: list[Optional[int]] = [None] * n
    best_pre: list[Optional[list[int]]] = [None]
    auts: list[list[int]] = []  # point tables of discovered automorphisms
    nodes = 0

    def rec(
        k: int, span: int, pre: list[int], prefix: list[int], stab: list[list[int]]
    ) -> None:
        # stab: the automorphisms found so far that fix every point of
        # prefix; a child inherits those that also fix its own point, and
        # after each child only the automorphisms found since are tested
        nonlocal nodes
        # rest: least-key candidates not yet visited nor in the orbit of one
        key, rest = _least_segment(ground & ~span, pre, trans, best[k - 1])
        seen = len(auts)
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"canonical_form budget {budget} exceeded")
            slot = best[k - 1]
            improved = slot is None or key < slot
            if improved:
                best[k - 1] = key
                for t in range(k, n):
                    best[t] = None
            full_pre = pre + [w ^ u for u in pre]
            if k == n:
                if improved:
                    best_pre[0] = full_pre
                elif best_pre[0] is not None:
                    # a tie exhibits an automorphism of the ground set
                    ref = best_pre[0]
                    inv = [0] * npoints
                    for j, v in enumerate(ref):
                        inv[v] = j
                    auts.append([full_pre[inv[v]] for v in range(npoints)])
            else:
                rec(
                    k + 1,
                    span | xor_translate(span, w, n),
                    full_pre,
                    prefix + [w],
                    [t for t in stab if t[w] == w],
                )
            if not rest:
                break  # orbits and new automorphisms only prune later siblings
            if stab:
                orbit = low
                frontier = [w]
                while frontier and rest & ~orbit:  # stop once it covers rest
                    u = frontier.pop()
                    for t in stab:
                        v = t[u]
                        if not (orbit >> v) & 1:
                            orbit |= 1 << v
                            frontier.append(v)
                rest &= ~orbit
            if len(auts) > seen:  # ties may have grown the group
                stab.extend(t for t in auts[seen:] if all(t[u] == u for u in prefix))
                seen = len(auts)

    rec(1, 1, [0], [], [])

    img = 0
    for k in range(1, n + 1):
        L = 1 << (k - 1)
        key = best[k - 1]
        assert key is not None
        for j in range(L):
            if (key >> (L - 1 - j)) & 1:
                img |= 1 << (L + j)
    return img


def canonical_form(M: BinaryMatroid, budget: Optional[int] = None) -> BinaryMatroid:
    """Canonical orbit representative; exact mode is capped at dimension 6."""
    if M.n > MAX_CANONICAL_DIM:
        raise ValueError(
            f"canonical_form is exact only up to dimension {MAX_CANONICAL_DIM}"
        )
    return BinaryMatroid(M.n, _canonical_mask(M.n, M.mask, budget))


def is_isomorphic(M1: BinaryMatroid, M2: BinaryMatroid) -> bool:
    """Orbit equality via canonical forms."""
    if M1.n != M2.n:
        raise ValueError(f"dimension mismatch: {M1.n} != {M2.n}")
    if M1.mask == M2.mask:
        return True
    if M1.size != M2.size:
        return False
    return canonical_form(M1).mask == canonical_form(M2).mask


def has_induced_restriction(M: BinaryMatroid, N: BinaryMatroid) -> bool:
    """Whether some flat F with dim F = dim N has M|F isomorphic to N."""
    if N.n > M.n:
        raise ValueError("the candidate restriction exceeds the host dimension")
    key = canonical_form(N).mask
    want = N.size
    for F in flats_of_dim(M.n, N.n):
        if (M.mask & F.members).bit_count() != want:
            continue
        if canonical_form(restrict(M, F)).mask == key:
            return True
    return False
