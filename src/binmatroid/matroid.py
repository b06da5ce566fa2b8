"""Simple binary matroids: restrictions, invariants, and isomorphism.

A matroid here is a pair (E, G) with G = PG(n-1,2) and E a set of points
of G, stored as a bitset.  The ambient space is part of the identity: E
need not span G.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .gf2 import (
    Flat,
    TranslateTable,
    bits_list,
    check_dim,
    closure,
    flats_of_dim,
    ground_mask,
    iter_bits,
    kernel_mask,
    mask_of,
    span_mask,
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
        return cls(n, mask_of(points))

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
    if flat.n != M.n:
        raise ValueError("flat lives in a different ambient space")
    # points[w] is flat.from_local(w)
    points = linear_map_table(flat.basis, flat.dim)
    bits = bin(M.mask & flat.members)[:1:-1].ljust(1 << M.n, "0")
    return BinaryMatroid(flat.dim, int("".join([bits[v] for v in reversed(points)]), 2))


def complement(M: BinaryMatroid) -> BinaryMatroid:
    """The matroid on G \\ E; an involution."""
    return BinaryMatroid(M.n, ground_mask(M.n) & ~M.mask)


def rank_mask(mask: int, n: int) -> int:
    """Rank of a point bitset (bit 0 is ignored): the span of
    `gf2.span_mask` has 2^rank bits."""
    return span_mask(mask, n).bit_count().bit_length() - 1


def rank(M: BinaryMatroid) -> int:
    """Dimension of the closure of the ground set."""
    return rank_mask(M.mask, M.n)


def is_full_rank(M: BinaryMatroid) -> bool:
    """Whether the ground set spans the ambient space."""
    return rank_mask(M.mask, M.n) == M.n


def _claw_pair(A: int, p: int, table: TranslateTable) -> Optional[tuple[int, int]]:
    """The first y in A with a z > y in A outside E + y and E + (p + y),
    E the table's set, and the bitset of those z; None if no y has one.

    For A inside E \\ (E + p) such pairs y < z are exactly the claws
    {p, y, z} of E ∪ {p} through p, whether p is in E or not (README,
    "Identities instead of plane searches").  Each y reads two table
    entries.  `find_claw`, the one caller, takes the lowest z of the
    bitset.
    """
    T, get = table.entries, table.get
    while A & (A - 1):  # a pair of points of A is left
        low = A & -A
        A ^= low
        y = low.bit_length() - 1
        zs = A & ~((T[y] or get(y)) | (T[p ^ y] or get(p ^ y)))
        if zs:
            return (y, zs)
    return None


def find_claw(M: BinaryMatroid) -> Optional[tuple[int, int, int]]:
    """First independent triple x,y,z in E whose pairwise and triple sums
    all avoid E, in lexicographic order; None if the matroid is claw-free.

    For each x, the points of E above x outside E + x go to `_claw_pair`,
    so every pair whose sum lands in E is dropped at once.
    """
    E = M.mask
    table = TranslateTable(E, M.n)
    trans, get = table.entries, table.get
    for x in iter_bits(E):
        pair = _claw_pair(E & ~(trans[x] or get(x)) & ~((2 << x) - 1), x, table)
        if pair is not None:
            y, zs = pair
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


#: Largest span S, in vectors, over which a node of the pivot dfs and of
#: the sigma search reads its children's bitsets from the translate
#: table, |S| reads each; deeper nodes (S is None) translate their own
#: bitset by p, popcount(p) half-swaps, which is cheaper there.
_TABLE_SPAN = 4


def _colour_classes(C: int, table: TranslateTable, limit: int) -> list[int]:
    """Greedy colour classes of the points of C, lowest point first.

    No two points of a class sum into the table's set X: a point r joins
    the class of q only when r lies outside X + q.  A clique of the graph
    joining the pairs that sum into X has at most one point in each
    class.  After `limit` classes the points still uncoloured form one
    last entry, so the result has at most limit + 1 entries.  Each point
    reads one entry of the table and copies none; the leaf searches fill
    the table first where every translate fits, so no read misses there.
    """
    trans, get = table.entries, table.get
    classes = []
    while C:
        if len(classes) == limit:
            classes.append(C)
            break
        cls = 0
        free = C
        while free:
            low = free & -free
            cls |= low
            free ^= low
            q = low.bit_length() - 1
            free &= ~(trans[q] or get(q))
        C ^= cls
        classes.append(cls)
    return classes


def _pivot_dfs(
    table: TranslateTable,
    best: int,
    top: int,
    found: Callable[[list[int]], int],
    budget: Optional[int],
    nodes: int = 0,
) -> tuple[int, int]:
    """Depth-first walk over the flats inside the table's set X, each
    reached once, by its reduced echelon basis in ascending order.

    A node holds such a basis, V (the points whose coset over its span S
    lies in X, the meet of X + s over s in S) and its candidates: the
    points of V above its last basis point whose bits at the basis's
    leading bits are clear.  While S is small, V + p is the meet of the
    translates X + (s + p), read from the table; deeper, V is translated
    by p.  Each child costs a node, counted on from `nodes` against
    `budget`.  A child of dimension d with d > best hands its basis to
    `found`, which returns the new best; the walk ends once best reaches
    `top`, and it never goes past dimension `top`, so a child there
    builds no bitset.  A child with no candidates, or whose capacity
    bound d + log2(|V'| / 2^d + 1) is at most best, is dropped before
    its candidate set, basis or span list is built or the call is
    made.  The clique search raises best with each flat it finds; the
    alpha-flat walk holds best at k - 1 and top at k, so it meets every
    k-flat inside X until `found` ends it.  Returns best and the nodes.
    """
    n = table.n
    halves = _half_masks(n)
    trans, get = table.entries, table.get

    def dfs(V: int, C: int, basis: list[int], S: Optional[list[int]]) -> None:
        nonlocal best, nodes
        dim = len(basis) + 1  # the children's
        grow = S is not None and len(S) < _TABLE_SPAN
        rest = C
        while rest and best < top:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"flat search budget {budget} exceeded")
            if dim > best:
                best = found(basis + [p])
            if dim == top:
                continue
            if S is None:
                Vc = V & xor_translate(V, p, n)
            else:
                Vc = V
                for s in S:
                    s ^= p
                    Vc &= trans[s] or get(s)
            if dim + ((Vc.bit_count() >> dim) + 1).bit_length() - 1 <= best:
                continue
            Cc = rest & Vc & halves[p.bit_length() - 1]
            if Cc:
                dfs(Vc, Cc, basis + [p], S + [s ^ p for s in S] if grow else None)

    X = trans[0]
    if best < top and (X.bit_count() + 1).bit_length() - 1 > best:
        dfs(X, X, [], [0])
    return best, nodes


def clique_number(M: BinaryMatroid, budget: Optional[int] = None) -> int:
    """Dimension of the largest flat contained in the ground set.

    Depth-first search over the flats inside E (`_pivot_dfs`), each
    node keeping a validity bitset V (points whose whole coset over the
    current span S lies in E) so that child candidate sets are a few
    mask operations.  A capacity bound drops children that cannot beat
    the best dimension found, and the search stops once it reaches its
    root bound `top`.  Where every translate of E fits in the table
    (n <= 13), the table is filled in one pass before the search reads
    it.  Three proofs from above come first, two of them by `_cover`:
    m functionals cover T = G \\ E exactly when E holds a flat of
    dimension n - m.  When E holds a hyperplane (m = 1), omega = n - 1
    with no search.  Otherwise omega <= n - 2, and the colour bound may
    lower that: a k-flat inside E is a (2^k - 1)-clique of the graph on
    E joining q and r when q + r lies in E, so k <= log2(c + 1) for the
    c classes of one greedy colouring of that graph at the root; the
    colouring stops once c + 1 reaches 2^top, past which it cannot lower
    the bound.  When the bound is still n - 2, the cover at m = 2 either
    finds a flat of that dimension inside E, and omega = n - 2 with no
    search, or proves that none exists and lowers `top` to n - 3 before
    the search.  README, "Bounds in the leaf searches", has the proofs.
    """
    return _clique_search(TranslateTable(M.mask, M.n), budget)[0]


def _clique_search(
    table: TranslateTable, budget: Optional[int]
) -> tuple[int, int, list[int]]:
    """`clique_number` of the table's set E, the nodes its search took, and
    the reduced echelon basis of the largest flat it found inside E, taken
    whenever the best improves or read off the cover of a proof from above."""
    E, n = table.entries[0], table.n
    if E == 0:
        return 0, 0, []
    if E == ground_mask(n):
        return n, 0, [1 << i for i in range(n)]
    T = ground_mask(n) & ~E
    cover = _cover(T, 1, n)
    if cover is not None:
        return n - 1, 0, _annihilator(cover, n)
    top = n - 2
    table.fill()
    colours = len(_colour_classes(E, table, (1 << top) - 1))
    top = min(top, (colours + 1).bit_length() - 1)
    if top == n - 2 > 1:
        cover = _cover(T, 2, n)
        if cover is not None:
            return top, 0, _annihilator(cover, n)
        top -= 1
    flat = [(E & -E).bit_length() - 1]

    def found(basis: list[int]) -> int:
        nonlocal flat
        flat = basis
        return len(basis)

    best, nodes = _pivot_dfs(table, 1, top, found, budget)
    return best, nodes, flat


def _cover(T: int, m: int, n: int) -> Optional[list[int]]:
    """m functionals such that every point of the nonempty set T is 1
    under one of them, or None; no m - 1 functionals may cover T.  The
    cover is then independent, and the meet of its kernels, less 0, is
    a flat of dimension n - m that misses T.

    m = 1 is the hull test: some w is 1 on all of T iff t0 is outside
    span{t + t0 : t in T}, grown from the lowest point of T whose sum
    with t0 lies outside it; the test keeps the coset t0 + span, which
    holds 0 exactly when the span holds t0, so each of at most n - 1
    steps is one translate.  Then w is the lowest member of the kernels'
    meet minus ker t0 (`gf2.kernel_mask`): 0 on the span, 1 at t0.  For
    m > 1, with t0 the lowest point of T, a cover has a member u with
    u(t0) = 1 and the others cover T ∩ ker u, so the recursion runs on
    T ∩ ker u with m - 1 for the 2^(n-1) functionals u with u(t0) = 1,
    in Gray-code order so that each step updates T ∩ {u = 1} by one xor.
    README, "Bounds in the leaf searches", has the proofs.
    """
    t0 = (T & -T).bit_length() - 1
    if m == 1:
        coset = 1 << t0  # t0 + span, the span grown from {0}
        taken = []
        while not coset & 1:
            out = T & ~coset
            if not out:
                w = kernel_mask(taken, n) & ~kernel_mask([t0], n)
                return [(w & -w).bit_length() - 1]
            b = ((out & -out).bit_length() - 1) ^ t0
            taken.append(b)
            coset |= xor_translate(coset, b, n)
        return None
    odd_parts = [T & ~h for h in _half_masks(n)]  # points of T with bit i set
    u = odd = 0  # odd is T ∩ {u = 1}
    for k in range(1, 1 << n):
        i = (k & -k).bit_length() - 1
        u ^= 1 << i
        odd ^= odd_parts[i]
        if (u & t0).bit_count() & 1:
            rest = _cover(T ^ odd, m - 1, n)
            if rest is not None:
                return [u] + rest
    return None


def _annihilator(rows: list[int], n: int) -> list[int]:
    """The reduced echelon basis of the kernel meet of the rows."""
    return list(Flat(n, kernel_mask(rows, n) & ~1).basis)


def critical_number(M: BinaryMatroid, budget: Optional[int] = None) -> int:
    """n minus the clique number of the complement."""
    return M.n - clique_number(complement(M), budget=budget)


def independence_number(M: BinaryMatroid, budget: Optional[int] = None) -> int:
    """Clique number of the complement (largest empty restriction)."""
    return clique_number(complement(M), budget=budget)


def induced_independence_number(M: BinaryMatroid, budget: Optional[int] = None) -> int:
    """Largest size of an independent J ⊆ E whose closure meets E only in J.

    First the alpha search on T = G \\ E.  The nonzero even sums of such
    a J are a (|J| - 1)-flat inside T, so sigma <= min(n, alpha + 1),
    and sigma = alpha + 1 exactly when a coset of some alpha-flat inside
    T meets E in alpha + 1 independent points (`_coset_witness`).  The
    cosets of the flat the alpha search found are tested first; when
    none qualifies, `_pivot_dfs` walks every alpha-flat of T over the
    table the alpha search filled and tests each one's cosets.  Only
    when that refutes alpha + 1 does the branch and bound run, capped at
    alpha.  It propagates two bitsets per node: Z (points whose whole
    coset over the span S of the chosen points lies in T) and the
    candidate set C.  While S is small, Z+p is the meet of the
    translates T+(s+p), read from the table; deeper, Z is translated by
    p.  Any two points q, r of such a J have q + r in T, so the rest of
    J is a clique of the graph on C joining those pairs: each node
    colours C greedily in that graph and expands its points in falling
    colour order, pruning once the chosen points plus the colour cannot
    beat the best size found.  `budget` caps the nodes of the alpha
    search, the walk and this search together.  README, "Invariants at
    the leaves" and "Bounds in the leaf searches", has the proofs.
    """
    table = TranslateTable(ground_mask(M.n) & ~M.mask, M.n)
    alpha, nodes, flat = _clique_search(table, budget)
    return _sigma_search(table, alpha, budget, nodes, flat)


def _coset_witness(E: int, n: int, flat: list[int]) -> bool:
    """Whether some coset x + W of the flat W spanned by `flat`, a basis of
    a flat avoiding E, meets E in exactly dim W + 1 independent points.

    Such a J = E ∩ (x + W) has closure W ∪ (x + W), which meets E only
    in J, so sigma >= dim W + 1.  The cosets are walked from the lowest
    point of E not yet covered: at most min(|E|, 2^(n - dim W))
    translates of W.  README, "Invariants at the leaves".
    """
    size = len(flat) + 1
    W = span_mask(mask_of(flat), n)
    rest = E
    while rest:
        coset = xor_translate(W, (rest & -rest).bit_length() - 1, n)
        J = E & coset
        if J.bit_count() == size and rank_mask(J, n) == size:
            return True
        rest &= ~coset
    return False


def _sigma_search(
    table: TranslateTable,
    alpha: int,
    budget: Optional[int] = None,
    nodes: int = 0,
    flat: Optional[list[int]] = None,
) -> int:
    """`induced_independence_number` of E = G \\ T, T the table's set, given
    its alpha; `nodes` counts those already spent against `budget`.
    `flat`, the reduced echelon basis of an alpha-flat inside T, turns on
    the proof of alpha + 1 by cosets: of that flat, then of every other
    alpha-flat inside T, walked by `_pivot_dfs`; when none qualifies, the
    search runs capped at alpha.  Without it, it runs capped at alpha + 1."""
    n = table.n
    trans, get = table.entries, table.get
    E = ground_mask(n) & ~trans[0]
    cap = min(n, alpha + 1)
    if flat is not None and cap > alpha:
        if _coset_witness(E, n, flat):
            return cap

        def found(basis: list[int]) -> int:
            # alpha ends the walk; alpha - 1 keeps it going
            return alpha if basis != flat and _coset_witness(E, n, basis) else alpha - 1

        hit, nodes = _pivot_dfs(table, alpha - 1, alpha, found, budget, nodes)
        if hit == alpha:
            return cap
        cap = alpha
    best = 0

    def dfs(Z: int, C: int, size: int, S: Optional[list[int]]) -> None:
        nonlocal best, nodes
        if size > best:
            best = size
        if best == cap or size + C.bit_count() <= best:
            return
        grow = S is not None and len(S) < _TABLE_SPAN
        # colours above cap - size bound nothing: those points come last
        # out of `_colour_classes`, and are expanded first
        classes = _colour_classes(C, table, cap - size)
        rest = C
        for k in range(len(classes), 0, -1):
            cls = classes[k - 1]
            while cls:
                if size + k <= best or best == cap:
                    return
                low = cls & -cls
                cls ^= low
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
                    shifted = -1
                    for s in S:
                        s ^= p
                        shifted &= trans[s] or get(s)
                child_S = S + [s ^ p for s in S] if grow else None
                dfs(Z & shifted, rest & shifted, size + 1, child_S)

    dfs(trans[0], E, 0, [0])
    return best


def invariants(M: BinaryMatroid) -> InvariantRecord:
    """All basic invariants in one record; alpha and sigma share T's table."""
    omega = clique_number(M)
    table = TranslateTable(ground_mask(M.n) & ~M.mask, M.n)
    alpha = _clique_search(table, None)[0]
    return InvariantRecord(
        omega=omega,
        chi=M.n - alpha,
        alpha=alpha,
        sigma=_sigma_search(table, alpha),
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


def linear_map_table(images: Sequence[int], n: int) -> list[int]:
    """Point-image table of the linear map sending basis vector i to images[i],
    doubled out one basis vector at a time."""
    table = [0]
    for i in range(n):
        table += [v ^ images[i] for v in table]
    return table


def transform_mask(mask: int, table: Sequence[int]) -> int:
    """Image of a point bitset under a point-image table."""
    out = 0
    for v in iter_bits(mask):
        out |= 1 << table[v]
    return out


#: canonical masks kept by `_canonical_mask`, least recently used evicted first
CANONICAL_CACHE_SIZE = 8192
_canonical_cache: OrderedDict[tuple[int, int], int] = OrderedDict()


def _canonical_mask(n: int, E: int, budget: Optional[int] = None) -> int:
    """Canonical mask of (n, E), cached on (n, E) and on its search's leaves.

    When E or its complement spans a proper flat, the search runs on the
    fixed representative of E's orbit that `_orbit_representative`
    builds, and its result is cached under both sets, so every member of
    that orbit shares one search.  The search reads the cache too: it
    stops at the first improved leaf whose image is a key, and caches
    every improved-leaf image under the form it returns (README,
    "Canonical forms").  A cache hit is returned whatever the budget;
    `budget` caps each search run, and a search that raises
    `BudgetExceeded` caches nothing, leaf images included.
    """
    key = (n, E)
    img = _canonical_cache.get(key)
    if img is not None:
        _canonical_cache.move_to_end(key)
        return img
    if E == 0 or E == ground_mask(n):
        return E
    rep = _orbit_representative(n, E, budget)
    img = _canonical_cache.get((n, rep)) if rep != E else None
    if img is None:
        img = _canonical_search(n, rep, budget, _canonical_cache)[0]
    _canonical_cache[n, rep] = img
    _canonical_cache.move_to_end((n, rep))
    _canonical_cache[key] = img
    while len(_canonical_cache) > CANONICAL_CACHE_SIZE:
        _canonical_cache.popitem(last=False)
    return img


def _orbit_representative(n: int, E: int, budget: Optional[int]) -> int:
    """A fixed member of the GL(n,2) orbit of a ground set E other than
    the empty set and G.

    If E spans a flat F of dimension r < n, it is the canonical mask at
    dimension r of E in F's coordinates, read on the first r coordinates:
    a map of F_2^r between two such local sets lifts to F_2^n, so the
    orbit of E is fixed by r and the orbit of its local set.  If the
    complement spans a proper flat, it is the complement of that set's
    representative.  Otherwise it is E.  README, "Canonical forms".
    """
    ground = ground_mask(n)
    for S, flip in ((E, 0), (ground & ~E, ground)):
        span = span_mask(S, n)
        if span != ground | 1:
            F = Flat(n, span & ~1)
            local = restrict(BinaryMatroid(n, S), F).mask
            return _canonical_mask(F.dim, local, budget) ^ flip
    return E


def _least_segment(
    cands: int,
    pre: list[int],
    trans: list[int],
    bound: Optional[int],
    key: int = 0,
) -> tuple[int, int]:
    """Least segment key over a candidate bitset, and the candidates with it.

    The key of a candidate w has bit j, most significant first, equal to
    the membership of w ^ pre[j]; bit w of trans[u] is the membership of
    w ^ u.  Key bits are read one at a time: a bit is 0 when some remaining
    candidate has it 0, and only those candidates stay.  Once the key is
    known to exceed `bound` (None for no bound), reading stops and no
    candidate is returned, with a key above `bound`.  `key` resumes a read:
    it holds bits read before pre[0], which every candidate shares and
    which are not above the leading bits of `bound`; `bound` spans them too.
    """
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


def _keys_image(keys: list[Optional[int]]) -> int:
    """The mask whose membership sequence is the level keys, level 1 first.

    The keys, one after another, spell the sequence over point values
    1, 2, ..., 2^n - 1, most significant bit first.  A leading 1 keeps
    the sequence's leading zeros in `bin`, and reversing its digits puts
    the membership of value v at bit v - 1.
    """
    seq = 1
    for k, key in enumerate(keys):
        assert key is not None
        seq = (seq << (1 << k)) | key
    return int(bin(seq)[:2:-1], 2) << 1


def _canonical_search(
    n: int,
    E: int,
    budget: Optional[int],
    cache: Optional[OrderedDict[tuple[int, int], int]] = None,
) -> tuple[int, int]:
    """Canonical mask of (n, E), and the nodes its search took.

    With `cache` (keys (n, mask), values canonical masks), the search ends
    at the first improved leaf whose image is a key, with that key's
    form; once it ends it caches every improved-leaf image under the form
    it returns.  A search that raises `BudgetExceeded` caches nothing.
    """
    ground = ground_mask(n)
    if n == 0 or E == 0 or E == ground:
        return E, 0
    npoints = 1 << n
    trans = translates(E, n)
    best: list[Optional[int]] = [None] * n
    best_pre: list[list[int]] = [[]]  # the last improved leaf's point order
    best_inv: list[list[int]] = [[]]  # and its inverse, point -> local value
    auts: list[list[int]] = []  # point tables of discovered automorphisms
    images: list[int] = []  # masks read at the improved leaves, in order
    hit: list[int] = []  # the cached form of an improved leaf's image
    nodes = 0

    def rec(
        k: int,
        span: int,
        pre: list[int],
        prefix: list[int],
        stab: list[list[int]],
        key: int,
        least: int,
    ) -> int:
        # key, least: this frame's least segment key and the candidates
        # with it, read by the parent.  stab: the automorphisms found so
        # far that fix every point of prefix; a child inherits those that
        # also fix its own point, and after each child only the
        # automorphisms found since are tested.  Returns the level of the
        # frame that resumes: k - 1, or a lower one after a tie at a leaf.
        nonlocal nodes
        half = len(pre)
        fresh: Optional[tuple[int, int, int]] = None  # (coset, first half, candidates)
        # rest: least-key candidates not yet visited nor in the orbit of one
        rest = least
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
            if k == n:
                full_pre = pre + [w ^ u for u in pre]
                if improved:
                    # best holds this leaf's keys, so its image is E read
                    # through the path's basis: g(E) for an invertible g
                    best_pre[0] = full_pre
                    inv = best_inv[0] = [0] * npoints
                    for j, v in enumerate(full_pre):
                        inv[v] = j
                    img = _keys_image(best)
                    images.append(img)
                    if cache is not None:
                        form = cache.get((n, img))
                        if form is not None:
                            hit.append(form)
                            return 0
                else:
                    # a tie exhibits an automorphism g of the ground set,
                    # sending the best leaf's path to this one; if the paths
                    # first part at level j, g fixes the common prefix and
                    # maps the finished best child of level j onto this
                    # path's child there, so that child's subtree is covered
                    ref = best_pre[0]
                    auts.append(list(map(full_pre.__getitem__, best_inv[0])))
                    j = 1
                    while full_pre[1 << (j - 1)] == ref[1 << (j - 1)]:
                        j += 1
                    if j < k:
                        return j
            else:
                # The child's keys run over the points x off span and off
                # its coset w + span, and the first half of each, the
                # membership of x + pre[j], is x's key in this frame.  So
                # the child's least first half is key, on least minus the
                # coset; only when least lies in the coset, as it then does
                # for every child, is it a fresh read, made once.  Every
                # child shares that first half, and one above the bound's
                # cuts the child before any of its frame is built.
                bound = best[k]
                if fresh is not None:
                    coset, first, cands = fresh
                elif bound is None or key <= bound >> half:
                    coset = xor_translate(span, w, n)
                    first, cands = key, least & ~coset
                    if not cands:
                        off = ground & ~(span | coset)
                        fresh = coset, *_least_segment(off, pre, trans, None)
                        coset, first, cands = fresh
                else:
                    first = key
                if bound is None or first <= bound >> half:
                    tail = [w ^ u for u in pre]
                    child_key, child_least = _least_segment(cands, tail, trans, bound, first)
                    if child_least:
                        jump = rec(
                            k + 1,
                            span | coset,
                            pre + tail,
                            prefix + [w],
                            [t for t in stab if t[w] == w],
                            child_key,
                            child_least,
                        )
                        if jump < k:
                            return jump
            if not rest:
                break  # orbits and new automorphisms only prune later siblings
            if len(auts) > seen:  # ties may have grown the group
                stab.extend(t for t in auts[seen:] if all(t[u] == u for u in prefix))
                seen = len(auts)
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
        return k - 1

    rec(1, 1, [0], [], [], *_least_segment(ground, [0], trans, None))

    # every later improved leaf beats the earlier ones, so the last image
    # is the least: the canonical form, unless a leaf image was cached
    form = hit[0] if hit else images[-1]
    if cache is not None:
        for img in images:
            cache[n, img] = form
            cache.move_to_end((n, img))
    return form, nodes


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
