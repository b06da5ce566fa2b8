"""Vector-space machinery over F_2^n: spans, flats, cosets, coordinate maps.

Points of the projective geometry PG(n-1,2) are the nonzero vectors of
F_2^n, encoded as integers in [1, 2^n - 1]; vector addition is bitwise
XOR.  Sets of vectors are int bitsets: bit v is set iff the vector v
belongs to the set.  Ground sets and point sets keep bit 0 clear; span
masks (subspaces) include bit 0.

All values are immutable after construction and every function here is
pure; a `TranslateTable` only stores translates: as they are first read,
or all at once where all of them fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Iterator

#: Hard cap on ambient dimension: bitsets stay at 2^16 bits.
MAX_DIM = 16


def check_dim(n: int) -> int:
    """Validate an ambient dimension and return it."""
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be an integer in [0, {MAX_DIM}], got {n!r}")
    return n


def ground_mask(n: int) -> int:
    """Bitset of all points of PG(n-1,2), i.e. bits 1 .. 2^n - 1."""
    return (1 << (1 << n)) - 2


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_list(mask: int) -> list[int]:
    """Set bit positions of a mask as an ascending list."""
    return list(iter_bits(mask))


def mask_of(points: Iterable[int]) -> int:
    """Bitset with the given positions set."""
    m = 0
    for p in points:
        m |= 1 << p
    return m


@lru_cache(maxsize=None)
def _half_masks(n: int) -> tuple[int, ...]:
    """For each coordinate i < n: the bitset of vector values with bit i clear."""
    size = 1 << n
    out = []
    for i in range(n):
        block = (1 << (1 << i)) - 1
        period = 1 << (i + 1)
        m = 0
        for start in range(0, size, period):
            m |= block << start
        out.append(m)
    return tuple(out)


def xor_translate(mask: int, a: int, n: int) -> int:
    """Image of a bitset under the translation v -> v XOR a: one half-swap
    per set bit of a."""
    halves = _half_masks(n)
    while a:
        low = a & -a
        lo = halves[low.bit_length() - 1]
        mask = ((mask & lo) << low) | ((mask >> low) & lo)
        a ^= low
    return mask


#: Bytes of translates one `TranslateTable` stores, 2^n / 8 per entry; a
#: table that is full computes further entries on each read.  Up to n = 13
#: every entry fits, and `TranslateTable.fill` stores them all.
TRANSLATE_TABLE_BYTES = 1 << 23


def translates(mask: int, n: int) -> list[int]:
    """xor_translate(mask, u, n) for every u, each one half-swap of an
    earlier entry; 2^n entries of 2^n / 8 bytes, for small n."""
    out = [mask]
    for i, lo in enumerate(_half_masks(n)):
        w = 1 << i
        out += [((t & lo) << w) | ((t >> w) & lo) for t in out]
    return out


class TranslateTable:
    """The translates mask + u of one bitset, stored as they are read or
    all at once.

    `entries[u]` is `xor_translate(mask, u, n)` once stored and 0 before
    (only the empty set has an empty translate, and every 0 is then
    right).  Hot loops read the plain list and fall back on `get`:
    ``entries[u] or table.get(u)``.  `get` stores what it computes until
    the table holds TRANSLATE_TABLE_BYTES of translates, so a search that
    reads every translate at n = 16 keeps at most that much; the list
    itself holds 2^n references.  Where every translate fits (n <= 13),
    `fill` stores them all in one `translates` pass, and no read misses.
    """

    __slots__ = ("n", "entries", "room")

    def __init__(self, mask: int, n: int):
        self.n = n
        self.entries = [mask] + [0] * ((1 << n) - 1)
        #: entries that may still be stored
        self.room = (TRANSLATE_TABLE_BYTES << 3) >> n

    def fill(self) -> bool:
        """Store every entry at once when all of them fit, that is when
        room >= 2^n; whether it did.  The list object is kept, so loops
        that hold `entries` see the stored entries.  The empty set's
        entries are all 0 from the start, so it takes no pass."""
        if self.room < len(self.entries):
            return False
        if self.entries[0]:
            self.entries[:] = translates(self.entries[0], self.n)
        return True

    def get(self, u: int) -> int:
        """Entry u, computed from the nearest stored entry among u with its
        lowest bits cleared, one half-swap per cleared bit."""
        entries = self.entries
        t = entries[u]
        v = u
        while not t and v:
            v &= v - 1
            t = entries[v]
        if v == u:
            return t
        t = xor_translate(t, u ^ v, self.n)
        if self.room:
            self.room -= 1
            entries[u] = t
        return t


def echelon_basis(vectors: Iterable[int]) -> tuple[int, ...]:
    """Canonical reduced-echelon basis of the span of the given vectors.

    Pivots are leading (highest) bits; no basis vector contains another's
    pivot; the result is sorted ascending by pivot.  This basis is the
    unique one with these properties, so it identifies the subspace.
    """
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            p = v.bit_length() - 1
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                break
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        for q in pivots:
            if q != p and (pivots[q] >> p) & 1:
                pivots[q] ^= row
    return tuple(pivots[p] for p in sorted(pivots))


def span_from_basis(basis: Iterable[int], n: int) -> int:
    """Bitset of the subspace generated by `basis`, zero vector included."""
    m = 1
    for b in basis:
        if not (m >> b) & 1:
            m |= xor_translate(m, b, n)
    return m


def span_mask(mask: int, n: int) -> int:
    """Bitset of the span of a point bitset, zero vector included (bit 0
    of mask is ignored); it has 2^rank bits.

    The span grows from the lowest point outside it, so it takes at most
    n translates (none for the first point).  It is the one span-growth
    loop: closures, the flatness test and ranks all go through it.
    """
    span = 1
    rest = mask & ~1
    while rest:
        low = rest & -rest
        span |= xor_translate(span, low.bit_length() - 1, n) if span != 1 else low
        rest &= ~span
    return span


@dataclass(frozen=True)
class Flat:
    """A linear subspace of F_2^n with canonical basis and membership bitset.

    `basis` is the reduced-echelon basis (sorted by leading bit);
    `members` excludes the zero vector, so `members | 1` is closed
    under XOR.  Flats of dimension 2, 3 and n-1 are called triangles,
    planes and hyperplanes.
    """

    n: int
    basis: tuple[int, ...]
    members: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def span(self) -> int:
        """Membership bitset with the zero vector included."""
        return self.members | 1

    def __contains__(self, v: int) -> bool:
        return v >= 1 and (self.members >> v) & 1 == 1

    def points(self) -> list[int]:
        return bits_list(self.members)

    def to_local(self, v: int) -> int:
        """Coordinates of a member (or 0) w.r.t. the echelon basis.

        The i-th basis vector maps to the i-th standard vector; the map
        is linear, so restrictions re-embed reproducibly bit for bit.
        """
        out = 0
        rest = v
        for i, b in enumerate(self.basis):
            if (rest >> (b.bit_length() - 1)) & 1:
                out |= 1 << i
                rest ^= b
        if rest:
            raise ValueError(f"vector {v} is not in the flat")
        return out

    def from_local(self, w: int) -> int:
        """Inverse of `to_local`: local coordinates back to ambient values."""
        out = 0
        for i, b in enumerate(self.basis):
            if (w >> i) & 1:
                out ^= b
        return out


def empty_flat(n: int) -> Flat:
    """The dimension-0 flat (a first-class value)."""
    return Flat(check_dim(n), (), 0)


def full_flat(n: int) -> Flat:
    """The whole geometry as a flat."""
    n = check_dim(n)
    return Flat(n, tuple(1 << i for i in range(n)), ground_mask(n))


def flat_of_span(span: int, n: int) -> Flat:
    """The flat whose span bitset (bit 0 set) is `span`, its reduced echelon
    basis read off with n block reads and no elimination.

    The basis vector with leading bit i is the least member in
    [2^i, 2^(i+1)): any other member there is it plus lower basis vectors,
    and has a 1 at the highest of their pivots, where it has a 0.
    """
    basis = []
    for i in range(n):
        w = 1 << i
        block = (span >> w) & ((1 << w) - 1)
        if block:
            basis.append(w | ((block & -block).bit_length() - 1))
    return Flat(n, tuple(basis), span & ~1)


def closure(points: Iterable[int], n: int) -> Flat:
    """Smallest flat containing the given points; closure of nothing is empty."""
    n = check_dim(n)
    pts = list(points)
    for p in pts:
        if not 0 < p < 1 << n:
            raise ValueError(f"point {p} out of range for dimension {n}")
    return flat_of_span(span_mask(mask_of(pts), n), n)


def closure_mask(mask: int, n: int) -> Flat:
    """Closure of a point bitset (bit 0 is ignored)."""
    n = check_dim(n)
    if mask >> (1 << n):
        raise ValueError(f"bitset out of range for dimension {n}")
    return flat_of_span(span_mask(mask, n), n)


def is_flat(mask: int, n: int) -> bool:
    """Whether a point bitset (bit 0 clear) is a flat; the empty set is one.

    A flat has 2^d - 1 points, so other sizes fail at once; otherwise the
    span of the points must be mask and the zero vector.
    """
    n = check_dim(n)
    if mask >> (1 << n):
        raise ValueError(f"bitset out of range for dimension {n}")
    size = mask.bit_count()
    if mask & 1 or (size + 1) & size:
        return False
    return span_mask(mask, n) == mask | 1


def cosets(flat: Flat) -> list[int]:
    """Translates of the flat's span partitioning the points outside it.

    Ordered by minimum element: each is the translate by the lowest point
    not yet covered.  The flat itself is not a coset; a full flat has none.
    """
    n = flat.n
    if flat.dim == n:
        raise ValueError("a full flat has no cosets")
    out = []
    rest = ground_mask(n) & ~flat.span
    while rest:
        block = xor_translate(flat.span, (rest & -rest).bit_length() - 1, n)
        out.append(block)
        rest &= ~block
    return out


def kernel_mask(rows: Iterable[int], n: int) -> int:
    """Bitset of the v in F_2^n with r·v = 0 for every row r: the meet of the
    complements of the xors of the sets {v : v_i = 1} over the bits i of r."""
    meet = full = (1 << (1 << n)) - 1
    for r in rows:
        odd = 0
        for i in iter_bits(r):
            odd ^= full ^ _half_masks(n)[i]
        meet &= ~odd
    return meet


def complementary_flat(flat: Flat) -> Flat:
    """A canonical flat J with dim J = n - dim F and J disjoint from F: the
    span of the e_i, i no leading bit of F's basis, which greedily extend
    that basis by the smallest standard vectors, and the kernel of the e_p
    over its leading bits p (README, "A complementary flat is read off the leading bits")."""
    n = flat.n
    lead = [b.bit_length() - 1 for b in flat.basis]
    span = kernel_mask([1 << p for p in lead], n)
    return Flat(n, tuple(1 << i for i in range(n) if i not in lead), span & ~1)


def is_independent(points: Iterable[int]) -> bool:
    """Whether the given vectors are linearly independent over F_2."""
    pts = list(points)
    return len(echelon_basis(pts)) == len(pts)


def flats_of_dim(n: int, d: int) -> Iterator[Flat]:
    """Yield every d-dimensional flat of F_2^n exactly once.

    Enumerates reduced-echelon bases: a choice of pivot bits plus free
    entries below each pivot.  The count matches the Gaussian binomial
    [n choose d]_2 and the order is fixed, so downstream outputs are
    reproducible.
    """
    n = check_dim(n)
    if not 0 <= d <= n:
        raise ValueError(f"flat dimension must be in [0, {n}], got {d}")
    if d == 0:
        yield empty_flat(n)
        return
    for pivots in combinations(range(n), d):
        taken = set(pivots)
        free = [[b for b in range(c) if b not in taken] for c in pivots]
        for assign in product(*(range(1 << len(f)) for f in free)):
            basis = []
            for i, c in enumerate(pivots):
                v = 1 << c
                row_bits = assign[i]
                for j, b in enumerate(free[i]):
                    if (row_bits >> j) & 1:
                        v |= 1 << b
                basis.append(v)
            yield Flat(n, tuple(basis), span_from_basis(basis, n) & ~1)


def gaussian_binomial(n: int, d: int) -> int:
    """Number of d-dimensional subspaces of F_2^n."""
    if not 0 <= d <= n:
        return 0
    num = den = 1
    for i in range(d):
        num *= (1 << n) - (1 << i)
        den *= (1 << d) - (1 << i)
    return num // den
