"""Vector-space machinery over F_2^n: spans, flats, cosets, coordinate maps.

Points of the projective geometry PG(n-1,2) are the nonzero vectors of
F_2^n, encoded as integers in [1, 2^n - 1]; vector addition is bitwise
XOR.  Sets of vectors are int bitsets: bit v is set iff the vector v
belongs to the set.  Ground sets and point sets keep bit 0 clear; span
masks (subspaces) include bit 0.

All values are immutable after construction; every function here is pure.
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
    """Image of a bitset under the translation v -> v XOR a."""
    halves = _half_masks(n)
    i = 0
    while a:
        if a & 1:
            lo = halves[i]
            w = 1 << i
            mask = ((mask & lo) << w) | ((mask >> w) & lo)
        a >>= 1
        i += 1
    return mask


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


def closure(points: Iterable[int], n: int) -> Flat:
    """Smallest flat containing the given points; closure of nothing is empty."""
    n = check_dim(n)
    pts = list(points)
    limit = 1 << n
    for p in pts:
        if not 0 < p < limit:
            raise ValueError(f"point {p} out of range for dimension {n}")
    basis = echelon_basis(pts)
    return Flat(n, basis, span_from_basis(basis, n) & ~1)


def closure_mask(mask: int, n: int) -> Flat:
    """Closure of a point bitset (bit 0 is ignored)."""
    n = check_dim(n)
    if mask >> (1 << n):
        raise ValueError(f"bitset out of range for dimension {n}")
    basis = echelon_basis(iter_bits(mask & ~1))
    return Flat(n, basis, span_from_basis(basis, n) & ~1)


def is_flat(mask: int, n: int) -> bool:
    """Whether a point bitset (bit 0 clear) is a flat; the empty set is one.

    A flat has 2^d - 1 points, so other sizes fail at once; otherwise the
    span of the points is grown and abandoned as soon as it leaves mask.
    """
    n = check_dim(n)
    if mask >> (1 << n):
        raise ValueError(f"bitset out of range for dimension {n}")
    size = mask.bit_count()
    if mask & 1 or (size + 1) & size:
        return False
    span = 1
    outside = ~(mask | 1)
    for p in iter_bits(mask):
        if not (span >> p) & 1:
            span |= xor_translate(span, p, n)
            if span & outside:
                return False
    return True


def cosets(flat: Flat) -> list[int]:
    """Translates of the flat's span partitioning the points outside it.

    Ordered by minimum element.  The flat itself is not a coset; a full
    flat has none.
    """
    n = flat.n
    if flat.dim == n:
        raise ValueError("a full flat has no cosets")
    out = []
    covered = flat.span
    everything = (1 << (1 << n)) - 1
    x = 1
    while covered != everything:
        if not (covered >> x) & 1:
            block = xor_translate(flat.span, x, n)
            out.append(block)
            covered |= block
        x += 1
    return out


def complementary_flat(flat: Flat) -> Flat:
    """A canonical flat J with dim J = n - dim F and J disjoint from F.

    Greedily extends the flat's basis by the smallest standard vectors
    and returns the closure of the added ones, so the result is
    deterministic.
    """
    n = flat.n
    cur = flat.span
    added = []
    for i in range(n):
        e = 1 << i
        if not (cur >> e) & 1:
            cur |= xor_translate(cur, e, n)
            added.append(e)
    return closure(added, n)


def is_independent(points: Iterable[int]) -> bool:
    """Whether the given vectors are linearly independent over F_2."""
    pivots: dict[int, int] = {}
    for v in points:
        while v:
            p = v.bit_length() - 1
            if p in pivots:
                v ^= pivots[p]
            else:
                pivots[p] = v
                break
        else:
            return False
    return True


def coordinate_map(flat: Flat):
    """The (to_local, from_local) bijection pair for a flat."""
    return flat.to_local, flat.from_local


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
