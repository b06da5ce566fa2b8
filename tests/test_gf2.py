"""Vector-space layer: spans, flats, cosets, coordinate maps."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binmatroid import construct, gf2, recognize, structure
from binmatroid.gf2 import (
    TranslateTable,
    bits_list,
    check_dim,
    closure,
    closure_mask,
    complementary_flat,
    cosets,
    empty_flat,
    flats_of_dim,
    full_flat,
    gaussian_binomial,
    ground_mask,
    is_flat,
    is_independent,
    mask_of,
    translates,
    xor_translate,
)
from binmatroid.matroid import BinaryMatroid
from linear_images import mapped, random_images


def test_closure_examples():
    F = closure([3, 5], 3)
    assert F.points() == [3, 5, 6] and F.dim == 2
    assert closure([], 3).dim == 0
    assert closure([1, 2, 4, 8], 4).members == ground_mask(4)


def test_closure_rejects_out_of_range():
    with pytest.raises(ValueError):
        closure([8], 3)
    with pytest.raises(ValueError):
        closure([0], 3)


def test_dimension_cap():
    with pytest.raises(ValueError):
        check_dim(17)
    with pytest.raises(ValueError):
        check_dim(-1)
    assert check_dim(16) == 16


def test_is_flat_examples():
    assert is_flat(mask_of([1, 2, 3]), 3)
    assert not is_flat(mask_of([1, 2]), 3)
    assert is_flat(0, 3)


def test_is_flat_agrees_with_pairwise_oracle():
    # a nonempty S is a flat iff x^y lands in S for all distinct x, y
    for n in (2, 3):
        for code in range(1 << ((1 << n) - 1)):
            mask = code << 1
            pts = bits_list(mask)
            oracle = all(
                (mask >> (x ^ y)) & 1 for x in pts for y in pts if x != y
            )
            assert is_flat(mask, n) == oracle, (n, pts)


def test_cosets_examples():
    assert cosets(closure([1], 2)) == [mask_of([2, 3])]
    blocks = cosets(closure([3], 3))
    assert [bits_list(b) for b in blocks] == [[1, 2], [4, 7], [5, 6]]
    singles = cosets(empty_flat(3))
    assert [bits_list(b) for b in singles] == [[v] for v in range(1, 8)]


def test_cosets_reject_full_flat():
    with pytest.raises(ValueError):
        cosets(full_flat(3))


def test_cosets_partition_everything():
    for n in (2, 3, 4):
        for d in range(n):
            for F in flats_of_dim(n, d):
                blocks = cosets(F)
                assert len(blocks) == (1 << (n - d)) - 1
                union = F.members
                for b in blocks:
                    assert b.bit_count() == 1 << d
                    assert union & b == 0
                    union |= b
                assert union == ground_mask(n)


def test_complementary_flat_examples():
    J = complementary_flat(closure([3], 3))
    assert J.points() == [1, 4, 5]
    assert complementary_flat(full_flat(2)).dim == 0
    assert complementary_flat(empty_flat(4)).members == ground_mask(4)


def _greedy_complement(F):
    """The closure of the smallest standard vectors that greedily extend
    the flat's basis, one at a time."""
    n = F.n
    span, added = F.span, []
    for i in range(n):
        e = 1 << i
        if not (span >> e) & 1:
            span |= xor_translate(span, e, n)
            added.append(e)
    return closure(added, n)


def test_complementary_flat_disjoint_dims_sum():
    # the leading-bit identity against the greedy extension it replaces
    for n in range(7):
        for d in range(n + 1):
            for F in flats_of_dim(n, d):
                J = complementary_flat(F)
                assert J.dim == n - d
                assert J.members & F.members == 0
                assert J == _greedy_complement(F), F


def test_flats_of_dim_counts():
    assert sum(1 for _ in flats_of_dim(3, 2)) == 7
    assert sum(1 for _ in flats_of_dim(3, 1)) == 7
    assert sum(1 for _ in flats_of_dim(4, 2)) == 35
    for n in range(6):
        for d in range(n + 1):
            got = sum(1 for _ in flats_of_dim(n, d))
            assert got == gaussian_binomial(n, d), (n, d)


def test_flats_of_dim_distinct():
    seen = set()
    for F in flats_of_dim(4, 2):
        assert F.members not in seen
        seen.add(F.members)
        assert is_flat(F.members, 4)


def test_is_independent():
    assert is_independent([1, 2, 4])
    assert not is_independent([1, 2, 3])
    assert is_independent([])
    assert not is_independent([5, 5])


def _independent_by_pivots(points):
    """Reference: reduce each vector by the pivots so far; a zero remainder
    is a dependence."""
    pivots = {}
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


def test_is_independent_matches_the_pivot_loop():
    # every tuple of up to four vectors of F_2^3, zero and repeats included
    tuples = [t for k in range(5) for t in itertools.product(range(8), repeat=k)]
    assert len(tuples) == 4681
    for t in tuples:
        assert is_independent(iter(t)) == _independent_by_pivots(t), t


def test_coordinate_map_examples():
    F = closure([1, 4], 3)
    assert F.to_local(1) == 1 and F.to_local(4) == 2 and F.to_local(5) == 3
    assert F.from_local(3) == 5
    assert closure([3], 3).to_local(3) == 1
    G = full_flat(3)
    assert all(G.to_local(v) == v for v in range(8))


def test_coordinate_map_rejects_outsiders():
    F = closure([3], 3)
    with pytest.raises(ValueError):
        F.to_local(1)


def test_coordinate_map_roundtrip():
    for F in flats_of_dim(4, 2):
        for v in F.points():
            assert F.from_local(F.to_local(v)) == v


def test_xor_translate_is_involution_and_correct():
    mask = mask_of([1, 4, 6])
    shifted = xor_translate(mask, 3, 3)
    assert bits_list(shifted) == sorted(v ^ 3 for v in [1, 4, 6])
    assert xor_translate(shifted, 3, 3) == mask


def test_xor_translate_matches_pointwise_definition():
    rng = random.Random(8)
    for n in range(0, 9):
        for _ in range(20):
            mask = rng.getrandbits(1 << n)  # bit 0 too: spans are translated
            a = rng.randrange(1 << n)
            assert xor_translate(mask, a, n) == mask_of(v ^ a for v in bits_list(mask))


def test_translate_table_matches_xor_translate():
    rng = random.Random(11)
    for n in range(0, 9):
        for mask in (0, ground_mask(n), rng.getrandbits((1 << n) - 1) << 1):
            want = [xor_translate(mask, u, n) for u in range(1 << n)]
            assert translates(mask, n) == want
            table = TranslateTable(mask, n)
            order = list(range(1 << n))
            rng.shuffle(order)
            for i, u in enumerate(order):
                assert table.get(u) == want[u]
                if mask and i < 5:  # only the entries read are stored
                    stored = {v for v, t in enumerate(table.entries) if t}
                    assert stored == {0, *order[: i + 1]}
            assert table.entries == want


def test_fill_stores_every_translate_where_all_fit(monkeypatch):
    # fill keeps the list object that hot loops hold, stores translates(mask, n),
    # and refuses where room < 2^n, leaving reads to `get`
    rng = random.Random(13)
    for n in range(0, 9):
        for mask in (0, rng.getrandbits((1 << n) - 1) << 1):
            table = TranslateTable(mask, n)
            entries = table.entries
            assert table.fill() and table.fill()
            assert table.entries is entries and entries == translates(mask, n)
    n = 8
    mask = rng.getrandbits((1 << n) - 1) << 1
    monkeypatch.setattr(gf2, "TRANSLATE_TABLE_BYTES", (1 << n) * 32 - 1)
    table = TranslateTable(mask, n)
    assert table.room == (1 << n) - 1 and not table.fill()
    assert table.entries[1:] == [0] * ((1 << n) - 1)
    monkeypatch.setattr(gf2, "TRANSLATE_TABLE_BYTES", (1 << n) * 32)
    assert TranslateTable(mask, n).fill()
    # under the shipped cap every translate fits up to n = 13, and not past it
    monkeypatch.undo()
    assert TranslateTable(0, 13).room == 1 << 13 and not TranslateTable(0, 14).fill()


def test_full_translate_table_stops_storing(monkeypatch):
    # room for 8 translates of 2^8 / 8 bytes; later reads are computed,
    # from the nearest stored entry with low bits cleared, and not kept
    monkeypatch.setattr(gf2, "TRANSLATE_TABLE_BYTES", 8 * 32)
    rng = random.Random(12)
    n = 8
    mask = rng.getrandbits((1 << n) - 1) << 1
    table = TranslateTable(mask, n)
    order = list(range(1 << n)) * 2
    rng.shuffle(order)
    for u in order:
        assert table.get(u) == xor_translate(mask, u, n)
    stored = [u for u, t in enumerate(table.entries) if t]
    assert len(stored) == 1 + 8 and table.room == 0
    for u in stored:
        assert table.entries[u] == xor_translate(mask, u, n)


subsets3 = st.integers(min_value=0, max_value=(1 << 7) - 1)


@settings(max_examples=100)
@given(subsets3)
def test_closure_idempotent(code):
    F = closure_mask(code << 1, 3)
    again = closure_mask(F.members, 3)
    assert again == F


@settings(max_examples=100)
@given(subsets3, subsets3)
def test_closure_monotone(a, b):
    F = closure_mask((a | b) << 1, 3)
    assert closure_mask(a << 1, 3).members & ~F.members == 0


def _xor_span(vectors):
    """Bitset of the XOR closure of the vectors, zero vector included: each
    vector adds its sum with every element so far."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return mask_of(span)


def _closure_oracle(mask, n):
    """Echelon basis of every point of the mask, and its span."""
    basis = gf2.echelon_basis(bits_list(mask & ~1))
    return basis, _xor_span(basis) & ~1


def test_closure_mask_matches_all_points_echelon():
    rng = random.Random("closure-mask")
    for n in range(0, 11):
        for i in range(60):
            if i % 2:
                mask = rng.getrandbits(1 << n)
            else:
                mask = mask_of(rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 5))) if n else 0
            F = closure_mask(mask, n)
            assert (F.basis, F.members) == _closure_oracle(mask, n), (n, mask)
    mask = mask_of([3, 5, 6, 1 << 15, (1 << 16) - 1])
    F = closure_mask(mask, 16)
    assert (F.basis, F.members) == _closure_oracle(mask, 16)


def _assert_echelon(F):
    """A flat's basis is the elimination basis of its members, its span is
    the XOR closure of that basis, and its dimension is the basis size."""
    want = gf2.echelon_basis(bits_list(F.members))
    assert F.basis == want, (F.n, hex(F.members))
    assert F.dim == len(want), (F.n, hex(F.members))
    assert _xor_span(want) == F.span, (F.n, hex(F.members))


def test_flat_is_its_members():
    assert [f.name for f in dataclasses.fields(gf2.Flat)] == ["n", "members"]
    F = closure([3, 5], 3)
    assert F == gf2.Flat(3, F.members) and hash(F) == hash(gf2.Flat(3, F.members))
    with pytest.raises(dataclasses.FrozenInstanceError):
        F.basis = ()


def test_every_flat_basis_matches_elimination():
    """Every Flat the library builds reads its reduced echelon basis off
    its members; elimination over all the members must give the same."""
    for n in range(7):
        _assert_echelon(empty_flat(n))
        _assert_echelon(full_flat(n))
        for d in range(n + 1):
            for F in flats_of_dim(n, d):
                _assert_echelon(F)
                _assert_echelon(complementary_flat(F))
    rng = random.Random("flat-basis")
    for n in range(11):
        for i in range(30):
            if i % 3 == 0:
                mask = rng.getrandbits(1 << n) & ~1
            else:
                mask = mask_of(rng.randrange(1, 1 << n) for _ in range(rng.randint(0, n))) if n else 0
            F = closure_mask(mask, n)
            _assert_echelon(F)
            if F.dim < n:
                _assert_echelon(complementary_flat(F))
    matroids = [BinaryMatroid(n, code << 1) for n in range(4) for code in range(1 << ((1 << n) - 1))]
    for n in range(4, 9):
        for _ in range(8):
            matroids.append(BinaryMatroid(n, rng.getrandbits(1 << n) & ~1))
            dims = sorted(rng.randint(0, n) for _ in range(rng.randint(1, 5)))
            matroids.append(mapped(construct.target(n, dims), random_images(n, rng)))
            matroids.append(mapped(construct.pg_sum(n // 2, n - n // 2), random_images(n, rng)))
    chains = decomposers = 0
    for M in matroids:
        F = structure.find_decomposer(M)
        if F is not None:
            decomposers += 1
            _assert_echelon(F)
        for F in recognize.is_target(M) or []:
            chains += 1
            _assert_echelon(F)
        for F in recognize.is_pg_sum_direct(M) or ():
            _assert_echelon(F)
    assert decomposers > 100 and chains > 100, (decomposers, chains)


def test_empty_flat_is_first_class():
    e = empty_flat(5)
    assert e.dim == 0 and e.members == 0 and e.basis == ()
    assert closure([], 5) == e
