"""Matroid invariants, claws, canonical forms, isomorphism."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binmatroid import (
    BinaryMatroid,
    BudgetExceeded,
    c4,
    canonical_form,
    clique_number,
    closure,
    complement,
    critical_number,
    find_anticlaw,
    find_claw,
    flats_of_dim,
    full_matroid,
    ground_mask,
    has_induced_restriction,
    independence_number,
    independent_matroid,
    induced_independence_number,
    invariants,
    is_full_rank,
    is_independent,
    is_isomorphic,
    p5,
    restrict,
)
from binmatroid import census, matroid, tables
from binmatroid.matroid import apply_linear_map, linear_map_table, seq_key


def all_invertible_maps(n):
    pts = list(range(1, 1 << n))
    return [
        linear_map_table(list(images), n)
        for images in itertools.permutations(pts, n)
        if is_independent(list(images))
    ]


def test_ground_set_validation():
    with pytest.raises(ValueError):
        BinaryMatroid(3, 1)  # zero vector
    with pytest.raises(ValueError):
        BinaryMatroid(2, 1 << 5)  # out of range


def test_restrict_examples():
    M = c4()
    F = closure([1, 4], 3)
    assert restrict(M, F) == BinaryMatroid.from_points([1, 2], 2)
    from binmatroid import full_flat, empty_flat

    assert restrict(M, full_flat(3)) == M
    assert restrict(M, empty_flat(3)) == BinaryMatroid(0, 0)


def test_complement_examples():
    assert complement(c4()).points() == [3, 5, 6]
    assert complement(BinaryMatroid(4, 0)) == full_matroid(4)
    M = BinaryMatroid.from_points([1, 5, 6], 3)
    assert complement(complement(M)) == M


def test_find_claw_examples():
    assert find_claw(independent_matroid(3)) == (1, 2, 4)
    assert find_claw(c4()) is None
    assert find_claw(p5()) is None


def test_find_claw_matches_triple_oracle():
    # brute force over all independent triples inside E
    rng = random.Random(5)
    for _ in range(200):
        M = BinaryMatroid(4, rng.getrandbits(15) << 1)
        E = M.mask
        pts = M.points()
        oracle = None
        for x, y, z in itertools.combinations(pts, 3):
            if z == x ^ y:
                continue
            if any((E >> (a ^ b)) & 1 for a, b in ((x, y), (y, z), (x, z))):
                continue
            if (E >> (x ^ y ^ z)) & 1:
                continue
            oracle = (x, y, z)
            break
        assert find_claw(M) == oracle


def test_find_anticlaw_examples():
    anti = complement(independent_matroid(3))
    F = find_anticlaw(anti)
    assert F is not None and F.members == ground_mask(3)
    assert find_anticlaw(c4()) is None
    assert find_anticlaw(BinaryMatroid(4, 0)) is None


def test_invariant_examples():
    M = c4()
    rec = invariants(M)
    assert (rec.omega, rec.chi, rec.alpha, rec.sigma) == (1, 1, 2, 2)
    assert rec.full_rank
    assert clique_number(BinaryMatroid.from_points([1, 2, 3], 3)) == 2
    assert clique_number(full_matroid(4)) == 4
    assert critical_number(full_matroid(3)) == 3
    assert critical_number(BinaryMatroid(4, 0)) == 0
    assert independence_number(full_matroid(5)) == 0
    assert independence_number(BinaryMatroid(5, 0)) == 5
    assert induced_independence_number(independent_matroid(3)) == 3
    assert induced_independence_number(full_matroid(4)) == 1


def test_is_full_rank_examples():
    assert is_full_rank(independent_matroid(3))
    assert not is_full_rank(BinaryMatroid.from_points([1, 2, 3], 3))
    assert is_full_rank(BinaryMatroid(0, 0))


def _omega_oracle(M):
    best = 0
    for d in range(1, M.n + 1):
        for F in flats_of_dim(M.n, d):
            if F.members & ~M.mask == 0:
                best = max(best, d)
    return best


def _sigma_oracle(M):
    pts = M.points()
    best = 0
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            if not is_independent(list(sub)):
                continue
            cl = closure(list(sub), M.n)
            if cl.members & M.mask == sum(1 << p for p in sub):
                best = max(best, r)
    return best


def test_invariants_exhaustive_small():
    for n in (2, 3):
        for code in range(1 << ((1 << n) - 1)):
            M = BinaryMatroid(n, code << 1)
            assert clique_number(M) == _omega_oracle(M)
            assert induced_independence_number(M) == _sigma_oracle(M)


def test_claw_free_iff_sigma_at_most_two():
    for code in range(1 << 7):
        M = BinaryMatroid(3, code << 1)
        assert (find_claw(M) is None) == (induced_independence_number(M) <= 2)
    rng = random.Random(11)
    for _ in range(300):
        M = BinaryMatroid(4, rng.getrandbits(15) << 1)
        assert (find_claw(M) is None) == (induced_independence_number(M) <= 2)


def test_canonical_form_matches_orbit_oracle():
    for n in (1, 2, 3):
        maps = all_invertible_maps(n)
        forms = set()
        for code in range(1 << ((1 << n) - 1)):
            mask = code << 1
            images = []
            for t in maps:
                img = 0
                for v in BinaryMatroid(n, mask).points():
                    img |= 1 << t[v]
                images.append(img)
            oracle = min(images, key=lambda m: seq_key(m, n))
            got = canonical_form(BinaryMatroid(n, mask)).mask
            assert got == oracle
            forms.add(got)
        # frozen class counts from the orbit oracle
        assert len(forms) == {1: 2, 2: 4, 3: 10}[n]


def test_canonical_form_matches_orbit_table_n4():
    # canon_table walks whole GL(4,2) orbits and keeps the least sequence,
    # so it is an oracle for the search on every ground set at n = 4
    table = census.canon_table(4)
    for mask in tables.claw_free_masks_list(4):
        assert canonical_form(BinaryMatroid(4, mask)).mask == table[mask]
    rng = random.Random(4)
    for _ in range(500):
        mask = rng.getrandbits(15) << 1
        assert canonical_form(BinaryMatroid(4, mask)).mask == table[mask]


def _quadric_mask(n):
    """Points where x1x2 + x3x4 + ... is 1."""
    out = 0
    for v in range(1, 1 << n):
        q = 0
        for i in range(0, n - 1, 2):
            q ^= (v >> i) & (v >> (i + 1)) & 1
        out |= q << v
    return out


#: (n, ground set, canonical mask), recorded before the search carried its
#: automorphism stabiliser down the tree; seeded claw-free and
#: random-density inputs, then symmetric ones: bases, hyperplanes, affine
#: hyperplanes and quadrics
FROZEN_FORMS = [
    (5, 0x20010010, 0xe0000000),
    (5, 0x2848, 0x81808000),
    (5, 0xeb5d7ffe, 0xffffdee0),
    (5, 0xfb77fb76, 0xfffff668),
    (5, 0x40104020, 0xe8000000),
    (5, 0x3cdb3cc2, 0xf9969668),
    (5, 0x35050c1e, 0x7bc8e000),
    (5, 0xfcf6cf3a, 0xbffed668),
    (5, 0x2bfc7fce, 0xfffeeac0),
    (5, 0x3639c636, 0x566afcc0),
    (5, 0x8400000, 0xc0000000),
    (5, 0x6faebfdc, 0xdffef668),
    (5, 0x9f7e33fe, 0xffdeeee0),
    (5, 0x6dee, 0x99989880),
    (5, 0xa03a5d78, 0x4ff8e880),
    (5, 0xf0ffff0, 0xfffff000),
    (5, 0x37ebef56, 0xfbfebec0),
    (5, 0xd5cff776, 0xdffef668),
    (5, 0xb2912842, 0x6bc8e000),
    (5, 0xfffff000, 0xfffff000),
    (5, 0xb0c1c862, 0xbacce000),
    (5, 0x220, 0xc0000000),
    (5, 0x18808, 0xe8000000),
    (5, 0x4200000, 0xc0000000),
    (6, 0x5154872ebe49be48, 0x7d6d3b78abc8e000),
    (6, 0x40004000000, 0xc000000000000000),
    (6, 0x6d79301e40792518, 0xeb8eecf0fe800000),
    (6, 0xffffffff35ca, 0xffffffffc3c0c000),
    (6, 0xe45d070329125240, 0x8e3759e0e9808000),
    (6, 0xff000000ff0000, 0xffff000000000000),
    (6, 0x562400a402445086, 0x60ebd880e8000000),
    (6, 0xc33c3c3c0000ff02, 0x3c3c33cc0ff08000),
    (6, 0x41a84398411020c, 0x1ee1a8c0e8000000),
    (6, 0x40000008000000, 0xc000000000000000),
    (6, 0x5805be601ba88e16, 0x9c7c2fc8eea0c000),
    (6, 0x774b1edddd1eb488, 0x9556566a3ffcfcc0),
    (6, 0x6918105022802214, 0x46a2c8c0f8000000),
    (6, 0x100000404000800, 0x8001800080000000),
    (6, 0x214800000400200, 0xe001800080000000),
    (6, 0xd81be42728141428, 0xff0f0f0ff000000),
    (5, 0x10116, 0xe8800000),
    (6, 0x100010116, 0xe880800000000000),
    (5, 0xfffe, 0x69969668),
    (6, 0xfffffffe, 0x9669699669969668),
    (5, 0xffff0000, 0xffff0000),
    (6, 0xffffffff00000000, 0xffffffff00000000),
    (5, _quadric_mask(5), 0x3cccf000),
    (6, _quadric_mask(6), 0x96665aaa3cccf000),
]


@pytest.mark.parametrize("n,mask,form", FROZEN_FORMS)
def test_canonical_form_frozen(n, mask, form):
    matroid._canonical_cache.pop((n, mask), None)
    assert canonical_form(BinaryMatroid(n, mask)).mask == form


#: (n, ground set, search nodes), recorded with the frozen forms; the
#: node count pins the visiting order and the automorphism pruning
FROZEN_NODES = [
    (5, 0x10116, 1812),
    (5, 0x17a0cd4a, 462),
    (5, 0x2000082, 633),
    (6, 0xbfdbfee7bddf1f9e, 219),
    (6, 0x5e79c701ddf9e87c, 481),
    (6, _quadric_mask(6), 104),
    (6, 0xfffffffe, 182),
]


@pytest.mark.parametrize("n,mask,nodes", FROZEN_NODES)
def test_canonical_search_nodes_frozen(n, mask, nodes):
    M = BinaryMatroid(n, mask)
    matroid._canonical_cache.pop((n, mask), None)
    with pytest.raises(BudgetExceeded):
        canonical_form(M, budget=nodes - 1)
    canonical_form(M, budget=nodes)


def test_canonical_budget_does_not_poison_cache():
    basis = BinaryMatroid.from_points([1, 2, 4, 8, 16], 5)
    matroid._canonical_cache.pop((5, basis.mask), None)
    with pytest.raises(BudgetExceeded):
        canonical_form(basis, budget=3)
    assert (5, basis.mask) not in matroid._canonical_cache
    assert canonical_form(basis).mask == 0xe8800000
    # a hit returns the known form whatever the budget
    assert canonical_form(basis, budget=1).mask == 0xe8800000


def test_canonical_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(matroid, "CANONICAL_CACHE_SIZE", 3)
    matroid._canonical_cache.clear()
    masks = [0b10, 0b110, 0b1110, 0b10110, 0b11110]
    for mask in masks:
        canonical_form(BinaryMatroid(3, mask))
    assert list(matroid._canonical_cache) == [(3, m) for m in masks[-3:]]


def test_canonical_form_invariant_under_random_maps():
    rng = random.Random(3)
    maps4 = None
    for _ in range(60):
        M = BinaryMatroid(4, rng.getrandbits(15) << 1)
        if maps4 is None:
            maps4 = [
                [rng.randint(1, 15) for _ in range(4)] for _ in range(200)
            ]
            maps4 = [imgs for imgs in maps4 if is_independent(imgs)]
        imgs = maps4[rng.randrange(len(maps4))]
        assert canonical_form(M) == canonical_form(apply_linear_map(M, imgs))


def test_canonical_form_dimension_cap():
    with pytest.raises(ValueError):
        canonical_form(BinaryMatroid(7, 0b10))


def test_canonical_budget_hook():
    M = BinaryMatroid.from_points([1, 2, 4, 8, 16, 32], 6)
    with pytest.raises(BudgetExceeded):
        canonical_form(M, budget=3)


def test_search_budget_hooks():
    near_full = BinaryMatroid(6, ground_mask(6) & ~0b100)
    with pytest.raises(BudgetExceeded):
        clique_number(near_full, budget=2)
    with pytest.raises(BudgetExceeded):
        induced_independence_number(
            BinaryMatroid.from_points([1, 2, 4, 8, 16, 32], 6), budget=2
        )


def test_is_isomorphic_examples():
    assert is_isomorphic(BinaryMatroid.from_points([1], 2), BinaryMatroid.from_points([2], 2))
    assert not is_isomorphic(independent_matroid(3), c4())
    assert is_isomorphic(
        BinaryMatroid.from_points([1, 2], 2), BinaryMatroid.from_points([1, 3], 2)
    )
    with pytest.raises(ValueError):
        is_isomorphic(BinaryMatroid(2, 0), BinaryMatroid(3, 0))


def test_has_induced_restriction_examples():
    I3 = independent_matroid(3)
    for code in range(0, 1 << 7, 7):  # a spread of dim-3 ground sets
        M = BinaryMatroid(3, code << 1)
        assert has_induced_restriction(M, I3) == (find_claw(M) is not None)
    assert has_induced_restriction(c4(), BinaryMatroid.from_points([1], 1))
    assert not has_induced_restriction(p5(), c4())
    with pytest.raises(ValueError):
        has_induced_restriction(c4(), independent_matroid(4))


matroids3 = st.integers(min_value=0, max_value=(1 << 7) - 1).map(
    lambda code: BinaryMatroid(3, code << 1)
)


@settings(max_examples=80)
@given(matroids3, st.integers(min_value=0, max_value=6))
def test_restrict_commutes_with_complement(M, flat_index):
    F = list(flats_of_dim(3, 2))[flat_index]
    assert restrict(complement(M), F) == complement(restrict(M, F))


@settings(max_examples=80)
@given(matroids3)
def test_chi_alpha_identities(M):
    rec = invariants(M)
    assert rec.chi + rec.alpha == M.n
    assert rec.alpha == clique_number(complement(M))
    assert rec.omega <= rec.chi
