"""Matroid invariants, claws, canonical forms, isomorphism."""

import itertools
import random

import numpy as np
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
    lift_join,
    p5,
    pg_sum,
    restrict,
    xor_translate,
)
from binmatroid import census, gf2, matroid, tables
from binmatroid.gf2 import TranslateTable, iter_bits, mask_of, translates
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


def _claw_oracle(M):
    """First claw in lexicographic order, by brute force over all
    independent triples inside E."""
    E = M.mask
    for x, y, z in itertools.combinations(M.points(), 3):
        if z == x ^ y:
            continue
        if any((E >> (a ^ b)) & 1 for a, b in ((x, y), (y, z), (x, z))):
            continue
        if (E >> (x ^ y ^ z)) & 1:
            continue
        return (x, y, z)
    return None


def test_find_claw_matches_triple_oracle():
    rng = random.Random(5)
    for _ in range(200):
        M = BinaryMatroid(4, rng.getrandbits(15) << 1)
        assert find_claw(M) == _claw_oracle(M)


@pytest.mark.parametrize("n", [7, 8])
def test_find_claw_matches_triple_oracle_high_dim(n):
    # sparse and uniform sets, claw-free lift-joins, and those with one
    # point flipped, so that claws turn up early, late and not at all
    rng = random.Random(f"claw:{n}")
    cases = []
    for density in (0.05, 0.1, 0.5):
        cases.append(_seeded_mask(n, density, rng.getrandbits(32)))
    for _ in range(3):
        n1 = rng.randint(2, n - 2)
        left = BinaryMatroid(n1, census.sample_claw_free_mask(n1, rng))
        right = BinaryMatroid(n - n1, census.sample_claw_free_mask(n - n1, rng))
        joined = lift_join(left, right).mask
        cases += [joined, joined ^ (1 << rng.randrange(1, 1 << n))]
    for mask in cases:
        M = BinaryMatroid(n, mask)
        assert find_claw(M) == _claw_oracle(M), (n, hex(mask))
    assert any(_claw_oracle(BinaryMatroid(n, m)) is None for m in cases)


def test_find_claw_sparse_high_dim_reads_few_translates(monkeypatch):
    # a 2^16-entry table of 8 KiB translates would take 512 MiB; find_claw
    # reads only E+x, E+y and E+(x+y) for pairs of points of E, and the
    # table stores at most TRANSLATE_TABLE_BYTES of them
    made = []

    class Recording(TranslateTable):
        __slots__ = ()

        def __init__(self, mask, n):
            super().__init__(mask, n)
            made.append(self)

    monkeypatch.setattr(matroid, "TranslateTable", Recording)
    rng = random.Random(16)
    sparse = BinaryMatroid.from_points(rng.sample(range(1, 1 << 16), 40), 16)
    # two disjoint flats: claw-free, so every pair is scanned; the 255*255
    # sums of the 8-dimensional pair are distinct and outside E
    two_flats = BinaryMatroid.from_points(
        list(range(1, 16)) + [v << 4 for v in range(1, 16)], 16
    )
    two_big_flats = BinaryMatroid.from_points(
        list(range(1, 256)) + [v << 8 for v in range(1, 256)], 16
    )
    room = (gf2.TRANSLATE_TABLE_BYTES << 3) >> 16
    cases = ((sparse, (384, 664, 1336)), (two_flats, None), (two_big_flats, None))
    for M, claw in cases:
        made.clear()
        assert find_claw(M) == claw  # recorded before the table existed
        (table,) = made
        stored = [u for u, t in enumerate(table.entries) if t]
        assert len(stored) - 1 <= min(room, M.size + M.size * (M.size - 1) // 2)
        for u in stored:
            assert table.entries[u] == xor_translate(M.mask, u, 16)
    assert table.room == 0  # the big flats fill the table


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
    for r in range(1, min(len(pts), M.n) + 1):  # independent sets have <= n points
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


def _definition_tables(n):
    """omega and sigma of every ground set at dimension n, indexed by
    mask >> 1, from the definitions `_omega_oracle` and `_sigma_oracle`
    check one set at a time: the largest flat inside E, and the largest
    independent J inside E whose closure meets E in J alone."""
    masks = np.arange(1 << ((1 << n) - 1), dtype=np.int64) << 1
    omega = np.zeros(len(masks), dtype=np.int64)
    sigma = np.zeros(len(masks), dtype=np.int64)
    for d in range(1, n + 1):
        for F in flats_of_dim(n, d):
            np.maximum(omega, np.where(masks & F.members == F.members, d, 0), out=omega)
    for r in range(1, n + 1):
        for J in itertools.combinations(range(1, 1 << n), r):
            if not is_independent(list(J)):
                continue
            inside = mask_of(J)
            outside = closure(list(J), n).members & ~inside
            ok = (masks & inside == inside) & (masks & outside == 0)
            np.maximum(sigma, np.where(ok, r, 0), out=sigma)
    return omega, sigma


def test_definition_tables_match_oracles():
    omega, sigma = _definition_tables(3)
    for code in range(1 << 7):
        M = BinaryMatroid(3, code << 1)
        assert (omega[code], sigma[code]) == (_omega_oracle(M), _sigma_oracle(M))


def test_invariants_exhaustive_n4():
    omega, sigma = _definition_tables(4)
    for code in range(1 << 15):
        M = BinaryMatroid(4, code << 1)
        assert clique_number(M) == omega[code], code
        assert induced_independence_number(M) == sigma[code], code


def _seeded_mask(n, density, seed):
    rng = random.Random(seed)
    return sum(1 << v for v in range(1, 1 << n) if rng.random() < density)


@pytest.mark.parametrize("n", [5, 6])
def test_invariants_match_oracles_sampled(n):
    # the sigma oracle enumerates subsets of E, so its sets stay small
    rng = random.Random(f"invariants:{n}")
    for density in (0.1, 0.2, 0.3) if n == 5 else (0.1, 0.15, 0.2):
        for _ in range(4):
            M = BinaryMatroid(n, _seeded_mask(n, density, rng.getrandbits(32)))
            assert clique_number(M) == _omega_oracle(M), hex(M.mask)
            assert induced_independence_number(M) == _sigma_oracle(M), hex(M.mask)
    for density in (0.5, 0.7, 0.9):
        for _ in range(4):
            M = BinaryMatroid(n, _seeded_mask(n, density, rng.getrandbits(32)))
            assert clique_number(M) == _omega_oracle(M), hex(M.mask)


#: (n, density, seed, omega, clique nodes, sigma, induced-independence
#: nodes) for ground sets from `_seeded_mask`; node counts were found by
#: bisecting `budget` before the searches read translates from a table
FROZEN_SEARCH_NODES = [
    (7, 0.5, 1, 3, 379, 4, 3308),
    (7, 0.8, 2, 4, 3316, 3, 1265),
    (7, 0.25, 3, 2, 52, 5, 2168),
    (8, 0.5, 4, 4, 1719, 4, 24784),
    (8, 0.85, 5, 5, 46758, 3, 4114),
    (8, 0.2, 6, 2, 151, 6, 29700),
    (8, 0.65, 7, 4, 9093, 4, 12009),
]


@pytest.mark.parametrize(
    "n,density,seed,omega,omega_nodes,sigma,sigma_nodes", FROZEN_SEARCH_NODES
)
def test_search_nodes_frozen(n, density, seed, omega, omega_nodes, sigma, sigma_nodes):
    M = BinaryMatroid(n, _seeded_mask(n, density, seed))
    for search, value, nodes in (
        (clique_number, omega, omega_nodes),
        (induced_independence_number, sigma, sigma_nodes),
    ):
        with pytest.raises(BudgetExceeded):
            search(M, budget=nodes - 1)
        assert search(M, budget=nodes) == value


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


def _quadric_mask(n, elliptic=False):
    """Points where x1x2 + x3x4 + ... is 1; the elliptic form adds the last
    two coordinates."""
    out = 0
    for v in range(1, 1 << n):
        q = 0
        for i in range(0, n - 1, 2):
            q ^= (v >> i) & (v >> (i + 1)) & 1
        if elliptic:
            q ^= ((v >> (n - 2)) ^ (v >> (n - 1))) & 1
        out |= q << v
    return out


#: a 6-point basis plus the sum of its points
_BASIS6_AND_SUM = BinaryMatroid.from_points([1, 2, 4, 8, 16, 32, 63], 6).mask

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
    # recorded before the search read segment keys from translates of E
    (6, pg_sum(3, 3).mask, 0x4241128806a0c000),
    (6, _quadric_mask(6, elliptic=True), 0x9556566a3ffcfcc0),
    (6, _BASIS6_AND_SUM, 0xe880800080000000),
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
    # recorded before the search read segment keys from translates of E
    (6, 0x100010116, 141645),
    (6, pg_sum(3, 3).mask, 1428),
    (6, _quadric_mask(6, elliptic=True), 103),
    (6, _BASIS6_AND_SUM, 10553),
]


@pytest.mark.parametrize("n,mask,nodes", FROZEN_NODES)
def test_canonical_search_nodes_frozen(n, mask, nodes):
    M = BinaryMatroid(n, mask)
    matroid._canonical_cache.pop((n, mask), None)
    with pytest.raises(BudgetExceeded):
        canonical_form(M, budget=nodes - 1)
    canonical_form(M, budget=nodes)


def _random_prefix(n, k, rng):
    """Local-order point list of a random (k-1)-dimensional subspace and
    its bitset, as the canonical search builds them."""
    pre, span = [0], 1
    while len(pre) < 1 << (k - 1):
        w = rng.randrange(1, 1 << n)
        if (span >> w) & 1:
            continue
        pre += [w ^ u for u in pre]
        for u in pre:
            span |= 1 << u
    return pre, span


def test_least_segment_matches_per_candidate_keys():
    rng = random.Random(5)
    for n in range(3, 7):
        for _ in range(40):
            E = rng.getrandbits((1 << n) - 1) << 1
            trans = translates(E, n)
            k = rng.randint(1, n)
            pre, span = _random_prefix(n, k, rng)
            L = len(pre)
            cands = ground_mask(n) & ~span
            keys = {
                w: sum(((E >> (w ^ pre[j])) & 1) << (L - 1 - j) for j in range(L))
                for w in range(1, 1 << n)
                if (cands >> w) & 1
            }
            least = min(keys.values())
            argmins = sum(1 << w for w, key in keys.items() if key == least)
            assert matroid._least_segment(cands, pre, trans, None) == (least, argmins)
            assert matroid._least_segment(cands, pre, trans, least) == (least, argmins)
            # a bound below the least key leaves no candidate
            if least:
                key, rest = matroid._least_segment(cands, pre, trans, least - 1)
                assert rest == 0 and key > least - 1


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


# ---------------------------------------------------------------------------
# The hyperplane bound of the clique search
# ---------------------------------------------------------------------------


def _hyperplane_scan(M):
    return any(H.members & ~M.mask == 0 for H in flats_of_dim(M.n, M.n - 1))


def _omega_top_down(M):
    """The largest d with a d-flat inside E, scanning dimensions downwards;
    cheap when omega is close to n."""
    for d in range(M.n, 0, -1):
        if any(F.members & ~M.mask == 0 for F in flats_of_dim(M.n, d)):
            return d
    return 0


def _omega_by_levels(M):
    """The largest flat inside E, grown one dimension at a time from every
    flat inside E (each (d+1)-flat inside E holds a d-flat inside E);
    cheap when E holds few flats."""
    E, n = M.mask, M.n
    level, d = {1}, 0
    while True:
        level = {
            W | coset
            for W in level
            for p in iter_bits(E & ~W)
            if (coset := xor_translate(W, p, n)) & ~E == 0
        }
        if not level:
            return d
        d += 1


def _random_images(n, rng):
    while True:
        images = [rng.randrange(1, 1 << n) for _ in range(n)]
        if closure(images, n).dim == n:
            return images


def _random_quadric(n, rng):
    """Nonzero points where a random quadratic form is 1, or where it is 0."""
    terms = [(i, j) for i in range(n) for j in range(i, n) if rng.random() < 0.5]
    value = rng.getrandbits(1)
    mask = 0
    for v in range(1, 1 << n):
        q = 0
        for i, j in terms:
            q ^= (v >> i) & (v >> j) & 1
        mask |= (q == value) << v
    return mask


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hyperplane_bound_exhaustive(n):
    # E holds a hyperplane iff 0 is outside the affine hull of G \ E, and
    # the clique search stops at n - 1 or n - 2 accordingly
    omegas, _ = _definition_tables(n)
    hyperplanes = [H.members for H in flats_of_dim(n, n - 1)]
    for code in range(1 << ((1 << n) - 1)):
        M = BinaryMatroid(n, code << 1)
        omega = omegas[code]
        assert clique_number(M) == omega, hex(M.mask)
        if 0 < M.mask != ground_mask(n):
            holds = any(H & ~M.mask == 0 for H in hyperplanes)
            assert matroid._holds_hyperplane(M.mask, n) == holds, hex(M.mask)
            assert omega == n - 1 if holds else omega <= n - 2
        if n <= 3 or code % 61 == 0:
            # the oracles of the seeded test, against the definition
            assert _omega_top_down(M) == _omega_by_levels(M) == omega, hex(M.mask)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_hyperplane_bound_seeded(n):
    rng = random.Random(f"hyperplane-bound:{n}")
    dense = []
    for _ in range(4):
        # a hyperplane moved by a random map, plus random points off it
        H = closure(_random_images(n, rng)[: n - 1], n).members
        dense.append(H | (rng.getrandbits(1 << n) & ground_mask(n)))
    for k in (1, 2, 3, n):
        # near-full: a few points taken out, with a line among them or not;
        # 0 is in the affine hull of a line, so no hyperplane survives it
        a, b = rng.sample(range(1, 1 << n), 2)
        line = mask_of([a, b, a ^ b])
        gone = mask_of(rng.sample(range(1, 1 << n), k))
        dense += [ground_mask(n) & ~gone, ground_mask(n) & ~(gone | line)]
    tops = set()
    for mask in dense:
        M = BinaryMatroid(n, mask)
        assert clique_number(M) == _omega_top_down(M), hex(mask)
        holds = matroid._holds_hyperplane(mask, n)
        assert holds == _hyperplane_scan(M), hex(mask)
        tops.add(holds)
    assert tops == {False, True}
    sparse = [_quadric_mask(n), ground_mask(n) & ~_quadric_mask(n, elliptic=True)]
    sparse += [_random_quadric(n, rng) for _ in range(2 if n == 8 else 6)]
    for mask in sparse:
        M = apply_linear_map(BinaryMatroid(n, mask), _random_images(n, rng))
        assert clique_number(M) == _omega_by_levels(M), hex(M.mask)
        assert matroid._holds_hyperplane(M.mask, n) == _hyperplane_scan(M), hex(M.mask)


#: (ground set, omega, clique nodes) of the three co-triangle-free n = 8
#: inputs of the benchmark's analyze pool; without the hyperplane bound
#: the search takes 21 550, 20 575 and 45 953 nodes
FROZEN_BOUNDED_NODES = [
    (0xFBBFEF77DBBFAF7EFDFDF7EFAFDAF6EFFEEFFDF8FEE7FFFE6FFEBABF7FFEDBFE, 6, 3368),
    (0xA67FFDBEFBD75FE9FEFF5FFFBFDFFFFF77A8FE65DDFFEBDFFFFAFBD6FFFFFEFE, 6, 1273),
    (0x5BF9EDFFFAFFF7FEDFBFF7DD7BFFFF6EFFEE7FF7FFFFBBF7EFFFFFEFFFDAFFBC, 6, 5838),
]


@pytest.mark.parametrize(
    "mask,omega,nodes", FROZEN_BOUNDED_NODES, ids=["ctf8-0", "ctf8-1", "ctf8-2"]
)
def test_bounded_search_nodes_frozen(mask, omega, nodes):
    M = BinaryMatroid(8, mask)
    assert not matroid._holds_hyperplane(mask, 8)  # so the search stops at 6
    with pytest.raises(BudgetExceeded):
        clique_number(M, budget=nodes - 1)
    assert clique_number(M, budget=nodes) == omega


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
