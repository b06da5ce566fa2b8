"""Orbit machinery, family enumeration, samplers, census records."""

import hashlib
import json
import random

import plane_oracles
import pytest

from binmatroid import BinaryMatroid, canonical_form, find_claw
from binmatroid import gf2, tables
from binmatroid.census import (
    _doubled,
    _free_points,
    _greedy_claw_free,
    _greedy_triangle_free,
    canon_table,
    even_plane_basis,
    even_plane_classes,
    even_plane_masks,
    exhaustive_census,
    gl_generators,
    orbit_of,
    random_even_plane_mask,
    sample_claw_free_mask,
    sample_uniform_mask,
    sampled_census,
    transform_mask,
)
from binmatroid.gf2 import TranslateTable, flats_of_dim, ground_mask, xor_translate
from binmatroid.matroid import _claw_pair
from binmatroid.recognize import is_even_plane
from binmatroid.tables import claw_free_masks_list


def test_generators_walk_full_orbits():
    # classes found by generator walks match the canonical-form classes
    for n in (2, 3):
        reps = set(canon_table(n).values())
        forms = {
            canonical_form(BinaryMatroid(n, code << 1)).mask
            for code in range(1 << ((1 << n) - 1))
        }
        assert reps == forms


def test_orbit_of_matches_linear_images():
    orbit = orbit_of(0b10110, 3)  # {1, 2, 4} the claw
    assert len(orbit) == 28  # independent triples in PG(2,2)
    orbit = orbit_of(0b1110, 3)  # a triangle
    assert len(orbit) == 7


def test_transform_preserves_size():
    rng = random.Random(2)
    gens = gl_generators(4)
    for _ in range(50):
        mask = rng.getrandbits(15) << 1
        for t in gens:
            assert transform_mask(mask, t).bit_count() == mask.bit_count()


def test_even_plane_family_sizes():
    assert [len(even_plane_basis(n)) for n in range(6)] == [0, 1, 3, 6, 10, 15]
    assert len(even_plane_masks(3)) == 64
    assert len(even_plane_masks(4)) == 1024
    for mask in even_plane_masks(4):
        assert is_even_plane(BinaryMatroid(4, mask))


def test_even_plane_class_counts():
    assert [len(even_plane_classes(n)) for n in (3, 4, 5)] == [5, 7, 8]


def _plane_row_nullspace(n):
    """Basis of the bitsets orthogonal to every plane mask, by eliminating
    the plane rows on their lowest bits: one vector per free column."""
    if n < 3:
        return tuple(1 << v for v in range(1, 1 << n))
    pivots = {}
    for r in (F.members for F in flats_of_dim(n, 3)):
        while r:
            c = (r & -r).bit_length() - 1
            if c in pivots:
                r ^= pivots[c]
            else:
                pivots[c] = r
                break
    for c in sorted(pivots, reverse=True):
        for d in pivots:
            if d != c and (pivots[d] >> c) & 1:
                pivots[d] ^= pivots[c]
    basis = []
    for f in range(1, 1 << n):
        if f not in pivots:
            v = 1 << f
            for c, row in pivots.items():
                if (row >> f) & 1:
                    v |= 1 << c
            basis.append(v)
    return tuple(basis)


@pytest.mark.parametrize("n", range(8))
def test_even_plane_basis_is_the_plane_row_nullspace(n):
    assert even_plane_basis(n) == _plane_row_nullspace(n)


def test_even_plane_basis_frozen_at_n8():
    digest = hashlib.sha256(repr(even_plane_basis(8)).encode()).hexdigest()
    assert digest == "4adc44f8e6618157c70cfe40da5b7c9c05742182ed2438b17f303412f8f5621e"


#: first draws of the two samplers under rng seed "freeze:<n>"
FROZEN_EVEN_PLANE = {
    5: [0x44BB7788, 0xA59699AA, 0x2E47D1B8, 0x8B2E8B2E],
    6: [0x41D7BE28D74128BE, 0xCF6AA60303A69530, 0x1DEDE21284748474, 0x217421742E7BD184],
    7: [
        0xE28BD147B82E741DB7DE7BED12842148,
        0x782D4411DD77E14BEE44D2784B1E7722,
        0x8DD7D772288D7228287272D772D72872,
        0x3FA99AF330599503CF5995FCC0A99A0C,
    ],
}
FROZEN_CLAW_FREE = {
    5: [0x10044000, 0xCC000072, 0x4000008, 0xFFFFFFC, 0x3FCF0FCC, 0x800100],
    6: [
        0xA0000000024,
        0xF0FFFFFFF0FFFFFE,
        0xCACAA35C5C5C35CA,
        0xBB781E2244871E22,
        0x2020801000400,
        0x28001400800040,
    ],
    # re-recorded when n >= 7 joined the n = 5, 6 mixture; the separate
    # n >= 7 mixture drew 0xFFFF00000000FF0000FF0000000028, 0xFFFF7788,
    # 0xFFFFFFFFFFFFFFFF0004000004000000, 0xEFF9DE93FB6FB7EE97F67BEEFE9FEDFA,
    # 0x100000C030000000100000C02 and 0xFFFFFFFF000000000000000030CF3030
    7: [
        0x1020000000000000000008000200,
        0x3F00003F3F00003F3F00003F3F00003E,
        0xC35ACC5566FF960FFF99F0965A3CAACC,
        0x13000001002,
        0x200000000000000001000,
        0x1000020400004000000000000000,
    ],
}


@pytest.mark.parametrize("n", [5, 6, 7])
def test_sampler_streams_frozen(n):
    rng = random.Random(f"freeze:{n}")
    assert [random_even_plane_mask(n, rng) for _ in range(4)] == FROZEN_EVEN_PLANE[n]
    rng = random.Random(f"freeze:{n}")
    assert [sample_claw_free_mask(n, rng) for _ in range(6)] == FROZEN_CLAW_FREE[n]


def test_doubled_sets_keep_claw_freeness():
    # the sampler's doubling layer returns without a claw test; E is the
    # doubled set's trace on the hyperplane below the top coordinate, so
    # a claw of E stays a claw
    rng = random.Random("doubling")
    bases = [(n, mask) for n in range(1, 5) for mask in claw_free_masks_list(n)]
    bases += [(5, sample_claw_free_mask(5, rng)) for _ in range(60)]
    for n, mask in bases:
        assert tables.claw_free_mask(_doubled(mask, n), n + 1), (n, hex(mask))
    # one-point flips of the n = 5 samples, with and without a claw
    flips = [mask ^ 1 << rng.randrange(1, 32) for n, mask in bases if n == 5]
    verdicts = [tables.claw_free_mask(mask, 5) for mask in flips]
    assert any(verdicts) and not all(verdicts)
    for mask, want in zip(flips, verdicts):
        assert tables.claw_free_mask(_doubled(mask, 5), 6) == want, hex(mask)


def test_random_even_plane_member():
    rng = random.Random(3)
    for _ in range(50):
        mask = random_even_plane_mask(5, rng)
        assert is_even_plane(BinaryMatroid(5, mask))


def test_claw_free_sampler_is_claw_free():
    rng = random.Random(4)
    for n, count in ((5, 150), (6, 150), (7, 60), (8, 30)):
        for _ in range(count):
            assert find_claw(BinaryMatroid(n, sample_claw_free_mask(n, rng))) is None


def _claw_through(mask, p, n):
    """Whether E ∪ {p} has a claw through p: `matroid._claw_pair` on
    E \\ (E + p) over a fresh translate table of E."""
    table = TranslateTable(mask, n)
    return _claw_pair(mask & ~table.get(p), p, table) is not None


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_claw_through_matches_planes_through_point(n):
    # E uniform, sampled claw-free, or claw-free with one point flipped;
    # p is drawn outside E and, as `find_claw` passes it, inside E
    per_point = tables.planes_through_point(n)
    rng = random.Random(f"through:{n}")
    seen = {(inside, want): 0 for inside in (False, True) for want in (False, True)}
    for i in range(600):
        if i % 3 == 0:
            mask = sample_uniform_mask(n, rng)
        else:
            mask = sample_claw_free_mask(n, rng)
            if i % 3 == 2:
                mask ^= 1 << rng.randrange(1, 1 << n)
        for inside in (False, True):
            side = [p for p in range(1, 1 << n) if (mask >> p) & 1 == inside]
            if not side:
                continue
            p = rng.choice(side)
            want = not plane_oracles.claw_free_on(per_point[p], mask | (1 << p))
            assert _claw_through(mask, p, n) == want, (n, mask, p)
            seen[inside, want] += 1
    assert min(seen.values()) >= 60, seen


@pytest.mark.parametrize("n,count", [(3, 300), (4, 300), (5, 300), (6, 200), (7, 60), (8, 40)])
def test_claw_through_matches_find_claw(n, count):
    # E is claw-free, so E + p has a claw exactly when one runs through p
    rng = random.Random(f"through-claw:{n}")
    seen = {True: 0, False: 0}
    for _ in range(count):
        mask = sample_claw_free_mask(n, rng)
        outside = [p for p in range(1, 1 << n) if not (mask >> p) & 1]
        for p in rng.sample(outside, min(4, len(outside))):
            want = find_claw(BinaryMatroid(n, mask | (1 << p))) is not None
            assert _claw_through(mask, p, n) == want, (n, mask, p)
            seen[want] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("n,count", [(3, 300), (4, 300), (5, 200), (6, 150), (7, 40), (8, 20)])
@pytest.mark.parametrize("fill,table_bytes", [(True, None), (False, None), (False, 64)])
def test_free_points_match_claw_through(n, count, fill, table_bytes, monkeypatch):
    # for E claw-free, q is free iff E ∪ {q} has no claw, and every such
    # claw runs through q; the table is filled, stores what is read, or
    # stores only some of it, as at n >= 14
    if table_bytes is not None:
        monkeypatch.setattr(gf2, "TRANSLATE_TABLE_BYTES", table_bytes)
    rng = random.Random(f"free:{n}")
    seen = {True: 0, False: 0}
    for i in range(count):
        mask = sample_claw_free_mask(n, rng) if i % 4 else _greedy_claw_free(n, rng)
        table = TranslateTable(mask, n)
        if fill:
            assert table.fill()
        free = _free_points(table)
        for p in range(1, 1 << n):
            if not (mask >> p) & 1:
                want = not _claw_through(mask, p, n)
                assert (free >> p) & 1 == want, (n, mask, p)
                seen[want] += 1
        assert free & (mask | 1) == 0, (n, mask)
    assert min(seen.values()) >= 20, seen


def _claw_through_translating(mask, p, n):
    """`_claw_through` as a walk with no table: one translate of
    B = G \\ (E ∪ (E + p)) per point of A = E \\ (E + p)."""
    T = xor_translate(mask, p, n)
    rest = mask & ~T
    B = ground_mask(n) & ~(mask | T)
    while rest & (rest - 1):
        low = rest & -rest
        rest ^= low
        if xor_translate(B, low.bit_length() - 1, n) & rest:
            return True
    return False


def _greedy_claw_free_translating(n, rng):
    """`_greedy_claw_free` over `_claw_through_translating`, with no table
    of translates."""
    order = list(range(1, 1 << n))
    rng.shuffle(order)
    keep = rng.uniform(0.25, 1.0)
    E = 0
    for p in order:
        if rng.random() > keep:
            continue
        if not _claw_through_translating(E, p, n):
            E |= 1 << p
    return E


@pytest.mark.parametrize(
    "table_bytes,n",
    [(b, n) for b in (None, 64) for n in range(3, 11)] + [(None, 14)],
)
def test_greedy_claw_free_matches_translating_greedy(table_bytes, n, monkeypatch):
    # the free points read off a fresh table of E after each addition
    # answer each draw as the translating walk does, so the RNG stream is
    # the same; a 64-byte table stores only some translates, as the real
    # byte cap does at n = 14 (4 096 of 16 384)
    if table_bytes is not None:
        monkeypatch.setattr(gf2, "TRANSLATE_TABLE_BYTES", table_bytes)
    sizes = set()
    for seed in range(300 if n <= 8 else 40 if n <= 10 else 4):
        r1, r2 = random.Random(f"greedy:{n}:{seed}"), random.Random(f"greedy:{n}:{seed}")
        mask = _greedy_claw_free(n, r1)
        assert mask == _greedy_claw_free_translating(n, r2), (n, seed)
        assert r1.getstate() == r2.getstate(), (n, seed)
        sizes.add(mask.bit_count())
    assert len(sizes) > 3


def _greedy_triangle_free_translating(n, rng):
    """`_greedy_triangle_free` with one translate of T per point tested."""
    order = list(range(1, 1 << n))
    rng.shuffle(order)
    keep = rng.uniform(0.3, 1.0)
    T = 0
    for p in order:
        if rng.random() > keep:
            continue
        if T & xor_translate(T, p, n) == 0:
            T |= 1 << p
    return T


@pytest.mark.parametrize("n", range(1, 9))
def test_greedy_triangle_free_matches_translating_greedy(n):
    # p closes a triangle of T iff it is a sum of two points of T, so the
    # kept sums decide each point as T & (T + p) does, on the same draws
    sizes = set()
    for seed in range(200):
        r1, r2 = random.Random(f"tf:{n}:{seed}"), random.Random(f"tf:{n}:{seed}")
        mask = _greedy_triangle_free(n, r1)
        assert mask == _greedy_triangle_free_translating(n, r2), (n, seed)
        assert r1.getstate() == r2.getstate(), (n, seed)
        sizes.add(mask.bit_count())
    assert len(sizes) > 1


def test_claw_free_lists():
    assert len(claw_free_masks_list(3)) == 100
    assert len(claw_free_masks_list(4)) == 5320


def test_exhaustive_census_small():
    rec = exhaustive_census(2)
    assert rec["count_total"] == 4  # orbit classes of subsets of a triangle
    assert rec["count_claw_free"] == 4
    rec3 = exhaustive_census(3, filter_claw_free=True)
    assert rec3["count_total"] < exhaustive_census(3)["count_total"]
    assert rec3["min_density_fullrank"] == 4
    witness_masks = {sum(1 << p for p in w) for w in rec3["minimizer_witnesses"]}
    assert len(witness_masks) == 2  # the zero-sum quadruple and point-plus-triangle


def test_census_determinism():
    a = sampled_census(5, 120, seed=9, filter_claw_free=True)
    b = sampled_census(5, 120, seed=9, filter_claw_free=True)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = sampled_census(5, 120, seed=10, filter_claw_free=True)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_census_min_density_invariant():
    rec = sampled_census(5, 200, seed=1, filter_claw_free=True)
    if rec["min_density_fullrank"] is not None:
        assert rec["min_density_fullrank"] >= (1 << 2) + (1 << 3) - 2
