"""Class predicates: triangle-free, even-plane, PG-sums, targets."""

import dataclasses
import random

import pytest

from binmatroid import (
    BinaryMatroid,
    bose_burton,
    c4,
    chi_bound,
    classify,
    clique_number,
    empty_matroid,
    full_matroid,
    independent_matroid,
    is_bose_burton,
    is_even_plane,
    is_pg_sum,
    is_pg_sum_direct,
    is_pg_sum_forbidden,
    is_strict_pg_sum,
    is_target,
    is_triangle_free,
    k4,
    p5,
    pg_sum,
    target,
)
from binmatroid import census, recognize
from binmatroid.census import even_plane_masks, random_even_plane_mask, sample_claw_free_mask
from binmatroid.gf2 import (
    closure_mask,
    flats_of_dim,
    full_flat,
    ground_mask,
    is_flat,
    iter_bits,
    xor_translate,
)
from binmatroid.matroid import find_anticlaw, find_claw, rank_mask
from binmatroid.recognize import pg_sum_witness_mask, strict_pg_sum_mask
from linear_images import mapped, random_images


def test_triangle_free_examples():
    assert is_triangle_free(independent_matroid(3))
    assert not is_triangle_free(BinaryMatroid.from_points([1, 2, 3], 2))
    assert is_triangle_free(c4())


def _triangle_free_oracle(mask):
    """No pair of points whose sum is a point: a scan of every pair."""
    points = list(iter_bits(mask))
    return not any((mask >> (p ^ q)) & 1 for i, p in enumerate(points) for q in points[:i])


def test_triangle_free_matches_pair_scan_exhaustive():
    for n in range(5):
        for code in range(1 << ((1 << n) - 1)):
            mask = code << 1
            assert recognize.triangle_free_mask(mask, n) == _triangle_free_oracle(mask), (n, mask)


@pytest.mark.parametrize("n", range(5, 10))
def test_triangle_free_matches_pair_scan_seeded(n):
    # uniform sets, the greedy triangle-free sets (which must be
    # triangle-free) and each of those with one point flipped
    rng = random.Random(f"triangle-free:{n}")
    seen = {True: 0, False: 0}
    for _ in range(40):
        greedy = census._greedy_triangle_free(n, rng)
        assert _triangle_free_oracle(greedy), (n, hex(greedy))
        for mask in (greedy, census.sample_uniform_mask(n, rng)):
            for m in (mask, mask ^ (1 << rng.randrange(1, 1 << n))):
                want = _triangle_free_oracle(m)
                assert recognize.triangle_free_mask(m, n) == want, (n, hex(m))
                seen[want] += 1
    assert min(seen.values()) >= 40, seen


def test_even_plane_examples():
    assert is_even_plane(c4())
    assert not is_even_plane(p5())
    assert is_even_plane(bose_burton(4, 1))
    assert is_even_plane(BinaryMatroid.from_points([1, 3], 2))  # vacuous below dim 3


def test_even_plane_generator_path():
    # beyond the plane tables: any plane containing exactly one of the
    # two points has odd intersection
    M = BinaryMatroid.from_points([1, 2], 7)
    assert not is_even_plane(M)
    assert is_even_plane(empty_matroid(7))


def test_pg_sum_examples():
    w = is_pg_sum_direct(pg_sum(1, 2))
    assert w is not None
    f1, f2 = w
    assert f1.points() == [1] and f2.points() == [2, 4, 6]
    assert is_pg_sum_direct(c4()) is None
    e1, e2 = is_pg_sum_direct(empty_matroid(4))
    assert e1.dim == 0 and e2.dim == 0
    assert is_pg_sum_forbidden(pg_sum(2, 2))
    assert not is_pg_sum_forbidden(k4())
    assert is_pg_sum(full_matroid(3))


def test_pg_sum_routes_agree_small():
    for n in (2, 3):
        for code in range(1 << ((1 << n) - 1)):
            M = BinaryMatroid(n, code << 1)
            assert (is_pg_sum_direct(M) is not None) == is_pg_sum_forbidden(M), M.points()


def test_pg_sum_witness_covers_ground_set():
    for code in range(1 << 7):
        M = BinaryMatroid(3, code << 1)
        w = is_pg_sum_direct(M)
        if w is not None:
            f1, f2 = w
            assert f1.members & f2.members == 0
            assert f1.members | f2.members == M.mask


def test_strict_pg_sum_examples():
    assert is_strict_pg_sum(pg_sum(1, 2))
    assert not is_strict_pg_sum(pg_sum(0, 3))
    assert not is_strict_pg_sum(BinaryMatroid.from_points([1, 2, 3], 3))


def _strict_by_rank(mask, n):
    """The definition: a PG-sum witness with both parts nonempty, and E
    of rank n."""
    witness = pg_sum_witness_mask(mask, n)
    return witness is not None and all(witness) and rank_mask(mask, n) == n


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_strict_pg_sum_matches_rank_definition_exhaustive(n):
    for code in range(1 << ((1 << n) - 1)):
        assert strict_pg_sum_mask(code << 1, n) == _strict_by_rank(code << 1, n), code


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_strict_pg_sum_matches_rank_definition_seeded(n):
    # strict and other PG-sums moved by linear maps, the same with one
    # point flipped, and uniform sets
    rng = random.Random(f"strict-pg-sum:{n}")
    masks = [_flat_union(n, rng, strict=i % 2 == 0) for i in range(40)]
    masks += [m ^ (1 << rng.randrange(1, 1 << n)) for m in masks]
    masks += [rng.getrandbits(1 << n) & ground_mask(n) for _ in range(20)]
    strict = 0
    for mask in masks:
        want = _strict_by_rank(mask, n)
        assert strict_pg_sum_mask(mask, n) == want, hex(mask)
        strict += want
    assert 20 <= strict < len(masks)


def test_bose_burton_examples():
    assert is_bose_burton(bose_burton(3, 1)) == 1
    assert is_bose_burton(full_matroid(4)) == 4
    assert is_bose_burton(c4()) == 1  # the complement is a triangle
    assert is_bose_burton(p5()) is None


def test_target_examples():
    chain = is_target(BinaryMatroid.from_points([1, 2, 3], 3))
    assert chain is not None
    assert [f.points() for f in chain] == [[], [1, 2, 3]]
    assert is_target(independent_matroid(3)) is None
    chain = is_target(c4())
    assert chain is not None
    assert [f.points() for f in chain] == [[3, 5, 6], [1, 2, 3, 4, 5, 6, 7]]


def _chain_ground_set(chain_masks):
    E = 0
    for i in range(0, len(chain_masks) - 1, 2):
        E |= chain_masks[i + 1] & ~chain_masks[i]
    return E


def _all_target_masks(n):
    """Oracle: ground sets realised by some nested chain of flats."""
    all_flats = [F.members for d in range(n + 1) for F in flats_of_dim(n, d)]
    reachable = set()

    def extend(chain):
        reachable.add(_chain_ground_set(chain))
        for fm in all_flats:
            if fm & ~chain[-1] and chain[-1] & ~fm == 0:
                extend(chain + [fm])

    for fm in all_flats:
        extend([fm])
    return reachable


def test_target_recognizer_matches_chain_oracle():
    for n in (2, 3):
        oracle = _all_target_masks(n)
        for code in range(1 << ((1 << n) - 1)):
            M = BinaryMatroid(n, code << 1)
            got = is_target(M)
            assert (got is not None) == (M.mask in oracle), M.points()
            if got is not None:
                masks = [f.members for f in got]
                assert _chain_ground_set(masks) == M.mask
                for a, b in zip(masks, masks[1:]):
                    assert a & ~b == 0  # nested


def _descent_oracle(E, n, members):
    """The recursive target descent, trying both closures at each flat:
    (flat, label) pairs down to the empty flat, or None."""
    if members == 0:
        return []
    for sub, label in ((members & ~E, "in"), (members & E, "out")):
        next_members = closure_mask(sub, n).members
        if next_members != members:
            tail = _descent_oracle(E, n, next_members)
            if tail is not None:
                return [(next_members, label)] + tail
    return None


def _target_chain_oracle(M):
    """Masks of the target chain assembled from the recursive descent,
    repairing the layers' parity as it goes, or None."""
    descent = _descent_oracle(M.mask, M.n, ground_mask(M.n))
    if descent is None:
        return None
    masks = [m for m, _ in reversed(descent)] + [ground_mask(M.n)]
    labels = [lab for _, lab in reversed(descent)]
    chain = [masks[0]]
    for i, lab in enumerate(labels):
        if ((len(chain) - 1) % 2 == 0) != (lab == "in"):
            if len(chain) == 1:
                chain = [masks[i + 1]]  # an out-of-E bottom layer joins the base
                continue
            chain.append(chain[-1])
        chain.append(masks[i + 1])
    while len(chain) >= 2 and (len(chain) - 2) % 2 == 1:
        chain.pop()  # a trailing out-of-E layer carries no content
    return chain


def _target_by_closures(M):
    """The target walk with a `Flat` built at every step, each by
    `closure_mask`: the oracle for the walk on span bitsets, which builds
    `Flat`s only for the chain it returns."""
    E, n = M.mask, M.n
    chain = [full_flat(n)]
    inside = []
    while B := chain[-1].members:
        F = closure_mask(B & ~E, n)
        inside.append(F.members != B)
        if not inside[-1]:
            F = closure_mask(B & E, n)
            if F.members == B:
                return None
        chain.append(F)
    chain.reverse()
    if inside and not inside[-1]:
        chain.pop(0)
    if len(chain) > 1 and not inside[0]:
        chain.pop()
    return chain


def _assert_target_matches_descent(M):
    got = is_target(M)
    assert got == _target_by_closures(M), hex(M.mask)
    assert all(F == closure_mask(F.members, M.n) for F in got or ()), hex(M.mask)
    want = _target_chain_oracle(M)
    assert (None if got is None else [f.members for f in got]) == want, hex(M.mask)
    if want is not None:
        assert _chain_ground_set(want) == M.mask, hex(M.mask)
    return want is not None


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_target_walk_matches_descent_exhaustive(n):
    hits = sum(
        _assert_target_matches_descent(BinaryMatroid(n, code << 1))
        for code in range(1 << ((1 << n) - 1))
    )
    assert hits > 0


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_target_walk_matches_descent_seeded(n):
    # targets moved by linear maps, the same with one point flipped,
    # claw-free samples and uniform sets
    rng = random.Random(f"target-walk:{n}")
    masks = []
    for _ in range(20):
        dims = sorted(rng.randint(0, n) for _ in range(rng.randint(1, n + 1)))
        masks.append(mapped(target(n, dims), random_images(n, rng)).mask)
    masks += [m ^ (1 << rng.randrange(1, 1 << n)) for m in masks]
    masks += [sample_claw_free_mask(n, rng) for _ in range(10)]
    masks += [rng.getrandbits(1 << n) & ground_mask(n) for _ in range(10)]
    hits = sum(_assert_target_matches_descent(BinaryMatroid(n, m)) for m in masks)
    assert 20 <= hits < len(masks)


def test_chi_bound_values():
    assert chi_bound(1, 3) == 19
    assert chi_bound(0, 3) == 4
    assert chi_bound(2, 3) == 46
    with pytest.raises(ValueError):
        chi_bound(-1, 3)


def test_classify_flag_implications():
    for code in range(0, 1 << 7):
        flags = classify(BinaryMatroid(3, code << 1))
        if flags.pg_sum:
            assert flags.claw_free
        assert flags.target == (flags.claw_free and flags.anticlaw_free)
        if flags.strict_pg_sum:
            assert flags.pg_sum


def test_even_plane_implies_small_clique_number():
    for n in (3, 4):
        for mask in even_plane_masks(n):
            assert clique_number(BinaryMatroid(n, mask)) <= 2


# ---------------------------------------------------------------------------
# The PG-sum witness and the claw scan skipped on basic classes
# ---------------------------------------------------------------------------


def _per_point_witness(mask, n):
    """The PG-sum witness grown by one translate per point of E, in
    ascending order: the oracle for the validity-bitset growth."""
    if mask == 0:
        return (0, 0)
    not_allowed = ~(mask | 1)
    span = 1 | (mask & -mask)
    for p in iter_bits(mask & ~span):
        if (span >> p) & 1:
            continue
        coset = xor_translate(span, p, n)
        if coset & not_allowed:
            continue
        span |= coset
    rest = mask & ~span
    return (span & ~1, rest) if is_flat(rest, n) else None


def _flat_union(n, rng, strict):
    """Two disjoint flats, moved by a random linear map; when strict, both
    are nonempty and together span G."""
    d1 = rng.randint(1, n - 1) if strict else rng.randint(0, n)
    d2 = n - d1 if strict else rng.randint(0, n - d1)
    M = BinaryMatroid(n, pg_sum(d1, d2).mask) if d1 + d2 else BinaryMatroid(n, 0)
    return mapped(M, random_images(n, rng)).mask


def _basic_and_claw_free_sets(n, count, seed):
    """Seeded even-plane, complement triangle-free, PG-sum and sampled
    claw-free ground sets at dimension n."""
    rng = random.Random(f"basic:{n}:{seed}")
    sets = []
    for _ in range(count):
        sets.append(random_even_plane_mask(n, rng))
        sets.append(ground_mask(n) & ~census._greedy_triangle_free(n, rng))
        sets.append(_flat_union(n, rng, strict=rng.random() < 0.5))
        sets.append(sample_claw_free_mask(n, rng))
    return [BinaryMatroid(n, mask) for mask in sets]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pg_sum_witness_matches_per_point_growth_exhaustive(n):
    for code in range(1 << ((1 << n) - 1)):
        mask = code << 1
        assert pg_sum_witness_mask(mask, n) == _per_point_witness(mask, n), hex(mask)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 12])
def test_pg_sum_witness_matches_per_point_growth_seeded(n):
    rng = random.Random(f"pg-sum-witness:{n}")
    count = 12 if n == 12 else 200
    masks = [rng.getrandbits(1 << n) & ground_mask(n) for _ in range(count)]
    masks += [_flat_union(n, rng, strict=rng.random() < 0.5) for _ in range(count)]
    masks += [m ^ (1 << rng.randrange(1, 1 << n)) for m in masks[count:]]
    hits = 0
    for mask in masks:
        want = _per_point_witness(mask, n)
        assert pg_sum_witness_mask(mask, n) == want, hex(mask)
        hits += want is not None
    assert hits >= count


@pytest.fixture
def claw_scans(monkeypatch):
    """The sets `classify` runs the claw scan on."""
    scans = []
    real = recognize.is_claw_free
    monkeypatch.setattr(recognize, "is_claw_free", lambda M: scans.append(M) or real(M))
    return scans


def _assert_classify_matches(M, scans):
    """`classify` against its own record with both claw flags taken from
    `find_claw`; the claw scan runs exactly on the sets in no basic class."""
    scans.clear()
    got = classify(M)
    want = dataclasses.replace(
        got, claw_free=find_claw(M) is None, anticlaw_free=find_anticlaw(M) is None
    )
    assert got == want, hex(M.mask)
    basic = got.even_plane or got.complement_triangle_free or got.pg_sum
    assert bool(scans) != basic, hex(M.mask)
    return basic


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_skips_claw_scan_exhaustive(n, claw_scans):
    basic = 0
    for code in range(1 << ((1 << n) - 1)):
        basic += _assert_classify_matches(BinaryMatroid(n, code << 1), claw_scans)
    assert basic > 0


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_classify_skips_claw_scan_seeded(n, claw_scans):
    count = {5: 12, 6: 8, 7: 4, 8: 3}[n]
    inputs = _basic_and_claw_free_sets(n, count, 0)
    rng = random.Random(f"classify-uniform:{n}")
    inputs += [BinaryMatroid(n, rng.getrandbits(1 << n) & ground_mask(n)) for _ in range(count)]
    basic = sum(_assert_classify_matches(M, claw_scans) for M in inputs)
    assert 0 < basic < len(inputs)
