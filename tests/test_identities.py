"""The identities behind the fast predicates, each against a slow plane or
anchor scan: even-plane is degree <= 2, anticlaw-free is claw-free
complement, the lowest PG-sum anchor decides, and the flatness gate; the
counting order of a plane's points; the 4-flat claw screen; and the
bit-sliced plane evaluator against the numpy kernels of `plane_oracles`,
the pair scan `find_claw`, the per-hit loop and the per-plane PG-sum
loop."""

import functools
import operator
import random

import numpy as np
import plane_oracles
import pytest

from binmatroid import BinaryMatroid, find_anticlaw, find_claw, is_anticlaw_free, is_even_plane
from binmatroid.census import random_even_plane_mask, sample_claw_free_mask, sample_uniform_mask
from binmatroid.construct import independent_matroid, lift_join, pg_sum
from binmatroid.gf2 import (
    closure,
    closure_mask,
    flats_of_dim,
    ground_mask,
    is_flat,
    is_independent,
    iter_bits,
    mask_of,
    xor_translate,
)
from binmatroid.recognize import pg_sum_forbidden_mask, pg_sum_witness_mask
from binmatroid import tables


@functools.lru_cache(maxsize=None)
def _planes(n):
    return tuple(F.members for F in flats_of_dim(n, 3))


def _even_plane_oracle(mask, planes):
    return all((mask & pm).bit_count() % 2 == 0 for pm in planes)


def _anticlaw_free_oracle(mask, planes):
    """No plane meets E in four points whose three absentees are independent."""
    for pm in planes:
        if (mask & pm).bit_count() == 4 and is_independent(iter_bits(pm & ~mask)):
            return False
    return True


def _all_anchor_witness(mask, n):
    """Reference PG-sum witness that tries every anchor, not just the lowest."""
    if mask == 0:
        return (0, 0)
    not_allowed = ~(mask | 1)
    for e in iter_bits(mask):
        span = 1 | (1 << e)
        for p in iter_bits(mask & ~span):
            if (span >> p) & 1:
                continue
            coset = xor_translate(span, p, n)
            if coset & not_allowed:
                continue
            span |= coset
        rest = mask & ~span
        if closure_mask(rest, n).members == rest:
            return (span & ~1, rest)
    return None


def _coordinate_tables(n):
    """Truth table of each coordinate function x_i as a bitset."""
    return [sum(1 << v for v in range(1 << n) if (v >> i) & 1) for i in range(n)]


def _random_quadratic_mask(n, rng):
    """Truth table of a random quadratic form with f(0) = 0."""
    x = _coordinate_tables(n)
    mask = 0
    for i in range(n):
        if rng.getrandbits(1):
            mask ^= x[i]
        for j in range(i):
            if rng.getrandbits(1):
                mask ^= x[i] & x[j]
    return mask


def _random_flat(n, rng):
    points = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, n))]
    return closure(points, n).members


def _flip(mask, n, rng):
    return mask ^ (1 << rng.randrange(1, 1 << n))


# -- even-plane: degree <= 2 -------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_even_plane_degree_test_exhaustive(n):
    planes = _planes(n) if n >= 3 else []
    for code in range(tables.ground_codes(n)):
        mask = code << 1
        want = _even_plane_oracle(mask, planes)
        assert tables.even_plane_mask(mask, n) == want, (n, mask)


@pytest.mark.parametrize("n", [5, 6])
def test_even_plane_degree_test_sampled(n):
    planes = plane_oracles.plane_array(n)
    rng = random.Random(f"even:{n}")
    seen = {True: 0, False: 0}
    for i in range(2000):
        if i % 4 == 0:
            mask = sample_uniform_mask(n, rng)
        else:
            mask = random_even_plane_mask(n, rng)
            if i % 4 == 3:
                mask = _flip(mask, n, rng)
        want = not np.any(np.bitwise_count(planes & np.uint64(mask)) & np.uint64(1))
        got = tables.even_plane_mask(mask, n)
        assert got == want, (n, mask)
        seen[got] += 1
    assert min(seen.values()) > 100


@pytest.mark.parametrize("n", [7, 8])
def test_even_plane_quadratic_forms(n):
    planes = _planes(n)
    rng = random.Random(f"quad:{n}")
    for _ in range(3):
        mask = _random_quadratic_mask(n, rng)
        flipped = _flip(mask, n, rng)
        assert is_even_plane(BinaryMatroid(n, mask))
        assert _even_plane_oracle(mask, planes)
        assert not is_even_plane(BinaryMatroid(n, flipped))
        assert not _even_plane_oracle(flipped, planes)


def test_even_plane_at_the_dimension_cap():
    rng = random.Random(16)
    mask = _random_quadratic_mask(16, rng)
    assert tables.even_plane_mask(mask, 16)
    assert not tables.even_plane_mask(_flip(mask, 16, rng), 16)
    x = _coordinate_tables(16)
    assert not tables.even_plane_mask(x[0] & x[5] & x[15], 16)
    assert tables.even_plane_mask(0, 16)


# -- the claw-plane loop against find_claw ----------------------------------


def _claw_free_part(mask, n):
    """E with one point of each claw `find_claw` reports dropped, until none is left."""
    while (claw := find_claw(BinaryMatroid(n, mask))) is not None:
        mask &= ~(1 << claw[0])
    return mask


def _per_hit_claw_free_on(planes, mask):
    """Reference claw-plane loop: XOR the points of each 3-point hit."""
    inter = planes & np.uint64(mask)
    for i in np.flatnonzero(np.bitwise_count(inter) == 3):
        if functools.reduce(operator.xor, iter_bits(int(inter[i]))):
            return False
    return True


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_counting_order_identity(n):
    """The sorted points of a plane are the combinations of its reduced
    echelon basis b1 < b2 < b3 in binary counting order, so position j
    holds the point with coefficient vector j."""
    for F in flats_of_dim(n, 3):
        b1, b2, b3 = sorted(F.basis)
        combos = [(b1 if j & 1 else 0) ^ (b2 if j & 2 else 0) ^ (b3 if j & 4 else 0) for j in range(1, 8)]
        assert list(iter_bits(F.members)) == combos, (n, F.basis)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_evaluator_matches_numpy_kernels_exhaustive(n):
    # at n = 3, 4 `claw_free_mask` is the 4-flat screen's one lookup in
    # the sweep column, so this checks the screen on every ground set
    planes = plane_oracles.plane_array(n) if n >= 3 else np.zeros(0, dtype=np.uint64)
    for code in range(tables.ground_codes(n)):
        mask = code << 1
        assert tables.claw_free_mask(mask, n) == plane_oracles.claw_free_on(planes, mask), (n, mask)
        if n >= 3:
            assert pg_sum_forbidden_mask(mask, n) == plane_oracles.pg_sum_forbidden_loop(mask, n), (n, mask)


@pytest.mark.parametrize("n", [5, 6])
def test_evaluator_matches_numpy_kernels_sampled(n):
    """Claw-free samples, uniform sets and one-point flips, plus the bases
    of planes past the first 155: the one claw plane of such a basis is
    the plane it spans, so a scan that stopped after the n = 5 table's
    worth of planes would miss it."""
    planes = plane_oracles.plane_array(n)
    rng = random.Random(f"evaluator:{n}")
    cases = []
    for i in range(900):
        mask = sample_uniform_mask(n, rng) if i % 3 == 0 else sample_claw_free_mask(n, rng)
        cases.append(_flip(mask, n, rng) if i % 3 == 2 else mask)
    past = list(flats_of_dim(n, 3))[len(plane_oracles.plane_array(5)):]
    cases += [mask_of(F.basis) for F in rng.sample(past, min(8, len(past)))]
    seen = {(claw, pg): 0 for claw in (False, True) for pg in (False, True)}
    for mask in cases:
        claw_free = plane_oracles.claw_free_on(planes, mask)
        forbidden = plane_oracles.pg_sum_forbidden_loop(mask, n)
        assert tables.claw_free_mask(mask, n) == claw_free, (n, mask)
        assert pg_sum_forbidden_mask(mask, n) == forbidden, (n, mask)
        seen[claw_free, forbidden] += 1
    # a PG-sum is claw-free, so (False, True) cannot occur
    assert seen[False, True] == 0
    assert min(seen[False, False], seen[True, False], seen[True, True]) >= 20, seen


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_claw_plane_loop_matches_find_claw(n):
    """The evaluator and the numpy line-set kernel against `find_claw` and
    the per-hit loop, on all planes and on the planes through one added
    point."""
    planes = plane_oracles.plane_array(n)
    per_point = tables.planes_through_point(n)
    rng = random.Random(f"claw-loop:{n}")
    seen = {True: 0, False: 0}
    through = {True: 0, False: 0}
    for i in range(300):
        if i % 3 == 0:
            mask = sample_uniform_mask(n, rng)
        else:
            mask = sample_claw_free_mask(n, rng)
            if i % 3 == 2:
                mask = _flip(mask, n, rng)
        want = find_claw(BinaryMatroid(n, mask)) is None
        assert plane_oracles.claw_free_on(planes, mask) == want, (n, mask)
        assert _per_hit_claw_free_on(planes, mask) == want
        assert tables.claw_free_mask(mask, n) == want
        seen[want] += 1
        # the sampler's use: E is claw-free, so every claw of E + p runs through p
        base = _claw_free_part(mask, n)
        outside = [p for p in range(1, 1 << n) if not (base >> p) & 1]
        if outside:
            p = rng.choice(outside)
            cand = base | (1 << p)
            want = find_claw(BinaryMatroid(n, cand)) is None
            through_p = np.array(per_point[p], dtype=np.uint64)
            assert plane_oracles.claw_free_on(through_p, cand) == want, (n, base, p)
            assert _per_hit_claw_free_on(through_p, cand) == want
            assert tables.claw_free_mask(cand, n) == want
            through[want] += 1
    assert min(seen.values()) >= 20 and min(through.values()) >= 20, (seen, through)


def _density_mask(n, rng, density):
    return sum(1 << p for p in range(1, 1 << n) if rng.random() < density)


@pytest.mark.parametrize("n", [5, 6])
def test_block_scan_matches_one_pass_scan(n):
    """The evaluator reads every plane in one pass; it must agree with the
    one-pass numpy scan and with `find_claw` on sets of every density, and
    on the bases of planes past the first 155, which a scan that stopped
    after the n = 5 table's worth of planes would miss."""
    planes = plane_oracles.plane_array(n)
    first = len(plane_oracles.plane_array(5))
    rng = random.Random(f"claw-blocks:{n}")
    cases = [_density_mask(n, rng, d / 100) for d in range(5, 100, 5) for _ in range(4)]
    for _ in range(30):
        mask = sample_claw_free_mask(n, rng)
        cases += [mask, _flip(mask, n, rng)]
    # the basis of a plane past the first 155: its one claw plane is the
    # plane it spans, so a scan of the first 155 planes misses it
    past = list(flats_of_dim(n, 3))[first:]
    bases = [mask_of(F.basis) for F in rng.sample(past, min(8, len(past)))]
    for mask in bases:
        assert plane_oracles.claw_free_on(planes[:first], mask)
    cases += bases
    seen = {True: 0, False: 0}
    for mask in cases:
        want = find_claw(BinaryMatroid(n, mask)) is None
        assert plane_oracles.claw_free_on(planes, mask) == want, (n, mask)
        assert tables.claw_free_mask(mask, n) == want, (n, mask)
        seen[want] += 1
    assert min(seen.values()) >= 20, seen


# -- the 4-flat screen ---------------------------------------------------------


def _four_flat_claw(mask, n):
    """Whether E meets some 4-flat V ∪ (8k + V), V = span(e1, e2, e3), in a
    set with a claw, by the numpy kernel on each restriction."""
    planes = plane_oracles.plane_array(n)
    return any(
        not plane_oracles.claw_free_on(planes, mask & (0xFE | 0xFF << 8 * k))
        for k in range(1, max(2, 1 << n >> 3))
    )


def _screen_passes(mask, n):
    """The screen of `tables.claw_free_mask` on its own: no byte-pair code
    of E is a ground set with a claw in the n = 4 sweep column."""
    data = mask.to_bytes(max(2, 1 << n >> 3), "little")
    return 0 not in data[1:].translate(tables._screen_rows()[data[0] >> 1])


def _screen_candidates(n, rng):
    """The sampler's candidate kinds: rejection draws at densities
    0.05-0.95, extension candidates base | layer << 2^(n-1), claw-free
    samples and their one-point flips."""
    half = 1 << (n - 1)
    for d in range(5, 100, 5):
        for _ in range(12):
            yield _density_mask(n, rng, d / 100)
    for _ in range(150):
        base = sample_claw_free_mask(n - 1, rng)
        layer = rng.getrandbits(half) ^ (base if rng.random() < 0.5 else 0)
        yield base | (layer & ((1 << half) - 1)) << half
        mask = sample_claw_free_mask(n, rng)
        yield mask
        yield _flip(mask, n, rng)


@pytest.mark.parametrize("n", [5, 6])
def test_four_flat_screen_on_sampler_candidates(n):
    """The screen passes exactly the sets with no claw in a 4-flat through
    V, and `claw_free_mask` agrees with the numpy kernel whichever way the
    screen goes."""
    planes = plane_oracles.plane_array(n)
    rng = random.Random(f"screen:{n}")
    seen = {(passes, want): 0 for passes in (False, True) for want in (False, True)}
    for mask in _screen_candidates(n, rng):
        passes = _screen_passes(mask, n)
        assert passes == (not _four_flat_claw(mask, n)), (n, mask)
        want = plane_oracles.claw_free_on(planes, mask)
        assert tables.claw_free_mask(mask, n) == want, (n, mask)
        seen[passes, want] += 1
    # a claw in a 4-flat is a claw of E
    assert seen[False, True] == 0
    assert min(seen[False, False], seen[True, False], seen[True, True]) >= 20, seen


@pytest.mark.parametrize("n,points", [(5, (1, 8, 16)), (6, (8, 16, 32)), (6, (1, 8, 16, 32))])
def test_claws_past_the_screen_reach_the_evaluator(n, points):
    # each 4-flat V ∪ (8k + V) holds at most two of these points, so the
    # screen passes the set and only the evaluator sees its claw
    mask = mask_of(points)
    assert _screen_passes(mask, n) and not _four_flat_claw(mask, n)
    assert not plane_oracles.claw_free_on(plane_oracles.plane_array(n), mask)
    assert find_claw(BinaryMatroid(n, mask)) is not None
    assert not tables.claw_free_mask(mask, n)


# -- anticlaw-free: claw-free complement ------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_anticlaw_identity_exhaustive(n):
    planes = _planes(n) if n >= 3 else []
    for code in range(tables.ground_codes(n)):
        mask = code << 1
        want = _anticlaw_free_oracle(mask, planes)
        M = BinaryMatroid(n, mask)
        assert tables.anticlaw_free_mask(mask, n) == want, (n, mask)
        assert is_anticlaw_free(M) == want
        assert (find_anticlaw(M) is None) == want


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_sweep_column_is_the_claw_kernel(n):
    col = tables.sweep_tables(n)
    assert col.bit_length() <= tables.ground_codes(n)
    want = plane_oracles.sweep_column(n)
    for code in range(tables.ground_codes(n)):
        assert (col >> code) & 1 == tables.claw_free_mask(code << 1, n) == want[code], (n, code)
    assert tables.claw_free_masks_list(n) == tuple(int(k) << 1 for k in np.flatnonzero(want))


def _anticlaw_candidates(n, rng, count):
    """Uniform sets, complements of claw-free sets, and one-point flips."""
    for i in range(count):
        if i % 3 == 0:
            yield sample_uniform_mask(n, rng)
            continue
        if n <= tables.PLANE_TABLE_MAX:
            claw_free = sample_claw_free_mask(n, rng)
        else:
            n1 = rng.randint(1, n - 1)
            left = BinaryMatroid(n1, sample_claw_free_mask(n1, rng))
            right = BinaryMatroid(n - n1, sample_claw_free_mask(n - n1, rng))
            claw_free = lift_join(left, right).mask
        mask = ground_mask(n) & ~claw_free
        yield _flip(mask, n, rng) if i % 3 == 2 else mask


@pytest.mark.parametrize("n,count", [(5, 1500), (6, 600), (7, 60)])
def test_anticlaw_identity_sampled(n, count):
    planes = _planes(n)
    rng = random.Random(f"anticlaw:{n}")
    seen = {True: 0, False: 0}
    for mask in _anticlaw_candidates(n, rng, count):
        want = _anticlaw_free_oracle(mask, planes)
        M = BinaryMatroid(n, mask)
        assert is_anticlaw_free(M) == want, (n, mask)
        if n <= tables.PLANE_TABLE_MAX:
            assert tables.anticlaw_free_mask(mask, n) == want
        seen[want] += 1
    assert min(seen.values()) > count // 10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_find_anticlaw_plane_is_an_anticlaw(n):
    rng = random.Random(f"witness:{n}")
    masks = (
        [code << 1 for code in range(tables.ground_codes(n))]
        if n <= 4
        else list(_anticlaw_candidates(n, rng, 600))
    )
    found = 0
    for mask in masks:
        P = find_anticlaw(BinaryMatroid(n, mask))
        if P is None:
            continue
        found += 1
        assert P.dim == 3
        assert (mask & P.members).bit_count() == 4
        assert is_independent(iter_bits(P.members & ~mask))
    assert found > len(masks) // 10


# -- PG-sum: the lowest anchor decides ---------------------------------------


def _check_witness(mask, n):
    got = pg_sum_witness_mask(mask, n)
    assert got == _all_anchor_witness(mask, n), (n, mask)
    if got is not None:
        f1, f2 = got
        assert f1 | f2 == mask and f1 & f2 == 0
        assert is_flat(f1, n) and is_flat(f2, n)
    return got


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_first_anchor_witness_exhaustive(n):
    for code in range(tables.ground_codes(n)):
        _check_witness(code << 1, n)


@pytest.mark.parametrize("n,count", [(5, 2000), (6, 600)])
def test_first_anchor_witness_sampled(n, count):
    rng = random.Random(f"pgsum:{n}")
    hits = 0
    for i in range(count):
        if i % 2 == 0:
            mask = sample_uniform_mask(n, rng)
        else:
            f1 = _random_flat(n, rng)
            mask = f1 | (_random_flat(n, rng) & ~f1)
            if i % 4 == 3:
                mask = _flip(mask, n, rng)
        hits += _check_witness(mask, n) is not None
    assert hits > count // 10


# -- PG-sum: the line-set forbidden-restriction kernel ----------------------


def _pg_sum_forbidden_oracle(mask, n):
    """Reference forbidden-restriction scan, one plane at a time."""
    for pm in _planes(n):
        inside = mask & pm
        s = inside.bit_count()
        if s in (5, 6):
            return False
        if s in (3, 4):
            acc = functools.reduce(operator.xor, iter_bits(inside))
            if (s == 3) == (acc != 0):
                return False
    return True


@pytest.mark.parametrize("n", [3, 4])
def test_pg_sum_forbidden_kernel_exhaustive(n):
    for code in range(tables.ground_codes(n)):
        mask = code << 1
        assert pg_sum_forbidden_mask(mask, n) == _pg_sum_forbidden_oracle(mask, n), (n, mask)


@pytest.mark.parametrize("n,count", [(5, 1500), (6, 600)])
def test_pg_sum_forbidden_kernel_sampled(n, count):
    rng = random.Random(f"forbidden:{n}")
    seen = {True: 0, False: 0}
    for i in range(count):
        if i % 2 == 0:
            mask = sample_uniform_mask(n, rng)
        else:
            f1 = _random_flat(n, rng)
            mask = f1 | (_random_flat(n, rng) & ~f1)
            if i % 4 == 3:
                mask = _flip(mask, n, rng)
        want = _pg_sum_forbidden_oracle(mask, n)
        assert pg_sum_forbidden_mask(mask, n) == want, (n, mask)
        seen[want] += 1
    assert min(seen.values()) > count // 10, seen


def test_pg_sum_witness_matches_forbidden_oracle_past_the_tables():
    """Past PLANE_TABLE_MAX the forbidden-restriction kernel raises, as the
    plane tables do; the witness still agrees with the per-plane scan."""
    n = 7
    with pytest.raises(ValueError):
        pg_sum_forbidden_mask(0, n)
    rng = random.Random(f"forbidden:{n}")
    seen = {True: 0, False: 0}
    for i in range(160):
        if i % 4 == 0:
            mask = sample_uniform_mask(n, rng)
        else:
            f1 = _random_flat(n, rng)
            mask = f1 | (_random_flat(n, rng) & ~f1)
            if i % 4 == 3:
                mask = _flip(mask, n, rng)
        want = _pg_sum_forbidden_oracle(mask, n)
        assert (pg_sum_witness_mask(mask, n) is not None) == want, (n, mask)
        seen[want] += 1
    assert min(seen.values()) > 16, seen


def test_pg_sum_forbidden_kernel_is_the_table_kernel():
    assert pg_sum_forbidden_mask is tables.pg_sum_forbidden_mask


def test_claw_free_kernel_raises_past_the_tables():
    """Past PLANE_TABLE_MAX the claw kernel raises whatever the set: the
    4-flat screen would find the claw of three unit vectors, and the plane
    evaluator has no tables for a PG-sum the screen passes."""
    n = tables.PLANE_TABLE_MAX + 1
    for M in (independent_matroid(3), pg_sum(3, 4)):
        with pytest.raises(ValueError):
            tables.claw_free_mask(M.mask, n)


# -- the flatness gate --------------------------------------------------------


def _is_flat_oracle(mask, n):
    return closure_mask(mask, n).members == mask


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_is_flat_exhaustive_including_bit_zero(n):
    for mask in range(1 << (1 << n)):
        assert is_flat(mask, n) == _is_flat_oracle(mask, n), (n, mask)


def test_is_flat_edge_cases():
    for n in range(5):
        assert is_flat(0, n)
        assert not is_flat(1, n)  # the zero vector alone: size 1 but not a point set
        assert not is_flat(ground_mask(n) | 1, n)
        assert is_flat(ground_mask(n), n)
        for bad in (1 << (1 << n), (1 << (1 << n)) | 2):
            with pytest.raises(ValueError):
                is_flat(bad, n)
            with pytest.raises(ValueError):
                _is_flat_oracle(bad, n)
    with pytest.raises(ValueError):
        is_flat(0, 17)


@pytest.mark.parametrize("n", [5, 6])
def test_is_flat_sampled(n):
    rng = random.Random(f"flat:{n}")
    for i in range(1500):
        mask = _random_flat(n, rng)
        if i % 3 == 1:
            mask = _flip(mask, n, rng)
        elif i % 3 == 2:
            mask = sample_uniform_mask(n, rng) | (i & 1)
        assert is_flat(mask, n) == _is_flat_oracle(mask, n), (n, mask)
