"""Matroid invariants, claws, canonical forms, isomorphism."""

import itertools
import random
from collections import OrderedDict

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
from binmatroid.matroid import linear_map_table, seq_key
from linear_images import mapped, random_images


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


def test_restrict_rejects_a_flat_of_another_space():
    with pytest.raises(ValueError, match="different ambient space"):
        restrict(BinaryMatroid(3, 0xFE), closure([8, 1], 4))
    with pytest.raises(ValueError, match="different ambient space"):
        restrict(BinaryMatroid(4, 0xFFFE), closure([1, 2], 3))


def test_restrict_matches_local_coordinates():
    rng = random.Random("restrict")
    for n in range(0, 10):
        for _ in range(40):
            F = closure([rng.randrange(1, 1 << n) for _ in range(rng.randint(0, n))], n) if n else gf2.empty_flat(0)
            M = BinaryMatroid(n, rng.getrandbits(1 << n) & ~1)
            want = mask_of(F.to_local(v) for v in iter_bits(M.mask & F.members))
            assert restrict(M, F) == BinaryMatroid(F.dim, want), (n, M.mask, F.basis)


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


def _pair_scan_claw(M):
    """First claw in lexicographic order by a scan over the pairs x < y
    of E: the third points of a pair with x+y outside E are one mask
    expression over E+x, E+y and E+(x+y)."""
    E = M.mask
    trans = gf2.translates(E, M.n)
    pts = M.points()
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if (E >> (x ^ y)) & 1:
                continue
            zs = E & ~trans[x] & ~trans[y] & ~trans[x ^ y] & ~((1 << (y + 1)) - 1)
            if zs:
                return (x, y, (zs & -zs).bit_length() - 1)
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


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_find_claw_matches_pair_scan(n):
    # claw-free lift-joins and their complements, and PG-sums with theirs
    rng = random.Random(f"claw-pairs:{n}")
    cases = [pg_sum(a, n - a).mask for a in range(1, n // 2 + 1)]
    for _ in range(3):
        n1 = rng.randint(2, n - 2)
        left = BinaryMatroid(n1, census.sample_claw_free_mask(n1, rng))
        right = BinaryMatroid(n - n1, census.sample_claw_free_mask(n - n1, rng))
        cases.append(lift_join(left, right).mask)
    cases += [ground_mask(n) & ~mask for mask in cases]
    found = 0
    for mask in cases:
        M = BinaryMatroid(n, mask)
        claw = find_claw(M)
        assert claw == _pair_scan_claw(M), (n, hex(mask))
        found += claw is not None
    assert 0 < found < len(cases)


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


def _nodes_used(search, M):
    """Least budget within which search(M) ends, by bisection; a search
    that ends within a budget ends within every larger one."""
    lo, hi = 0, 1
    while True:
        try:
            search(M, budget=hi)
            break
        except BudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            search(M, budget=mid)
            hi = mid
        except BudgetExceeded:
            lo = mid
    return hi


#: (n, density, seed, omega, clique nodes, sigma, induced-independence
#: nodes, sigma dfs nodes, clique nodes with no cover test) for ground
#: sets from `_seeded_mask`, recorded with `_nodes_used` once the searches
#: had their colour bounds and the alpha + 1 cap; the sigma nodes include
#: those of its alpha search.  The induced-independence column was
#: re-recorded when the coset witness of the alpha flat came in (it takes
#: no nodes), and the clique and induced-independence columns again when
#: the clique search gained its proofs from above (the hyperplane and
#: codim-2 cover tests, which take no nodes).  It was re-recorded once
#: more when sigma = alpha + 1 came to be refuted over every alpha-flat:
#: the nodes of that walk count, and the dfs that follows a refutation
#: is capped at alpha, so 8891 and 85 became 2245 and 64; the clique
#: columns did not move.  The last two columns keep the counts from
#: before those changes: `_sigma_no_witness` runs the sigma dfs in full
#: after the alpha search with no cover test, and
#: `_clique_number_no_cover` is that clique search
FROZEN_SEARCH_NODES = [
    (7, 0.5, 1, 3, 379, 4, 3, 7, 379),
    (7, 0.8, 2, 4, 4, 3, 2, 6, 3316),
    (7, 0.25, 3, 2, 2, 5, 13, 3486, 2),
    (8, 0.5, 4, 4, 24, 4, 2245, 8891, 24),
    (8, 0.85, 5, 5, 5, 3, 74, 78, 46758),
    (8, 0.2, 6, 2, 151, 6, 64, 23701, 151),
    (8, 0.65, 7, 4, 9093, 4, 6, 61, 9093),
]


def _sigma_no_witness(M, budget=None):
    """`induced_independence_number` with no coset witness and no proof
    from above: the alpha search with no cover test, then the sigma dfs
    in full under the same budget."""
    E, n = M.mask, M.n
    alpha, nodes = _clique_search_no_cover(complement(M), budget)
    return matroid._sigma_search(TranslateTable(ground_mask(n) & ~E, n), alpha, budget, nodes)


@pytest.mark.parametrize(
    "n,density,seed,omega,omega_nodes,sigma,sigma_nodes,dfs_nodes,walk_nodes",
    FROZEN_SEARCH_NODES,
    ids=[f"{n}-{density}-{seed}" for n, density, seed, *_ in FROZEN_SEARCH_NODES],
)
def test_leaf_search_nodes_frozen(
    n, density, seed, omega, omega_nodes, sigma, sigma_nodes, dfs_nodes, walk_nodes
):
    M = BinaryMatroid(n, _seeded_mask(n, density, seed))
    for search, value, nodes in (
        (clique_number, omega, omega_nodes),
        (induced_independence_number, sigma, sigma_nodes),
        (_sigma_no_witness, sigma, dfs_nodes),
        (_clique_number_no_cover, omega, walk_nodes),
    ):
        assert _nodes_used(search, M) == nodes
        assert search(M, budget=nodes) == value
        if nodes:
            with pytest.raises(BudgetExceeded):
                search(M, budget=nodes - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
def test_coset_witness_matches_sigma_search(n):
    # the flat the clique search returns has the dimension it reports and
    # lies inside its set; a coset of the alpha flat that meets E in
    # alpha + 1 independent points answers sigma = alpha + 1, and the
    # search that tries it first agrees with the full dfs
    rng = random.Random(f"coset-witness:{n}")
    hits = misses = 0
    for density in (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        for _ in range(3 if n < 9 else 1):
            E = _seeded_mask(n, density, rng.getrandbits(32))
            for S in (E, ground_mask(n) & ~E):
                table = TranslateTable(S, n)
                dim, _, flat = matroid._clique_search(table, None)
                assert len(flat) == dim == closure(flat, n).dim, hex(S)
                # reduced echelon, so the alpha-flat walk's guard skips it
                want = gf2.flat_of_span(gf2.span_from_basis(flat, n), n).basis
                assert flat == list(want), hex(S)
                assert gf2.span_from_basis(flat, n) & ~S == 1, hex(S)
            want = matroid._sigma_search(table, dim)
            assert matroid._sigma_search(table, dim, flat=flat) == want, hex(E)
            if E and matroid._coset_witness(E, n, flat):
                hits += 1
                assert want == dim + 1, hex(E)
            else:
                misses += 1
    assert hits and misses


def _alpha_flat_walk(M):
    """The alpha search on T = G \\ E, then the walk over every alpha-flat
    inside T as `induced_independence_number` runs it: alpha, the table,
    the recorded flat, whether the walk found a coset witness, and the
    nodes of the search and of the walk."""
    n = M.n
    table = TranslateTable(ground_mask(n) & ~M.mask, n)
    alpha, nodes, flat = matroid._clique_search(table, None)

    def found(basis):
        return alpha if matroid._coset_witness(M.mask, n, basis) else alpha - 1

    hit, walk = matroid._pivot_dfs(table, alpha - 1, alpha, found, None)
    return alpha, table, flat, hit == alpha, nodes, walk


def _sigma_route(M, sigma):
    """Which step settles sigma: "recorded" when a coset of the flat the
    alpha search recorded qualifies, "other" when only a coset of another
    alpha-flat does; when none does and the dfs runs, "sigma = alpha" or
    "sigma < alpha" by what the dfs finds."""
    alpha, _, flat, hit, _, _ = _alpha_flat_walk(M)
    if matroid._coset_witness(M.mask, M.n, flat):
        return "recorded"
    assert hit == (sigma == alpha + 1), hex(M.mask)
    return "other" if hit else "sigma = alpha" if sigma == alpha else "sigma < alpha"


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_sigma_over_every_alpha_flat_matches_the_oracles(n):
    # sigma = alpha + 1 iff a coset of some alpha-flat inside T meets E in
    # alpha + 1 independent points; the walk over the alpha-flats, and the
    # dfs capped at alpha once the walk refutes, agree with the full dfs
    # (`_sigma_no_witness`) and with `invariants` on every route
    rng = random.Random(f"sigma-alpha-flats:{n}")
    routes = set()
    for density in (0.15, 0.25, 0.4, 0.55, 0.7, 0.85):
        for _ in range(3 if n < 8 else 2 if n == 8 else 1):
            M = BinaryMatroid(n, _seeded_mask(n, density, rng.getrandbits(32)))
            sigma = induced_independence_number(M)
            assert sigma == _sigma_no_witness(M) == invariants(M).sigma, hex(M.mask)
            if M.mask:
                routes.add(_sigma_route(M, sigma))
    assert "recorded" in routes
    if n in (5, 8):
        assert {"other", "sigma = alpha"} <= routes
    if n == 5:
        assert "sigma < alpha" in routes


def test_walk_nodes_count_against_the_budget():
    # past the recorded flat, the nodes are the alpha search's, the walk's
    # and, after a refutation, those of the dfs capped at alpha; one fewer
    # raises BudgetExceeded
    rng = random.Random("walk-budget")
    routes = set()
    for n in (6, 7, 8):
        for density in (0.15, 0.25, 0.4, 0.55):
            M = BinaryMatroid(n, _seeded_mask(n, density, rng.getrandbits(32)))
            alpha, table, flat, hit, nodes, walk = _alpha_flat_walk(M)
            if not M.mask or matroid._coset_witness(M.mask, n, flat):
                continue
            assert walk >= alpha, hex(M.mask)
            nodes += walk
            if not hit:
                # the dfs alone: `_sigma_search` with no flat, capped at alpha
                def dfs(M, budget, table=table, alpha=alpha):
                    return matroid._sigma_search(table, alpha - 1, budget)

                nodes += _nodes_used(dfs, M)
            routes.add(hit)
            sigma = induced_independence_number(M, budget=nodes)
            assert sigma == invariants(M).sigma, hex(M.mask)
            with pytest.raises(BudgetExceeded):
                induced_independence_number(M, budget=nodes - 1)
    assert routes == {True, False}


def _walked_bases(X, n, k, fill):
    """The bases `_pivot_dfs` hands to `found` in walk mode (best held at
    k - 1, top at k) over a table of X, filled up front or read on demand."""
    table = TranslateTable(X, n)
    if fill:
        assert table.fill() and all(table.entries[u] or not X for u in range(1 << n))
    bases = []

    def found(basis):
        bases.append(tuple(basis))
        return k - 1

    assert matroid._pivot_dfs(table, k - 1, k, found, None)[0] == k - 1
    return bases


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_flat_walk_meets_each_flat_inside_once(n):
    # walk mode meets exactly the k-flats inside X, each once and by its
    # reduced echelon basis, against a scan of every k-flat; a `found`
    # that returns k ends the walk at the first flat
    rng = random.Random(f"flat-walk:{n}")
    flats = {k: list(flats_of_dim(n, k)) for k in range(1, n)}
    masks = [_seeded_mask(n, d, rng.getrandbits(32)) for d in (0.3, 0.5, 0.7, 0.85, 0.95)]
    masks += [_random_quadric(n, rng), ground_mask(n) & ~(1 << rng.randrange(1, 1 << n))]
    met = 0
    for X in masks:
        for k in range(1, n):
            want = sorted(F.basis for F in flats[k] if F.members & ~X == 0)
            for fill in (False, True):
                assert sorted(_walked_bases(X, n, k, fill)) == want, (hex(X), k, fill)
            met += len(want)
            if want:
                first = []

                def stop(basis):
                    first.append(tuple(basis))
                    return k

                assert matroid._pivot_dfs(TranslateTable(X, n), k - 1, k, stop, None)[0] == k
                assert len(first) == 1, (hex(X), k)
    assert met


#: the same rows with the node counts the searches took before their
#: colour bounds and cap, found by bisecting `budget` before the searches
#: read translates from a table; the searches kept below as oracles,
#: `_clique_number_uncoloured` and `_sigma_ascending`, still take them
UNBOUNDED_SEARCH_NODES = [
    (7, 0.5, 1, 3, 379, 4, 3308),
    (7, 0.8, 2, 4, 3316, 3, 1265),
    (7, 0.25, 3, 2, 52, 5, 2168),
    (8, 0.5, 4, 4, 1719, 4, 24784),
    (8, 0.85, 5, 5, 46758, 3, 4114),
    (8, 0.2, 6, 2, 151, 6, 29700),
    (8, 0.65, 7, 4, 9093, 4, 12009),
]


@pytest.mark.parametrize(
    "n,density,seed,omega,omega_nodes,sigma,sigma_nodes", UNBOUNDED_SEARCH_NODES
)
def test_search_nodes_frozen(n, density, seed, omega, omega_nodes, sigma, sigma_nodes):
    M = BinaryMatroid(n, _seeded_mask(n, density, seed))
    for search, value, nodes in (
        (_clique_number_uncoloured, omega, omega_nodes),
        (_sigma_ascending, sigma, sigma_nodes),
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
    # the slowest set of the benchmark's census pool
    (6, 0x1004000000, 0xc000000000000000),
]


@pytest.mark.parametrize("n,mask,form", FROZEN_FORMS)
def test_canonical_form_frozen(n, mask, form, monkeypatch):
    monkeypatch.setattr(matroid, "_canonical_cache", OrderedDict())
    assert canonical_form(BinaryMatroid(n, mask)).mask == form


def _canonical_search_without_backjump(n, E, budget=None, cache=None):
    """The canonical search before it left the subtree under a leaf tie:
    every frame finishes its children, and a frame adds the automorphisms
    found under a child only after skipping that child's orbit.  It
    neither reads nor writes `cache`, so it searches every mask in full."""
    ground = ground_mask(n)
    if n == 0 or E == 0 or E == ground:
        return E, 0
    npoints = 1 << n
    trans = translates(E, n)
    best = [None] * n
    best_pre = [None]
    auts = []
    nodes = 0

    def rec(k, span, pre, prefix, stab):
        nonlocal nodes
        key, rest = matroid._least_segment(ground & ~span, pre, trans, best[k - 1])
        seen = len(auts)
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded("canonical search without backjump")
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
                break
            if stab:
                orbit = low
                frontier = [w]
                while frontier and rest & ~orbit:
                    u = frontier.pop()
                    for t in stab:
                        v = t[u]
                        if not (orbit >> v) & 1:
                            orbit |= 1 << v
                            frontier.append(v)
                rest &= ~orbit
            if len(auts) > seen:
                stab.extend(t for t in auts[seen:] if all(t[u] == u for u in prefix))
                seen = len(auts)

    rec(1, 1, [0], [], [])
    img = 0
    for k in range(1, n + 1):
        L = 1 << (k - 1)
        for j in range(L):
            if (best[k - 1] >> (L - 1 - j)) & 1:
                img |= 1 << (L + j)
    return img, nodes


#: (n, ground set, search nodes); the node count pins the visiting order,
#: the automorphism pruning and the backjump after a leaf tie.  Recorded
#: once the search left the subtree under a tie, so the counts differ
#: from those of `WITHOUT_BACKJUMP_NODES`, the same sets before
FROZEN_NODES = [
    (5, 0x10116, 329),
    (5, 0x17a0cd4a, 462),
    (5, 0x2000082, 378),
    (6, 0xbfdbfee7bddf1f9e, 153),
    (6, 0x5e79c701ddf9e87c, 481),
    (6, _quadric_mask(6), 42),
    (6, 0xfffffffe, 46),
    (6, 0x100010116, 20194),
    (6, pg_sum(3, 3).mask, 33),
    (6, _quadric_mask(6, elliptic=True), 40),
    (6, _BASIS6_AND_SUM, 1152),
    # the slowest set of the benchmark's census pool
    (6, 0x1004000000, 2885),
]


@pytest.mark.parametrize(
    "n,mask,nodes", FROZEN_NODES, ids=[f"{n}-{mask:#x}" for n, mask, _ in FROZEN_NODES]
)
def test_canonical_nodes_frozen(n, mask, nodes):
    # a budget of exactly the recorded count does not raise
    assert matroid._canonical_search(n, mask, nodes)[1] == nodes


#: the rows of `FROZEN_NODES` with the node counts the search took before
#: it left the subtree under a leaf tie, which
#: `_canonical_search_without_backjump` still takes; all but the last
#: were recorded with the frozen forms by bisecting `budget`
WITHOUT_BACKJUMP_NODES = [
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
    (6, 0x1004000000, 3285),
]


@pytest.mark.parametrize("n,mask,nodes", WITHOUT_BACKJUMP_NODES)
def test_canonical_search_nodes_frozen(n, mask, nodes):
    assert _canonical_search_without_backjump(n, mask)[1] == nodes


@pytest.mark.parametrize("n", [5, 6])
def test_canonical_search_matches_search_without_backjump(n):
    # seeded sets from sparse to dense, and sets of 2 and 4 points with
    # their complements
    rng = random.Random(f"backjump:{n}")
    densities = (0.03, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.97)
    masks = [_seeded_mask(n, d, rng.getrandbits(32)) for d in densities]
    for size in (2, 4):
        points = mask_of(rng.sample(range(1, 1 << n), size))
        masks += [points, ground_mask(n) & ~points]
    for mask in masks:
        form = matroid._canonical_search(n, mask, None)[0]
        assert form == _canonical_search_without_backjump(n, mask)[0], hex(mask)


@pytest.mark.parametrize("n,samples", [(5, 8), (6, 4)])
def test_sampled_census_matches_search_without_backjump(n, samples, monkeypatch):
    for seed in range(4):
        monkeypatch.setattr(matroid, "_canonical_cache", OrderedDict())
        got = census.sampled_census(n, samples, seed, filter_claw_free=True)
        monkeypatch.setattr(matroid, "_canonical_cache", OrderedDict())
        with monkeypatch.context() as patch:
            patch.setattr(matroid, "_canonical_search", _canonical_search_without_backjump)
            want = census.sampled_census(n, samples, seed, filter_claw_free=True)
        assert got == want


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


def test_canonical_budget_does_not_poison_cache(monkeypatch):
    monkeypatch.setattr(matroid, "_canonical_cache", OrderedDict())
    basis = BinaryMatroid.from_points([1, 2, 4, 8, 16], 5)
    nodes = {(n, mask): count for n, mask, count in FROZEN_NODES}[5, basis.mask]
    with pytest.raises(BudgetExceeded):
        canonical_form(basis, budget=nodes - 1)
    assert not matroid._canonical_cache
    assert canonical_form(basis).mask == 0xe8800000
    # a hit returns the known form whatever the budget
    assert canonical_form(basis, budget=1).mask == 0xe8800000


def test_canonical_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(matroid, "CANONICAL_CACHE_SIZE", 3)
    monkeypatch.setattr(matroid, "_canonical_cache", OrderedDict())
    # each of these sets and its complement span G, so each is searched
    # itself; each search's one improved leaf is its form, cached under
    # itself before the set's own key
    masks = [0b10110, 0b11110, 0b1001110]
    canonical_form(BinaryMatroid(3, masks[0]))
    assert list(matroid._canonical_cache) == [(3, 0b11100000), (3, masks[0])]
    canonical_form(BinaryMatroid(3, masks[1]))
    assert list(matroid._canonical_cache) == [(3, masks[0]), (3, 0b11101000), (3, masks[1])]
    # the third set shares the second's orbit: its search ends on the
    # cached form, which moves to the end, and the oldest key goes
    canonical_form(BinaryMatroid(3, masks[2]))
    assert list(matroid._canonical_cache) == [(3, masks[1]), (3, 0b11101000), (3, masks[2])]
    # {5, 6} spans a line: its local set {2, 3} at n = 2, the form {6, 7}
    # of its representative {2, 3} at n = 3, and that representative take
    # keys beside its own, and the last three evict every older key
    canonical_form(BinaryMatroid(3, 0b1100000))
    assert list(matroid._canonical_cache) == [
        (3, 0b11000000),
        (3, 0b1100),
        (3, 0b1100000),
    ]


def _leaf_cache_inputs(n, rng):
    """Seeded claw-free and uniform ground sets at dimension n."""
    claw_free = [census.sample_claw_free_mask(n, rng) for _ in range(4)]
    return claw_free + [census.sample_uniform_mask(n, rng) for _ in range(4)]


@pytest.mark.parametrize("n", [5, 6])
def test_warm_cache_forms_match_cold_searches(n, monkeypatch):
    # every set and three of its linear images go through one warm cache,
    # which then holds the leaf images of earlier searches of the orbit
    monkeypatch.setattr(matroid, "_canonical_cache", OrderedDict())
    rng = random.Random(f"leaf-cache:{n}")
    for E in _leaf_cache_inputs(n, rng):
        M = BinaryMatroid(n, E)
        for N in [M] + [mapped(M, random_images(n, rng)) for _ in range(3)]:
            want = matroid._canonical_search(n, N.mask, None)[0]
            assert canonical_form(N).mask == want, hex(N.mask)


@pytest.mark.parametrize("n", [5, 6])
def test_a_later_image_ends_on_a_cached_leaf(n):
    # the last improved leaf of any search of the orbit reads the form,
    # which the first search cached, so a later search ends there at the
    # latest, before a cold search of the same mask ends
    rng = random.Random(f"later-image:{n}")
    for E in _leaf_cache_inputs(n, rng):
        cache = OrderedDict()
        form = matroid._canonical_search(n, E, None, cache)[0]
        assert cache[n, form] == form
        for _ in range(3):
            image = mapped(BinaryMatroid(n, E), random_images(n, rng)).mask
            cold = matroid._canonical_search(n, image, None)[1]
            got, warm = matroid._canonical_search(n, image, None, cache)
            assert got == form
            assert warm < cold, (hex(E), hex(image))


def test_a_budget_stop_leaves_the_cache_as_it_was():
    rng = random.Random("leaf-cache-budget")
    E = census.sample_uniform_mask(6, rng)
    image = mapped(BinaryMatroid(6, E), random_images(6, rng)).mask
    other = census.sample_uniform_mask(6, rng)
    cache = OrderedDict()
    form = matroid._canonical_search(6, E, None, cache)[0]
    matroid._canonical_search(6, _quadric_mask(6), None, cache)  # a second orbit
    assert matroid._canonical_search(6, other, None)[0] != form
    before = list(cache.items())
    # a set of another orbit stopped one node short has passed its
    # improved leaves, and an image of a cached orbit stopped one node
    # short of its hit refreshes nothing
    for mask in (other, image):
        nodes = matroid._canonical_search(6, mask, None, OrderedDict(cache))[1]
        with pytest.raises(BudgetExceeded):
            matroid._canonical_search(6, mask, nodes - 1, cache)
        assert list(cache.items()) == before


def test_canonical_cache_stays_bounded_with_leaf_images(monkeypatch):
    size = 16
    monkeypatch.setattr(matroid, "CANONICAL_CACHE_SIZE", size)
    cache = OrderedDict()
    monkeypatch.setattr(matroid, "_canonical_cache", cache)
    rng = random.Random("leaf-cache-bound")
    masks = set()
    leaf_keys = 0
    while len(masks) < 60:
        mask = census.sample_uniform_mask(5, rng)
        if matroid._orbit_representative(5, mask, None) != mask:
            continue  # every key then comes from a set or a search leaf
        masks.add(mask)
        canonical_form(BinaryMatroid(5, mask))
        assert len(cache) <= size
        leaf_keys += sum(m not in masks and m != form for (_, m), form in cache.items())
    assert leaf_keys


def test_canonical_mask_matches_search_on_every_set_to_n4(monkeypatch):
    cache = OrderedDict()
    monkeypatch.setattr(matroid, "_canonical_cache", cache)
    for n in range(1, 5):
        for code in range(1 << ((1 << n) - 1)):
            mask = code << 1
            cache.clear()
            want = matroid._canonical_search(n, mask, None)[0]
            assert matroid._canonical_mask(n, mask) == want, (n, hex(mask))


def _random_proper_flat(n, rng):
    """A seeded flat of dimension 1 .. n - 1."""
    d = rng.randint(1, n - 1)
    while True:
        F = closure([rng.randrange(1, 1 << n) for _ in range(d)], n)
        if F.dim == d:
            return F


@pytest.mark.parametrize("n", [5, 6])
def test_canonical_mask_matches_search_in_proper_flats(n, monkeypatch):
    # seeded subsets of random proper flats, and their complements
    rng = random.Random(f"proper-flat:{n}")
    for _ in range(100):
        F = _random_proper_flat(n, rng)
        keep = rng.choice((0.2, 0.5, 0.8, 1.0))
        E = sum(1 << p for p in F.points() if rng.random() < keep) or 1 << F.basis[0]
        for mask in (E, ground_mask(n) & ~E):
            monkeypatch.setattr(matroid, "_canonical_cache", OrderedDict())
            want = matroid._canonical_search(n, mask, None)[0]
            assert matroid._canonical_mask(n, mask) == want, hex(mask)


def test_canonical_search_runs_once_per_orbit(monkeypatch):
    # every two-point set at n = 5 is one orbit: its local set at n = 2
    # and its representative at n = 5 are searched once, for the first set
    monkeypatch.setattr(matroid, "_canonical_cache", OrderedDict())
    searched = []
    search = matroid._canonical_search

    def counting(n, E, budget, cache=None):
        searched.append(n)
        return search(n, E, budget)

    monkeypatch.setattr(matroid, "_canonical_search", counting)
    pairs = list(itertools.combinations(range(1, 32), 2))
    assert len(pairs) == 465
    forms = {canonical_form(BinaryMatroid.from_points(pair, 5)).mask for pair in pairs}
    assert forms == {0xc0000000}
    assert sorted(searched) == [2, 5]


def test_canonical_budget_caches_nothing_for_a_representative(monkeypatch):
    monkeypatch.setattr(matroid, "_canonical_cache", OrderedDict())
    # three independent points spanning a plane; the plane's local set
    # is searched and cached first, so the budget trips at n = 6
    M = BinaryMatroid.from_points([3, 12, 48], 6)
    local = matroid.restrict(M, closure(M.points(), 6)).mask
    rep = canonical_form(BinaryMatroid(3, local)).mask
    with pytest.raises(BudgetExceeded):
        canonical_form(M, budget=1)
    assert (6, M.mask) not in matroid._canonical_cache
    assert (6, rep) not in matroid._canonical_cache
    form = canonical_form(M).mask
    assert form == matroid._canonical_search(6, M.mask, None)[0]
    assert matroid._canonical_cache[6, rep] == matroid._canonical_cache[6, M.mask] == form


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
        assert canonical_form(M) == canonical_form(mapped(M, imgs))


def test_canonical_form_dimension_cap():
    with pytest.raises(ValueError):
        canonical_form(BinaryMatroid(7, 0b10))


def test_canonical_budget_hook(monkeypatch):
    monkeypatch.setattr(matroid, "_canonical_cache", OrderedDict())  # a hit ignores the budget
    M = BinaryMatroid.from_points([1, 2, 4, 8, 16, 32], 6)
    with pytest.raises(BudgetExceeded):
        canonical_form(M, budget=3)


def test_search_budget_hooks():
    # G less a plane holds a 3-flat and no 4-flat, so the search runs; G
    # less a point holds a hyperplane and takes no node
    no_plane = BinaryMatroid(6, ground_mask(6) & ~closure([1, 2, 4], 6).members)
    with pytest.raises(BudgetExceeded):
        clique_number(no_plane, budget=2)
    assert clique_number(BinaryMatroid(6, ground_mask(6) & ~0b100), budget=0) == 5
    # six unit vectors: a hyperplane avoids them and its odd coset holds
    # them, so sigma = 6 takes no node; five take five in the sigma dfs
    six = BinaryMatroid.from_points([1, 2, 4, 8, 16, 32], 6)
    assert induced_independence_number(six, budget=0) == 6
    with pytest.raises(BudgetExceeded):
        induced_independence_number(
            BinaryMatroid.from_points([1, 2, 4, 8, 16], 6), budget=2
        )


# ---------------------------------------------------------------------------
# The hyperplane bound of the clique search
# ---------------------------------------------------------------------------


def _holds_hyperplane(E, n):
    """Whether a ground set other than G holds a hyperplane: whether one
    functional covers its complement."""
    return matroid._cover(gf2.ground_mask(n) & ~E, 1, n) is not None


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
    # the clique search stops at n - 1 or n - 2 accordingly; more generally
    # the least m with a cover of G \ E by m functionals is n - omega
    omegas, _ = _definition_tables(n)
    hyperplanes = [H.members for H in flats_of_dim(n, n - 1)]
    for code in range(1 << ((1 << n) - 1)):
        M = BinaryMatroid(n, code << 1)
        omega = omegas[code]
        assert clique_number(M) == omega, hex(M.mask)
        if 0 < M.mask != ground_mask(n):
            holds = any(H & ~M.mask == 0 for H in hyperplanes)
            assert _holds_hyperplane(M.mask, n) == holds, hex(M.mask)
            assert omega == n - 1 if holds else omega <= n - 2
        if M.mask != ground_mask(n):
            _assert_least_cover(M.mask, n, int(omega))
        if n <= 3 or code % 61 == 0:
            # the oracles of the seeded test, against the definition
            assert _omega_top_down(M) == _omega_by_levels(M) == omega, hex(M.mask)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_hyperplane_bound_seeded(n):
    rng = random.Random(f"hyperplane-bound:{n}")
    dense = []
    for _ in range(4):
        # a hyperplane moved by a random map, plus random points off it
        H = closure(random_images(n, rng)[: n - 1], n).members
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
        holds = _holds_hyperplane(mask, n)
        assert holds == _hyperplane_scan(M), hex(mask)
        tops.add(holds)
    assert tops == {False, True}
    sparse = [_quadric_mask(n), ground_mask(n) & ~_quadric_mask(n, elliptic=True)]
    sparse += [_random_quadric(n, rng) for _ in range(2 if n == 8 else 6)]
    for mask in sparse:
        M = mapped(BinaryMatroid(n, mask), random_images(n, rng))
        assert clique_number(M) == _omega_by_levels(M), hex(M.mask)
        assert _holds_hyperplane(M.mask, n) == _hyperplane_scan(M), hex(M.mask)


def _assert_flat_inside(basis, E, n, dim):
    assert len(basis) == dim == closure(basis, n).dim, hex(E)
    assert gf2.span_from_basis(basis, n) & ~E == 1, hex(E)


@pytest.mark.parametrize("n", range(7))
def test_annihilator_matches_scan(n):
    # the kernel meet against a scan of every v with r·v even for all
    # rows; the seeded row sets hold zero rows and dependent rows
    rng = random.Random(f"annihilator:{n}")
    for _ in range(30):
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, n + 1))]
        rows += [0, rows[0] ^ rows[-1], rows[0]]
        rng.shuffle(rows)
        scan = sum(
            1 << v for v in range(1 << n) if not any((r & v).bit_count() & 1 for r in rows)
        )
        basis = matroid._annihilator(rows, n)
        assert gf2.span_from_basis(basis, n) == scan, rows
        assert tuple(basis) == gf2.echelon_basis(basis), rows


def _flat_members(n, d):
    return [F.members for F in flats_of_dim(n, d)]


def _assert_cover_matches_scan(E, n, hyperplanes, codim2):
    """The covers by one and two functionals against a scan of the flats
    given as bitsets; True when E holds a codim-2 flat and no
    hyperplane."""
    T = ground_mask(n) & ~E
    w = matroid._cover(T, 1, n)
    assert (w is not None) == any(H & ~E == 0 for H in hyperplanes), hex(E)
    if w is not None:
        # the hull test picks the lowest functional that is 1 on all of T
        odd = (u for u in range(1 << n) if all((u & t).bit_count() & 1 for t in iter_bits(T)))
        assert w == [next(odd)], hex(E)
        _assert_flat_inside(matroid._annihilator(w, n), E, n, n - 1)
        return False
    cover = matroid._cover(T, 2, n)
    holds = any(F & ~E == 0 for F in codim2)
    assert (cover is not None) == holds, hex(E)
    if holds:
        _assert_flat_inside(matroid._annihilator(cover, n), E, n, n - 2)
    return holds


@pytest.mark.parametrize("n", [3, 4])
def test_codim2_cover_exhaustive(n):
    # a flat of dimension n - 2 inside E exactly when some functional u
    # with u(t0) = 1 has T ∩ ker u in an affine hyperplane
    seen = {True: 0, False: 0}
    flats = _flat_members(n, n - 1), _flat_members(n, n - 2)
    for code in range(1 << ((1 << n) - 1)):
        E = code << 1
        if E != ground_mask(n):
            seen[_assert_cover_matches_scan(E, n, *flats)] += 1
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_codim2_cover_seeded(n):
    rng = random.Random(f"codim2-cover:{n}")
    seen = {True: 0, False: 0}
    flats = _flat_members(n, n - 1), _flat_members(n, n - 2)
    for density in (0.6, 0.75, 0.85, 0.9, 0.95):
        for _ in range(4 if n < 9 else 2):
            E = _seeded_mask(n, density, rng.getrandbits(32))
            # and a codim-2 flat moved by a random map, with points around it
            F = closure(random_images(n, rng)[: n - 2], n).members
            for mask in (E, F | E & rng.getrandbits(1 << n)):
                if mask != ground_mask(n):
                    seen[_assert_cover_matches_scan(mask, n, *flats)] += 1
                    if n <= 7:
                        M = BinaryMatroid(n, mask)
                        assert clique_number(M) == _clique_number_no_cover(M), hex(mask)
    assert min(seen.values()) > 0, seen


def _assert_least_cover(E, n, omega):
    """Climbing m from 1, the first cover of T = G \\ E comes at
    m = n - omega, and the meet of its kernels is an omega-flat inside E."""
    T = ground_mask(n) & ~E
    m, cover = next(
        (m, cover) for m in range(1, n + 1) if (cover := matroid._cover(T, m, n))
    )
    assert (m, len(cover)) == (n - omega, m), hex(E)
    _assert_flat_inside(matroid._annihilator(cover, n), E, n, omega)


@pytest.mark.parametrize("n,count", [(5, 570), (6, 76)])
def test_cover_at_every_codimension_seeded(n, count):
    # omega from a scan of the flats, largest dimension first; the empty
    # set, the one with omega = 0, costs 2^((n-1)(n-2)) hull tests at
    # m = n - 1 and is left to `test_hyperplane_bound_exhaustive`
    rng = random.Random(f"cover-codim:{n}")
    flats = {d: _flat_members(n, d) for d in range(1, n)}
    seen = set()
    for k in range(count):
        E = _seeded_mask(n, (k % 19 + 1) / 20, rng.getrandbits(32))
        if E in (0, ground_mask(n)):
            continue
        omega = next(d for d in range(n - 1, 0, -1) if any(F & ~E == 0 for F in flats[d]))
        _assert_least_cover(E, n, omega)
        seen.add(n - omega)
    assert seen == set(range(1, n)), seen


#: (ground set, omega, clique nodes, clique nodes with no cover test) of
#: the three co-triangle-free n = 8 inputs of the benchmark's analyze
#: pool.  The codim-2 cover test finds a 6-flat inside each with no node;
#: the search with no cover test, `_clique_search_no_cover`, takes the
#: last column, and without the hyperplane bound too it took 21 550,
#: 20 575 and 45 953 nodes
FROZEN_BOUNDED_NODES = [
    (0xFBBFEF77DBBFAF7EFDFDF7EFAFDAF6EFFEEFFDF8FEE7FFFE6FFEBABF7FFEDBFE, 6, 0, 3368),
    (0xA67FFDBEFBD75FE9FEFF5FFFBFDFFFFF77A8FE65DDFFEBDFFFFAFBD6FFFFFEFE, 6, 0, 1273),
    (0x5BF9EDFFFAFFF7FEDFBFF7DD7BFFFF6EFFEE7FF7FFFFBBF7EFFFFFEFFFDAFFBC, 6, 0, 5838),
]


@pytest.mark.parametrize(
    "mask,omega,nodes,walk_nodes", FROZEN_BOUNDED_NODES, ids=["ctf8-0", "ctf8-1", "ctf8-2"]
)
def test_bounded_search_nodes_frozen(mask, omega, nodes, walk_nodes):
    M = BinaryMatroid(8, mask)
    assert not _holds_hyperplane(mask, 8)  # so the search stops at 6
    assert matroid._clique_search(TranslateTable(mask, 8), None)[:2] == (omega, nodes)
    assert clique_number(M, budget=nodes) == omega
    with pytest.raises(BudgetExceeded):
        _clique_search_no_cover(M, budget=walk_nodes - 1)
    assert _clique_search_no_cover(M, budget=walk_nodes) == (omega, walk_nodes)


# ---------------------------------------------------------------------------
# The colour bounds and the alpha + 1 cap of the leaf searches
# ---------------------------------------------------------------------------


def _clique_number_uncoloured(M, budget=None):
    """The clique search without its colour bound: `top` is the hyperplane
    bound alone."""
    return _clique_search_uncoloured(M, budget)[0]


def _clique_number_no_cover(M, budget=None):
    """The clique search with no proof from above: the hyperplane and colour
    bounds only lower `top`, and the search runs to find a flat there."""
    return _clique_search_no_cover(M, budget)[0]


def _clique_search_no_cover(M, budget=None):
    """`_clique_number_no_cover`, and the nodes its search took."""
    return _clique_search_uncoloured(M, budget, coloured=True)


def _clique_search_uncoloured(M, budget=None, coloured=False):
    """`_clique_number_uncoloured`, and the nodes its search took; with
    `coloured`, the root colour bound lowers `top` too."""
    E, n = M.mask, M.n
    if E == 0:
        return 0, 0
    if E == ground_mask(n):
        return n, 0
    top = n - 1 if _holds_hyperplane(E, n) else n - 2
    halves = gf2._half_masks(n)
    table = TranslateTable(E, n)
    trans, get = table.entries, table.get
    if coloured:
        colours = len(matroid._colour_classes(E, table, (1 << top) - 1))
        top = min(top, (colours + 1).bit_length() - 1)
    best = 1
    nodes = 0

    def dfs(V, C, dim, pivots, S):
        nonlocal best, nodes
        if dim > best:
            best = dim
        pop = V.bit_count()
        if best == top or dim + ((pop >> dim) + 1).bit_length() - 1 <= best:
            return
        grow = S is not None and len(S) < matroid._TABLE_SPAN
        rest = C
        while rest and best < top:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded("uncoloured clique search")
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
            child_piv = dict(pivots)
            child_piv[h] = r
            child_S = S + [s ^ p for s in S] if grow else None
            dfs(V & shifted, rest & shifted & halves[h], dim + 1, child_piv, child_S)

    dfs(E, E, 0, {}, [0])
    return best, nodes


def _sigma_ascending(M, budget=None):
    """The induced independence search over ascending point insertions,
    bounded by the candidate count alone, with no colours and no cap."""
    E, n = M.mask, M.n
    if E == 0:
        return 0
    full = (1 << (1 << n)) - 1
    table = TranslateTable(E, n)
    trans, get = table.entries, table.get
    best = 0
    nodes = 0

    def dfs(Z, C, size, S):
        nonlocal best, nodes
        if size > best:
            best = size
        if size + C.bit_count() <= best:
            return
        grow = S is not None and len(S) < matroid._TABLE_SPAN
        rest = C
        while rest:
            low = rest & -rest
            rest ^= low
            p = low.bit_length() - 1
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded("ascending sigma search")
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


def _sigma_search_over_E(E, n, alpha):
    """The sigma dfs over E's own table, as the oracle of the search over
    the complement's: Z+p is the complement of the union of the
    translates E+(s+p), and two points q, r of C share a colour class
    only when q + r lies in E.  Returns sigma and the nodes it took."""
    if E == 0:
        return 0, 0
    cap = min(n, alpha + 1)
    full = (1 << (1 << n)) - 1
    table = TranslateTable(E, n)
    trans, get = table.entries, table.get
    best = nodes = 0

    def colour_classes(C, limit):
        classes = []
        while C:
            if len(classes) == limit:
                classes.append(C)
                break
            cls, free = 0, C
            while free:
                low = free & -free
                cls |= low
                free ^= low
                q = low.bit_length() - 1
                free &= trans[q] or get(q)
            C ^= cls
            classes.append(cls)
        return classes

    def dfs(Z, C, size, S):
        nonlocal best, nodes
        best = max(best, size)
        if best == cap or size + C.bit_count() <= best:
            return
        grow = S is not None and len(S) < matroid._TABLE_SPAN
        classes = colour_classes(C, cap - size)
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
    return best, nodes


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_sigma_search_over_the_complement_matches_search_over_E(n):
    # the search over T's table takes the same value in the same nodes
    # as the search over E's: the two validity sets differ only on the
    # span of the chosen points, which holds no candidate
    rng = random.Random(f"sigma-over-complement:{n}")
    for density in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        E = _seeded_mask(n, density, rng.getrandbits(32))
        table = TranslateTable(ground_mask(n) & ~E, n)
        alpha = matroid._clique_search(table, None)[0]
        sigma, nodes = _sigma_search_over_E(E, n, alpha)
        assert matroid._sigma_search(table, alpha, budget=nodes) == sigma, hex(E)
        if nodes:
            with pytest.raises(BudgetExceeded):
                matroid._sigma_search(table, alpha, budget=nodes - 1)


def _colours(E, X, n):
    """Classes of the greedy colouring of all of E in the graph joining the
    pairs that sum into X: X = E for the clique search's graph, X = G \\ E
    for the sigma search's."""
    return len(matroid._colour_classes(E, TranslateTable(X, n), 1 << n))


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_bounded_searches_match_unbounded_searches(n):
    # seeded densities from sparse to dense, quadrics moved by a random
    # map, and sets that hold a hyperplane
    rng = random.Random(f"leaf-bounds:{n}")
    densities = (0.05, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95)
    if n == 9:  # the ascending sigma search is slow there
        densities = (0.05, 0.2, 0.5, 0.8, 0.95)
    masks = [_seeded_mask(n, d, rng.getrandbits(32)) for d in densities]
    for _ in range(2):
        images = random_images(n, rng)
        masks.append(mapped(BinaryMatroid(n, _random_quadric(n, rng)), images).mask)
        H = closure(random_images(n, rng)[: n - 1], n).members
        masks.append(H | (_seeded_mask(n, 0.3, rng.getrandbits(32)) & ground_mask(n)))
    tight = 0
    for mask in masks:
        M = BinaryMatroid(n, mask)
        D = complement(M)
        omega, alpha, sigma = clique_number(M), clique_number(D), induced_independence_number(M)
        want, nodes = _clique_search_uncoloured(M)
        assert omega == want, hex(mask)
        assert alpha == _clique_number_uncoloured(D), hex(mask)
        assert sigma == _sigma_ascending(M), hex(mask)
        # lowering `top` only stops the same search sooner
        assert clique_number(M, budget=nodes) == omega, hex(mask)
        tight += sigma == min(n, alpha + 1)
    assert tight > 0  # the cap stops some search


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_leaf_bounds_exhaustive(n):
    omegas, sigmas = _definition_tables(n)
    ground = ground_mask(n)
    for code in range(1 << ((1 << n) - 1)):
        E = code << 1
        omega, sigma = omegas[code], sigmas[code]
        alpha = omegas[(ground & ~E) >> 1]
        assert sigma <= alpha + 1, hex(E)
        assert (1 << omega) - 1 <= _colours(E, E, n), hex(E)
        assert sigma <= _colours(E, ground & ~E, n), hex(E)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_leaf_bounds_seeded(n):
    rng = random.Random(f"leaf-bounds-seeded:{n}")
    for density in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
        for _ in range(3 if n < 8 else 1):
            M = BinaryMatroid(n, _seeded_mask(n, density, rng.getrandbits(32)))
            D = complement(M)
            omega, alpha = clique_number(M), clique_number(D)
            sigma = induced_independence_number(M)
            assert sigma <= alpha + 1, hex(M.mask)
            assert (1 << omega) - 1 <= _colours(M.mask, M.mask, n), hex(M.mask)
            assert (1 << alpha) - 1 <= _colours(D.mask, D.mask, n), hex(M.mask)
            assert sigma <= _colours(M.mask, D.mask, n), hex(M.mask)


def test_colour_classes_are_independent_and_stop_at_the_limit():
    rng = random.Random("colour-classes")
    for n in (3, 5, 7):
        E = _seeded_mask(n, 0.5, rng.getrandbits(32))
        # the clique search colours E over E's table, the sigma search
        # over the complement's
        for X in (E, ground_mask(n) & ~E):
            table = TranslateTable(X, n)
            classes = matroid._colour_classes(E, table, 1 << n)
            assert sum(classes) == E and sum(c.bit_count() for c in classes) == E.bit_count()
            for cls in classes:
                pts = list(iter_bits(cls))
                assert not any((X >> (q ^ r)) & 1 for q, r in itertools.combinations(pts, 2))
            limit = len(classes) - 1
            capped = matroid._colour_classes(E, table, limit)
            assert capped[:limit] == classes[:limit]
            assert capped[limit:] == [classes[limit]]


def test_rank_mask_matches_echelon_basis():
    rng = random.Random("rank-mask")
    for n in range(0, 17):
        ground = ground_mask(n)
        cases = [0, ground]
        if n:
            cases.append(1 << rng.randrange(1, 1 << n))
        for density in (0.001, 0.01, 0.1, 0.5):
            if n <= 12:
                cases.append(_seeded_mask(n, density, rng.getrandbits(32)))
            else:  # fewer points, so that the oracle stays quick
                cases.append(mask_of(rng.sample(range(1, 1 << n), 1 + int(density * 64))))
        for mask in cases:
            want = len(gf2.echelon_basis(iter_bits(mask)))
            assert matroid.rank_mask(mask, n) == want, (n, hex(mask))


def test_sigma_table_stays_under_its_bound(monkeypatch):
    # the alpha and sigma searches share one table of the complement T;
    # the colourings read T+q for most q in E, and a table that kept
    # them all would hold up to 2^14 translates of 2 KiB (32 MiB)
    made = []

    class Recording(TranslateTable):
        __slots__ = ()

        def __init__(self, mask, n):
            super().__init__(mask, n)
            made.append(self)

    monkeypatch.setattr(matroid, "TranslateTable", Recording)
    n = 14
    # a dense set whose complement holds a 6-flat, so alpha >= 6 and the
    # sigma search is not cut short by its cap
    flat = closure([1 << i for i in range(6)], n).members
    M = BinaryMatroid(n, ground_mask(n) & ~(flat | _seeded_mask(n, 0.01, 14)))
    with pytest.raises(BudgetExceeded):
        induced_independence_number(M, budget=5000)
    (table,) = made
    T = ground_mask(n) & ~M.mask
    assert table.entries[0] == T
    stored = [u for u, e in enumerate(table.entries) if e]
    assert (len(stored) - 1) * (1 << n) // 8 <= gf2.TRANSLATE_TABLE_BYTES
    assert table.room == 0  # the bound was reached, so it was exercised
    for u in stored[:: len(stored) // 50]:
        assert table.entries[u] == gf2.xor_translate(T, u, n)


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
