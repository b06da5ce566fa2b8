"""Decomposers, decomposition trees, coset confinement."""

import random

import pytest

from binmatroid import (
    BinaryMatroid,
    Join,
    Leaf,
    PartitionInstance,
    bose_burton,
    c4,
    check_coset_confinement,
    closure,
    complementary_flat,
    decompose,
    defect_set,
    empty_matroid,
    find_decomposer,
    flats_of_dim,
    has_decomposer,
    has_singleton_decomposer,
    independent_matroid,
    is_decomposer,
    leaves,
    lift_join,
    minimal_decomposer_containing,
    pg_sum,
    reconstruct,
    restrict,
    tree_point_map,
    verify_structure_theorem,
)
from binmatroid import classify, invariants
from binmatroid import census, gf2, matroid, structure, verify
from binmatroid.census import random_even_plane_mask, sample_claw_free_mask
from binmatroid.gf2 import (
    TranslateTable,
    bits_list,
    closure_mask,
    full_flat,
    ground_mask,
    iter_bits,
    xor_translate,
)
from binmatroid.structure import fold_invariants, has_decomposer_mask, tree_flags
from linear_images import mapped, random_images


def test_defect_set_examples():
    assert defect_set(c4(), 3) == 0
    assert bits_list(defect_set(independent_matroid(3), 1)) == [2, 3, 4, 5]
    assert defect_set(empty_matroid(4), 5) == 0
    with pytest.raises(ValueError):
        defect_set(c4(), 0)


def test_defect_set_symmetric():
    rng = random.Random(0)
    for _ in range(100):
        M = BinaryMatroid(4, rng.getrandbits(15) << 1)
        a = rng.randint(1, 15)
        D = defect_set(M, a)
        for x in iter_bits(D):
            assert x != a
            assert (D >> (x ^ a)) & 1 or (x ^ a) == a


def test_minimal_decomposer_examples():
    F = minimal_decomposer_containing(c4(), 3)
    assert F is not None and F.points() == [3]
    assert minimal_decomposer_containing(independent_matroid(3), 1) is None
    F = minimal_decomposer_containing(empty_matroid(4), 1)
    assert F is not None and F.points() == [1]


def test_find_decomposer_examples():
    assert find_decomposer(c4()).points() == [3]
    assert find_decomposer(independent_matroid(3)) is None
    # non-full-rank inputs always split off a hyperplane
    M = BinaryMatroid.from_points([1, 2, 3], 3)
    F = find_decomposer(M)
    assert F is not None and is_decomposer(M, F)
    assert has_decomposer(M)
    assert find_decomposer(BinaryMatroid.from_points([1], 1)) is None


def test_is_decomposer_examples():
    assert is_decomposer(c4(), closure([3], 3))
    assert not is_decomposer(c4(), closure([1], 3))
    for a in range(1, 8):
        assert not is_decomposer(independent_matroid(3), closure([a], 3))
    with pytest.raises(ValueError):
        is_decomposer(c4(), closure([], 3))
    with pytest.raises(ValueError):
        is_decomposer(c4(), full_flat(3))


def test_fixpoint_soundness_and_minimality_exhaustive():
    proper = [F for d in (1, 2) for F in flats_of_dim(3, d)]
    for code in range(1 << 7):
        M = BinaryMatroid(3, code << 1)
        for a in range(1, 8):
            F = minimal_decomposer_containing(M, a)
            if F is not None:
                assert is_decomposer(M, F)
                assert F == closure_mask(F.members, 3)  # read off its span
        for F in proper:
            if is_decomposer(M, F):
                for a in F.points():
                    fix = minimal_decomposer_containing(M, a)
                    assert fix is not None
                    assert fix.members & ~F.members == 0  # contained in F


def test_find_and_has_decomposer_agree():
    for code in range(1 << 7):
        M = BinaryMatroid(3, code << 1)
        assert (find_decomposer(M) is not None) == has_decomposer(M)


def _decomposer_candidates(n, rng, count):
    """Uniform sets and lift-joins of uniform factors at dimension n."""
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            out.append(BinaryMatroid(n, rng.getrandbits((1 << n) - 1) << 1))
        else:
            d = rng.randint(1, n - 1)
            left = BinaryMatroid(d, rng.getrandbits((1 << d) - 1) << 1)
            right = BinaryMatroid(n - d, rng.getrandbits((1 << (n - d)) - 1) << 1)
            out.append(lift_join(left, right))
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_find_decomposer_matches_flat_scan(n):
    # every minimum-dimension decomposer is the fixpoint of each of its
    # points, so the search returns the least (dim, basis) over all flats
    flats = [F for d in range(1, n) for F in flats_of_dim(n, d)]
    rng = random.Random(f"decomposer:{n}")
    found = 0
    for M in _decomposer_candidates(n, rng, 60):
        want = min(
            ((F.dim, F.basis) for F in flats if is_decomposer(M, F)), default=None
        )
        F = find_decomposer(M)
        assert (None if F is None else (F.dim, F.basis)) == want, hex(M.mask)
        assert has_decomposer(M) == (want is not None)
        found += want is not None
    assert 10 <= found < 60


def test_find_decomposer_table_stays_under_its_bound(monkeypatch):
    # every anchor the walk visits reads E+a, so at n = 14 a table that
    # kept every entry would hold up to 2^14 translates of 2 KiB (32 MiB);
    # refuted anchors leave about 1 000 reads on this set, so the bound is
    # lowered to 256 entries to be reached
    made = []
    monkeypatch.setattr(gf2, "TRANSLATE_TABLE_BYTES", 1 << 19)

    class Recording(TranslateTable):
        __slots__ = ()

        def __init__(self, mask, n):
            super().__init__(mask, n)
            made.append(self)

    monkeypatch.setattr(structure, "TranslateTable", Recording)
    n = 14
    rng = random.Random(14)
    M = BinaryMatroid.from_points(rng.sample(range(1, 1 << n), 40), n)
    assert find_decomposer(M) is None
    (table,) = made
    stored = [u for u, t in enumerate(table.entries) if t]
    assert (len(stored) - 1) * (1 << n) // 8 <= gf2.TRANSLATE_TABLE_BYTES
    assert table.room == 0  # the bound was reached, so it was exercised
    for u in stored[:: len(stored) // 50]:
        assert table.entries[u] == gf2.xor_translate(M.mask, u, n)


def test_singleton_decomposer_matches_translate_conditions():
    # the least a with a + E = E or a + (E ∪ {0}) = E ∪ {0}, on every set
    # at n <= 4; up to n = 3 these are checked to be exactly the one-point
    # decomposers
    for n in (2, 3, 4):
        points = range(1, 1 << n)
        for code in range(1 << ((1 << n) - 1)):
            M = BinaryMatroid(n, code << 1)
            E, with_zero = M.mask, M.mask | 1
            fixed = [
                b for b in points
                if xor_translate(E, b, n) == E or xor_translate(with_zero, b, n) == with_zero
            ]
            if n <= 3:
                assert fixed == [b for b in points if is_decomposer(M, closure([b], n))]
            assert has_singleton_decomposer(M) == (fixed[0] if fixed else None), hex(M.mask)
    for M in (BinaryMatroid(0, 0), BinaryMatroid(1, 0), BinaryMatroid(1, 2)):
        assert has_singleton_decomposer(M) is None  # no proper nonempty flat


def test_nested_decomposers_lift():
    # a decomposer of a factor, mapped back, decomposes the whole matroid:
    # in A⊗B⊗C the span of A and B decomposes, and inside it the span of A
    # decomposes the restriction
    rng = random.Random(7)
    hits = 0
    for _ in range(100):
        da, db, dc = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        parts = [
            BinaryMatroid(d, rng.getrandbits((1 << d) - 1) << 1)
            for d in (da, db, dc)
        ]
        M = lift_join(lift_join(parts[0], parts[1]), parts[2])
        F = closure(list(range(1, 1 << (da + db))), M.n)
        assert is_decomposer(M, F)
        inner = find_decomposer(restrict(M, F))
        if inner is None or inner.dim == F.dim:
            continue
        lifted = closure([F.from_local(p) for p in inner.points()], M.n)
        assert is_decomposer(M, lifted)
        hits += 1
    assert hits >= 50


def test_decompose_c4_full_recursion():
    tree = decompose(c4())
    assert isinstance(tree, Join)
    assert tree.flat.points() == [3]
    assert isinstance(tree.left, Leaf)
    assert tree.left.matroid == empty_matroid(1)
    right = tree.right
    assert isinstance(right, Join)
    assert isinstance(right.left, Leaf) and right.left.matroid == empty_matroid(1)
    assert isinstance(right.right, Leaf)
    assert right.right.matroid == BinaryMatroid.from_points([1], 1)


def test_decompose_leaf_cases():
    tree = decompose(independent_matroid(3))
    assert isinstance(tree, Leaf)
    assert not tree.tags.claw_free  # a claw is allowed to be un-basic
    tree = decompose(empty_matroid(1))
    assert isinstance(tree, Leaf)
    assert tree.tags.even_plane and tree.tags.pg_sum


def test_decompose_stop_at_basic():
    tree = decompose(c4(), stop_at_basic=True)
    assert isinstance(tree, Leaf)  # C4 is itself even-plane
    assert tree.tags.even_plane


@pytest.mark.parametrize("stop_at_basic", [False, True])
def test_decompose_classifies_each_node_once(monkeypatch, stop_at_basic):
    from binmatroid import structure
    from binmatroid.recognize import classify

    calls = []

    def counting(M):
        calls.append(M)
        return classify(M)

    monkeypatch.setattr(structure, "classify", counting)
    claw = independent_matroid(3)
    M = lift_join(lift_join(claw, c4()), BinaryMatroid(1, 0b10))
    tree = decompose(M, stop_at_basic)

    def count(node):
        if isinstance(node, Leaf):
            return 1
        return count(node.left) + count(node.right) + (1 if stop_at_basic else 0)

    assert len(calls) == count(tree)
    assert isinstance(tree, Join)


def test_reconstruct_is_exact_through_recorded_map():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(1, 5)
        M = BinaryMatroid(n, rng.getrandbits((1 << n) - 1) << 1)
        tree = decompose(M)
        rebuilt = reconstruct(tree)
        assert rebuilt.n == M.n
        table = tree_point_map(tree)
        image = 0
        for v in iter_bits(M.mask):
            image |= 1 << table[v]
        assert image == rebuilt.mask
        assert reconstruct(Leaf(M, None)) == M


def test_decompose_leaves_have_no_decomposer():
    rng = random.Random(10)
    for _ in range(100):
        M = BinaryMatroid(4, rng.getrandbits(15) << 1)
        for leaf in leaves(decompose(M)):
            assert find_decomposer(leaf.matroid) is None


def test_verify_structure_theorem_examples():
    rep = verify_structure_theorem(c4())
    assert rep.even_plane and rep.decomposer.points() == [3] and rep.ok
    rep = verify_structure_theorem(pg_sum(1, 2))
    assert rep.strict_pg_sum and rep.ok
    rep = verify_structure_theorem(bose_burton(3, 1))
    assert rep.even_plane and rep.ok
    with pytest.raises(ValueError):
        verify_structure_theorem(independent_matroid(3))


def test_coset_confinement_example():
    inst = PartitionInstance(
        3,
        p_mask=0b10,  # {1}
        q_mask=0b1100,  # {2,3}
        r_mask=0b11110000,  # {4,5,6,7}
    )
    rep = check_coset_confinement(inst)
    assert rep.hypothesis_met and rep.closure_inside_pq and rep.cosets_confined
    assert rep.ok


def test_coset_confinement_empty_p_vacuous():
    inst = PartitionInstance(2, 0, 0b0110, 0b1000)
    rep = check_coset_confinement(inst)
    assert rep.hypothesis_met and rep.ok


def test_coset_confinement_hypothesis_not_met():
    # triangle {1,2,3} meets P={1} once and R={2} once
    inst = PartitionInstance(2, 0b10, 0b1000, 0b100)
    rep = check_coset_confinement(inst)
    assert not rep.hypothesis_met
    assert rep.ok  # not a failure, just out of scope


def _triangle_hypotheses(inst):
    """Reference hypothesis tests, one triangle {x, y, x + y} at a time: no
    triangle meets P and meets R exactly once; no triangle meets P, R1 and R2."""
    triangles = [
        (1 << x) | (1 << y) | (1 << (x ^ y))
        for x in range(1, 1 << inst.n)
        for y in range(x + 1, 1 << inst.n)
        if x ^ y > y
    ]
    hypothesis = not any(
        t & inst.p_mask and (t & inst.r_mask).bit_count() == 1 for t in triangles
    )
    refinement = None
    if inst.r1_mask is not None:
        refinement = not any(
            t & inst.p_mask and t & inst.r1_mask and t & inst.r2_mask for t in triangles
        )
    return hypothesis, refinement


def test_coset_hypotheses_match_triangle_loop():
    from binmatroid.verify import _structured_partition, _uniform_partition

    rng = random.Random("coset-translate")
    seen = set()
    for i in range(3000):
        n = 2 + i % 5
        make = _structured_partition if i % 3 else _uniform_partition
        inst = make(n, rng)
        rep = check_coset_confinement(inst)
        want = _triangle_hypotheses(inst)
        assert (rep.hypothesis_met, rep.refinement_hypothesis_met) == want, inst
        seen.add(want)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_partition_validation():
    with pytest.raises(ValueError):
        PartitionInstance(2, 0b10, 0b10, 0b1100)
    with pytest.raises(ValueError):
        PartitionInstance(2, 0b10, 0, 0b100)
    with pytest.raises(ValueError):
        PartitionInstance(2, 0b10, 0b1000, 0b100, r1_mask=0b100, r2_mask=None)


def test_dim3_singleton_claim():
    report = verify.verify_tiny()
    assert report["passed"]
    assert report["checked"] == 36  # odd-sized claw-free ground sets at n = 3
    assert report["violations"] == []


def test_rlj_in_place_equality_exhaustive_dim3():
    # decomposing is the same as being the in-place lift-join over the
    # canonical complementary flat
    from binmatroid.gf2 import xor_translate

    proper = [F for d in (1, 2) for F in flats_of_dim(3, d)]
    for code in range(1 << 7):
        M = BinaryMatroid(3, code << 1)
        for F in proper:
            J = complementary_flat(F)
            in_place = M.mask & F.members
            for e in iter_bits(M.mask & J.members):
                in_place |= xor_translate(F.span, e, 3)
            assert is_decomposer(M, F) == (in_place == M.mask)


def test_abstract_isomorphism_is_weaker_than_decomposing():
    # ({1,4}, 3) with F = {6}: the abstract join is isomorphic to M even
    # though F has a mixed coset, which is why the equivalence must be
    # stated in place
    from binmatroid import is_isomorphic

    M = BinaryMatroid.from_points([1, 4], 3)
    F = closure([6], 3)
    assert not is_decomposer(M, F)
    joined = lift_join(restrict(M, F), restrict(M, complementary_flat(F)))
    assert is_isomorphic(M, joined)


# ---------------------------------------------------------------------------
# Anchors in no decomposer, and the fold up the decomposition tree
# ---------------------------------------------------------------------------


def _unpruned_decomposer(M):
    """The anchor loop with every fixpoint grown in full, as the oracle."""
    best = None
    table = TranslateTable(M.mask, M.n)
    for a in range(1, 1 << M.n):
        span = structure._fixpoint_span(table, a)
        F = None if span is None else closure_mask(span & ~1, M.n)
        if F is not None and (best is None or (F.dim, F.basis) < (best.dim, best.basis)):
            best = F
            if best.dim == 1:
                break
    return best


def _random_factor(d, rng):
    """Empty, full, claw-free or uniform ground set at dimension d."""
    r = rng.random()
    if r < 0.15:
        return BinaryMatroid(d, 0)
    if r < 0.3:
        return BinaryMatroid(d, ground_mask(d))
    if r < 0.65:
        return BinaryMatroid(d, sample_claw_free_mask(d, rng))
    return BinaryMatroid(d, rng.getrandbits((1 << d) - 1) << 1)


def _random_lift_join(n, rng):
    """A lift-join tree of random factors, 1-dimensional ones included."""
    if n == 1 or rng.random() < 0.25:
        return _random_factor(n, rng)
    d = rng.randint(1, n - 1)
    return lift_join(_random_lift_join(d, rng), _random_lift_join(n - d, rng))


def _mapped_lift_joins(n, count, seed):
    rng = random.Random(f"mapped-lift-join:{n}:{seed}")
    return [
        mapped(_random_lift_join(n, rng), random_images(n, rng))
        for _ in range(count)
    ]


def _equal_factor_chain(n, d, rng):
    """A lift-join chain of random factors of dimension d (one shorter
    factor last when d does not divide n), so that its decomposers come in
    several flats of one dimension."""
    M = _random_factor(min(d, n), rng)
    while M.n < n:
        M = lift_join(M, _random_factor(min(d, n - M.n), rng))
    return M


def _mapped_chains(n, count, seed):
    rng = random.Random(f"mapped-chain:{n}:{seed}")
    return [
        mapped(_equal_factor_chain(n, rng.randint(1, n // 2), rng), random_images(n, rng))
        for _ in range(count)
    ]


def _assert_anchor_walk(M):
    """`_anchor_spans` yields the spans of the walk without probes that are
    smaller than every span before them, so its sizes fall strictly and
    its last span is the first one of the least dimension.  True when
    that dimension has more than one span, a tie the cap meets."""
    table = TranslateTable(M.mask, M.n)
    spans = list(_anchor_spans_without_probes(table))
    falling = []
    for span in spans:
        if not falling or span.bit_count() < falling[-1].bit_count():
            falling.append(span)
    assert list(structure._anchor_spans(table)) == falling, hex(M.mask)
    return sum(span.bit_count() == falling[-1].bit_count() for span in spans) > 1


def _pruned_spans(M):
    table = TranslateTable(M.mask, M.n)
    bad = 0
    spans = []
    for a in range(1, 1 << M.n):
        span = structure._fixpoint_span(table, a, bad)
        if span is None:
            bad |= 1 << a
        spans.append(span)
    return spans


def _unpruned_spans(M):
    table = TranslateTable(M.mask, M.n)
    return [structure._fixpoint_span(table, a) for a in range(1, 1 << M.n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pruned_decomposer_search_exhaustive(n):
    # an anchor whose span reaches an anchor in no decomposer is in none
    # itself, so pruning changes no anchor's answer, nor the flat found
    for code in range(1 << ((1 << n) - 1)):
        M = BinaryMatroid(n, code << 1)
        want = _unpruned_decomposer(M)
        assert find_decomposer(M) == want, hex(M.mask)
        assert has_decomposer_mask(M.mask, n) == (want is not None)
        if n <= 3 or code % 7 == 0:
            assert _pruned_spans(M) == _unpruned_spans(M), hex(M.mask)
            _assert_anchor_walk(M)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_pruned_decomposer_search_seeded(n):
    rng = random.Random(f"pruned:{n}")
    count = {5: 60, 6: 40, 7: 16, 8: 8}[n]
    inputs = _decomposer_candidates(n, rng, count) + _mapped_lift_joins(n, count, 0)
    inputs += _mapped_chains(n, count // 2, 0)
    found = ties = 0
    for M in inputs:
        want = _unpruned_decomposer(M)
        F = find_decomposer(M)
        assert F == want, hex(M.mask)
        assert F is None or F == closure_mask(F.members, n), hex(M.mask)
        assert has_decomposer_mask(M.mask, n) == (want is not None)
        found += want is not None
        ties += _assert_anchor_walk(M)
        if n <= 6:
            assert _pruned_spans(M) == _unpruned_spans(M), hex(M.mask)
    assert 0 < found < len(inputs)
    assert ties > 0


def _quadric(n):
    """Points where x1x2 + x3x4 + ... is 1: full-rank for n >= 4, and with
    no decomposer only at even n; at odd n the last coordinate is free."""
    mask = 0
    for v in range(1, 1 << n):
        q = 0
        for i in range(0, n - 1, 2):
            q ^= (v >> i) & (v >> (i + 1)) & 1
        mask |= q << v
    return BinaryMatroid(n, mask)


def _anchor_spans_without_probes(table):
    """The anchor walk with no point probes and no early exit on the defect
    union: a fixpoint gives up only once its span meets the bad-anchor
    bitset.  Each growth step reads `structure.xor_translate`."""
    n = table.n
    E = table.entries[0]
    full_span = ground_mask(n) | 1
    bad = 0
    for a in range(1, 1 << n):
        span, processed = 1 | (1 << a), 1
        while span != full_span and span & ~processed and not span & bad:
            fresh = span & ~processed
            processed = span
            need = 0
            for b in iter_bits(fresh):
                need |= E ^ table.get(b)
            rest = need & ~span
            while rest and not span & bad:
                low = rest & -rest
                span |= structure.xor_translate(span, low.bit_length() - 1, n)
                rest &= ~span
        if span == full_span or span & bad:
            bad |= 1 << a
        else:
            yield span


def _least_flat(spans, n):
    """The least (dim, basis) flat over spans, stopping at a singleton."""
    best = None
    for span in spans:
        F = closure_mask(span & ~1, n)
        if best is None or (F.dim, F.basis) < (best.dim, best.basis):
            best = F
            if best.dim == 1:
                break
    return best


def _decomposer_without_probes(M):
    """The least flat over `_anchor_spans_without_probes`."""
    return _least_flat(_anchor_spans_without_probes(TranslateTable(M.mask, M.n)), M.n)


def _anchor_spans_four_probes(table):
    """The anchor walk that keeps its first four anchors in no decomposer as
    point probes: a later anchor a is dropped when some probe b has
    [b in E] != [b + a in E], and every other anchor runs its fixpoint."""
    bad = 0
    probes = []
    member = ""
    for a in range(1, 1 << table.n):
        if probes and any(member[b] != member[b ^ a] for b in probes):
            bad |= 1 << a
            continue
        span = structure._fixpoint_span(table, a, bad)
        if span is not None:
            yield span
            continue
        bad |= 1 << a
        if len(probes) < 4:
            if not probes:
                member = bin(table.entries[0] | 1 << (1 << table.n))[:2:-1]
            probes.append(a)


def test_decomposer_growth_steps_frozen(monkeypatch):
    # each growth step of a fixpoint span is one translate of the span;
    # the 4 095 anchors of the quadric at n = 12 take 45 045 steps
    # unpruned, 4 120 with the bad-anchor bitset alone, 31 once four bad
    # anchors serve as point probes and a fixpoint stops when its defect
    # union meets the bitset, and 11 once every bad anchor refutes the
    # anchors it differs from
    steps = []

    def counting(mask, a, n):
        steps.append(a)
        return gf2.xor_translate(mask, a, n)

    monkeypatch.setattr(structure, "xor_translate", counting)
    M = _quadric(12)
    assert find_decomposer(M) is None
    assert len(steps) == 11
    steps.clear()
    assert not has_decomposer_mask(M.mask, 12)
    assert len(steps) == 11
    steps.clear()
    table = TranslateTable(M.mask, 12)
    assert _least_flat(_anchor_spans_four_probes(table), 12) is None
    assert len(steps) == 31
    steps.clear()
    assert _decomposer_without_probes(M) is None
    assert len(steps) == 4120


def _seeded_inputs(n, rng):
    """Uniform sets, claw-free samples, mapped lift-join trees and mapped
    chains of equal-dimension factors at dimension n."""
    count = {1: 2, 2: 6, 3: 10, 4: 12, 5: 12, 6: 10, 7: 8, 8: 6, 9: 4, 10: 3}[n]
    out = []
    for _ in range(count):
        d = rng.randint(1, max(1, n // 2))
        out += [
            BinaryMatroid(n, rng.getrandbits((1 << n) - 1) << 1),
            BinaryMatroid(n, sample_claw_free_mask(n, rng)),
            mapped(_random_lift_join(n, rng), random_images(n, rng)),
            mapped(_equal_factor_chain(n, d, rng), random_images(n, rng)),
        ]
    return out


def _decompose_walking_both(M, stop_at_basic=False):
    """`decompose` searching both factors of each join for a decomposer,
    with `_decomposer_without_probes` as the search."""
    tags = None
    if stop_at_basic:
        tags = classify(M)
        if tags.even_plane or tags.complement_triangle_free or tags.strict_pg_sum:
            return Leaf(M, tags)
    F = _decomposer_without_probes(M)
    if F is None:
        return structure._leaf(M, tags)
    J = complementary_flat(F)
    return Join(
        left=_decompose_walking_both(restrict(M, F), stop_at_basic),
        right=_decompose_walking_both(restrict(M, J), stop_at_basic),
        flat=F,
        cofactor=J,
    )


def _joins(node):
    if isinstance(node, Leaf):
        return []
    return [node] + _joins(node.left) + _joins(node.right)


@pytest.mark.parametrize("n", range(1, 11))
def test_left_factor_of_a_minimum_decomposer_is_a_leaf(n):
    # a decomposer of M|F would decompose M too and be smaller than F
    rng = random.Random(f"left-leaf:{n}")
    joins = 0
    for M in _seeded_inputs(n, rng):
        for stop_at_basic in (False, True):
            try:
                want = _decompose_walking_both(M, stop_at_basic)
            except structure.StructureTheoremViolation:
                with pytest.raises(structure.StructureTheoremViolation):
                    decompose(M, stop_at_basic)
                continue
            tree = decompose(M, stop_at_basic)
            assert tree == want, hex(M.mask)
            for node in _joins(tree):
                assert isinstance(node.left, Leaf)
                assert _decomposer_without_probes(node.left.matroid) is None
                joins += 1
    if n >= 2:
        assert joins > 0


def _elliptic_quadric(n):
    """The quadric plus x1 + x2; like the quadric, it has no decomposer at
    even n, and at odd n the last coordinate is free."""
    return BinaryMatroid(n, _quadric(n).mask ^ ground_mask(n) & ~_hyperplane_mask(n))


def _hyperplane_mask(n):
    """Points with x1 + x2 = 0."""
    return sum(1 << v for v in range(1, 1 << n) if not ((v ^ (v >> 1)) & 1))


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_probed_decomposer_search_matches_walk_without_probes(n):
    # refuted anchors and the early exit only drop anchors the walk
    # without them drops too, and the cap only spans no smaller than one
    # already yielded, so both find the same flat
    rng = random.Random(f"probed:{n}")
    inputs = [
        mapped(Q, random_images(n, rng))
        for Q in (_quadric(n), _elliptic_quadric(n))
    ]
    for a in (1, n // 2, n - 1):
        inputs.append(mapped(pg_sum(a, n - a), random_images(n, rng)))
    inputs += _mapped_lift_joins(n, {9: 6, 10: 4, 11: 3, 12: 2}[n], 2)
    inputs += _mapped_chains(n, {9: 4, 10: 3, 11: 2, 12: 2}[n], 2)
    found = ties = 0
    for i, M in enumerate(inputs):
        want = _decomposer_without_probes(M)
        if i < 2:  # the two quadrics
            assert (want is None) == (n % 2 == 0), hex(M.mask)
        F = find_decomposer(M)
        assert F == want, hex(M.mask)
        assert F is None or F == closure_mask(F.members, n), hex(M.mask)
        assert has_decomposer_mask(M.mask, n) == (want is not None), hex(M.mask)
        found += want is not None
        if n <= 10:
            ties += _assert_anchor_walk(M)
    assert 0 < found < len(inputs)
    assert ties > 0 or n > 10


def _assert_fold_matches(M, tree):
    assert tree_flags(M, tree) == classify(M), hex(M.mask)
    assert fold_invariants(tree) == invariants(M), hex(M.mask)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fold_matches_direct_invariants_exhaustive(n):
    # every ground set, so every empty, full and 1-dimensional factor
    joins = 0
    for code in range(1 << ((1 << n) - 1)):
        M = BinaryMatroid(n, code << 1)
        tree = decompose(M)
        if isinstance(tree, Join):
            joins += 1
            _assert_fold_matches(M, tree)
    assert joins > 0


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_fold_matches_direct_invariants_on_mapped_lift_joins(n):
    count = {5: 60, 6: 40, 7: 20, 8: 12}[n]
    joins = 0
    for M in _mapped_lift_joins(n, count, 1):
        for stop_at_basic in (False, True):
            tree = decompose(M, stop_at_basic)
            joins += isinstance(tree, Join)
            _assert_fold_matches(M, tree)
    assert joins >= count


# ---------------------------------------------------------------------------
# Invariants at the leaves, read off their tags
# ---------------------------------------------------------------------------


def _assert_leaf_matches(M):
    """The leaf identities against the direct searches; True when a tag
    decided one of omega, alpha, sigma."""
    tags = classify(M)
    assert structure._leaf_invariants(Leaf(M, tags)) == invariants(M), hex(M.mask)
    return tags.even_plane or tags.complement_triangle_free or tags.claw_free


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_leaf_invariants_exhaustive(n):
    decided = 0
    for code in range(1 << max((1 << n) - 1, 0)):
        decided += _assert_leaf_matches(BinaryMatroid(n, code << 1))
    assert decided > 0


def _basic_sets(n, count, rng):
    """Seeded even-plane, complement triangle-free, PG-sum and sampled
    claw-free ground sets; the PG-sums are moved by random linear maps."""
    masks = []
    for _ in range(count):
        d1 = rng.randint(1, n - 1)
        d2 = n - d1 if rng.random() < 0.5 else rng.randint(0, n - d1)
        masks += [
            random_even_plane_mask(n, rng),
            ground_mask(n) & ~census._greedy_triangle_free(n, rng),
            mapped(BinaryMatroid(n, pg_sum(d1, d2).mask), random_images(n, rng)).mask,
            sample_claw_free_mask(n, rng),
        ]
    return [BinaryMatroid(n, mask) for mask in masks]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_leaf_invariants_seeded(n):
    count = {5: 10, 6: 6, 7: 3, 8: 2}[n]
    inputs = _basic_sets(n, count, random.Random(f"leaf-invariants:{n}"))
    flags = [classify(M) for M in inputs]
    assert any(f.even_plane for f in flags) and any(f.complement_triangle_free for f in flags)
    assert any(f.strict_pg_sum for f in flags) and all(f.claw_free for f in flags)
    for M in inputs:
        assert _assert_leaf_matches(M)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_leaf_invariants_search_alpha_once(n, monkeypatch):
    # a leaf in no basic class searches for omega and alpha once each, and
    # its sigma search takes that alpha; an even-plane leaf searches for
    # neither, since its tags and Dickson's identity decide both
    rng = random.Random(f"leaf-alpha-once:{n}")
    M = BinaryMatroid(n, rng.getrandbits(1 << n) & ground_mask(n))
    tags = classify(M)
    assert not (tags.even_plane or tags.complement_triangle_free or tags.claw_free)
    want = invariants(M)
    searched = []
    search = matroid._clique_search

    def counted(table, budget):
        searched.append(table.entries[0])
        return search(table, budget)

    monkeypatch.setattr(matroid, "_clique_search", counted)
    monkeypatch.setattr(structure, "_clique_search", counted)
    assert structure._leaf_invariants(Leaf(M, tags)) == want
    assert searched == [M.mask, ground_mask(n) & ~M.mask]
    even = 0
    while even < 3:
        M = BinaryMatroid(n, random_even_plane_mask(n, rng))
        tags = classify(M)
        if tags.complement_triangle_free or tags.strict_pg_sum:
            continue
        even += 1
        want = invariants(M)
        searched.clear()
        assert structure._leaf_invariants(Leaf(M, tags)) == want, hex(M.mask)
        assert searched == []


@pytest.mark.parametrize("n", [6, 7, 8])
def test_leaf_alpha_and_sigma_share_one_table(n, monkeypatch):
    # a leaf in no basic class builds one translate table for its alpha
    # and sigma searches, the table of T = G \\ E; the omega search reads
    # E's own table, and no search builds another
    made = []

    class Recording(TranslateTable):
        __slots__ = ()

        def __init__(self, mask, n):
            super().__init__(mask, n)
            made.append(mask)

    rng = random.Random(f"leaf-one-table:{n}")
    while True:
        M = BinaryMatroid(n, rng.getrandbits(1 << n) & ground_mask(n))
        T = ground_mask(n) & ~M.mask
        flat = matroid._clique_search(TranslateTable(T, n), None)[2]
        if not matroid._coset_witness(M.mask, n, flat):
            break  # so the sigma search walks T's alpha-flats on the same table
    tags = classify(M)
    assert not tags.claw_free
    want = invariants(M)
    monkeypatch.setattr(matroid, "TranslateTable", Recording)
    monkeypatch.setattr(structure, "TranslateTable", Recording)
    assert structure._leaf_invariants(Leaf(M, tags)) == want
    assert made == [M.mask, T]
    made.clear()
    assert matroid.induced_independence_number(M) == want.sigma
    assert made == [T]


def _alpha_search(mask, n):
    return matroid._clique_search(TranslateTable(ground_mask(n) & ~mask, n), None)[0]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_dickson_alpha_exhaustive(n):
    # every even-plane set, as a sum of the family's basis members
    masks = census.even_plane_masks(n)
    assert len(masks) == 1 << (n + n * (n - 1) // 2)
    for mask in masks:
        assert structure._dickson_alpha(mask, n) == _alpha_search(mask, n), hex(mask)


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_dickson_alpha_seeded(n):
    rng = random.Random(f"dickson:{n}")
    sizes = set()
    for _ in range({6: 30, 7: 20, 8: 10, 9: 5}[n]):
        mask = random_even_plane_mask(n, rng)
        sizes.add((2 * mask.bit_count() > 1 << n) - (2 * mask.bit_count() < 1 << n))
        assert structure._dickson_alpha(mask, n) == _alpha_search(mask, n), hex(mask)
    assert len(sizes) > 1  # more than one of the three sizes was drawn


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_pg_sum_leaf_identities(n):
    # omega = max(a, b) and alpha = min(a, b) on a strict PG-sum of an
    # a-flat and a b-flat, a + b = n, moved by random linear maps; the
    # even-plane tag decides omega first on the small even-plane ones
    rng = random.Random(f"pg-sum-leaf:{n}")
    for a in range(1, n // 2 + 1):
        for _ in range(2):
            images = random_images(n, rng)
            M = mapped(BinaryMatroid(n, pg_sum(a, n - a).mask), images)
            tags = classify(M)
            assert tags.strict_pg_sum and tags.even_plane == (n < 4 or (n, a) == (4, 2))
            rec = structure._leaf_invariants(Leaf(M, tags))
            assert (rec.omega, rec.alpha) == (n - a, a), hex(M.mask)
            assert rec.omega == matroid.clique_number(M), hex(M.mask)
            assert rec.alpha == _alpha_search(M.mask, n), hex(M.mask)
