"""Class predicates: triangle-free, even-plane, PG-sums, targets."""

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
)
from binmatroid.census import even_plane_masks
from binmatroid.gf2 import flats_of_dim


def test_triangle_free_examples():
    assert is_triangle_free(independent_matroid(3))
    assert not is_triangle_free(BinaryMatroid.from_points([1, 2, 3], 2))
    assert is_triangle_free(c4())


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
