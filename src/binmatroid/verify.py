"""Theorem-verification suites with machine-readable reports.

Each suite returns a dict with at least: suite, passed, checked, and a
violations list holding counterexamples (empty on success).  Suites are
deterministic for a fixed seed; loops run sequentially in a fixed order.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from . import census, tables
from .construct import (
    c4,
    doubling,
    lift_join,
    partial_lift_join,
    pg_sum,
    semidoubling,
    target,
)
from .gf2 import (
    Flat,
    closure_mask,
    flats_of_dim,
    ground_mask,
    iter_bits,
    xor_translate,
)
from .matroid import (
    BinaryMatroid,
    clique_number,
    complement,
    has_induced_restriction,
    induced_independence_number,
    rank_mask,
    restrict,
)
from .recognize import (
    claw_free_any,
    is_target,
    pg_sum_forbidden_mask,
    pg_sum_witness_mask,
    strict_pg_sum_mask,
    triangle_free_mask,
)
from .structure import (
    PartitionInstance,
    check_coset_confinement,
    check_dim3_odd_singleton_decomposers,
    has_decomposer_mask,
    is_decomposer,
)


def _structure_outcome(mask: int, n: int) -> Optional[str]:
    """First satisfied outcome for a claw-free ground set, or None."""
    if tables.even_plane_mask(mask, n):
        return "even_plane"
    if triangle_free_mask(ground_mask(n) & ~mask, n):
        return "complement_triangle_free"
    if strict_pg_sum_mask(mask, n):
        return "strict_pg_sum"
    if has_decomposer_mask(mask, n):
        return "decomposer"
    return None


def _n_max_fields(requested: int, cap: int) -> dict:
    """Report fields of an exhaustive range clamped at `cap`: `n_max` is the
    range actually checked, and `n_max_requested` is added when it differs."""
    effective = min(requested, cap)
    if effective == requested:
        return {"n_max": effective}
    return {"n_max": effective, "n_max_requested": requested}


#: a suite stops checking once its violation list grows past this many
MAX_VIOLATIONS = 20


def _truncation_fields(stopped_at: Optional[int]) -> dict:
    """Report fields of the violation cap: `truncated` says whether the
    suite stopped at it, and `stopped_at` is the number of cases checked
    when it first did."""
    if stopped_at is None:
        return {"truncated": False}
    return {"truncated": True, "stopped_at": stopped_at}


def verify_structure(n_max: int = 4) -> dict:
    """Every claw-free ground set at n <= n_max satisfies one of the four
    structure outcomes; exhaustive sweep."""
    fields = _n_max_fields(n_max, 4)
    n_max = fields["n_max"]
    checked = 0
    outcomes = {"even_plane": 0, "complement_triangle_free": 0, "strict_pg_sum": 0, "decomposer": 0}
    violations = []
    for n in range(n_max + 1):
        if n < 3:
            checked += tables.ground_codes(n)
            outcomes["even_plane"] += tables.ground_codes(n)
            continue
        sweep = tables.sweep_tables(n)
        claw_free = sweep["claw_free"]
        even = sweep["even_plane"]
        for code in np.flatnonzero(claw_free):
            mask = int(code) << 1
            checked += 1
            if even[code]:
                outcomes["even_plane"] += 1
                continue
            out = _structure_outcome(mask, n)
            if out is None:
                violations.append({"n": n, "points": list(iter_bits(mask))})
            else:
                outcomes[out] += 1
    return {
        "suite": "structure",
        "mode": "exhaustive",
        **fields,
        "checked": checked,
        "outcomes": outcomes,
        "violations": violations,
        "passed": not violations,
    }


def verify_structure_sampled(n: int, samples: int, seed: int) -> dict:
    """Seeded claw-free samples at one dimension, zero outcome violations."""
    rng = random.Random(f"{seed}:{n}")
    checked = 0
    outcomes = {"even_plane": 0, "complement_triangle_free": 0, "strict_pg_sum": 0, "decomposer": 0}
    violations = []
    for _ in range(samples):
        mask = census.sample_claw_free_mask(n, rng)
        if not tables.claw_free_mask(mask, n):  # sampler contract re-checked
            violations.append({"n": n, "points": list(iter_bits(mask)), "reason": "sampler produced a claw"})
            continue
        checked += 1
        out = _structure_outcome(mask, n)
        if out is None:
            violations.append({"n": n, "points": list(iter_bits(mask))})
        else:
            outcomes[out] += 1
    return {
        "suite": "structure",
        "mode": "sample",
        "n": n,
        "samples": samples,
        "seed": seed,
        "checked": checked,
        "outcomes": outcomes,
        "violations": violations,
        "passed": not violations,
    }


def density_floor(r: int) -> int:
    """2^floor(r/2) + 2^ceil(r/2) - 2."""
    return (1 << (r // 2)) + (1 << ((r + 1) // 2)) - 2


def verify_density(n_max: int = 4) -> dict:
    """Exhaustive minima of |E| over full-rank claw-free ground sets, and
    the equality classes at r = 3, 4."""
    fields = _n_max_fields(n_max, 4)
    n_max = fields["n_max"]
    results = {}
    violations = []
    for r in range(1, n_max + 1):
        floor = density_floor(r)
        best: Optional[int] = None
        witnesses: set[int] = set()
        table = census.canon_table(r)
        for mask in tables.claw_free_masks_list(r):
            size = mask.bit_count()
            if best is not None and size > best:
                continue
            if rank_mask(mask, r) != r:
                continue
            if best is None or size < best:
                best = size
                witnesses = {table[mask]}
            else:
                witnesses.add(table[mask])
        results[r] = {
            "min_size": best,
            "expected": floor,
            "witness_classes": sorted(sorted(iter_bits(w)) for w in witnesses),
        }
        if best != floor:
            violations.append({"r": r, "min_size": best, "expected": floor})
    if n_max >= 3:
        want3 = {
            census.canon_table(3)[c4().mask],
            census.canon_table(3)[pg_sum(1, 2).mask],
        }
        got3 = {sum(1 << p for p in w) for w in results[3]["witness_classes"]}
        if got3 != want3:
            violations.append({"r": 3, "witness_mismatch": results[3]["witness_classes"]})
    if n_max >= 4:
        want4 = {census.canon_table(4)[pg_sum(2, 2).mask]}
        got4 = {sum(1 << p for p in w) for w in results[4]["witness_classes"]}
        if got4 != want4:
            violations.append({"r": 4, "witness_mismatch": results[4]["witness_classes"]})
    return {
        "suite": "density",
        **fields,
        "results": results,
        "violations": violations,
        "checked": sum(len(tables.claw_free_masks_list(r)) for r in range(1, n_max + 1)),
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Lift-join algebra
# ---------------------------------------------------------------------------

_PAIR_DIMS = [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4]  # weighted toward small factors
_TRIPLE_DIMS = [0, 1, 1, 2, 2, 2, 3, 3]


def _random_matroid(n: int, rng: random.Random) -> BinaryMatroid:
    return BinaryMatroid(n, rng.getrandbits((1 << n) - 1) << 1 if n else 0)


def _random_flat_of_dim(n: int, d: int, rng: random.Random) -> Flat:
    if d == 0:
        return closure_mask(0, n)
    while True:
        pts = {rng.randint(1, (1 << n) - 1) for _ in range(d)}
        F = closure_mask(sum(1 << p for p in pts), n)
        if F.dim == d:
            return F


def _random_flat(n: int, rng: random.Random) -> Flat:
    return _random_flat_of_dim(n, rng.randint(0, n), rng)


def _random_claw_free(n: int, rng: random.Random) -> BinaryMatroid:
    pool = tables.claw_free_masks_list(n)
    return BinaryMatroid(n, pool[rng.randrange(len(pool))])


def _random_i4_free(n: int, rng: random.Random) -> BinaryMatroid:
    while True:
        M = _random_matroid(n, rng)
        if induced_independence_number(M) <= 3:
            return M


def verify_ljparams(samples: int = 10_000, seed: int = 0) -> dict:
    """Lift-join algebra: bitwise associativity, complement homomorphism,
    clique/critical-number additivity, sigma and full rank of a join from
    its factors, restriction compatibility, claw-free closure; plus
    partial lift-join bounds on sigma and omega."""
    rng = random.Random(seed)
    violations = []
    checked = 0
    stopped_at = None

    for i in range(samples):
        checked += 1
        # associativity, bitwise
        da, db, dc = (rng.choice(_TRIPLE_DIMS) for _ in range(3))
        A, B, C = (_random_matroid(d, rng) for d in (da, db, dc))
        left = lift_join(lift_join(A, B), C)
        right = lift_join(A, lift_join(B, C))
        if left != right:
            violations.append({"check": "associativity", "i": i})
        # complement homomorphism, bitwise
        d1, d2 = rng.choice(_PAIR_DIMS), rng.choice(_PAIR_DIMS)
        M1, M2 = _random_matroid(d1, rng), _random_matroid(d2, rng)
        M = lift_join(M1, M2)
        if complement(M) != lift_join(complement(M1), complement(M2)):
            violations.append({"check": "complement", "i": i})
        # parameter additivity
        w1, w2 = clique_number(M1), clique_number(M2)
        if clique_number(M) != w1 + w2:
            violations.append({"check": "omega_additive", "i": i})
        a1 = clique_number(complement(M1))
        a2 = clique_number(complement(M2))
        chi = M.n - clique_number(complement(M))
        if chi != (M1.n - a1) + (M2.n - a2):
            violations.append({"check": "chi_additive", "i": i})
        # sigma and full rank through the join, as `structure.fold_invariants`
        # reads them
        sigma = max(induced_independence_number(M1), induced_independence_number(M2))
        if M1.mask != ground_mask(d1) and M2.mask:
            sigma = max(sigma, 2)
        if induced_independence_number(M) != sigma:
            violations.append({"check": "sigma_lift_join", "i": i})
        # a 0-dimensional M2 leaves M = M1, outside the rank rule
        if d2 and (rank_mask(M.mask, M.n) == M.n) != (rank_mask(M2.mask, d2) == d2):
            violations.append({"check": "full_rank_lift_join", "i": i})
        # restriction compatibility, bitwise
        F1, F2 = _random_flat(d1, rng), _random_flat(d2, rng)
        combined = closure_mask(
            F1.members | sum(1 << (v << d1) for v in iter_bits(F2.members)), M.n
        )
        if restrict(M, combined) != lift_join(restrict(M1, F1), restrict(M2, F2)):
            violations.append({"check": "restriction", "i": i})
        # claw-free closure
        c1 = _random_claw_free(rng.choice(_PAIR_DIMS), rng)
        c2 = _random_claw_free(rng.choice(_PAIR_DIMS), rng)
        cj = lift_join(c1, c2)
        if not claw_free_any(cj.mask, cj.n):
            violations.append({"check": "claw_free_closure", "i": i})
        # partial lift-join bounds on sigma and omega
        P1, P2 = _random_matroid(d1, rng), _random_matroid(d2, rng)
        G1, G2 = _random_flat(d1, rng), _random_flat(d2, rng)
        PM = partial_lift_join(P1, G1, P2, G2)
        s1, s2 = induced_independence_number(P1), induced_independence_number(P2)
        if induced_independence_number(PM) > max(3, 2 * (s1 + s2)):
            violations.append({"check": "partial_sigma", "i": i})
        if clique_number(PM) > clique_number(P1) + clique_number(P2):
            violations.append({"check": "partial_omega", "i": i})
        if len(violations) > MAX_VIOLATIONS:
            stopped_at = checked
            break

    for i in range(samples // 10):
        checked += 1
        f1 = _random_i4_free(rng.choice(_PAIR_DIMS), rng)
        f2 = _random_i4_free(rng.choice(_PAIR_DIMS), rng)
        fj = lift_join(f1, f2)
        if induced_independence_number(fj) > 3:
            violations.append({"check": "i4_free_closure", "i": i})
            if len(violations) > MAX_VIOLATIONS:
                if stopped_at is None:
                    stopped_at = checked
                break

    return {
        "suite": "ljparams",
        "samples": samples,
        "seed": seed,
        "checked": checked,
        **_truncation_fields(stopped_at),
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# PG-sum recognizer agreement and perfection
# ---------------------------------------------------------------------------


def _random_disjoint_flat_pair(n: int, rng: random.Random) -> Optional[tuple[int, int]]:
    F1 = _random_flat(n, rng)
    tries = 0
    while tries < 20:
        F2 = _random_flat(n, rng)
        if F1.members & F2.members == 0:
            return (F1.members, F2.members)
        tries += 1
    return None


def verify_pgsum(n_max: int = 4, samples: int = 100_000, seed: int = 0) -> dict:
    """Direct and forbidden-restriction recognizers agree (exhaustive at
    n <= n_max, sampled at n = 5); PG-sums have equal clique and critical
    numbers."""
    fields = _n_max_fields(n_max, 4)
    rng = random.Random(seed)
    violations = []
    checked = 0
    stopped_at = None
    for n in range(fields["n_max"] + 1):
        if n < 3:
            for code in range(tables.ground_codes(n)):
                checked += 1
                mask = code << 1
                if (pg_sum_witness_mask(mask, n) is not None) != pg_sum_forbidden_mask(mask, n):
                    violations.append({"n": n, "points": list(iter_bits(mask))})
            continue
        forbidden_col = tables.sweep_tables(n)["pg_sum_forbidden_route"]
        for code in range(tables.ground_codes(n)):
            checked += 1
            mask = code << 1
            direct = pg_sum_witness_mask(mask, n) is not None
            if direct != bool(forbidden_col[code]):
                violations.append({"n": n, "points": list(iter_bits(mask))})
        if len(violations) > MAX_VIOLATIONS:
            stopped_at = checked
            break

    sampled = 0
    if samples:
        n = 5
        for i in range(samples):
            roll = rng.random()
            if roll < 0.6:
                mask = census.sample_uniform_mask(n, rng)
            elif roll < 0.8:
                pair = _random_disjoint_flat_pair(n, rng)
                mask = (pair[0] | pair[1]) if pair else census.sample_uniform_mask(n, rng)
            else:
                pair = _random_disjoint_flat_pair(n, rng)
                mask = (pair[0] | pair[1]) if pair else census.sample_uniform_mask(n, rng)
                for _ in range(rng.randint(1, 2)):
                    mask ^= 1 << rng.randint(1, (1 << n) - 1)
            sampled += 1
            if (pg_sum_witness_mask(mask, n) is not None) != pg_sum_forbidden_mask(mask, n):
                violations.append({"n": n, "points": list(iter_bits(mask))})
                if len(violations) > MAX_VIOLATIONS:
                    if stopped_at is None:
                        stopped_at = checked + sampled
                    break

    # perfection: chi equals omega on PG-sums
    chi_checked = 0
    for n in range(fields["n_max"] + 1):
        all_flats = [F.members for d in range(n + 1) for F in flats_of_dim(n, d)]
        for fm1 in all_flats:
            for fm2 in all_flats:
                if fm1 & fm2:
                    continue
                M = BinaryMatroid(n, fm1 | fm2)
                chi_checked += 1
                if M.n - clique_number(complement(M)) != clique_number(M):
                    violations.append({"n": n, "chi_neq_omega": M.points()})
    for d1 in range(6):
        for d2 in range(6 - d1):
            M = pg_sum(d1, d2)
            chi_checked += 1
            if M.n - clique_number(complement(M)) != clique_number(M):
                violations.append({"pg_sum": (d1, d2), "chi_neq_omega": True})

    return {
        "suite": "pgsum",
        **fields,
        "samples": samples,
        "seed": seed,
        "checked": checked,
        "sampled": sampled,
        "chi_checked": chi_checked,
        **_truncation_fields(stopped_at),
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Targets vs claw-free + anticlaw-free
# ---------------------------------------------------------------------------


def _random_gl_image(mask: int, n: int, rng: random.Random) -> int:
    gens = census.gl_generators(n)
    if not gens:
        return mask
    for _ in range(8):
        mask = census.transform_mask(mask, gens[rng.randrange(len(gens))])
    return mask


def _random_target_mask(n: int, rng: random.Random) -> int:
    k = rng.randint(0, n + 1)
    dims = sorted(rng.randint(0, n) for _ in range(k))
    return _random_gl_image(target(n, dims).mask, n, rng)


def verify_target(n_max: int = 4, samples: int = 100_000, seed: int = 0) -> dict:
    """Target recognizer agrees with claw-free + anticlaw-free, exhaustive
    at n <= n_max and sampled at n = 5."""
    fields = _n_max_fields(n_max, 4)
    rng = random.Random(seed)
    violations = []
    checked = 0
    stopped_at = None
    for n in range(fields["n_max"] + 1):
        if n < 3:
            for code in range(tables.ground_codes(n)):
                checked += 1
                M = BinaryMatroid(n, code << 1)
                if (is_target(M) is not None) is False:
                    violations.append({"n": n, "points": M.points()})
            continue
        sweep = tables.sweep_tables(n)
        both = sweep["claw_free"] & sweep["anticlaw_free"]
        for code in range(tables.ground_codes(n)):
            checked += 1
            M = BinaryMatroid(n, int(code) << 1)
            if (is_target(M) is not None) != bool(both[code]):
                violations.append({"n": n, "points": M.points()})
        if len(violations) > MAX_VIOLATIONS:
            stopped_at = checked
            break

    sampled = 0
    if samples:
        n = 5
        for i in range(samples):
            roll = rng.random()
            if roll < 0.4:
                mask = census.sample_uniform_mask(n, rng)
            elif roll < 0.7:
                mask = _random_target_mask(n, rng)
            elif roll < 0.85:
                mask = _random_target_mask(n, rng)
                for _ in range(rng.randint(1, 3)):
                    mask ^= 1 << rng.randint(1, (1 << n) - 1)
            else:
                mask = census.sample_claw_free_mask(n, rng)
            sampled += 1
            lhs = is_target(BinaryMatroid(n, mask)) is not None
            rhs = tables.claw_free_mask(mask, n) and tables.anticlaw_free_mask(mask, n)
            if lhs != rhs:
                violations.append({"n": n, "points": list(iter_bits(mask))})
                if len(violations) > MAX_VIOLATIONS:
                    if stopped_at is None:
                        stopped_at = checked + sampled
                    break

    return {
        "suite": "target",
        **fields,
        "samples": samples,
        "seed": seed,
        "checked": checked,
        "sampled": sampled,
        **_truncation_fields(stopped_at),
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Decomposer equivalence (restrict-and-lift)
# ---------------------------------------------------------------------------


def verify_rlj(samples: int = 2_000, seed: int = 0, recon_samples: int = 10_000) -> dict:
    """is_decomposer(M, F) iff M equals the lift-join of M|F and M|J in
    place (ground set (E∩F) ∪ ((E∩J) + span F), J the canonical disjoint
    maximal flat); exhaustive at n <= 3, sampled at n = 4, 5.  When F
    decomposes, the re-embedded join must also match M under the
    coordinate change sending F's basis low and J's high.  Also:
    reconstruct(decompose(M)) equals M under the recorded coordinate
    change, on random samples at n <= 6.

    Note the one-sided subtlety: a flat can fail to decompose M while the
    abstract join is coincidentally isomorphic to M, so the equivalence
    is stated with the in-place ground set, exactly as the lemma reads.
    """
    from .gf2 import complementary_flat
    from .matroid import linear_map_table
    from .structure import decompose, reconstruct, tree_point_map

    rng = random.Random(seed)
    violations = []
    checked = 0

    def check_one(M: BinaryMatroid, F: Flat) -> None:
        nonlocal checked
        checked += 1
        J = complementary_flat(F)
        in_place = M.mask & F.members
        span = F.span
        for e in iter_bits(M.mask & J.members):
            in_place |= xor_translate(span, e, M.n)
        lhs = is_decomposer(M, F)
        if lhs != (in_place == M.mask):
            violations.append({"n": M.n, "points": M.points(), "flat": F.points()})
            return
        if lhs:
            # the re-embedded join equals M through the basis change
            joined = lift_join(restrict(M, F), restrict(M, J))
            table = linear_map_table(list(F.basis) + list(J.basis), M.n)
            inverse = [0] * (1 << M.n)
            for y, v in enumerate(table):
                inverse[v] = y
            image = 0
            for v in iter_bits(M.mask):
                image |= 1 << inverse[v]
            if image != joined.mask:
                violations.append(
                    {"n": M.n, "points": M.points(), "flat": F.points(), "reason": "join image"}
                )

    for n in (2, 3):
        proper_flats = [F for d in range(1, n) for F in flats_of_dim(n, d)]
        for code in range(tables.ground_codes(n)):
            M = BinaryMatroid(n, code << 1)
            for F in proper_flats:
                check_one(M, F)

    for n in (4, 5):
        proper_flats = [F for d in range(1, n) for F in flats_of_dim(n, d)]
        for _ in range(samples):
            M = _random_matroid(n, rng)
            check_one(M, proper_flats[rng.randrange(len(proper_flats))])

    recon_checked = 0
    recon_exact = 0
    stopped_at = None
    for _ in range(recon_samples):
        n = rng.randint(1, 6)
        M = _random_matroid(n, rng)
        tree = decompose(M)
        rebuilt = reconstruct(tree)
        recon_checked += 1
        table = tree_point_map(tree)
        image = 0
        for v in iter_bits(M.mask):
            image |= 1 << table[v]
        if image != rebuilt.mask or rebuilt.n != M.n:
            violations.append({"check": "reconstruct", "n": n, "points": M.points()})
            if len(violations) > MAX_VIOLATIONS:
                stopped_at = checked + recon_checked
                break
        else:
            recon_exact += 1

    return {
        "suite": "rlj",
        "samples": samples,
        "recon_samples": recon_samples,
        "seed": seed,
        "checked": checked,
        "recon_checked": recon_checked,
        "recon_exact": recon_exact,
        **_truncation_fields(stopped_at),
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Coset confinement
# ---------------------------------------------------------------------------


def _structured_partition(n: int, rng: random.Random) -> PartitionInstance:
    """Partition built from a flat and whole cosets; hypothesis holds by
    construction (triangles through the flat meet any coset 0 or 2 times)."""
    from .gf2 import cosets as flat_cosets

    d = rng.randint(1, max(1, n - 1))
    W = _random_flat_of_dim(n, d, rng)
    keep = rng.uniform(0.2, 0.9)
    p_mask = 0
    for v in iter_bits(W.members):
        if rng.random() < keep:
            p_mask |= 1 << v
    q_mask = W.members & ~p_mask
    r_mask = 0
    r1_mask = 0
    for cos in flat_cosets(W):
        if rng.random() < 0.5:
            q_mask |= cos
        else:
            r_mask |= cos
            if rng.random() < 0.5:
                r1_mask |= cos
    if rng.random() < 0.3:
        # point-level split of R: the refinement hypothesis may fail,
        # which the checker records without failing
        r1_mask = 0
        for v in iter_bits(r_mask):
            if rng.random() < 0.5:
                r1_mask |= 1 << v
    return PartitionInstance(
        n, p_mask, q_mask, r_mask, r1_mask, r_mask & ~r1_mask
    )


def _uniform_partition(n: int, rng: random.Random) -> PartitionInstance:
    p = q = r = 0
    for v in range(1, 1 << n):
        roll = rng.random()
        if roll < 0.25:
            p |= 1 << v
        elif roll < 0.6:
            q |= 1 << v
        else:
            r |= 1 << v
    r1 = 0
    for v in iter_bits(r):
        if rng.random() < 0.5:
            r1 |= 1 << v
    return PartitionInstance(n, p, q, r, r1, r & ~r1)


def verify_coset(samples: int = 10_000, n_max: int = 5, seed: int = 0) -> dict:
    """Hypothesis-satisfying partitions all satisfy both conclusions,
    including the refinement; instances are generated until the quota of
    hypothesis-met cases is reached."""
    rng = random.Random(seed)
    met = 0
    generated = 0
    refinement_met = 0
    violations = []
    stopped_at = None
    while met < samples:
        generated += 1
        n = rng.randint(2, n_max)
        inst = (
            _structured_partition(n, rng)
            if rng.random() < 0.7
            else _uniform_partition(n, rng)
        )
        report = check_coset_confinement(inst)
        if not report.ok:
            violations.append(
                {"n": n, "P": list(iter_bits(inst.p_mask)), "R": list(iter_bits(inst.r_mask))}
            )
            if len(violations) > MAX_VIOLATIONS:
                stopped_at = generated
                break
        if report.hypothesis_met:
            met += 1
            if report.refinement_hypothesis_met:
                refinement_met += 1
    return {
        "suite": "coset",
        "samples": samples,
        "n_max": n_max,
        "seed": seed,
        "generated": generated,
        "hypothesis_met": met,
        "refinement_met": refinement_met,
        **_truncation_fields(stopped_at),
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Small exhaustive claims
# ---------------------------------------------------------------------------


def verify_tiny() -> dict:
    report = check_dim3_odd_singleton_decomposers()
    return {
        "suite": "tiny",
        "checked": report["checked"],
        "violations": report["failures"],
        "passed": report["passed"],
    }


def verify_semidouble(n_max: int = 4) -> dict:
    """Doubling and semidoubling preserve the even-plane property, as does
    symmetric difference with a hyperplane complement; all even-plane
    ground sets at n <= n_max."""
    fields = _n_max_fields(n_max, 4)
    n_max = fields["n_max"]
    checked = 0
    violations = []
    stopped_at = None
    for n in range(n_max + 1):
        hyperplanes = list(flats_of_dim(n, n - 1)) if n >= 1 else []
        for mask in census.even_plane_masks(n):
            M = BinaryMatroid(n, mask)
            checked += 1
            if not tables.even_plane_mask(doubling(M).mask, n + 1):
                violations.append({"op": "doubling", "n": n, "points": M.points()})
            g = ground_mask(n)
            for H in hyperplanes:
                if not tables.even_plane_mask(semidoubling(M, H).mask, n + 1):
                    violations.append(
                        {"op": "semidoubling", "n": n, "points": M.points(), "h": H.points()}
                    )
                sym = mask ^ (g & ~H.members)
                if not tables.even_plane_mask(sym, n):
                    violations.append(
                        {"op": "sym_diff", "n": n, "points": M.points(), "h": H.points()}
                    )
            if len(violations) > MAX_VIOLATIONS:
                stopped_at = checked
                break
        if stopped_at is not None:
            break
    return {
        "suite": "semidouble",
        **fields,
        "checked": checked,
        **_truncation_fields(stopped_at),
        "violations": violations,
        "passed": not violations,
    }


def verify_bbt(n_max: int = 4) -> dict:
    """Flat-avoidance density bound: |E| <= 2^n - 2^(n-w) with w the clique
    number, equality only for Bose-Burton geometries; plus w <= chi."""
    from .recognize import is_bose_burton

    fields = _n_max_fields(n_max, 4)
    n_max = fields["n_max"]
    checked = 0
    violations = []
    for n in range(n_max + 1):
        for code in range(tables.ground_codes(n)):
            mask = code << 1
            M = BinaryMatroid(n, mask)
            checked += 1
            w = clique_number(M)
            chi = n - clique_number(complement(M))
            if w > chi:
                violations.append({"n": n, "points": M.points(), "reason": "omega>chi"})
                continue
            bound = (1 << n) - (1 << (n - w))
            size = M.size
            if size > bound:
                violations.append({"n": n, "points": M.points(), "reason": "bbt bound"})
            elif size == bound and is_bose_burton(M) != w:
                violations.append({"n": n, "points": M.points(), "reason": "bbt equality"})
    return {
        "suite": "bbt",
        **fields,
        "checked": checked,
        "violations": violations,
        "passed": not violations,
    }


def verify_cftf(n_max: int = 4) -> dict:
    """Full-rank claw-free triangle-free ground sets are exactly the
    order-1 Bose-Burton geometries."""
    from .recognize import is_bose_burton

    fields = _n_max_fields(n_max, 4)
    n_max = fields["n_max"]
    checked = 0
    violations = []
    # dimension 0 is degenerate: the empty matroid is full-rank, claw-free
    # and triangle-free, but no flat can have dimension -1
    for n in range(1, n_max + 1):
        claw_col = (
            tables.sweep_tables(n)["claw_free"] if n >= 3 else None
        )
        for code in range(tables.ground_codes(n)):
            mask = code << 1
            if rank_mask(mask, n) != n:
                continue
            checked += 1
            cf = bool(claw_col[code]) if claw_col is not None else True
            lhs = cf and triangle_free_mask(mask, n)
            rhs = is_bose_burton(BinaryMatroid(n, mask)) == 1
            if lhs != rhs:
                violations.append({"n": n, "points": list(iter_bits(mask))})
    return {
        "suite": "cftf",
        **fields,
        "checked": checked,
        "violations": violations,
        "passed": not violations,
    }


def verify_chibound(n_max: int = 5) -> dict:
    """Within the even-plane family: a matroid with no copy of N has
    critical number at most dim(N) + 4; all class pairs at n <= n_max."""
    fields = _n_max_fields(n_max, 5)
    n_max = fields["n_max"]
    reps: list[BinaryMatroid] = []
    for n in range(n_max + 1):
        reps += [BinaryMatroid(n, m) for m in census.even_plane_classes(n)]
    chi = {M: M.n - clique_number(complement(M)) for M in reps}
    checked = 0
    violations = []
    for M in reps:
        for N in reps:
            checked += 1
            if N.n <= M.n and has_induced_restriction(M, N):
                continue
            if chi[M] > N.n + 4:
                violations.append(
                    {"M": M.points(), "nM": M.n, "N": N.points(), "nN": N.n, "chi": chi[M]}
                )
    return {
        "suite": "chibound",
        **fields,
        "pairs": checked,
        "violations": violations,
        "passed": not violations,
    }


# ---------------------------------------------------------------------------
# Suite registry for the command line
# ---------------------------------------------------------------------------


def run_suite(name: str, n_max: Optional[int] = None, seed: int = 0, samples: Optional[int] = None) -> dict:
    """Dispatch a named suite with its defaults."""
    if name == "structure":
        if n_max is not None and n_max >= 5:
            reports = [verify_structure(4)] + [
                verify_structure_sampled(n, 100_000 if samples is None else samples, seed)
                for n in range(5, min(n_max, 6) + 1)
            ]
            merged = {
                "suite": "structure",
                **_n_max_fields(n_max, 6),
                "checked": sum(r["checked"] for r in reports),
                "violations": sum((r["violations"] for r in reports), []),
                "parts": reports,
            }
            merged["passed"] = not merged["violations"]
            return merged
        return verify_structure(4 if n_max is None else n_max)
    if name == "density":
        return verify_density(4 if n_max is None else n_max)
    if name == "ljparams":
        return verify_ljparams(10_000 if samples is None else samples, seed)
    if name == "pgsum":
        return verify_pgsum(4 if n_max is None else n_max, samples if samples is not None else 100_000, seed)
    if name == "target":
        return verify_target(4 if n_max is None else n_max, samples if samples is not None else 100_000, seed)
    if name == "rlj":
        return verify_rlj(seed=seed, recon_samples=10_000 if samples is None else samples)
    if name == "coset":
        return verify_coset(10_000 if samples is None else samples, 5 if n_max is None else n_max, seed)
    if name == "tiny":
        return verify_tiny()
    if name == "semidouble":
        return verify_semidouble(4 if n_max is None else n_max)
    if name == "bbt":
        return verify_bbt(4 if n_max is None else n_max)
    if name == "cftf":
        return verify_cftf(4 if n_max is None else n_max)
    if name == "chibound":
        return verify_chibound(5 if n_max is None else n_max)
    raise ValueError(f"unknown suite {name!r}")


SUITE_NAMES = (
    "structure",
    "density",
    "ljparams",
    "pgsum",
    "target",
    "rlj",
    "coset",
    "tiny",
    "semidouble",
    "bbt",
    "cftf",
    "chibound",
)
