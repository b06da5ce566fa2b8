"""Theorem-verification suites with machine-readable reports.

Each suite returns a dict with at least: suite, a count of the cases
checked, and the fields of its `_Ledger`: truncated, a violations list
holding counterexamples (empty on success) and passed.  Suites are
deterministic for a fixed seed; loops run sequentially in a fixed order.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from typing import Optional

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
    MAX_DIM,
    Flat,
    closure_mask,
    complementary_flat,
    cosets,
    flats_of_dim,
    ground_mask,
    iter_bits,
    xor_translate,
)
from .matroid import (
    BinaryMatroid,
    clique_number,
    complement,
    critical_number,
    has_induced_restriction,
    induced_independence_number,
    linear_map_table,
    rank_mask,
    restrict,
    transform_mask,
)
from .recognize import (
    claw_free_any,
    is_bose_burton,
    is_target,
    pg_sum_forbidden_mask,
    pg_sum_witness_mask,
    strict_pg_sum_mask,
    triangle_free_mask,
)
from .structure import (
    PartitionInstance,
    check_coset_confinement,
    decompose,
    has_decomposer_mask,
    is_decomposer,
    reconstruct,
    tree_point_map,
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


def _n_max_fields(requested: int, cap: int, low: int = 0) -> dict:
    """Report fields of an exhaustive range clamped at `cap`: `n_max` is the
    range actually checked, and `n_max_requested` is added when it differs.
    A range starting at `low` would check nothing below it, so such an
    n_max is a ValueError."""
    if requested < low:
        raise ValueError(f"n_max must be at least {low}, got {requested}")
    effective = min(requested, cap)
    if effective == requested:
        return {"n_max": effective}
    return {"n_max": effective, "n_max_requested": requested}


#: a suite stops checking once its violation list grows past this many
MAX_VIOLATIONS = 20


@dataclass
class _Ledger:
    """A suite's violation list, capped at MAX_VIOLATIONS.

    `add` records a violation found among the first `checked` cases; at
    the one that takes the list past the cap it ends the `with` block the
    suite runs in, later phases included.  `fields` gives the report's
    `truncated`, `stopped_at` (the cases checked at the stop, present only
    when truncated), `violations` and `passed`."""

    violations: list = field(default_factory=list)
    stopped_at: Optional[int] = None

    class _Full(Exception):
        pass

    def add(self, violation, checked: int) -> None:
        self.violations.append(violation)
        if len(self.violations) > MAX_VIOLATIONS:
            self.stopped_at = checked
            raise self._Full

    def __enter__(self) -> "_Ledger":
        return self

    def __exit__(self, kind, value, traceback) -> bool:
        return kind is self._Full

    def fields(self) -> dict:
        if self.stopped_at is None:
            cap = {"truncated": False}
        else:
            cap = {"truncated": True, "stopped_at": self.stopped_at}
        return {**cap, "violations": self.violations, "passed": not self.violations}


def verify_structure(n_max: int = 4, samples: int = 100_000, seed: int = 0) -> dict:
    """Every claw-free ground set at n <= n_max satisfies one of the four
    structure outcomes: an exhaustive sweep up to n = 4, then for n_max >= 5
    `samples` seeded claw-free sets at each n = 5, 6, the parts merged.
    The parts share one ledger, so the merged report stops at the
    violation that takes their combined list past the cap."""
    top = min(n_max, 4)
    cases = ((n, mask) for n in range(top + 1) for mask in tables.claw_free_masks_list(n))
    report = {"suite": "structure", "mode": "exhaustive", "n_max": top}
    ledger = _Ledger()
    parts = [_tally_structure(report, cases, False, ledger)]
    if n_max < 5:
        return parts[0]
    for n in range(5, min(n_max, 6) + 1):
        if ledger.stopped_at is not None:
            break
        parts.append(_structure_sampled(n, samples, seed, ledger))
    checked = sum(r["checked"] for r in parts)
    merged = _Ledger(ledger.violations, None if ledger.stopped_at is None else checked)
    return {
        "suite": "structure",
        **_n_max_fields(n_max, 6),
        "checked": checked,
        **merged.fields(),
        "parts": parts,
    }


def verify_structure_sampled(n: int, samples: int, seed: int) -> dict:
    """Seeded claw-free samples at one dimension, zero outcome violations."""
    return _structure_sampled(n, samples, seed, _Ledger())


def _structure_sampled(n: int, samples: int, seed: int, ledger: _Ledger) -> dict:
    rng = random.Random(f"{seed}:{n}")
    cases = ((n, census.sample_claw_free_mask(n, rng)) for _ in range(samples))
    report = {"suite": "structure", "mode": "sample", "n": n, "samples": samples, "seed": seed}
    return _tally_structure(report, cases, True, ledger)


def _tally_structure(report: dict, cases, sampled: bool, ledger: _Ledger) -> dict:
    """`report` completed by the first structure outcome of each (n, mask)
    case; a case with none is a violation, added to the running `ledger`,
    and the report lists the violations of these cases only.  A sampled
    case is re-checked for claws first (the sampler's contract) and
    counts only once it passes."""
    checked = 0
    start = len(ledger.violations)
    outcomes = {"even_plane": 0, "complement_triangle_free": 0, "strict_pg_sum": 0, "decomposer": 0}
    with ledger:
        for n, mask in cases:
            if sampled and not claw_free_any(mask, n):
                violation = {"n": n, "points": list(iter_bits(mask)), "reason": "sampler produced a claw"}
                ledger.add(violation, checked)
                continue
            checked += 1
            out = _structure_outcome(mask, n)
            if out is None:
                ledger.add({"n": n, "points": list(iter_bits(mask))}, checked)
            else:
                outcomes[out] += 1
    part = _Ledger(ledger.violations[start:], ledger.stopped_at)
    return {**report, "checked": checked, "outcomes": outcomes, **part.fields()}


def density_floor(r: int) -> int:
    """2^floor(r/2) + 2^ceil(r/2) - 2."""
    return (1 << (r // 2)) + (1 << ((r + 1) // 2)) - 2


def verify_density(n_max: int = 4) -> dict:
    """No full-rank claw-free ground set is smaller than the floor, and one
    attains it (exhaustive); the equality classes at r = 3, 4.  The range
    starts at r = 1, so an n_max below 1 would check nothing."""
    fields = _n_max_fields(n_max, 4, low=1)
    n_max = fields["n_max"]
    results = {}
    checked = 0
    with _Ledger() as ledger:
        for r in range(1, n_max + 1):
            floor = density_floor(r)
            best: Optional[int] = None
            witnesses: set[int] = set()
            table = census.canon_table(r)
            for mask in tables.claw_free_masks_list(r):
                checked += 1
                size = mask.bit_count()
                if best is not None and size > best and size >= floor:
                    continue
                if rank_mask(mask, r) != r:
                    continue
                if size < floor:
                    ledger.add({"r": r, "points": list(iter_bits(mask)), "expected": floor}, checked)
                if best is None or size < best:
                    best = size
                    witnesses = {table[mask]}
                elif size == best:
                    witnesses.add(table[mask])
            results[r] = {
                "min_size": best,
                "expected": floor,
                "witness_classes": sorted(sorted(iter_bits(w)) for w in witnesses),
            }
            if best != floor:
                ledger.add({"r": r, "min_size": best, "expected": floor}, checked)
        if n_max >= 3:
            want3 = {
                census.canon_table(3)[c4().mask],
                census.canon_table(3)[pg_sum(1, 2).mask],
            }
            got3 = {sum(1 << p for p in w) for w in results[3]["witness_classes"]}
            if got3 != want3:
                ledger.add({"r": 3, "witness_mismatch": results[3]["witness_classes"]}, checked)
        if n_max >= 4:
            want4 = {census.canon_table(4)[pg_sum(2, 2).mask]}
            got4 = {sum(1 << p for p in w) for w in results[4]["witness_classes"]}
            if got4 != want4:
                ledger.add({"r": 4, "witness_mismatch": results[4]["witness_classes"]}, checked)
    return {"suite": "density", **fields, "results": results, "checked": checked, **ledger.fields()}


# ---------------------------------------------------------------------------
# Lift-join algebra
# ---------------------------------------------------------------------------

_PAIR_DIMS = [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4]  # weighted toward small factors
_TRIPLE_DIMS = [0, 1, 1, 2, 2, 2, 3, 3]


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


def _random_i4_free(n: int, rng: random.Random) -> BinaryMatroid:
    while True:
        M = BinaryMatroid(n, census.sample_uniform_mask(n, rng))
        if induced_independence_number(M) <= 3:
            return M


def verify_ljparams(samples: int = 10_000, seed: int = 0) -> dict:
    """Lift-join algebra: bitwise associativity, complement homomorphism,
    clique/critical-number additivity, sigma and full rank of a join from
    its factors, restriction compatibility, claw-free closure; plus
    partial lift-join bounds on sigma and omega."""
    rng = random.Random(seed)
    checked = 0
    with _Ledger() as ledger:
        for i in range(samples):
            checked += 1
            # associativity, bitwise
            da, db, dc = (rng.choice(_TRIPLE_DIMS) for _ in range(3))
            A, B, C = (BinaryMatroid(d, census.sample_uniform_mask(d, rng)) for d in (da, db, dc))
            left = lift_join(lift_join(A, B), C)
            right = lift_join(A, lift_join(B, C))
            if left != right:
                ledger.add({"check": "associativity", "i": i}, checked)
            # complement homomorphism, bitwise
            d1, d2 = rng.choice(_PAIR_DIMS), rng.choice(_PAIR_DIMS)
            M1, M2 = (BinaryMatroid(d, census.sample_uniform_mask(d, rng)) for d in (d1, d2))
            M = lift_join(M1, M2)
            if complement(M) != lift_join(complement(M1), complement(M2)):
                ledger.add({"check": "complement", "i": i}, checked)
            # parameter additivity
            w1, w2 = clique_number(M1), clique_number(M2)
            if clique_number(M) != w1 + w2:
                ledger.add({"check": "omega_additive", "i": i}, checked)
            if critical_number(M) != critical_number(M1) + critical_number(M2):
                ledger.add({"check": "chi_additive", "i": i}, checked)
            # sigma and full rank through the join, as `structure.fold_invariants`
            # reads them
            sigma = max(induced_independence_number(M1), induced_independence_number(M2))
            if M1.mask != ground_mask(d1) and M2.mask:
                sigma = max(sigma, 2)
            if induced_independence_number(M) != sigma:
                ledger.add({"check": "sigma_lift_join", "i": i}, checked)
            # a 0-dimensional M2 leaves M = M1, outside the rank rule
            if d2 and (rank_mask(M.mask, M.n) == M.n) != (rank_mask(M2.mask, d2) == d2):
                ledger.add({"check": "full_rank_lift_join", "i": i}, checked)
            # restriction compatibility, bitwise
            F1, F2 = _random_flat(d1, rng), _random_flat(d2, rng)
            combined = closure_mask(
                F1.members | sum(1 << (v << d1) for v in iter_bits(F2.members)), M.n
            )
            if restrict(M, combined) != lift_join(restrict(M1, F1), restrict(M2, F2)):
                ledger.add({"check": "restriction", "i": i}, checked)
            # claw-free closure
            d = rng.choice(_PAIR_DIMS)
            c1 = BinaryMatroid(d, census.sample_claw_free_mask(d, rng))
            d = rng.choice(_PAIR_DIMS)
            c2 = BinaryMatroid(d, census.sample_claw_free_mask(d, rng))
            cj = lift_join(c1, c2)
            if not claw_free_any(cj.mask, cj.n):
                ledger.add({"check": "claw_free_closure", "i": i}, checked)
            # partial lift-join bounds on sigma and omega
            P1, P2 = (BinaryMatroid(d, census.sample_uniform_mask(d, rng)) for d in (d1, d2))
            G1, G2 = _random_flat(d1, rng), _random_flat(d2, rng)
            PM = partial_lift_join(P1, G1, P2, G2)
            s1, s2 = induced_independence_number(P1), induced_independence_number(P2)
            if induced_independence_number(PM) > max(3, 2 * (s1 + s2)):
                ledger.add({"check": "partial_sigma", "i": i}, checked)
            if clique_number(PM) > clique_number(P1) + clique_number(P2):
                ledger.add({"check": "partial_omega", "i": i}, checked)

        for i in range(samples // 10):
            checked += 1
            f1 = _random_i4_free(rng.choice(_PAIR_DIMS), rng)
            f2 = _random_i4_free(rng.choice(_PAIR_DIMS), rng)
            fj = lift_join(f1, f2)
            if induced_independence_number(fj) > 3:
                ledger.add({"check": "i4_free_closure", "i": i}, checked)

    return {
        "suite": "ljparams",
        "samples": samples,
        "seed": seed,
        "checked": checked,
        **ledger.fields(),
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
    checked = sampled = chi_checked = 0
    with _Ledger() as ledger:
        for n in range(fields["n_max"] + 1):
            forbidden_col = tables.sweep_tables(n)["pg_sum_forbidden_route"]
            for code in range(tables.ground_codes(n)):
                checked += 1
                mask = code << 1
                direct = pg_sum_witness_mask(mask, n) is not None
                if direct != bool(forbidden_col[code]):
                    ledger.add({"n": n, "points": list(iter_bits(mask))}, checked)

        n = 5
        for i in range(samples):
            roll = rng.random()
            if roll < 0.6:
                mask = census.sample_uniform_mask(n, rng)
            else:
                pair = _random_disjoint_flat_pair(n, rng)
                mask = (pair[0] | pair[1]) if pair else census.sample_uniform_mask(n, rng)
                if roll >= 0.8:  # a PG-sum with one or two points flipped
                    for _ in range(rng.randint(1, 2)):
                        mask ^= 1 << rng.randint(1, (1 << n) - 1)
            sampled += 1
            if (pg_sum_witness_mask(mask, n) is not None) != pg_sum_forbidden_mask(mask, n):
                ledger.add({"n": n, "points": list(iter_bits(mask))}, checked + sampled)

        # perfection: chi equals omega on PG-sums
        for n in range(fields["n_max"] + 1):
            all_flats = [F.members for d in range(n + 1) for F in flats_of_dim(n, d)]
            for fm1 in all_flats:
                for fm2 in all_flats:
                    if fm1 & fm2:
                        continue
                    M = BinaryMatroid(n, fm1 | fm2)
                    chi_checked += 1
                    if critical_number(M) != clique_number(M):
                        ledger.add(
                            {"n": n, "chi_neq_omega": M.points()},
                            checked + sampled + chi_checked,
                        )
        for d1 in range(6):
            for d2 in range(6 - d1):
                M = pg_sum(d1, d2)
                chi_checked += 1
                if critical_number(M) != clique_number(M):
                    ledger.add(
                        {"pg_sum": (d1, d2), "chi_neq_omega": True},
                        checked + sampled + chi_checked,
                    )

    return {
        "suite": "pgsum",
        **fields,
        "samples": samples,
        "seed": seed,
        "checked": checked,
        "sampled": sampled,
        "chi_checked": chi_checked,
        **ledger.fields(),
    }


# ---------------------------------------------------------------------------
# Targets vs claw-free + anticlaw-free
# ---------------------------------------------------------------------------


def _random_gl_image(mask: int, n: int, rng: random.Random) -> int:
    gens = census.gl_generators(n)
    if not gens:
        return mask
    for _ in range(8):
        mask = transform_mask(mask, gens[rng.randrange(len(gens))])
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
    checked = sampled = 0
    with _Ledger() as ledger:
        for n in range(fields["n_max"] + 1):
            sweep = tables.sweep_tables(n)
            both = sweep["claw_free"] & sweep["anticlaw_free"]
            for code in range(tables.ground_codes(n)):
                checked += 1
                M = BinaryMatroid(n, code << 1)
                if (is_target(M) is not None) != bool(both[code]):
                    ledger.add({"n": n, "points": M.points()}, checked)

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
            rhs = claw_free_any(mask, n) and claw_free_any(ground_mask(n) & ~mask, n)
            if lhs != rhs:
                ledger.add({"n": n, "points": list(iter_bits(mask))}, checked + sampled)

    return {
        "suite": "target",
        **fields,
        "samples": samples,
        "seed": seed,
        "checked": checked,
        "sampled": sampled,
        **ledger.fields(),
    }


# ---------------------------------------------------------------------------
# Decomposer equivalence (restrict-and-lift)
# ---------------------------------------------------------------------------


def verify_rlj(samples: int = 2_000, seed: int = 0) -> dict:
    """is_decomposer(M, F) iff M equals the lift-join of M|F and M|J in
    place (ground set (E∩F) ∪ ((E∩J) + span F), J the canonical disjoint
    maximal flat); exhaustive at n <= 3, sampled at n = 4, 5.  When F
    decomposes, the re-embedded join must also match M under the
    coordinate change sending F's basis low and J's high.  Also:
    reconstruct(decompose(M)) equals M under the recorded coordinate
    change, on random samples at n <= 6.  `samples` flat checks are drawn
    at each of n = 4, 5, and 5 * `samples` reconstructions.

    Note the one-sided subtlety: a flat can fail to decompose M while the
    abstract join is coincidentally isomorphic to M, so the equivalence
    is stated with the in-place ground set, exactly as the lemma reads.
    """
    rng = random.Random(seed)
    ledger = _Ledger()
    checked = recon_checked = recon_exact = 0

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
            ledger.add({"n": M.n, "points": M.points(), "flat": F.points()}, checked)
            return
        if lhs:
            # the re-embedded join equals M through the basis change
            joined = lift_join(restrict(M, F), restrict(M, J))
            table = linear_map_table(list(F.basis) + list(J.basis), M.n)
            inverse = [0] * (1 << M.n)
            for y, v in enumerate(table):
                inverse[v] = y
            if transform_mask(M.mask, inverse) != joined.mask:
                ledger.add(
                    {"n": M.n, "points": M.points(), "flat": F.points(), "reason": "join image"},
                    checked,
                )

    with ledger:
        for n in (2, 3):
            proper_flats = [F for d in range(1, n) for F in flats_of_dim(n, d)]
            for code in range(tables.ground_codes(n)):
                M = BinaryMatroid(n, code << 1)
                for F in proper_flats:
                    check_one(M, F)

        for n in (4, 5):
            proper_flats = [F for d in range(1, n) for F in flats_of_dim(n, d)]
            for _ in range(samples):
                M = BinaryMatroid(n, census.sample_uniform_mask(n, rng))
                check_one(M, proper_flats[rng.randrange(len(proper_flats))])

        for _ in range(5 * samples):
            n = rng.randint(1, 6)
            M = BinaryMatroid(n, census.sample_uniform_mask(n, rng))
            tree = decompose(M)
            rebuilt = reconstruct(tree)
            recon_checked += 1
            image = transform_mask(M.mask, tree_point_map(tree))
            if image != rebuilt.mask or rebuilt.n != M.n:
                violation = {"check": "reconstruct", "n": n, "points": M.points()}
                ledger.add(violation, checked + recon_checked)
            else:
                recon_exact += 1

    return {
        "suite": "rlj",
        "samples": samples,
        "seed": seed,
        "checked": checked,
        "recon_checked": recon_checked,
        "recon_exact": recon_exact,
        **ledger.fields(),
    }


# ---------------------------------------------------------------------------
# Coset confinement
# ---------------------------------------------------------------------------


def _structured_partition(n: int, rng: random.Random) -> PartitionInstance:
    """Partition built from a flat and whole cosets; hypothesis holds by
    construction (triangles through the flat meet any coset 0 or 2 times)."""
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
    for cos in cosets(W):
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
    hypothesis-met cases is reached at random n in [2, n_max]."""
    if not 2 <= n_max <= MAX_DIM:
        raise ValueError(f"coset n_max must be in [2, {MAX_DIM}], got {n_max}")
    rng = random.Random(seed)
    met = 0
    generated = 0
    refinement_met = 0
    with _Ledger() as ledger:
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
                ledger.add(
                    {"n": n, "P": list(iter_bits(inst.p_mask)), "R": list(iter_bits(inst.r_mask))},
                    generated,
                )
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
        **ledger.fields(),
    }


# ---------------------------------------------------------------------------
# Small exhaustive claims
# ---------------------------------------------------------------------------


def verify_tiny() -> dict:
    """Every 3-dimensional odd-sized claw-free matroid has a one-element
    decomposer; exhaustive over all 128 ground sets."""
    checked = 0
    with _Ledger() as ledger:
        for code in range(1 << 7):
            M = BinaryMatroid(3, code << 1)
            if M.size % 2 == 0 or not claw_free_any(M.mask, 3):
                continue
            checked += 1
            if not any(is_decomposer(M, closure_mask(1 << a, 3)) for a in range(1, 8)):
                ledger.add(M.points(), checked)
    return {"suite": "tiny", "checked": checked, **ledger.fields()}


def verify_semidouble(n_max: int = 4) -> dict:
    """Doubling and semidoubling preserve the even-plane property, as does
    symmetric difference with a hyperplane complement; all even-plane
    ground sets at n <= n_max."""
    fields = _n_max_fields(n_max, 4)
    n_max = fields["n_max"]
    checked = 0
    with _Ledger() as ledger:
        for n in range(n_max + 1):
            hyperplanes = list(flats_of_dim(n, n - 1)) if n >= 1 else []
            g = ground_mask(n)
            for mask in census.even_plane_masks(n):
                M = BinaryMatroid(n, mask)
                checked += 1
                if not tables.even_plane_mask(doubling(M).mask, n + 1):
                    ledger.add({"op": "doubling", "n": n, "points": M.points()}, checked)
                for H in hyperplanes:
                    if not tables.even_plane_mask(semidoubling(M, H).mask, n + 1):
                        ledger.add(
                            {"op": "semidoubling", "n": n, "points": M.points(), "h": H.points()},
                            checked,
                        )
                    sym = mask ^ (g & ~H.members)
                    if not tables.even_plane_mask(sym, n):
                        ledger.add(
                            {"op": "sym_diff", "n": n, "points": M.points(), "h": H.points()},
                            checked,
                        )
    return {
        "suite": "semidouble",
        **fields,
        "checked": checked,
        **ledger.fields(),
    }


def verify_bbt(n_max: int = 4) -> dict:
    """Flat-avoidance density bound: |E| <= 2^n - 2^(n-w) with w the clique
    number, equality only for Bose-Burton geometries; plus w <= chi."""
    fields = _n_max_fields(n_max, 4)
    n_max = fields["n_max"]
    checked = 0
    with _Ledger() as ledger:
        for n in range(n_max + 1):
            for code in range(tables.ground_codes(n)):
                mask = code << 1
                M = BinaryMatroid(n, mask)
                checked += 1
                w = clique_number(M)
                chi = critical_number(M)
                if w > chi:
                    ledger.add({"n": n, "points": M.points(), "reason": "omega>chi"}, checked)
                    continue
                bound = (1 << n) - (1 << (n - w))
                size = M.size
                if size > bound:
                    ledger.add({"n": n, "points": M.points(), "reason": "bbt bound"}, checked)
                elif size == bound and is_bose_burton(M) != w:
                    ledger.add({"n": n, "points": M.points(), "reason": "bbt equality"}, checked)
    return {"suite": "bbt", **fields, "checked": checked, **ledger.fields()}


def verify_cftf(n_max: int = 4) -> dict:
    """Full-rank claw-free triangle-free ground sets are exactly the
    order-1 Bose-Burton geometries.  The range starts at n = 1, so an
    n_max below 1 would check nothing."""
    fields = _n_max_fields(n_max, 4, low=1)
    n_max = fields["n_max"]
    checked = 0
    # dimension 0 is degenerate: the empty matroid is full-rank, claw-free
    # and triangle-free, but no flat can have dimension -1
    with _Ledger() as ledger:
        for n in range(1, n_max + 1):
            claw_col = tables.sweep_tables(n)["claw_free"]
            for code in range(tables.ground_codes(n)):
                mask = code << 1
                if rank_mask(mask, n) != n:
                    continue
                checked += 1
                lhs = bool(claw_col[code]) and triangle_free_mask(mask, n)
                rhs = is_bose_burton(BinaryMatroid(n, mask)) == 1
                if lhs != rhs:
                    ledger.add({"n": n, "points": list(iter_bits(mask))}, checked)
    return {"suite": "cftf", **fields, "checked": checked, **ledger.fields()}


def verify_chibound(n_max: int = 5) -> dict:
    """Within the even-plane family: a matroid with no copy of N has
    critical number at most dim(N) + 4; all class pairs at n <= n_max."""
    fields = _n_max_fields(n_max, 5)
    n_max = fields["n_max"]
    reps: list[BinaryMatroid] = []
    for n in range(n_max + 1):
        reps += [BinaryMatroid(n, m) for m in census.even_plane_classes(n)]
    chi = {M: critical_number(M) for M in reps}
    pairs = 0
    with _Ledger() as ledger:
        for M in reps:
            for N in reps:
                pairs += 1
                if N.n <= M.n and has_induced_restriction(M, N):
                    continue
                if chi[M] > N.n + 4:
                    violation = {"M": M.points(), "nM": M.n, "N": N.points(), "nN": N.n, "chi": chi[M]}
                    ledger.add(violation, pairs)
    return {"suite": "chibound", **fields, "pairs": pairs, **ledger.fields()}


# ---------------------------------------------------------------------------
# Suite registry for the command line
# ---------------------------------------------------------------------------


#: suite name -> suite; `suite_keywords` reads from its signature which of
#: run_suite's n_max, samples and seed it takes
_SUITES = {
    "structure": verify_structure,
    "density": verify_density,
    "ljparams": verify_ljparams,
    "pgsum": verify_pgsum,
    "target": verify_target,
    "rlj": verify_rlj,
    "coset": verify_coset,
    "tiny": verify_tiny,
    "semidouble": verify_semidouble,
    "bbt": verify_bbt,
    "cftf": verify_cftf,
    "chibound": verify_chibound,
}

SUITE_NAMES = tuple(_SUITES)


def suite_keywords(name: str) -> tuple[str, ...]:
    """Which of n_max, samples and seed the named suite takes."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    params = inspect.signature(_SUITES[name]).parameters
    return tuple(kw for kw in ("n_max", "samples", "seed") if kw in params)


def run_suite(
    name: str, n_max: Optional[int] = None, seed: Optional[int] = None, samples: Optional[int] = None
) -> dict:
    """Run a named suite; an argument left as None keeps the suite's default."""
    given = {"n_max": n_max, "samples": samples, "seed": seed}
    takes = suite_keywords(name)
    return _SUITES[name](**{kw: given[kw] for kw in takes if given[kw] is not None})
