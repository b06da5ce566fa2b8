"""Theorem-verification suites with machine-readable reports.

Each suite returns a dict with its name and options and the fields of
its `_Ledger`: the case counts, truncated, the violations (empty on
success) and passed.  A suite is deterministic for a fixed seed.
"""

from __future__ import annotations

import inspect
import random
from typing import Iterator, Optional

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
    span_mask,
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
    has_singleton_decomposer,
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


class _Ledger:
    """A suite's case counts, one per report key, and its violation list.

    `count(key)` records one case.  The violation `add` takes past
    MAX_VIOLATIONS ends the `with` block the suite runs in, later phases
    included, and sets `stopped_at` to the sum of the case counts.
    `fields` gives the counts, `truncated`, `stopped_at` (when truncated),
    `violations` and `passed`; given a `mark`, those since the mark."""

    class _Full(Exception):
        pass

    def __init__(self, *keys: str) -> None:
        self.counts = dict.fromkeys(keys or ("checked",), 0)
        self.violations: list = []
        self.stopped_at: Optional[int] = None

    def count(self, key: str = "checked") -> None:
        self.counts[key] += 1

    def add(self, violation) -> None:
        self.violations.append(violation)
        if len(self.violations) > MAX_VIOLATIONS:
            self.stopped_at = sum(self.counts.values())
            raise self._Full

    def __enter__(self) -> "_Ledger":
        return self

    def __exit__(self, kind, value, traceback) -> bool:
        return kind is self._Full

    def mark(self) -> tuple[dict, int]:
        return dict(self.counts), len(self.violations)

    def fields(self, since: Optional[tuple[dict, int]] = None) -> dict:
        before, start = since or (dict.fromkeys(self.counts, 0), 0)
        counts = {key: total - before[key] for key, total in self.counts.items()}
        if self.stopped_at is None:
            cap = {"truncated": False}
        else:
            cap = {"truncated": True, "stopped_at": self.stopped_at - sum(before.values())}
        violations = self.violations[start:]
        return {**counts, **cap, "violations": violations, "passed": not violations}


def _ground_sets(low: int, high: int) -> Iterator[tuple[int, int]]:
    """Every (n, ground set) at low <= n <= high, in code order."""
    for n in range(low, high + 1):
        for code in range(tables.ground_codes(n)):
            yield n, code << 1


def verify_structure(n_max: int = 4, samples: int = 100_000, seed: int = 0) -> dict:
    """Every claw-free ground set at n <= n_max satisfies one of the four
    structure outcomes: an exhaustive sweep up to n = 4, then for n_max >= 5
    `samples` seeded claw-free sets at each n = 5, 6, the parts merged.
    The parts share one ledger, so the merged report stops at the
    violation that takes their combined list past the cap."""
    fields = _n_max_fields(n_max, 6)
    top = min(n_max, tables.SWEEP_MAX)
    cases = ((n, mask) for n in range(top + 1) for mask in tables.claw_free_masks_list(n))
    report = {"suite": "structure", "mode": "exhaustive", "n_max": top}
    ledger = _Ledger()
    parts = [_tally_structure(report, cases, False, ledger)]
    if n_max < 5:
        return parts[0]
    for n in range(5, fields["n_max"] + 1):
        if ledger.stopped_at is not None:
            break
        parts.append(_structure_sampled(n, samples, seed, ledger))
    return {"suite": "structure", **fields, **ledger.fields(), "parts": parts}


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
    and the report gives the counts and violations of these cases only.
    A sampled case is re-checked for claws first (the sampler's contract)
    and counts only once it passes."""
    since = ledger.mark()
    outcomes = {"even_plane": 0, "complement_triangle_free": 0, "strict_pg_sum": 0, "decomposer": 0}
    with ledger:
        for n, mask in cases:
            if sampled and not claw_free_any(mask, n):
                violation = {"n": n, "points": list(iter_bits(mask)), "reason": "sampler produced a claw"}
                ledger.add(violation)
                continue
            ledger.count()
            out = _structure_outcome(mask, n)
            if out is None:
                ledger.add({"n": n, "points": list(iter_bits(mask))})
            else:
                outcomes[out] += 1
    return {**report, "outcomes": outcomes, **ledger.fields(since)}


def density_floor(r: int) -> int:
    """2^floor(r/2) + 2^ceil(r/2) - 2."""
    return (1 << (r // 2)) + (1 << ((r + 1) // 2)) - 2


def verify_density(n_max: int = 4) -> dict:
    """No full-rank claw-free ground set is smaller than the floor, and one
    attains it (exhaustive); the equality classes at r = 3, 4.  The range
    starts at r = 1, so an n_max below 1 would check nothing."""
    fields = _n_max_fields(n_max, tables.SWEEP_MAX, low=1)
    n_max = fields["n_max"]
    results = {}
    with _Ledger() as ledger:
        for r in range(1, n_max + 1):
            floor = density_floor(r)
            best: Optional[int] = None
            witnesses: set[int] = set()
            table = census.canon_table(r)
            for mask in tables.claw_free_masks_list(r):
                ledger.count()
                size = mask.bit_count()
                if best is not None and size > best and size >= floor:
                    continue
                if rank_mask(mask, r) != r:
                    continue
                if size < floor:
                    ledger.add({"r": r, "points": list(iter_bits(mask)), "expected": floor})
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
                ledger.add({"r": r, "min_size": best, "expected": floor})
        if n_max >= 3:
            want3 = {
                census.canon_table(3)[c4().mask],
                census.canon_table(3)[pg_sum(1, 2).mask],
            }
            got3 = {sum(1 << p for p in w) for w in results[3]["witness_classes"]}
            if got3 != want3:
                ledger.add({"r": 3, "witness_mismatch": results[3]["witness_classes"]})
        if n_max >= 4:
            want4 = {census.canon_table(4)[pg_sum(2, 2).mask]}
            got4 = {sum(1 << p for p in w) for w in results[4]["witness_classes"]}
            if got4 != want4:
                ledger.add({"r": 4, "witness_mismatch": results[4]["witness_classes"]})
    return {"suite": "density", **fields, "results": results, **ledger.fields()}


# ---------------------------------------------------------------------------
# Lift-join algebra
# ---------------------------------------------------------------------------

_PAIR_DIMS = [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4]  # weighted toward small factors
_TRIPLE_DIMS = [0, 1, 1, 2, 2, 2, 3, 3]


def _random_flat_members(n: int, d: int, rng: random.Random) -> int:
    """Members of a random d-flat: d points are drawn until they span one."""
    if d == 0:
        return 0
    while True:
        pts = sum(1 << p for p in {rng.randint(1, (1 << n) - 1) for _ in range(d)})
        span = span_mask(pts, n)
        if span.bit_count() == 1 << d:
            return span & ~1


def _random_flat_of_dim(n: int, d: int, rng: random.Random) -> Flat:
    return Flat(n, _random_flat_members(n, d, rng))


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
    with _Ledger() as ledger:
        for i in range(samples):
            ledger.count()
            # associativity, bitwise
            da, db, dc = (rng.choice(_TRIPLE_DIMS) for _ in range(3))
            A, B, C = (BinaryMatroid(d, census.sample_uniform_mask(d, rng)) for d in (da, db, dc))
            left = lift_join(lift_join(A, B), C)
            right = lift_join(A, lift_join(B, C))
            if left != right:
                ledger.add({"check": "associativity", "i": i})
            # complement homomorphism, bitwise
            d1, d2 = rng.choice(_PAIR_DIMS), rng.choice(_PAIR_DIMS)
            M1, M2 = (BinaryMatroid(d, census.sample_uniform_mask(d, rng)) for d in (d1, d2))
            M = lift_join(M1, M2)
            if complement(M) != lift_join(complement(M1), complement(M2)):
                ledger.add({"check": "complement", "i": i})
            # parameter additivity
            w1, w2 = clique_number(M1), clique_number(M2)
            if clique_number(M) != w1 + w2:
                ledger.add({"check": "omega_additive", "i": i})
            if critical_number(M) != critical_number(M1) + critical_number(M2):
                ledger.add({"check": "chi_additive", "i": i})
            # sigma and full rank through the join, as `structure.fold_invariants`
            # reads them
            sigma = max(induced_independence_number(M1), induced_independence_number(M2))
            if M1.mask != ground_mask(d1) and M2.mask:
                sigma = max(sigma, 2)
            if induced_independence_number(M) != sigma:
                ledger.add({"check": "sigma_lift_join", "i": i})
            # a 0-dimensional M2 leaves M = M1, outside the rank rule
            if d2 and (rank_mask(M.mask, M.n) == M.n) != (rank_mask(M2.mask, d2) == d2):
                ledger.add({"check": "full_rank_lift_join", "i": i})
            # restriction compatibility, bitwise
            F1, F2 = _random_flat(d1, rng), _random_flat(d2, rng)
            combined = closure_mask(
                F1.members | sum(1 << (v << d1) for v in iter_bits(F2.members)), M.n
            )
            if restrict(M, combined) != lift_join(restrict(M1, F1), restrict(M2, F2)):
                ledger.add({"check": "restriction", "i": i})
            # claw-free closure
            d = rng.choice(_PAIR_DIMS)
            c1 = BinaryMatroid(d, census.sample_claw_free_mask(d, rng))
            d = rng.choice(_PAIR_DIMS)
            c2 = BinaryMatroid(d, census.sample_claw_free_mask(d, rng))
            cj = lift_join(c1, c2)
            if not claw_free_any(cj.mask, cj.n):
                ledger.add({"check": "claw_free_closure", "i": i})
            # partial lift-join bounds on sigma and omega
            P1, P2 = (BinaryMatroid(d, census.sample_uniform_mask(d, rng)) for d in (d1, d2))
            G1, G2 = _random_flat(d1, rng), _random_flat(d2, rng)
            PM = partial_lift_join(P1, G1, P2, G2)
            s1, s2 = induced_independence_number(P1), induced_independence_number(P2)
            if induced_independence_number(PM) > max(3, 2 * (s1 + s2)):
                ledger.add({"check": "partial_sigma", "i": i})
            if clique_number(PM) > clique_number(P1) + clique_number(P2):
                ledger.add({"check": "partial_omega", "i": i})

        for i in range(samples // 10):
            ledger.count()
            f1 = _random_i4_free(rng.choice(_PAIR_DIMS), rng)
            f2 = _random_i4_free(rng.choice(_PAIR_DIMS), rng)
            fj = lift_join(f1, f2)
            if induced_independence_number(fj) > 3:
                ledger.add({"check": "i4_free_closure", "i": i})

    return {"suite": "ljparams", "samples": samples, "seed": seed, **ledger.fields()}


# ---------------------------------------------------------------------------
# PG-sum recognizer agreement and perfection
# ---------------------------------------------------------------------------


def _random_disjoint_flat_pair(n: int, rng: random.Random) -> Optional[tuple[int, int]]:
    """Members of two disjoint random flats, or None after 20 misses."""
    f1 = _random_flat_members(n, rng.randint(0, n), rng)
    for _ in range(20):
        f2 = _random_flat_members(n, rng.randint(0, n), rng)
        if f1 & f2 == 0:
            return (f1, f2)
    return None


def _pg_sum_routes_agree(mask: int, n: int) -> bool:
    return (pg_sum_witness_mask(mask, n) is not None) == pg_sum_forbidden_mask(mask, n)


def _sweep_then_sample(ledger: _Ledger, agrees, n_max: int, samples: int, draw, seed: int) -> None:
    """`agrees(mask, n)` on every ground set at n <= n_max, counted as
    `checked`, then on `samples` sets `draw(5, rng)` draws from a
    Random(seed), counted as `sampled`; a set where it fails is a
    violation."""
    rng = random.Random(seed)
    drawn = ((5, draw(5, rng)) for _ in range(samples))
    for key, cases in (("checked", _ground_sets(0, n_max)), ("sampled", drawn)):
        for n, mask in cases:
            ledger.count(key)
            if not agrees(mask, n):
                ledger.add({"n": n, "points": list(iter_bits(mask))})


def _pgsum_draw(n: int, rng: random.Random) -> int:
    """A uniform set, a PG-sum of two disjoint flats, or such a sum with
    one or two points flipped."""
    roll = rng.random()
    if roll < 0.6:
        return census.sample_uniform_mask(n, rng)
    pair = _random_disjoint_flat_pair(n, rng)
    mask = (pair[0] | pair[1]) if pair else census.sample_uniform_mask(n, rng)
    if roll >= 0.8:
        for _ in range(rng.randint(1, 2)):
            mask ^= 1 << rng.randint(1, (1 << n) - 1)
    return mask


def verify_pgsum(n_max: int = 4, samples: int = 100_000, seed: int = 0) -> dict:
    """The direct recognizer `pg_sum_witness_mask` agrees with the
    forbidden-restriction route `pg_sum_forbidden_mask` on every ground set
    at n <= n_max and on samples at n = 5; PG-sums have equal clique and
    critical numbers."""
    fields = _n_max_fields(n_max, tables.SWEEP_MAX)
    with _Ledger("checked", "sampled", "chi_checked") as ledger:
        _sweep_then_sample(
            ledger, _pg_sum_routes_agree, fields["n_max"], samples, _pgsum_draw, seed
        )

        # perfection: chi equals omega on PG-sums
        for n in range(fields["n_max"] + 1):
            all_flats = [F.members for d in range(n + 1) for F in flats_of_dim(n, d)]
            for fm1 in all_flats:
                for fm2 in all_flats:
                    if fm1 & fm2:
                        continue
                    M = BinaryMatroid(n, fm1 | fm2)
                    ledger.count("chi_checked")
                    if critical_number(M) != clique_number(M):
                        ledger.add({"n": n, "chi_neq_omega": M.points()})
        for d1 in range(6):
            for d2 in range(6 - d1):
                M = pg_sum(d1, d2)
                ledger.count("chi_checked")
                if critical_number(M) != clique_number(M):
                    ledger.add({"pg_sum": (d1, d2), "chi_neq_omega": True})

    return {"suite": "pgsum", **fields, "samples": samples, "seed": seed, **ledger.fields()}


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


def _target_agrees(mask: int, n: int) -> bool:
    """`is_target` holds exactly when E and its complement are claw-free."""
    lhs = is_target(BinaryMatroid(n, mask)) is not None
    return lhs == (claw_free_any(mask, n) and claw_free_any(ground_mask(n) & ~mask, n))


def _target_draw(n: int, rng: random.Random) -> int:
    """A uniform set, a target, a target with one to three points
    flipped, or a claw-free set."""
    roll = rng.random()
    if roll < 0.4:
        return census.sample_uniform_mask(n, rng)
    if roll < 0.7:
        return _random_target_mask(n, rng)
    if roll < 0.85:
        mask = _random_target_mask(n, rng)
        for _ in range(rng.randint(1, 3)):
            mask ^= 1 << rng.randint(1, (1 << n) - 1)
        return mask
    return census.sample_claw_free_mask(n, rng)


def verify_target(n_max: int = 4, samples: int = 100_000, seed: int = 0) -> dict:
    """The target recognizer agrees with claw-free + anticlaw-free, both
    decided by `claw_free_any`, on every ground set at n <= n_max and on
    samples at n = 5."""
    fields = _n_max_fields(n_max, tables.SWEEP_MAX)
    with _Ledger("checked", "sampled") as ledger:
        _sweep_then_sample(ledger, _target_agrees, fields["n_max"], samples, _target_draw, seed)
    return {"suite": "target", **fields, "samples": samples, "seed": seed, **ledger.fields()}


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
    ledger = _Ledger("checked", "recon_checked")
    recon_exact = 0

    def proper_flats(n: int) -> list[Flat]:
        return [F for d in range(1, n) for F in flats_of_dim(n, d)]

    def check_one(M: BinaryMatroid, F: Flat) -> None:
        ledger.count()
        J = complementary_flat(F)
        in_place = M.mask & F.members
        span = F.span
        for e in iter_bits(M.mask & J.members):
            in_place |= xor_translate(span, e, M.n)
        lhs = is_decomposer(M, F)
        if lhs != (in_place == M.mask):
            ledger.add({"n": M.n, "points": M.points(), "flat": F.points()})
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
                    {"n": M.n, "points": M.points(), "flat": F.points(), "reason": "join image"}
                )

    with ledger:
        flats = {n: proper_flats(n) for n in (2, 3)}
        for n, mask in _ground_sets(2, 3):
            M = BinaryMatroid(n, mask)
            for F in flats[n]:
                check_one(M, F)

        for n in (4, 5):
            flats = proper_flats(n)
            for _ in range(samples):
                M = BinaryMatroid(n, census.sample_uniform_mask(n, rng))
                check_one(M, flats[rng.randrange(len(flats))])

        for _ in range(5 * samples):
            n = rng.randint(1, 6)
            M = BinaryMatroid(n, census.sample_uniform_mask(n, rng))
            tree = decompose(M)
            rebuilt = reconstruct(tree)
            ledger.count("recon_checked")
            image = transform_mask(M.mask, tree_point_map(tree))
            if image != rebuilt.mask or rebuilt.n != M.n:
                ledger.add({"check": "reconstruct", "n": n, "points": M.points()})
            else:
                recon_exact += 1

    report = {"suite": "rlj", "samples": samples, "seed": seed, "recon_exact": recon_exact}
    return {**report, **ledger.fields()}


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
    met = refinement_met = 0
    with _Ledger("generated") as ledger:
        while met < samples:
            ledger.count("generated")
            n = rng.randint(2, n_max)
            inst = (
                _structured_partition(n, rng)
                if rng.random() < 0.7
                else _uniform_partition(n, rng)
            )
            report = check_coset_confinement(inst)
            if not report.ok:
                P, R = list(iter_bits(inst.p_mask)), list(iter_bits(inst.r_mask))
                ledger.add({"n": n, "P": P, "R": R})
            if report.hypothesis_met:
                met += 1
                if report.refinement_hypothesis_met:
                    refinement_met += 1
    return {
        "suite": "coset",
        "samples": samples,
        "n_max": n_max,
        "seed": seed,
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
    with _Ledger() as ledger:
        for n, mask in _ground_sets(3, 3):
            M = BinaryMatroid(n, mask)
            if M.size % 2 == 0 or not claw_free_any(mask, n):
                continue
            ledger.count()
            if has_singleton_decomposer(M) is None:
                ledger.add(M.points())
    return {"suite": "tiny", **ledger.fields()}


def verify_semidouble(n_max: int = 4) -> dict:
    """Doubling and semidoubling preserve the even-plane property, as does
    symmetric difference with a hyperplane complement; all even-plane
    ground sets at n <= n_max."""
    fields = _n_max_fields(n_max, tables.SWEEP_MAX)
    n_max = fields["n_max"]
    with _Ledger() as ledger:
        for n in range(n_max + 1):
            hyperplanes = list(flats_of_dim(n, n - 1)) if n >= 1 else []
            g = ground_mask(n)
            for mask in census.even_plane_masks(n):
                M = BinaryMatroid(n, mask)
                ledger.count()
                if not tables.even_plane_mask(doubling(M).mask, n + 1):
                    ledger.add({"op": "doubling", "n": n, "points": M.points()})
                for H in hyperplanes:
                    if not tables.even_plane_mask(semidoubling(M, H).mask, n + 1):
                        ledger.add(
                            {"op": "semidoubling", "n": n, "points": M.points(), "h": H.points()}
                        )
                    sym = mask ^ (g & ~H.members)
                    if not tables.even_plane_mask(sym, n):
                        ledger.add(
                            {"op": "sym_diff", "n": n, "points": M.points(), "h": H.points()}
                        )
    return {"suite": "semidouble", **fields, **ledger.fields()}


def verify_bbt(n_max: int = 4) -> dict:
    """Flat-avoidance density bound: |E| <= 2^n - 2^(n-w) with w the clique
    number, equality only for Bose-Burton geometries; plus w <= chi."""
    fields = _n_max_fields(n_max, tables.SWEEP_MAX)
    with _Ledger() as ledger:
        for n, mask in _ground_sets(0, fields["n_max"]):
            M = BinaryMatroid(n, mask)
            ledger.count()
            w = clique_number(M)
            chi = critical_number(M)
            if w > chi:
                ledger.add({"n": n, "points": M.points(), "reason": "omega>chi"})
                continue
            bound = (1 << n) - (1 << (n - w))
            size = M.size
            if size > bound:
                ledger.add({"n": n, "points": M.points(), "reason": "bbt bound"})
            elif size == bound and is_bose_burton(M) != w:
                ledger.add({"n": n, "points": M.points(), "reason": "bbt equality"})
    return {"suite": "bbt", **fields, **ledger.fields()}


def verify_cftf(n_max: int = 4) -> dict:
    """Full-rank claw-free triangle-free ground sets are exactly the
    order-1 Bose-Burton geometries, every ground set at n <= n_max, with
    claw-freeness decided by `claw_free_any`.  The range starts at n = 1,
    so an n_max below 1 would check nothing."""
    fields = _n_max_fields(n_max, tables.SWEEP_MAX, low=1)
    # dimension 0 is degenerate: the empty matroid is full-rank, claw-free
    # and triangle-free, but no flat can have dimension -1
    with _Ledger() as ledger:
        for n, mask in _ground_sets(1, fields["n_max"]):
            if rank_mask(mask, n) != n:
                continue
            ledger.count()
            lhs = triangle_free_mask(mask, n) and claw_free_any(mask, n)
            rhs = is_bose_burton(BinaryMatroid(n, mask)) == 1
            if lhs != rhs:
                ledger.add({"n": n, "points": list(iter_bits(mask))})
    return {"suite": "cftf", **fields, **ledger.fields()}


def verify_chibound(n_max: int = 5) -> dict:
    """Within the even-plane family: a matroid with no copy of N has
    critical number at most dim(N) + 4; all class pairs at n <= n_max."""
    fields = _n_max_fields(n_max, 5)
    n_max = fields["n_max"]
    reps: list[BinaryMatroid] = []
    for n in range(n_max + 1):
        reps += [BinaryMatroid(n, m) for m in census.even_plane_classes(n)]
    chi = {M: critical_number(M) for M in reps}
    with _Ledger("pairs") as ledger:
        for M in reps:
            for N in reps:
                ledger.count("pairs")
                if N.n <= M.n and has_induced_restriction(M, N):
                    continue
                if chi[M] > N.n + 4:
                    violation = {"M": M.points(), "nM": M.n, "N": N.points(), "nN": N.n, "chi": chi[M]}
                    ledger.add(violation)
    return {"suite": "chibound", **fields, **ledger.fields()}


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
