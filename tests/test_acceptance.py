"""Acceptance criteria: one test per criterion, at stated scales.

Run with -rA (or -s) to see the per-criterion PASS lines.
"""

import time

import binmatroid.verify as verify


def _report(label, rep, elapsed):
    status = "PASS" if rep["passed"] else "FAIL"
    detail = {
        k: rep[k]
        for k in ("checked", "sampled", "outcomes", "results", "hypothesis_met")
        if k in rep
    }
    print(f"ACCEPTANCE {label}: {status} ({elapsed:.1f}s) {detail}")


def test_criterion_1_structure_exhaustive():
    t0 = time.perf_counter()
    rep = verify.verify_structure(n_max=4)
    elapsed = time.perf_counter() - t0
    _report("1 structure exhaustive n<=4", rep, elapsed)
    assert rep["passed"], rep["violations"][:5]
    assert rep["checked"] >= 5431  # all claw-free ground sets through n = 4
    assert elapsed < 120.0


def test_criterion_2_structure_sampled():
    t0 = time.perf_counter()
    reports = [
        verify.verify_structure_sampled(n, samples=100_000, seed=2026) for n in (5, 6)
    ]
    elapsed = time.perf_counter() - t0
    for n, rep in zip((5, 6), reports):
        _report(f"2 structure sampled n={n}", rep, elapsed)
        assert rep["passed"], rep["violations"][:5]
        assert rep["checked"] == 100_000
    assert elapsed < 600.0


def test_criterion_3_density():
    t0 = time.perf_counter()
    rep = verify.verify_density(n_max=4)
    _report("3 density", rep, time.perf_counter() - t0)
    assert rep["passed"], rep["violations"]
    mins = {r: rep["results"][r]["min_size"] for r in (1, 2, 3, 4)}
    assert mins == {1: 1, 2: 2, 3: 4, 4: 6}
    assert len(rep["results"][3]["witness_classes"]) == 2
    assert len(rep["results"][4]["witness_classes"]) == 1


def test_criterion_4_pg_sum_agreement():
    t0 = time.perf_counter()
    rep = verify.verify_pgsum(n_max=4, samples=100_000, seed=2026)
    _report("4 pg-sum recognizers", rep, time.perf_counter() - t0)
    assert rep["passed"], rep["violations"][:5]
    assert rep["checked"] >= 32768 and rep["sampled"] == 100_000


def test_criterion_5_target_agreement():
    t0 = time.perf_counter()
    rep = verify.verify_target(n_max=4, samples=100_000, seed=2026)
    _report("5 target recognizer", rep, time.perf_counter() - t0)
    assert rep["passed"], rep["violations"][:5]
    assert rep["checked"] >= 32768 and rep["sampled"] == 100_000


def test_criteria_6_and_7_lift_join_algebra_and_partial_bounds():
    t0 = time.perf_counter()
    rep = verify.verify_ljparams(samples=10_000, seed=2026)
    _report("6+7 lift-join algebra, partial bounds", rep, time.perf_counter() - t0)
    assert rep["passed"], rep["violations"][:5]
    assert rep["checked"] >= 10_000


def test_criterion_8_decomposer_equivalence():
    t0 = time.perf_counter()
    rep = verify.verify_rlj(samples=2_000, seed=2026)
    _report("8 decomposer equivalence", rep, time.perf_counter() - t0)
    assert rep["passed"], rep["violations"][:5]
    assert rep["recon_exact"] == rep["recon_checked"] == 10_000


def test_criterion_9_coset_confinement():
    t0 = time.perf_counter()
    rep = verify.verify_coset(samples=10_000, n_max=5, seed=2026)
    _report("9 coset confinement", rep, time.perf_counter() - t0)
    assert rep["passed"], rep["violations"][:5]
    assert rep["hypothesis_met"] >= 10_000
    assert rep["refinement_met"] > 1_000  # refinement genuinely exercised


def test_criterion_10_small_claims():
    t0 = time.perf_counter()
    tiny = verify.verify_tiny()
    semi = verify.verify_semidouble(n_max=4)
    bbt = verify.verify_bbt(n_max=4)
    cftf = verify.verify_cftf(n_max=4)
    chib = verify.verify_chibound(n_max=5)
    pg_perf = verify.verify_pgsum(n_max=4, samples=0, seed=0)
    elapsed = time.perf_counter() - t0
    for label, rep in (
        ("10a singleton decomposers dim 3", tiny),
        ("10b doubling/semidoubling/symdiff", semi),
        ("10c flat-avoidance bound", bbt),
        ("10d claw+triangle-free = order-1", cftf),
        ("10e even-plane pair bound", chib),
        ("10f pg-sum perfection", pg_perf),
    ):
        _report(label, rep, elapsed)
        assert rep["passed"], rep["violations"][:5]
    assert tiny["checked"] == 36
    assert pg_perf["chi_checked"] > 2_000
