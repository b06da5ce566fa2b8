"""Command-line surface: file format, reports, exit codes."""

import functools
import io
import json
import sys
from dataclasses import asdict

import pytest

from binmatroid.cli import MatroidParseError, format_matroid, main, parse_matroid
from binmatroid import BinaryMatroid, c4, pg_sum
from binmatroid.structure import Join, find_decomposer as find
from binmatroid.construct import lift_join


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err, old_in = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr, sys.stdin = out, err, io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old_out, old_err, old_in
    return code, out.getvalue(), err.getvalue()


def test_parse_format_roundtrip():
    for M in (c4(), pg_sum(2, 3), BinaryMatroid(4, 0), BinaryMatroid(0, 0)):
        assert parse_matroid(format_matroid(M)) == M


def test_parse_empty_points_line():
    assert parse_matroid("dim 4\npoints\n") == BinaryMatroid(4, 0)


def test_parse_errors_carry_position():
    with pytest.raises(MatroidParseError) as exc:
        parse_matroid("dim 3\npoints 1 2 9\n")
    assert exc.value.line == 2 and exc.value.col == 12
    with pytest.raises(MatroidParseError):
        parse_matroid("dim 3\npoints 2 1\n")
    with pytest.raises(MatroidParseError):
        parse_matroid("dim 3\npoints 1 1\n")
    with pytest.raises(MatroidParseError):
        parse_matroid("dim 3\npoints 0\n")
    with pytest.raises(MatroidParseError):
        parse_matroid("dim x\npoints 1\n")
    with pytest.raises(MatroidParseError):
        parse_matroid("dim 3\n")
    with pytest.raises(MatroidParseError):
        parse_matroid("dim 3\npoints 1\nextra\n")


def test_gen_matches_builders():
    code, out, _ = run_cli(["gen", "c4"])
    assert code == 0 and out == "dim 3\npoints 1 2 4 7\n"
    code, out, _ = run_cli(["gen", "pg-sum", "2", "3"])
    assert code == 0
    M = parse_matroid(out)
    assert M.n == 5 and M.size == 10
    code, out, _ = run_cli(["gen", "target", "3", "0", "2"])
    assert parse_matroid(out).points() == [1, 2, 3]
    code, out, _ = run_cli(["gen", "empty", "4"])
    assert parse_matroid(out) == BinaryMatroid(4, 0)


def test_gen_covers_every_builder(tmp_path):
    from binmatroid import cli, construct
    from binmatroid.gf2 import closure, empty_flat

    A, B, P = c4(), construct.triangle_matroid(), BinaryMatroid(1, 0b10)
    paths = []
    for name, M in (("a", A), ("b", B), ("p", P)):
        path = tmp_path / f"{name}.matroid"
        path.write_text(format_matroid(M))
        paths.append(str(path))
    a, b, p = paths
    cases = [
        (["i", "2"], construct.independent_matroid(2)),
        (["c4"], A),
        (["p5"], construct.p5()),
        (["k4"], construct.k4()),
        (["triangle"], B),
        (["empty", "2"], construct.empty_matroid(2)),
        (["full", "3"], construct.full_matroid(3)),
        (["pg-sum", "1", "2"], pg_sum(1, 2)),
        (["bose-burton", "4", "1"], construct.bose_burton(4, 1)),
        (["target", "3", "1"], construct.target(3, [1])),
        (["doubling", a], construct.doubling(A)),
        (["semidouble", p], construct.semidoubling(P, empty_flat(1))),
        (["semidouble", a, "1", "2"], construct.semidoubling(A, closure([1, 2], 3))),
        (["liftjoin", a, b], lift_join(A, B)),
        (["directsum", a, b], construct.direct_sum(A, B)),
        (["partial", a, b], construct.partial_lift_join(A, empty_flat(3), B, empty_flat(2))),
        (
            ["partial", a, b, "--f1", "3", "--f2", "1"],
            construct.partial_lift_join(A, closure([3], 3), B, closure([1], 2)),
        ),
    ]
    assert {argv[0] for argv, _ in cases} == {name for name, _, _ in cli.GEN_BUILDERS}
    for argv, want in cases:
        code, out, _ = run_cli(["gen", *argv])
        assert code == 0 and parse_matroid(out) == want, argv


def test_gen_pipe_composition(tmp_path):
    a = tmp_path / "a.matroid"
    b = tmp_path / "b.matroid"
    _, out_a, _ = run_cli(["gen", "i", "1"])
    a.write_text(out_a)
    _, out_b, _ = run_cli(["gen", "triangle"])
    b.write_text(out_b)
    code, out, _ = run_cli(["gen", "liftjoin", str(a), str(b)])
    assert code == 0
    M = parse_matroid(out)
    assert M.n == 3 and M == lift_join(parse_matroid(out_a), parse_matroid(out_b))


def test_analyze_report_schema():
    code, out, _ = run_cli(["analyze"], stdin="dim 3\npoints 1 2 4 7\n")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"dim", "points", "flags", "invariants", "decomposer", "tree"}
    assert rep["dim"] == 3 and rep["points"] == [1, 2, 4, 7]
    assert rep["flags"]["claw_free"] and rep["flags"]["even_plane"]
    assert rep["flags"]["target"] and rep["flags"]["bose_burton_order"] == 1
    assert rep["invariants"] == {
        "omega": 1, "chi": 1, "alpha": 2, "sigma": 2, "full_rank": True
    }
    assert rep["decomposer"] == [3]
    assert rep["tree"] is None


def test_analyze_empty_ground_set():
    code, out, _ = run_cli(["analyze"], stdin="dim 4\npoints\n")
    rep = json.loads(out)
    assert rep["flags"]["even_plane"] and rep["flags"]["pg_sum"]
    assert rep["invariants"]["omega"] == 0 and rep["invariants"]["chi"] == 0


def test_analyze_claw():
    code, out, _ = run_cli(["analyze"], stdin="dim 3\npoints 1 2 4\n")
    rep = json.loads(out)
    assert rep["flags"]["claw_free"] is False


def test_decompose_tree_roundtrip():
    code, out, _ = run_cli(["decompose"], stdin=format_matroid(pg_sum(3, 3)))
    assert code == 0
    rep = json.loads(out)

    def rebuild(node):
        if "leaf" in node:
            return BinaryMatroid.from_points(
                node["leaf"]["points"], node["leaf"]["dim"]
            )
        left, right = node["join"]
        return lift_join(rebuild(left), rebuild(right))

    from binmatroid import is_isomorphic

    M = rebuild(rep["tree"])
    assert is_isomorphic(M, pg_sum(3, 3))


def test_decompose_claw_is_single_leaf():
    code, out, _ = run_cli(["decompose"], stdin="dim 3\npoints 1 2 4\n")
    rep = json.loads(out)
    assert "leaf" in rep["tree"]
    assert rep["tree"]["leaf"]["tags"]["claw_free"] is False


def test_decompose_stop_at_basic_flag():
    code, out, _ = run_cli(
        ["decompose", "--stop-at-basic"], stdin="dim 3\npoints 1 2 4 7\n"
    )
    rep = json.loads(out)
    assert "leaf" in rep["tree"]  # the zero-sum quadruple is itself even-plane
    assert rep["tree"]["leaf"]["tags"]["even_plane"] is True


def test_decompose_report_reuses_the_root_decomposer(monkeypatch):
    # the report's decomposer comes from the tree; only a leaf cut off at
    # a basic class needs its own search
    from binmatroid import cli, independent_matroid

    claw = independent_matroid(3)
    inputs = [c4(), pg_sum(2, 3), claw, lift_join(claw, c4()), BinaryMatroid(4, 0)]
    for M in inputs:
        text = format_matroid(M)
        _, out, _ = run_cli(["analyze"], stdin=text)
        analyzed = json.loads(out)
        for flags in ([], ["--stop-at-basic"]):
            searches = []
            monkeypatch.setattr(
                cli, "find_decomposer", lambda M: searches.append(M) or find(M)
            )
            _, out, _ = run_cli(["decompose", *flags], stdin=text)
            monkeypatch.undo()
            rep = json.loads(out)
            tree = rep.pop("tree")
            assert rep == {k: v for k, v in analyzed.items() if k != "tree"}
            assert len(searches) == (1 if flags and "leaf" in tree else 0)


def test_reports_match_the_direct_searches():
    # flags and invariants are read off the decomposition tree; the direct
    # `classify` and `invariants` of the whole input are the oracle
    import random

    from binmatroid import classify, independent_matroid, invariants
    from binmatroid.matroid import apply_linear_map

    rng = random.Random(6)
    claw = independent_matroid(3)
    inputs = [c4(), pg_sum(2, 3), claw, lift_join(claw, c4()), BinaryMatroid(4, 0)]
    for n in (5, 6, 7):
        left = BinaryMatroid(3, rng.getrandbits(7) << 1)
        right = BinaryMatroid(n - 3, rng.getrandbits((1 << (n - 3)) - 1) << 1)
        images = [1 << i for i in range(n)]
        images[0] |= images[n - 1]  # an invertible map off the coordinates
        inputs.append(apply_linear_map(lift_join(left, right), images))
    for M in inputs:
        for argv in (["analyze"], ["decompose"], ["decompose", "--stop-at-basic"]):
            code, out, _ = run_cli(argv, stdin=format_matroid(M))
            rep = json.loads(out)
            assert code == 0
            assert rep["flags"] == asdict(classify(M)), (argv, M)
            assert rep["invariants"] == asdict(invariants(M)), (argv, M)


def test_each_report_builds_one_maximal_tree(monkeypatch):
    # the report's invariants, decomposer and flags (through `cli.classify`)
    # read one maximal tree, which does not outlive the report
    from binmatroid import cli, independent_matroid, structure

    real = structure.decompose
    roots = []
    depth = [0]

    def counting(M, stop_at_basic=False):
        if depth[0] == 0:
            roots.append(stop_at_basic)
        depth[0] += 1
        try:
            return real(M, stop_at_basic)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(structure, "decompose", counting)
    monkeypatch.setattr(cli, "decompose", counting)
    claw = independent_matroid(3)
    inputs = [c4(), pg_sum(2, 3), claw, lift_join(claw, c4()), BinaryMatroid(4, 0)]
    for M in inputs:
        for argv, want in (
            (["analyze"], [False]),
            (["decompose"], [False]),
            (["decompose", "--stop-at-basic"], [True, False]),
        ):
            roots.clear()
            code, _, _ = run_cli(argv, stdin=format_matroid(M))
            assert code == 0
            assert sorted(roots, reverse=True) == want, (argv, M)
            assert cli._maximal_tree.cache_info().currsize == 0
    cli.report_json(c4())
    assert cli._maximal_tree.cache_info().currsize == 0

    def violating(M, tags=None):
        raise structure.StructureTheoremViolation("leaf")

    monkeypatch.setattr(structure, "_leaf", violating)
    with pytest.raises(structure.StructureTheoremViolation):
        cli.report_json(c4())
    assert cli._maximal_tree.cache_info().currsize == 0


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_structure_violation_exits_3(monkeypatch, command):
    # analyze reads its report off the decomposition tree, so a leaf that
    # breaks the structure theorem stops it as it stops decompose
    from binmatroid import structure

    def violating(M, tags=None):
        raise structure.StructureTheoremViolation(f"leaf {M.points()}")

    monkeypatch.setattr(structure, "_leaf", violating)
    code, out, _ = run_cli([command], stdin=format_matroid(c4()))
    assert code == 3
    assert json.loads(out) == {
        "error": "structure-theorem-violation",
        "detail": "leaf []",
    }


def test_parser_is_built_once(monkeypatch):
    from binmatroid import cli

    built = []
    parser = functools.cache(lambda: built.append(1) or cli.build_parser())
    monkeypatch.setattr(cli, "_parser", parser)
    for _ in range(3):
        assert run_cli(["gen", "c4"])[0] == 0
    assert built == [1]


def test_exit_codes():
    code, _, err = run_cli(["analyze"], stdin="dim 3\npoints 9\n")
    assert code == 2 and "parse error" in err
    code, _, err = run_cli(["enumerate", "--n", "5", "--mode", "exhaustive"])
    assert code == 1
    code, _, err = run_cli(["nonsense"])
    assert code == 1
    code, out, _ = run_cli(["verify", "tiny"])
    assert code == 0 and json.loads(out)["passed"]


def test_enumerate_exhaustive_census():
    code, out, _ = run_cli(["enumerate", "--n", "2", "--mode", "exhaustive"])
    rec = json.loads(out)
    assert rec["count_total"] == 4
    code, out, _ = run_cli(
        ["enumerate", "--n", "3", "--mode", "exhaustive", "--filter", "claw_free"]
    )
    rec = json.loads(out)
    assert rec["min_density_fullrank"] == 4
    assert len(rec["minimizer_witnesses"]) == 2


def test_enumerate_sample_deterministic():
    args = ["enumerate", "--n", "5", "--mode", "sample", "--samples", "60", "--seed", "3"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2


def test_verify_unknown_suite_is_usage_error():
    code, _, _ = run_cli(["verify", "bogus"])
    assert code == 1


def test_run_suite_honours_zero_samples():
    from binmatroid.verify import run_suite

    assert run_suite("ljparams", samples=0)["samples"] == 0
    assert run_suite("coset", samples=0)["samples"] == 0
    parts = run_suite("structure", n_max=5, samples=0)["parts"]
    assert parts[-1]["samples"] == 0 and parts[-1]["checked"] == 0


def test_reports_state_the_range_checked():
    from binmatroid import verify
    from binmatroid.verify import run_suite

    rep = run_suite("structure", n_max=9, samples=0)
    assert (rep["n_max"], rep["n_max_requested"]) == (6, 9)
    assert [p.get("n", p.get("n_max")) for p in rep["parts"]] == [4, 5, 6]
    assert "n_max_requested" not in run_suite("structure", n_max=6, samples=0)
    for suite in (verify.verify_pgsum, verify.verify_target):
        rep = suite(n_max=9, samples=0)
        assert (rep["n_max"], rep["n_max_requested"]) == (4, 9)
        assert rep["checked"] == suite(n_max=4, samples=0)["checked"]
        assert "n_max_requested" not in suite(n_max=3, samples=0)
    rep = verify.verify_density(n_max=6)
    assert (rep["n_max"], rep["n_max_requested"]) == (4, 6)


def test_capped_violation_lists_are_marked(monkeypatch):
    from types import SimpleNamespace

    from binmatroid import verify

    assert verify.verify_target(n_max=3, samples=0)["truncated"] is False
    # every set is a violation: the cap is reached after n=3, before n=4
    monkeypatch.setattr(verify, "is_target", lambda M: None)
    rep = verify.verify_target(n_max=4, samples=0)
    assert rep["truncated"] and not rep["passed"]
    assert rep["stopped_at"] == rep["checked"] == 1 + 2 + 8 + 128
    assert len(rep["violations"]) > verify.MAX_VIOLATIONS

    monkeypatch.setattr(
        verify,
        "check_coset_confinement",
        lambda inst: SimpleNamespace(ok=False, hypothesis_met=True, refinement_hypothesis_met=False),
    )
    rep = verify.verify_coset(samples=100)
    assert rep["truncated"]
    assert rep["stopped_at"] == rep["generated"] == verify.MAX_VIOLATIONS + 1

    # a cap hit at one dimension stops the later dimensions too
    monkeypatch.setattr(verify, "doubling", lambda M: BinaryMatroid(M.n + 1, 0b10))
    rep = verify.verify_semidouble(n_max=4)
    assert rep["truncated"]
    assert rep["stopped_at"] == rep["checked"]
    assert len(rep["violations"]) == verify.MAX_VIOLATIONS + 1
