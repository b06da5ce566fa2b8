"""Command-line surface: file format, reports, exit codes."""

import collections
import functools
import io
import json
import random
import sys
from dataclasses import asdict

import pytest

from binmatroid.cli import MatroidParseError, format_matroid, main, parse_matroid
from binmatroid import BinaryMatroid, c4, pg_sum, verify
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
    # the column is the offending token's own, not that of the first
    # place its text occurs in the line
    for text, line, col in (
        ("dim 4\npoints 3 13 1\n", 2, 13),
        ("dim 3\npoints 1 2 2\n", 2, 12),
        ("dim dim\npoints 1\n", 1, 5),
        # only -?[0-9]+ reads as an integer: no underscores, no plus
        # sign, no digits outside ASCII
        ("dim 3\npoints 1 1_0\n", 2, 10),
        ("dim 3\npoints +3\n", 2, 8),
        ("dim 3\npoints 1 \u0661\u0661\n", 2, 10),
        ("dim \u0663\npoints 1\n", 1, 5),
        ("dim +3\npoints 1\n", 1, 5),
        ("dim 3_0\npoints 1\n", 1, 5),
    ):
        with pytest.raises(MatroidParseError) as exc:
            parse_matroid(text)
        assert (exc.value.line, exc.value.col) == (line, col), text
    for text, message in (
        ("dim 3\npoints 1_0\n", "point '1_0' is not an integer"),
        ("dim \u0663\npoints 1\n", "dimension is not an integer"),
        # a minus sign reads, so negatives keep their range messages
        ("dim -1\npoints 1\n", "dimension must be in [0, 16]"),
        ("dim 3\npoints -3\n", "point -3 out of range [1, 7]"),
    ):
        with pytest.raises(MatroidParseError) as exc:
            parse_matroid(text)
        assert str(exc.value).endswith(message), text


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
    # the report's decomposer is the flat of the maximal tree's join root,
    # so no report searches for a decomposer outside `structure.decompose`
    from binmatroid import cli, independent_matroid, structure

    real_decompose, real_find = structure.decompose, structure.find_decomposer
    depth = [0]
    outside = []

    def decompose(M, stop_at_basic=False):
        depth[0] += 1
        try:
            return real_decompose(M, stop_at_basic)
        finally:
            depth[0] -= 1

    def find_decomposer(M):
        if depth[0] == 0:
            outside.append(M)
        return real_find(M)

    monkeypatch.setattr(structure, "decompose", decompose)
    monkeypatch.setattr(cli, "decompose", decompose)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "binmatroid" and getattr(module, "find_decomposer", None) is real_find:
            monkeypatch.setattr(module, "find_decomposer", find_decomposer)
    claw = independent_matroid(3)
    inputs = [c4(), pg_sum(2, 3), claw, lift_join(claw, c4()), BinaryMatroid(4, 0)]
    for M in inputs:
        text = format_matroid(M)
        _, out, _ = run_cli(["analyze"], stdin=text)
        analyzed = json.loads(out)
        assert outside == [], M
        for flags in ([], ["--stop-at-basic"]):
            _, out, _ = run_cli(["decompose", *flags], stdin=text)
            rep = json.loads(out)
            rep.pop("tree")
            assert rep == {k: v for k, v in analyzed.items() if k != "tree"}
            assert outside == [], (flags, M)


def test_reports_match_the_direct_searches():
    # flags and invariants are read off the decomposition tree; the direct
    # `classify` and `invariants` of the whole input are the oracle
    import random

    from binmatroid import classify, independent_matroid, invariants
    from linear_images import mapped

    rng = random.Random(6)
    claw = independent_matroid(3)
    inputs = [c4(), pg_sum(2, 3), claw, lift_join(claw, c4()), BinaryMatroid(4, 0)]
    for n in (5, 6, 7):
        left = BinaryMatroid(3, rng.getrandbits(7) << 1)
        right = BinaryMatroid(n - 3, rng.getrandbits((1 << (n - 3)) - 1) << 1)
        images = [1 << i for i in range(n)]
        images[0] |= images[n - 1]  # an invertible map off the coordinates
        inputs.append(mapped(lift_join(left, right), images))
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
    assert out == _dumped({"error": "structure-theorem-violation", "detail": "leaf []"})


def _dumped(obj):
    """The oracle for every report the CLI prints."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("n", range(9))
def test_reports_print_as_json_dumps(n):
    from binmatroid import census, cli
    from binmatroid.structure import decompose

    rng = random.Random(f"report-text:{n}")
    masks = [census.sample_uniform_mask(n, rng) for _ in range(3)]
    masks += [census.sample_claw_free_mask(n, rng) for _ in range(3)] if n else []
    for mask in masks:
        M = BinaryMatroid(n, mask)
        text = format_matroid(M)
        for argv, tree in (
            (["analyze"], None),
            (["decompose"], decompose(M)),
            (["decompose", "--stop-at-basic"], decompose(M, stop_at_basic=True)),
        ):
            code, out, _ = run_cli(argv, stdin=text)
            assert code == 0 and out == _dumped(cli.report_json(M, tree)), (argv, hex(mask))


def test_suite_and_census_records_print_as_json_dumps():
    from binmatroid import census, verify
    from binmatroid.cli import _json_text

    for name in verify.SUITE_NAMES:
        rep = verify.run_suite(name, n_max=3, samples=5, seed=0)
        assert _json_text(rep) + "\n" == _dumped(rep), name
    records = [census.exhaustive_census(n, cf) for n in range(4) for cf in (False, True)]
    records += [census.sampled_census(n, 12, 1, cf) for n in (5, 7) for cf in (False, True)]
    for record in records:
        assert _json_text(record) + "\n" == _dumped(record)
    code, out, _ = run_cli(["enumerate", "--n", "7", "--mode", "sample", "--samples", "5"])
    assert code == 0 and out == _dumped(census.sampled_census(7, 5, 0, False))
    # density reports key its results by int
    rep = verify.run_suite("density", n_max=3)
    assert any(isinstance(k, int) for k in rep["results"])
    code, out, _ = run_cli(["verify", "density", "--n-max", "3"])
    assert code == 0 and out == _dumped(rep)


#: values whose json text turns on one of json's rules: empties, keys of
#: every kind json takes, tuples and dict subclasses, escapes, nan and inf
JSON_EDGE_CASES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": ()},
    {10: "z", 2: "y", -1: "x"},
    {True: 1, False: 0},
    {None: [None]},
    {1.5: 3, float("nan"): 1, float("inf"): [1, 2], -float("inf"): -1},
    (1, 2, (3, [4])),
    collections.OrderedDict([("z", 1), ("a", collections.OrderedDict(b=2))]),
    "h\u00e9llo \u2603 \U0001f600 \x00\x1f\n\t\"\\/",
    {"\u00e9": "\u2603", "a\nb": ""},
    [float("nan"), float("inf"), -float("inf"), 1e300, 0.1, -0.0, 2.5e-8],
    [True, False, None, 1, -2, 2**80],
    [1, True],
    [1, 2.0],
    0,
    -3,
    2**70,
    None,
    True,
    False,
    1.0,
    "",
    {"k": {"j": [1, {"x": None, "y": (1,)}], "l": [[1, 2], [3], []]}},
]


@pytest.mark.parametrize("obj", JSON_EDGE_CASES, ids=range(len(JSON_EDGE_CASES)))
def test_report_writer_matches_json_dumps(obj):
    from binmatroid.cli import _json_text

    assert _json_text(obj) + "\n" == _dumped(obj)


@pytest.mark.parametrize(
    "obj", [{1: 1, "a": 2}, {(1,): 2}, object(), [set()], {"a": b"x"}, {"a": [1, {2.0: {3}}]}]
)
def test_report_writer_refuses_what_json_refuses(obj):
    from binmatroid.cli import _json_text

    with pytest.raises(TypeError) as want:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        _json_text(obj)
    assert str(got.value) == str(want.value)


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


def test_enumerate_beyond_canonical_forms_counts_distinct_sets():
    # past MAX_CANONICAL_DIM the sample dedupes raw masks, and says so
    import random

    from binmatroid.census import sample_uniform_mask

    args = ["enumerate", "--n", "7", "--mode", "sample", "--samples", "40", "--seed", "5"]
    code, out, _ = run_cli(args)
    rec = json.loads(out)
    rng = random.Random(5)
    assert code == 0 and rec["dedupe"] == "raw_mask"
    assert rec["count_total"] == len({sample_uniform_mask(7, rng) for _ in range(40)})
    _, out, _ = run_cli(["enumerate", "--n", "6", "--mode", "sample", "--samples", "5"])
    assert "dedupe" not in json.loads(out)


@pytest.mark.parametrize("command", [["analyze"], ["gen", "doubling"]])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_unreadable_input_is_a_usage_error(tmp_path, command, target):
    path = str(tmp_path / "absent.txt") if target == "missing" else str(tmp_path)
    code, out, err = run_cli(command + [path])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and f"cannot read {path}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, monkeypatch, source):
    # the column of the 0xff byte, which a stdin decoded with
    # surrogateescape reports as the column of the token it is in
    data = b"dim 3\npoints 1 \xff 4\n"
    argv = ["analyze"]
    if source == "file":
        path = tmp_path / "latin1.matroid"
        path.write_bytes(data)
        argv.append(str(path))
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    out, err = io.StringIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    code = main(argv)
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == "parse error: line 2, col 10: byte 0xff is not UTF-8\n"
    code, out, err = run_cli(["analyze"], stdin=data.decode("utf-8", "surrogateescape"))
    assert code == 2 and out == "" and "parse error: line 2, col 10:" in err


def test_stdin_and_path_give_one_message_for_bytes_that_are_not_utf8(tmp_path, monkeypatch):
    # a C-locale stdin decodes 0xff as the surrogate U+DCFF, which the
    # parser would report as a point that is not an integer
    data = b"dim 3\npoints 1 \xff2\n"
    path = tmp_path / "latin1.matroid"
    path.write_bytes(data)
    messages = []
    for argv, stdin in (
        (["analyze", str(path)], io.StringIO("")),
        (["analyze"], io.TextIOWrapper(io.BytesIO(data), "ascii", "surrogateescape")),
        (["analyze", "-"], io.TextIOWrapper(io.BytesIO(data), "ascii", "surrogateescape")),
    ):
        out, err = io.StringIO(), io.StringIO()
        monkeypatch.setattr(sys, "stdin", stdin)
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        assert main(argv) == 2 and out.getvalue() == ""
        messages.append(err.getvalue())
    assert messages == ["parse error: line 2, col 10: byte 0xff is not UTF-8\n"] * 3


def test_verify_unknown_suite_is_usage_error():
    code, _, _ = run_cli(["verify", "bogus"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "density", "--n-max", "-1"],
        ["verify", "pgsum", "--n-max", "-2"],
        ["verify", "coset", "--samples", "-3"],
        ["enumerate", "--n", "5", "--mode", "sample", "--samples", "-4"],
    ],
)
def test_negative_counts_are_usage_errors(argv):
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert "must be nonnegative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "density", "--n-max", "\u0663"],
        ["verify", "density", "--n-max", "+2"],
        ["verify", "coset", "--samples", "1_0"],
        ["verify", "structure", "--seed", "\u0663"],
        ["verify", "structure", "--seed", "-\u0663"],
        ["enumerate", "--n", "\u0663", "--mode", "exhaustive"],
        ["enumerate", "--n", " 3", "--mode", "exhaustive"],
        ["enumerate", "--n", "3", "--mode", "sample", "--samples", "2", "--seed", "+1"],
        ["gen", "empty", "1_0"],
        ["gen", "i", "\u0662"],
        ["gen", "pg-sum", "2", "+3"],
        ["gen", "target", "5", "2", "\u0662"],
    ],
)
def test_integer_options_read_only_plain_decimals(argv):
    # the options follow the file parser's -?[0-9]+ rule, which `int` is wider than
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert "usage error" in err and "not an integer" in err


def test_a_negative_seed_stays_legal():
    argv = ["enumerate", "--n", "3", "--mode", "sample", "--samples", "4", "--seed"]
    code, out, _ = run_cli(argv + ["-7"])
    assert code == 0 and json.loads(out)["seed"] == -7


@pytest.mark.parametrize("suite", ["structure", "ljparams", "pgsum", "target", "rlj", "coset"])
def test_zero_samples_are_usage_errors_for_sampling_suites(suite):
    # a suite that samples nothing would report passed: true on 0 cases
    code, out, err = run_cli(["verify", suite, "--samples", "0"])
    assert code == 1 and out == ""
    assert "--samples" in err


@pytest.mark.parametrize("suite", ["density", "cftf"])
def test_n_max_below_the_first_dimension_is_a_usage_error(suite):
    # both ranges start at n = 1, so --n-max 0 would pass on no case
    code, out, err = run_cli(["verify", suite, "--n-max", "0"])
    assert code == 1 and out == ""
    assert "usage error" in err and "n_max must be at least 1" in err
    code, out, _ = run_cli(["verify", suite, "--n-max", "1"])
    assert code == 0 and json.loads(out)["checked"] > 0


def test_zero_samples_stay_legal_for_enumerate():
    code, out, _ = run_cli(["enumerate", "--n", "5", "--mode", "sample", "--samples", "0"])
    assert code == 0 and json.loads(out)["samples"] == 0


@pytest.mark.parametrize("mode", ["sample", "exhaustive"])
@pytest.mark.parametrize("n", ["-1", "17"])
def test_enumerate_dimension_out_of_range_is_a_usage_error(n, mode):
    code, out, err = run_cli(["enumerate", "--n", n, "--mode", mode])
    assert code == 1 and out == ""
    assert "usage error" in err and "[0, 16]" in err


@pytest.mark.parametrize("option,value", [("--samples", "5"), ("--seed", "3")])
def test_exhaustive_enumeration_refuses_sample_options(option, value):
    code, out, err = run_cli(["enumerate", "--n", "2", "--mode", "exhaustive", option, value])
    assert code == 1 and out == ""
    assert "usage error" in err and option in err


def test_sample_enumeration_defaults():
    # with --samples and --seed left out, sample mode draws 1000 at seed 0
    code, out, _ = run_cli(["enumerate", "--n", "3", "--mode", "sample"])
    rec = json.loads(out)
    assert code == 0 and (rec["samples"], rec["seed"]) == (1000, 0)
    explicit = ["enumerate", "--n", "3", "--mode", "sample", "--samples", "1000", "--seed", "0"]
    assert run_cli(explicit)[1] == out


@pytest.mark.parametrize(
    "argv,option",
    [
        (["verify", "tiny", "--n-max", "9"], "--n-max"),
        (["verify", "rlj", "--n-max", "9"], "--n-max"),
        (["verify", "ljparams", "--n-max", "3"], "--n-max"),
        (["verify", "density", "--samples", "5"], "--samples"),
        (["verify", "bbt", "--samples", "5"], "--samples"),
        (["verify", "tiny", "--samples", "5"], "--samples"),
        (["verify", "chibound", "--seed", "3"], "--seed"),
        (["verify", "cftf", "--seed", "0"], "--seed"),
    ],
)
def test_options_a_suite_does_not_take_are_usage_errors(argv, option):
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert "usage error" in err and option in err and argv[1] in err


def test_suite_keywords_match_the_registry():
    from binmatroid import verify

    assert verify.suite_keywords("structure") == ("n_max", "samples", "seed")
    assert verify.suite_keywords("rlj") == ("samples", "seed")
    assert verify.suite_keywords("density") == ("n_max",)
    assert verify.suite_keywords("tiny") == ()
    with pytest.raises(ValueError):
        verify.suite_keywords("bogus")
    # a suite given only the options it takes still runs
    code, out, _ = run_cli(["verify", "ljparams", "--samples", "3", "--seed", "2"])
    assert code == 0 and json.loads(out)["samples"] == 3


@pytest.mark.parametrize(
    "name", [name for name in verify.SUITE_NAMES if "n_max" in verify.suite_keywords(name)]
)
def test_run_suite_rejects_a_negative_n_max(name):
    with pytest.raises(ValueError, match="n_max"):
        verify.run_suite(name, n_max=-1)


def test_run_suite_honours_zero_samples():
    from binmatroid.verify import run_suite

    assert run_suite("ljparams", samples=0)["samples"] == 0
    assert run_suite("coset", samples=0)["samples"] == 0
    parts = run_suite("structure", n_max=5, samples=0)["parts"]
    assert parts[-1]["samples"] == 0 and parts[-1]["checked"] == 0


def test_run_suite_fills_only_the_arguments_a_suite_takes(monkeypatch):
    from binmatroid import verify

    assert verify.SUITE_NAMES == (
        "structure", "density", "ljparams", "pgsum", "target", "rlj",
        "coset", "tiny", "semidouble", "bbt", "cftf", "chibound",
    )
    every = ("n_max", "samples", "seed")
    assert [verify.suite_keywords(name) for name in verify.SUITE_NAMES] == [
        every, ("n_max",), ("samples", "seed"), every, every, ("samples", "seed"),
        every, (), ("n_max",), ("n_max",), ("n_max",), ("n_max",),
    ]
    calls = []

    def stub(suite):
        # keeps the suite's signature, which run_suite reads
        @functools.wraps(suite)
        def record(**kwargs):
            calls.append(kwargs)
            return {"passed": True}

        return record

    for name, suite in list(verify._SUITES.items()):
        monkeypatch.setitem(verify._SUITES, name, stub(suite))
    verify.run_suite("rlj", n_max=3, seed=5, samples=7)
    verify.run_suite("structure")
    verify.run_suite("structure", n_max=6, samples=0)
    verify.run_suite("tiny", n_max=3, seed=5, samples=7)
    verify.run_suite("density", n_max=3, seed=5, samples=7)
    assert calls == [
        {"seed": 5, "samples": 7},
        {},
        {"n_max": 6, "samples": 0},
        {},
        {"n_max": 3},
    ]
    with pytest.raises(ValueError):
        verify.run_suite("bogus")


def test_pgsum_sampled_stream_frozen(monkeypatch):
    import hashlib

    from binmatroid import verify

    rep = verify.verify_pgsum(n_max=0, samples=320, seed=7)
    assert rep == {
        "suite": "pgsum", "n_max": 0, "samples": 320, "seed": 7, "checked": 1,
        "sampled": 320, "chi_checked": 22, "truncated": False, "violations": [],
        "passed": True,
    }
    seen = []
    witness = verify.pg_sum_witness_mask

    def record(mask, n):
        seen.append((n, mask))
        return witness(mask, n)

    monkeypatch.setattr(verify, "pg_sum_witness_mask", record)
    verify.verify_pgsum(n_max=0, samples=320, seed=7)
    assert seen[:3] == [(0, 0), (5, 647892278), (5, 207388624)]
    digest = hashlib.sha256(repr(seen).encode()).hexdigest()
    assert digest == "1ec6d8af77a423f6cd55cca5f3b89c74d0356436126c298cc2ada26d2adbe38a"


def _random_flat_by_closures(n, rng):
    """verify's flat sampler with a `Flat` built for every draw, kept or not."""
    from binmatroid.gf2 import closure_mask

    d = rng.randint(0, n)
    if d == 0:
        return closure_mask(0, n)
    while True:
        pts = {rng.randint(1, (1 << n) - 1) for _ in range(d)}
        F = closure_mask(sum(1 << p for p in pts), n)
        if F.dim == d:
            return F


def _disjoint_flat_pair_by_closures(n, rng):
    """verify's disjoint-pair sampler over `_random_flat_by_closures`."""
    F1 = _random_flat_by_closures(n, rng)
    tries = 0
    while tries < 20:
        F2 = _random_flat_by_closures(n, rng)
        if F1.members & F2.members == 0:
            return (F1.members, F2.members)
        tries += 1
    return None


@pytest.mark.parametrize("n", range(1, 9))
def test_flat_samplers_match_the_samplers_that_build_every_flat(n):
    # the bitset samplers draw what the oracles draw, and leave the RNG
    # where they leave it
    from binmatroid import verify

    pairs = 0
    for seed in range(100):
        r1, r2 = random.Random(f"flats:{n}:{seed}"), random.Random(f"flats:{n}:{seed}")
        assert verify._random_flat(n, r1) == _random_flat_by_closures(n, r2), (n, seed)
        assert r1.getstate() == r2.getstate(), (n, seed)
        pair = verify._random_disjoint_flat_pair(n, r1)
        assert pair == _disjoint_flat_pair_by_closures(n, r2), (n, seed)
        assert r1.getstate() == r2.getstate(), (n, seed)
        pairs += pair is not None
    assert pairs > 50


#: suite -> (samples, the number of ground sets verify builds at seed 3, and a
#: digest of their (n, mask) sequence): the uniform, claw-free and sigma <= 3
#: draws of ljparams, and the exhaustive and uniform sets of rlj; recorded
#: while verify still kept its own samplers
FROZEN_LIFT_JOIN_STREAMS = {
    "ljparams": (20, 184, "d3b5e78c6b7dc6322d5d144331ba6edde3d05e005746380f1890492a60e989c7"),
    "rlj": (6, 178, "4a7b9f0667b8d517c6ba49cfc857209b72af8201130ad667858b89ca41430900"),
}


@pytest.mark.parametrize("suite", sorted(FROZEN_LIFT_JOIN_STREAMS))
def test_lift_join_sampled_streams_frozen(monkeypatch, suite):
    import hashlib

    from binmatroid import verify

    samples, count, digest = FROZEN_LIFT_JOIN_STREAMS[suite]
    seen = []
    build = verify.BinaryMatroid

    def record(n, mask):
        seen.append((n, mask))
        return build(n, mask)

    monkeypatch.setattr(verify, "BinaryMatroid", record)
    assert verify.run_suite(suite, samples=samples, seed=3)["passed"]
    assert len(seen) == count
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == digest


#: (n, samples, seed) -> outcome counts and a digest of the sampled masks,
#: recorded before the claw tests moved to the line set and the translate test
FROZEN_STRUCTURE_SAMPLED = {
    (5, 600, 3): (
        {"even_plane": 81, "complement_triangle_free": 160, "strict_pg_sum": 0, "decomposer": 359},
        "e0f69a0ce1af42d607207c6270b9cdf2db55ee31aa2ee7145e3862e70cf0f9d5",
    ),
    (5, 600, 11): (
        {"even_plane": 86, "complement_triangle_free": 165, "strict_pg_sum": 0, "decomposer": 349},
        "699cb7f79c7a33a777a854e4ed26c255c8345dd6ecf9f214b0164c2f5de3e3f4",
    ),
    (6, 180, 3): (
        {"even_plane": 19, "complement_triangle_free": 33, "strict_pg_sum": 0, "decomposer": 128},
        "8574d65e9c8d910ece77cde2dd2aa63f34505244623fdd0c80a45e8fdc571edf",
    ),
    (6, 180, 11): (
        {"even_plane": 19, "complement_triangle_free": 46, "strict_pg_sum": 0, "decomposer": 115},
        "baf68d280714ccef5f05dc46bf7586e795054627d965780711400a48c2237ec0",
    ),
}


@pytest.mark.parametrize("n,samples,seed", sorted(FROZEN_STRUCTURE_SAMPLED))
def test_structure_sampled_reports_frozen(monkeypatch, n, samples, seed):
    import hashlib

    from binmatroid import verify

    seen = []
    sampler = verify.census.sample_claw_free_mask

    def record(n, rng):
        seen.append(sampler(n, rng))
        return seen[-1]

    monkeypatch.setattr(verify.census, "sample_claw_free_mask", record)
    rep = verify.verify_structure_sampled(n, samples, seed)
    outcomes, digest = FROZEN_STRUCTURE_SAMPLED[n, samples, seed]
    assert rep == {
        "suite": "structure", "mode": "sample", "n": n, "samples": samples,
        "seed": seed, "checked": samples, "outcomes": outcomes,
        "truncated": False, "violations": [], "passed": True,
    }
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == digest


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
    # the first 21 sets are claw-free and anticlaw-free, so each is a
    # violation, and the sweep stops at the 21st, inside n = 3
    monkeypatch.setattr(verify, "is_target", lambda M: None)
    rep = verify.verify_target(n_max=4, samples=50)
    assert rep["truncated"] and not rep["passed"]
    assert rep["stopped_at"] == rep["checked"] == verify.MAX_VIOLATIONS + 1
    assert len(rep["violations"]) == verify.MAX_VIOLATIONS + 1
    assert rep["sampled"] == 0  # the sampled phase is skipped

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


def test_pgsum_cap_stops_the_later_phases(monkeypatch):
    from binmatroid import verify

    # the first 21 sets are PG-sums, so the sweep stops at the 21st
    monkeypatch.setattr(verify, "pg_sum_witness_mask", lambda mask, n: None)
    rep = verify.verify_pgsum(n_max=4, samples=50)
    assert rep["truncated"] and not rep["passed"]
    assert len(rep["violations"]) == verify.MAX_VIOLATIONS + 1
    assert rep["stopped_at"] == rep["checked"] == verify.MAX_VIOLATIONS + 1
    assert rep["sampled"] == rep["chi_checked"] == 0

    # a fault at n = 5 only, which the sampled phase alone sees, stops it,
    # and the chi phase is skipped
    monkeypatch.undo()
    witness = verify.pg_sum_witness_mask
    monkeypatch.setattr(
        verify, "pg_sum_forbidden_mask", lambda mask, n: (witness(mask, n) is None) == (n == 5)
    )
    rep = verify.verify_pgsum(n_max=2, samples=50)
    assert len(rep["violations"]) == rep["sampled"] == verify.MAX_VIOLATIONS + 1
    assert rep["stopped_at"] == rep["checked"] + rep["sampled"]
    assert rep["chi_checked"] == 0


def test_exhaustive_halves_run_the_shipped_recognizers(monkeypatch):
    from binmatroid import verify

    # faults that fire only at n <= 4, where the sampled halves never look
    forbidden, claw_free = verify.pg_sum_forbidden_mask, verify.claw_free_any
    monkeypatch.setattr(verify, "pg_sum_forbidden_mask", lambda mask, n: forbidden(mask, n) != (n <= 4))
    monkeypatch.setattr(verify, "claw_free_any", lambda mask, n: claw_free(mask, n) != (n <= 4))
    for rep in (
        verify.verify_pgsum(n_max=4, samples=0),
        verify.verify_target(n_max=4, samples=0),
        verify.verify_cftf(4),
    ):
        assert rep["violations"] and not rep["passed"], rep["suite"]


def test_rlj_cap_stops_the_flat_checks(monkeypatch):
    from binmatroid import verify

    monkeypatch.setattr(verify, "is_decomposer", lambda M, F: True)
    rep = verify.verify_rlj(samples=50)
    assert rep["truncated"] and not rep["passed"]
    assert len(rep["violations"]) == verify.MAX_VIOLATIONS + 1
    assert rep["stopped_at"] == rep["checked"]
    assert rep["recon_checked"] == 0


def test_structure_cap_stops_the_sweeps_and_the_merge(monkeypatch):
    from binmatroid import verify

    assert verify.verify_structure(n_max=3)["truncated"] is False
    # with no decomposers, 1 422 sets at n <= 4 and 169 of 300 samples
    # at n = 5 would be violations; each sweep stops at the 21st
    monkeypatch.setattr(verify, "has_decomposer_mask", lambda mask, n: False)
    rep = verify.verify_structure(4)
    assert rep["truncated"] and not rep["passed"]
    assert len(rep["violations"]) == verify.MAX_VIOLATIONS + 1
    assert rep["stopped_at"] == rep["checked"] == 126
    rep = verify.verify_structure_sampled(5, 300, 0)
    assert rep["truncated"] and not rep["passed"]
    assert len(rep["violations"]) == verify.MAX_VIOLATIONS + 1
    assert rep["stopped_at"] == rep["checked"] == 34

    # the merged report stops after the exhaustive part
    rep = verify.verify_structure(6, samples=300, seed=0)
    assert [p["mode"] for p in rep["parts"]] == ["exhaustive"]
    assert rep["truncated"] and rep["stopped_at"] == rep["checked"] == 126
    assert len(rep["violations"]) == verify.MAX_VIOLATIONS + 1

    # a sampled part that reaches the cap is the last one
    monkeypatch.undo()
    monkeypatch.setattr(verify, "claw_free_any", lambda mask, n: False)
    rep = verify.verify_structure(6, samples=300, seed=0)
    assert [p.get("n") for p in rep["parts"]] == [None, 5]
    assert rep["parts"][0]["truncated"] is False
    assert rep["truncated"] and rep["stopped_at"] == rep["checked"] == rep["parts"][0]["checked"]
    assert rep["parts"][1]["stopped_at"] == rep["parts"][1]["checked"] == 0


def test_structure_cap_spans_the_merged_parts(monkeypatch):
    from binmatroid import verify

    # five failures among the n = 4 sets and every n = 5 sample: the parts
    # share one ledger, so the merge stops at the 16th sampled failure
    real = verify._structure_outcome
    failures_left = {4: 5, 5: 100}

    def outcome(mask, n):
        if failures_left.get(n):
            failures_left[n] -= 1
            return None
        return real(mask, n)

    monkeypatch.setattr(verify, "_structure_outcome", outcome)
    rep = verify.verify_structure(6, samples=100)
    exhaustive, sampled = rep["parts"]
    assert sampled["n"] == 5
    assert len(exhaustive["violations"]) == 5 and not exhaustive["truncated"]
    assert len(sampled["violations"]) == verify.MAX_VIOLATIONS + 1 - 5
    assert sampled["truncated"] and sampled["stopped_at"] == sampled["checked"] == 16
    assert rep["violations"] == exhaustive["violations"] + sampled["violations"]
    assert len(rep["violations"]) == verify.MAX_VIOLATIONS + 1
    assert rep["truncated"] and not rep["passed"]
    assert rep["stopped_at"] == rep["checked"] == exhaustive["checked"] + 16


@pytest.mark.parametrize("n_max", [0, 1, 17])
def test_coset_rejects_a_range_it_cannot_run(n_max):
    code, out, err = run_cli(["verify", "coset", "--n-max", str(n_max), "--samples", "1"])
    assert code == 1 and out == ""
    assert "[2, 16]" in err and f"got {n_max}" in err


@pytest.mark.parametrize("n_max", [2, 16])
def test_coset_runs_at_both_ends_of_its_range(n_max):
    code, out, _ = run_cli(["verify", "coset", "--n-max", str(n_max), "--samples", "3"])
    rep = json.loads(out)
    assert code == 0 and rep["n_max"] == n_max and rep["hypothesis_met"] == 3


def test_ljparams_cap_skips_the_i4_loop(monkeypatch):
    from binmatroid import verify

    # every claw-free closure check fails: one violation per main-loop case
    monkeypatch.setattr(verify, "claw_free_any", lambda mask, n: False)
    rep = verify.verify_ljparams(samples=100)
    assert rep["truncated"] and not rep["passed"]
    assert len(rep["violations"]) == verify.MAX_VIOLATIONS + 1
    assert rep["stopped_at"] == rep["checked"] == verify.MAX_VIOLATIONS + 1


def test_every_suite_reports_the_cap():
    from binmatroid import verify

    for name in verify.SUITE_NAMES:
        rep = verify.run_suite(name, n_max=3, samples=20, seed=0)
        assert "truncated" in rep, name
        assert rep["passed"] == (rep["violations"] == []), name


#: suite -> (the name patched in `verify`, a stand-in that makes every case
#: it decides a violation, the report key counting the cases checked)
INJECTED_FAULTS = {
    # every claw-free set reads as full-rank, so the small ones undercut the floor
    "density": ("rank_mask", lambda mask, n: n, "checked"),
    # no Bose-Burton geometry is recognized, so every equality case fails
    "bbt": ("is_bose_burton", lambda M: None, "checked"),
    # every full-rank claw-free set reads as triangle-free
    "cftf": ("triangle_free_mask", lambda mask, n: True, "checked"),
    # every critical number reads as dim + 8
    "chibound": ("critical_number", lambda M: M.n + 8, "pairs"),
    "tiny": ("is_decomposer", lambda M, F: False, "checked"),
}


@pytest.mark.parametrize("suite", sorted(INJECTED_FAULTS))
def test_exhaustive_suites_stop_at_the_cap(monkeypatch, suite):
    from binmatroid import verify

    name, fault, count = INJECTED_FAULTS[suite]
    monkeypatch.setattr(verify, name, fault)
    rep = verify.run_suite(suite)
    assert rep["truncated"] and not rep["passed"]
    assert len(rep["violations"]) == verify.MAX_VIOLATIONS + 1
    assert rep["stopped_at"] == rep[count]
