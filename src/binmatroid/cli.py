"""Command-line surface: gen, analyze, decompose, enumerate, verify.

Matroid files are two lines of text::

    dim 3
    points 1 2 4 7

The points line lists strictly increasing decimal values in
[1, 2^n - 1]; a bare "points" line encodes the empty ground set.
JSON reports go to stdout, logs to stderr.  Exit codes: 0 pass,
1 usage error, 2 parse error, 3 theorem-violation diagnostic.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from dataclasses import asdict
from typing import Optional

from . import census, construct, verify
from .gf2 import MAX_DIM, closure, empty_flat
from .matroid import BinaryMatroid
from .recognize import ClassFlags
from .structure import (
    Join,
    Leaf,
    StructureTheoremViolation,
    decompose,
    fold_invariants,
    tree_flags,
)

log = logging.getLogger("binmatroid")


class MatroidParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _fail(line_no: int, line: str, token: str, message: str) -> MatroidParseError:
    col = line.find(token) + 1 if token and token in line else 1
    return MatroidParseError(line_no, col, message)


def parse_matroid(text: str) -> BinaryMatroid:
    """Parse the two-line matroid file format."""
    lines = text.splitlines()
    content = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if len(content) < 2:
        raise MatroidParseError(len(lines) or 1, 1, "expected a dim line and a points line")
    if len(content) > 2:
        raise MatroidParseError(content[2][0], 1, "unexpected extra line")
    (dim_no, dim_line), (pts_no, pts_line) = content
    dim_tokens = dim_line.split()
    if len(dim_tokens) != 2 or dim_tokens[0] != "dim":
        raise _fail(dim_no, dim_line, dim_tokens[0] if dim_tokens else "", "expected 'dim <n>'")
    try:
        n = int(dim_tokens[1])
    except ValueError:
        raise _fail(dim_no, dim_line, dim_tokens[1], "dimension is not an integer") from None
    if not 0 <= n <= MAX_DIM:
        raise _fail(dim_no, dim_line, dim_tokens[1], f"dimension must be in [0, {MAX_DIM}]")
    pts_tokens = pts_line.split()
    if not pts_tokens or pts_tokens[0] != "points":
        raise _fail(pts_no, pts_line, pts_tokens[0] if pts_tokens else "", "expected 'points ...'")
    points: list[int] = []
    limit = 1 << n
    for tok in pts_tokens[1:]:
        try:
            v = int(tok)
        except ValueError:
            raise _fail(pts_no, pts_line, tok, f"point {tok!r} is not an integer") from None
        if v == 0:
            raise _fail(pts_no, pts_line, tok, "0 is not a point")
        if not 0 < v < limit:
            raise _fail(pts_no, pts_line, tok, f"point {v} out of range [1, {limit - 1}]")
        if points and v <= points[-1]:
            raise _fail(
                pts_no, pts_line, tok,
                "points must be strictly increasing"
                if v != points[-1] else f"duplicate point {v}",
            )
        points.append(v)
    return BinaryMatroid.from_points(points, n)


def format_matroid(M: BinaryMatroid) -> str:
    pts = M.points()
    body = "points " + " ".join(str(p) for p in pts) if pts else "points"
    return f"dim {M.n}\n{body}\n"


def _read_input(path: Optional[str]) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def tree_to_json(node) -> dict:
    if isinstance(node, Leaf):
        return {
            "leaf": {
                "dim": node.matroid.n,
                "points": node.matroid.points(),
                "tags": asdict(node.tags),
            }
        }
    return {"join": [tree_to_json(node.left), tree_to_json(node.right)]}


@functools.lru_cache(maxsize=1)
def _maximal_tree(M: BinaryMatroid):
    """M's maximal decomposition tree, shared by the parts of one report;
    `report_json` clears it when the report is done."""
    return decompose(M)


def classify(M: BinaryMatroid) -> ClassFlags:
    """The class flags a report gives: both claw flags are read off the
    leaves of M's maximal decomposition tree (`structure.tree_flags`), so
    the claw searches run on the leaves only."""
    return tree_flags(M, _maximal_tree(M))


def report_json(M: BinaryMatroid, tree=None) -> dict:
    """The analyze report, plus `tree` printed when one is given.

    Every field comes off M's maximal decomposition tree, built once
    through `_maximal_tree` and emptied when the report returns or
    raises: the flags through `classify(M)`, so that one call is where
    every report's flags come from (the benchmark's fault-injection test
    in perfbench/tests patches it), the invariants folded up the tree,
    and the decomposer as the flat of a join root (a leaf root has none).
    Raises StructureTheoremViolation as `decompose` does.
    """
    try:
        root = _maximal_tree(M)
        return {
            "dim": M.n,
            "points": M.points(),
            "flags": asdict(classify(M)),
            "invariants": asdict(fold_invariants(root)),
            "decomposer": list(root.flat.basis) if isinstance(root, Join) else None,
            "tree": tree_to_json(tree) if tree is not None else None,
        }
    finally:
        _maximal_tree.cache_clear()


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _emit_report(build) -> int:
    """Emit the report `build()` returns; a structure violation is exit 3."""
    try:
        report = build()
    except StructureTheoremViolation as exc:
        log.error("structure violation: %s", exc)
        _emit({"error": "structure-theorem-violation", "detail": str(exc)})
        return 3
    _emit(report)
    return 0


def cmd_analyze(args) -> int:
    M = parse_matroid(_read_input(args.file))
    return _emit_report(lambda: report_json(M))


def cmd_decompose(args) -> int:
    M = parse_matroid(_read_input(args.file))
    stop = args.stop_at_basic
    return _emit_report(
        lambda: report_json(M, decompose(M, stop_at_basic=True) if stop else _maximal_tree(M))
    )


def cmd_enumerate(args) -> int:
    if args.mode == "exhaustive":
        for option in ("samples", "seed"):
            if getattr(args, option) is not None:
                raise UsageError(f"exhaustive enumeration takes no --{option}")
        record = census.exhaustive_census(args.n, args.filter == "claw_free")
    else:
        samples = 1000 if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        record = census.sampled_census(args.n, samples, seed, args.filter == "claw_free")
    _emit(record)
    return 0


def cmd_verify(args) -> int:
    takes = verify.suite_keywords(args.suite)
    for kw, option in (("n_max", "--n-max"), ("samples", "--samples"), ("seed", "--seed")):
        if getattr(args, kw) is not None and kw not in takes:
            raise UsageError(f"suite {args.suite} takes no {option}")
    if args.samples == 0:
        raise UsageError(f"suite {args.suite} needs --samples of at least 1")
    log.info("running suite %s", args.suite)
    report = verify.run_suite(
        args.suite, n_max=args.n_max, seed=args.seed, samples=args.samples
    )
    _emit(report)
    return 0 if report["passed"] else 3


def _load(path: str) -> BinaryMatroid:
    return parse_matroid(_read_input(path))


def _semidouble(file: str, hyperplane: list[int]) -> BinaryMatroid:
    base = _load(file)
    flat = closure(hyperplane, base.n) if hyperplane else empty_flat(base.n)
    return construct.semidoubling(base, flat)


def _partial(file_a: str, file_b: str, f1, f2) -> BinaryMatroid:
    a, b = _load(file_a), _load(file_b)
    return construct.partial_lift_join(a, closure(f1 or [], a.n), b, closure(f2 or [], b.n))


_INT = {"type": int}
_INTS = {"type": int, "nargs": "*"}

#: `gen` builders: name, builder, and its arguments as (flag, add_argument
#: options); the builder receives the parsed arguments in that order.
GEN_BUILDERS = (
    ("i", construct.independent_matroid, (("t", _INT),)),
    ("c4", construct.c4, ()),
    ("p5", construct.p5, ()),
    ("k4", construct.k4, ()),
    ("triangle", construct.triangle_matroid, ()),
    ("empty", construct.empty_matroid, (("n", _INT),)),
    ("full", construct.full_matroid, (("n", _INT),)),
    ("pg-sum", construct.pg_sum, (("d1", _INT), ("d2", _INT))),
    ("bose-burton", construct.bose_burton, (("n", _INT), ("t", _INT))),
    ("target", construct.target, (("n", _INT), ("dims", _INTS))),
    ("doubling", lambda file: construct.doubling(_load(file)), (("file", {}),)),
    (
        "semidouble",
        _semidouble,
        (("file", {}), ("hyperplane", {**_INTS, "help": "basis points of the hyperplane"})),
    ),
    (
        "liftjoin",
        lambda a, b: construct.lift_join(_load(a), _load(b)),
        (("file_a", {}), ("file_b", {})),
    ),
    (
        "directsum",
        lambda a, b: construct.direct_sum(_load(a), _load(b)),
        (("file_a", {}), ("file_b", {})),
    ),
    (
        "partial",
        _partial,
        (
            ("file_a", {}),
            ("file_b", {}),
            ("--f1", {**_INTS, "help": "basis points of F1"}),
            ("--f2", {**_INTS, "help": "basis points of F2"}),
        ),
    ),
)


def cmd_gen(args) -> int:
    M = args.build(*(getattr(args, dest) for dest in args.build_args))
    sys.stdout.write(format_matroid(M))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(text: str) -> int:
    """A nonnegative integer: a sample count or a dimension bound."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="binmatroid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="class flags and invariants of a matroid file")
    p.add_argument("file", nargs="?", help="matroid file (default: stdin)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("decompose", help="recursive lift-join decomposition")
    p.add_argument("file", nargs="?", help="matroid file (default: stdin)")
    p.add_argument("--stop-at-basic", action="store_true", help="stop at basic-class factors")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("enumerate", help="census of ground sets up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), required=True)
    p.add_argument("--samples", type=_count, default=None, help="default 1000")
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.add_argument("--filter", choices=("claw_free", "all"), default="all")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("suite", choices=verify.SUITE_NAMES)
    p.add_argument("--n-max", type=_count, default=None, dest="n_max")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=_count, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="emit a built matroid as a matroid file")
    gen_sub = p.add_subparsers(dest="builder", required=True)
    for name, build, arguments in GEN_BUILDERS:
        g = gen_sub.add_parser(name)
        for flag, options in arguments:
            g.add_argument(flag, **options)
        dests = [flag.lstrip("-") for flag, _ in arguments]
        g.set_defaults(fn=cmd_gen, build=build, build_args=dests)

    return parser


#: The parser, built once per process: building it costs milliseconds.
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MatroidParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
