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
import json
import logging
import sys
from dataclasses import asdict
from typing import Optional

from . import census, construct, verify
from .gf2 import closure, empty_flat
from .matroid import BinaryMatroid, invariants
from .recognize import classify
from .structure import (
    Join,
    Leaf,
    StructureTheoremViolation,
    decompose,
    find_decomposer,
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
    if not 0 <= n <= 16:
        raise _fail(dim_no, dim_line, dim_tokens[1], "dimension must be in [0, 16]")
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


def report_json(M: BinaryMatroid, tree=None, stop_at_basic: bool = False) -> dict:
    """The analyze report, plus the tree when one is given.

    The decomposer is the root flat of the tree when it has one.  A leaf
    root of a maximal decomposition has none; a leaf cut off at a basic
    class, or no tree, leaves it to `find_decomposer`.
    """
    if isinstance(tree, Join):
        dec = tree.flat
    elif tree is not None and not stop_at_basic:
        dec = None
    else:
        dec = find_decomposer(M)
    return {
        "dim": M.n,
        "points": M.points(),
        "flags": asdict(classify(M)),
        "invariants": asdict(invariants(M)),
        "decomposer": list(dec.basis) if dec is not None else None,
        "tree": tree_to_json(tree) if tree is not None else None,
    }


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    M = parse_matroid(_read_input(args.file))
    _emit(report_json(M))
    return 0


def cmd_decompose(args) -> int:
    M = parse_matroid(_read_input(args.file))
    try:
        tree = decompose(M, stop_at_basic=args.stop_at_basic)
    except StructureTheoremViolation as exc:
        log.error("structure violation: %s", exc)
        _emit({"error": "structure-theorem-violation", "detail": str(exc)})
        return 3
    _emit(report_json(M, tree=tree, stop_at_basic=args.stop_at_basic))
    return 0


def cmd_enumerate(args) -> int:
    if args.mode == "exhaustive":
        if args.n > 4:
            raise UsageError("exhaustive enumeration requires --n at most 4")
        record = census.exhaustive_census(args.n, args.filter == "claw_free")
    else:
        record = census.sampled_census(
            args.n, args.samples, args.seed, args.filter == "claw_free"
        )
    _emit(record)
    return 0


def cmd_verify(args) -> int:
    log.info("running suite %s", args.suite)
    report = verify.run_suite(
        args.suite, n_max=args.n_max, seed=args.seed, samples=args.samples
    )
    _emit(report)
    return 0 if report["passed"] else 3


def _load(path: str) -> BinaryMatroid:
    return parse_matroid(_read_input(path))


def cmd_gen(args) -> int:
    kind = args.builder
    if kind == "i":
        M = construct.independent_matroid(args.t)
    elif kind == "c4":
        M = construct.c4()
    elif kind == "p5":
        M = construct.p5()
    elif kind == "k4":
        M = construct.k4()
    elif kind == "triangle":
        M = construct.triangle_matroid()
    elif kind == "empty":
        M = construct.empty_matroid(args.n)
    elif kind == "full":
        M = construct.full_matroid(args.n)
    elif kind == "pg-sum":
        M = construct.pg_sum(args.d1, args.d2)
    elif kind == "bose-burton":
        M = construct.bose_burton(args.n, args.t)
    elif kind == "target":
        M = construct.target(args.n, args.dims)
    elif kind == "doubling":
        M = construct.doubling(_load(args.file))
    elif kind == "semidouble":
        base = _load(args.file)
        flat = (
            closure(args.hyperplane, base.n) if args.hyperplane else empty_flat(base.n)
        )
        M = construct.semidoubling(base, flat)
    elif kind == "liftjoin":
        M = construct.lift_join(_load(args.file_a), _load(args.file_b))
    elif kind == "directsum":
        M = construct.direct_sum(_load(args.file_a), _load(args.file_b))
    elif kind == "partial":
        a, b = _load(args.file_a), _load(args.file_b)
        f1 = closure(args.f1 or [], a.n)
        f2 = closure(args.f2 or [], b.n)
        M = construct.partial_lift_join(a, f1, b, f2)
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown builder {kind!r}")
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
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--filter", choices=("claw_free", "all"), default="all")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("suite", choices=verify.SUITE_NAMES)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="emit a built matroid as a matroid file")
    gen_sub = p.add_subparsers(dest="builder", required=True)
    for name in ("c4", "p5", "k4", "triangle"):
        gen_sub.add_parser(name).set_defaults(fn=cmd_gen)
    g = gen_sub.add_parser("i")
    g.add_argument("t", type=int)
    g.set_defaults(fn=cmd_gen)
    for name in ("empty", "full"):
        g = gen_sub.add_parser(name)
        g.add_argument("n", type=int)
        g.set_defaults(fn=cmd_gen)
    g = gen_sub.add_parser("pg-sum")
    g.add_argument("d1", type=int)
    g.add_argument("d2", type=int)
    g.set_defaults(fn=cmd_gen)
    g = gen_sub.add_parser("bose-burton")
    g.add_argument("n", type=int)
    g.add_argument("t", type=int)
    g.set_defaults(fn=cmd_gen)
    g = gen_sub.add_parser("target")
    g.add_argument("n", type=int)
    g.add_argument("dims", type=int, nargs="*")
    g.set_defaults(fn=cmd_gen)
    g = gen_sub.add_parser("doubling")
    g.add_argument("file")
    g.set_defaults(fn=cmd_gen)
    g = gen_sub.add_parser("semidouble")
    g.add_argument("file")
    g.add_argument("hyperplane", type=int, nargs="*", help="basis points of the hyperplane")
    g.set_defaults(fn=cmd_gen)
    for name in ("liftjoin", "directsum"):
        g = gen_sub.add_parser(name)
        g.add_argument("file_a")
        g.add_argument("file_b")
        g.set_defaults(fn=cmd_gen)
    g = gen_sub.add_parser("partial")
    g.add_argument("file_a")
    g.add_argument("file_b")
    g.add_argument("--f1", type=int, nargs="*", default=None, help="basis points of F1")
    g.add_argument("--f2", type=int, nargs="*", default=None, help="basis points of F2")
    g.set_defaults(fn=cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
