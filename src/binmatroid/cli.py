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
import re
import sys
from dataclasses import fields
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


def _fail(line_no: int, line: str, index: int, message: str) -> MatroidParseError:
    """The error at the index-th token of `line.split()`, at that token's
    own column."""
    token = list(re.finditer(r"\S+", line))[index]
    return MatroidParseError(line_no, token.start() + 1, message)


def _decimal(token: str) -> int:
    """A token -?[0-9]+ as an int; ValueError for any other (`int` refuses "--1")."""
    if not (token.isascii() and token.lstrip("-").isdigit()):
        raise ValueError(token)
    return int(token)


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
        raise _fail(dim_no, dim_line, 0, "expected 'dim <n>'")
    try:
        n = _decimal(dim_tokens[1])
    except ValueError:
        raise _fail(dim_no, dim_line, 1, "dimension is not an integer") from None
    if not 0 <= n <= MAX_DIM:
        raise _fail(dim_no, dim_line, 1, f"dimension must be in [0, {MAX_DIM}]")
    pts_tokens = pts_line.split()
    if not pts_tokens or pts_tokens[0] != "points":
        raise _fail(pts_no, pts_line, 0, "expected 'points ...'")
    points: list[int] = []
    limit = 1 << n
    for i, tok in enumerate(pts_tokens[1:], 1):
        try:
            v = _decimal(tok)
        except ValueError:
            raise _fail(pts_no, pts_line, i, f"point {tok!r} is not an integer") from None
        if v == 0:
            raise _fail(pts_no, pts_line, i, "0 is not a point")
        if not 0 < v < limit:
            raise _fail(pts_no, pts_line, i, f"point {v} out of range [1, {limit - 1}]")
        if points and v <= points[-1]:
            raise _fail(
                pts_no, pts_line, i,
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None


def _record(record) -> dict:
    """The fields of a flat record (`ClassFlags`, `InvariantRecord`) as a
    plain dict: its values are ints, bools and None, so `asdict`'s
    recursive deep copy has nothing to copy."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def tree_to_json(node) -> dict:
    if isinstance(node, Leaf):
        return {
            "leaf": {
                "dim": node.matroid.n,
                "points": node.matroid.points(),
                "tags": _record(node.tags),
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
            "flags": _record(classify(M)),
            "invariants": _record(fold_invariants(root)),
            "decomposer": list(root.flat.basis) if isinstance(root, Join) else None,
            "tree": tree_to_json(tree) if tree is not None else None,
        }
    finally:
        _maximal_tree.cache_clear()


#: Encodes a str, or a float as json writes it ("NaN", "Infinity"), in C.
_encode = json.JSONEncoder().encode


def _key_text(key) -> str:
    """A dict key as json writes it: a str, or a float, bool, None or int
    turned into one."""
    if isinstance(key, str):
        return _encode(key)
    if isinstance(key, float):
        return _encode(_encode(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_text(obj, newline: str = "\n") -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte.

    With an indent, json encodes in pure Python, chunk by chunk; this
    writer takes json's type tests in json's order, sorts items as json
    does, and leaves strings and floats to json's C encoder.  `newline`
    is the line break and indent of obj's own level.
    """
    if isinstance(obj, str):
        return _encode(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _encode(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            body = map(int.__repr__, obj)
        else:
            body = [_json_text(value, inner) for value in obj]
        return f"[{inner}{(',' + inner).join(body)}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = [
            f"{_key_text(key)}: {_json_text(value, inner)}" for key, value in sorted(obj.items())
        ]
        return f"{{{inner}{(',' + inner).join(body)}{newline}}}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _emit(obj) -> None:
    """Write a report to stdout, in one write, as the bytes of
    `json.dumps(obj, indent=2, sort_keys=True)` plus a newline."""
    sys.stdout.write(_json_text(obj) + "\n")


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


def _integer(text: str) -> int:
    """An option or argument read as `_decimal` reads the file's integers."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


_INT = {"type": _integer}
_INTS = {"type": _integer, "nargs": "*"}

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
    value = _integer(text)
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
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sample"), required=True)
    p.add_argument("--samples", type=_count, default=None, help="default 1000")
    p.add_argument("--seed", type=_integer, default=None, help="default 0")
    p.add_argument("--filter", choices=("claw_free", "all"), default="all")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run a theorem-verification suite")
    p.add_argument("suite", choices=verify.SUITE_NAMES)
    p.add_argument("--n-max", type=_count, default=None, dest="n_max")
    p.add_argument("--seed", type=_integer, default=None)
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
    except UnicodeDecodeError as exc:
        data, at = exc.object, exc.start  # the column counts bytes
        line, col = data.count(b"\n", 0, at) + 1, at - data.rfind(b"\n", 0, at)
        err = MatroidParseError(line, col, f"byte 0x{data[at]:02x} is not UTF-8")
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
