"""The benchmark's workloads: op lists, op execution and per-op checks.

Every op is driven through the library's public functions, the way a
caller or a CLI user reaches them:

* ``verify-sweep`` -- chunks of `verify.verify_structure_sampled` at
  n = 5 and n = 6 and of `verify.verify_pgsum` (its sampled part at
  n = 5), with per-chunk seeds drawn from the workload seed.  The ops
  are an endless stream; the run stops on time.  Chunk sizes are chosen
  so the three kinds take about the same time per op.
* ``analyze-decompose`` -- ``binmatroid analyze`` and ``binmatroid
  decompose`` run in-process through `cli.main` on a fixed pool of
  n = 7 and n = 8 inputs of four kinds (lift-joins of claw-free factors,
  even-plane sets, complements of triangle-free sets, uniform sets).
* ``enumerate-sample`` -- `census.sampled_census` with the claw-free
  filter at n = 5 and n = 6 over a fixed pool of census seeds.

The two pooled workloads run their whole pool in every run, in an order
drawn from the workload seed.  Their op costs are heavy-tailed
(`canonical_form` at n = 6, plane streaming at n = 8), so a seed-chosen
subset would make two seeds measure different amounts of work; a fixed
pool also lets each answer be checked against a digest recorded in
``data/expected.json`` by ``record.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import dataclasses
from dataclasses import dataclass
from typing import Iterator, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "data", "expected.json")

WORKLOADS = ("verify-sweep", "analyze-decompose", "enumerate-sample")

#: samples per sweep chunk, sized so each kind takes about as long per op
SWEEP_CHUNKS = (
    ("structure", 5, 600),
    ("structure", 6, 180),
    ("pgsum", 5, 320),
)

#: census ops of the enumerate-sample pool: (n, samples per op, op seeds);
#: with the analyze pool, sized so the whole pool takes about 30 s
CENSUS_POOL = (
    (5, 4, tuple(range(60))),
    (6, 1, tuple(range(150))),
)

#: analyze-decompose pool: inputs per (dimension, kind)
ANALYZE_POOL = {7: 6, 8: 3}
ANALYZE_KINDS = ("lift_join", "even_plane", "co_triangle_free", "uniform")

#: per-op time cap, seconds; an op that reaches it counts as failed
OP_CAP_S = 30.0


@dataclass(frozen=True)
class Op:
    kind: str  # "structure", "pgsum", "analyze", "decompose" or "census"
    n: int
    size: int  # samples for sweep and census ops
    seed: int = 0
    key: str = ""  # pool key of an analyze/decompose input

    @property
    def cases(self) -> int:
        return 1 if self.kind in ("analyze", "decompose") else self.size

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


class CheckFailed(Exception):
    """An op returned an answer that does not match the expected one."""


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def sweep_ops(seed: int) -> Iterator[Op]:
    """Endless round-robin over the chunk kinds with seeded chunk seeds."""
    rng = _rng("verify-sweep", seed)
    while True:
        for kind, n, size in SWEEP_CHUNKS:
            yield Op(kind, n, size, seed=rng.getrandbits(31))


def analyze_ops(expected: dict, seed: int) -> list[Op]:
    """Whole pool, interleaved by (dimension, kind) so that every prefix
    holds a balanced mix; the seed shuffles within each stratum."""
    rng = _rng("analyze-decompose", seed)
    strata = []
    for n in sorted(ANALYZE_POOL):
        for kind in ANALYZE_KINDS:
            keys = sorted(k for k, v in expected["analyze"].items() if v["n"] == n and v["kind"] == kind)
            ops = [Op(cmd, n, 1, key=k) for k in keys for cmd in ("analyze", "decompose")]
            rng.shuffle(ops)
            strata.append(ops)
    rng.shuffle(strata)
    out = []
    while any(strata):
        for s in strata:
            if s:
                out.append(s.pop())
    return out


def census_ops(seed: int) -> list[Op]:
    rng = _rng("enumerate-sample", seed)
    ops = [Op("census", n, k, seed=s) for n, k, seeds in CENSUS_POOL for s in seeds]
    rng.shuffle(ops)
    return ops


def op_stream(workload: str, expected: dict, seed: int):
    if workload == "verify-sweep":
        return sweep_ops(seed)
    if workload == "analyze-decompose":
        return iter(analyze_ops(expected, seed))
    if workload == "enumerate-sample":
        return iter(census_ops(seed))
    raise ValueError(f"unknown workload {workload!r}")


def pooled(workload: str) -> bool:
    """Pooled workloads run their whole pool; the sweep stops on time."""
    return workload != "verify-sweep"


# ---------------------------------------------------------------------------
# Running and checking one op
# ---------------------------------------------------------------------------


def matroid_text(entry: dict) -> str:
    pts = " ".join(str(p) for p in entry["points"])
    return f"dim {entry['n']}\npoints {pts}\n".replace("points \n", "points\n")


def run_cli(argv: list[str], stdin_text: str) -> tuple[int, str]:
    """`cli.main` in-process with stdin fed from a string and stdout captured."""
    from binmatroid import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def execute(op: Op, expected: dict):
    """Run one op; returns what `check` needs.  This is the timed part."""
    from binmatroid import census, verify

    if op.kind == "structure":
        return verify.verify_structure_sampled(op.n, op.size, op.seed)
    if op.kind == "pgsum":
        return verify.verify_pgsum(n_max=0, samples=op.size, seed=op.seed)
    if op.kind == "census":
        return census.sampled_census(op.n, op.size, op.seed, filter_claw_free=True)
    entry = expected["analyze"][op.key]
    return run_cli([op.kind, "-"], matroid_text(entry))


def census_key(op: Op) -> str:
    return f"{op.n}:{op.size}:{op.seed}"


def check(op: Op, result, expected: dict) -> None:
    """Raise CheckFailed unless the op's answer is right."""
    if op.kind == "structure":
        if not (result["passed"] and result["checked"] == op.size):
            raise CheckFailed(f"structure chunk: passed={result['passed']} checked={result['checked']}")
        return
    if op.kind == "pgsum":
        if not (result["passed"] and result["sampled"] == op.size):
            raise CheckFailed(f"pgsum chunk: passed={result['passed']} sampled={result['sampled']}")
        return
    if op.kind == "census":
        want = expected["census"].get(census_key(op))
        if want is None or digest(result) != want:
            raise CheckFailed(f"census record digest mismatch for {census_key(op)}")
        return
    rc, text = result
    if rc != 0:
        raise CheckFailed(f"{op.kind} exited with {rc}")
    report = json.loads(text)
    entry = expected["analyze"][op.key]
    tree = report.pop("tree")
    if digest(report) != entry["report"]:
        raise CheckFailed(f"{op.kind} report digest mismatch for {op.key}")
    if op.kind == "analyze":
        if tree is not None:
            raise CheckFailed("analyze printed a tree")
        return
    if digest(tree) != entry["tree"]:
        raise CheckFailed(f"decompose tree digest mismatch for {op.key}")
    check_reconstruction(entry, tree)


def check_reconstruction(entry: dict, tree_json: dict) -> None:
    """The printed tree folds back to the input exactly: rebuild the tree
    (decomposers from `find_decomposer`, leaves from the printed points),
    then compare `reconstruct` with the input mapped by `tree_point_map`."""
    from binmatroid.gf2 import complementary_flat, iter_bits
    from binmatroid.matroid import BinaryMatroid, restrict
    from binmatroid.structure import (
        Join,
        Leaf,
        find_decomposer,
        reconstruct,
        tree_point_map,
    )

    def build(node: dict, M: BinaryMatroid):
        if "leaf" in node:
            leaf = node["leaf"]
            return Leaf(BinaryMatroid.from_points(leaf["points"], leaf["dim"]), tags=None)
        F = find_decomposer(M)
        if F is None:
            raise CheckFailed("printed join has no decomposer")
        J = complementary_flat(F)
        left, right = node["join"]
        return Join(build(left, restrict(M, F)), build(right, restrict(M, J)), F, J)

    M = BinaryMatroid.from_points(entry["points"], entry["n"])
    tree = build(tree_json, M)
    table = tree_point_map(tree)
    mapped = 0
    for v in iter_bits(M.mask):
        mapped |= 1 << table[v]
    folded = reconstruct(tree)
    if folded.n != M.n or folded.mask != mapped:
        raise CheckFailed("decomposition tree does not reconstruct the input")


# ---------------------------------------------------------------------------
# Set-up and the scaling table
# ---------------------------------------------------------------------------


def build_tables() -> None:
    """The lazy tables the workloads use, built before the first op."""
    from binmatroid import census, tables

    for n in range(3, tables.PLANE_TABLE_MAX + 1):
        tables.plane_array(n)
        tables.planes_through_point(n)
        census.even_plane_basis(n)
    for n in range(3, 5):
        tables.sweep_tables(n)
        tables.claw_free_masks_list(n)


SCALING_DIMS = (6, 8, 10, 12)
SCALING_CAP_S = 6.0


def scaling_input(n: int) -> str:
    """A fixed lift-join of claw-free factors at dimension n >= 5:
    alternating C4 and P5 (dim 3), with triangles (dim 2) to fill."""
    from binmatroid import cli, construct

    threes = (construct.c4, construct.p5)
    factors = []
    rem = n
    while rem:
        if rem in (2, 4):
            factors.append(construct.triangle_matroid())
        else:
            factors.append(threes[len(factors) % 2]())
        rem -= factors[-1].n
    M = factors[0]
    for f in factors[1:]:
        M = construct.lift_join(M, f)
    return cli.format_matroid(M)


def scaling_table(cap_s: float = SCALING_CAP_S) -> list[dict]:
    """Wall time of analyze and decompose on one lift-join per dimension;
    a row that reaches the cap is written as "capped"."""
    import time

    rows = []
    for n in SCALING_DIMS:
        text = scaling_input(n)
        for cmd in ("analyze", "decompose"):
            t0 = time.perf_counter()
            try:
                with op_cap(cap_s):
                    rc, _ = run_cli([cmd, "-"], text)
                seconds: object = round(time.perf_counter() - t0, 4)
                if rc != 0:
                    seconds = f"exit {rc}"
            except OpTimeout:
                seconds = "capped"
            rows.append({"n": n, "command": cmd, "seconds": seconds, "cap_s": cap_s})
    return rows


class OpTimeout(Exception):
    """Raised inside an op that reached its time cap."""


@contextlib.contextmanager
def op_cap(seconds: Optional[float]):
    """Interrupt the enclosed code with OpTimeout after `seconds`."""
    import signal

    if not seconds:
        yield
        return

    def on_alarm(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
