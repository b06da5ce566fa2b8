"""One benchmark process: set up the library, run ops, report as JSON.

    python3 perfbench/worker.py --mode ops --workload NAME --seed S \
        [--seconds T] [--max-ops N] [--trace 0|1] [--spans PATH]
    python3 perfbench/worker.py --mode setup
    python3 perfbench/worker.py --mode scaling

`run.py` starts this script afresh for every round, so the library's
caches start cold as they do for a CLI user.  The last line of stdout is
one JSON object.  Set-up time runs from the first import of `binmatroid`
to the end of `workloads.build_tables`.  Every op and the set-up are
bracketed by `calibrate`, whose times `run.py` uses to normalise them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (stdlib only; binmatroid is imported later)
from tracer import CHECK_OP, Tracer  # noqa: E402
from workloads import CheckFailed, OpTimeout  # noqa: E402


def calibrate(iterations: int = 50_000) -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x ^= (i * 2654435761) & 0xFFFF
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(tracer=None) -> dict:
    """Import the library and build its tables: seconds, with the mean
    calibration time around them."""
    cal = calibrate()
    t0 = time.perf_counter()
    import binmatroid.cli  # noqa: F401  (the package plus the CLI module)

    if tracer is not None:
        tracer.install()
    workloads.build_tables()
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "cal_s": (cal + calibrate()) / 2}


def run_ops(
    workload: str,
    seed: int,
    seconds: float = 0.0,
    max_ops: int | None = None,
    tracer=None,
) -> list[dict]:
    """Run the workload's ops in order.  Pooled workloads run their whole
    pool; the sweep stops once `seconds` have passed.  `max_ops` truncates
    either."""
    expected = workloads.load_expected()
    stream = workloads.op_stream(workload, expected, seed)
    timed = not workloads.pooled(workload)
    records = []
    start = time.perf_counter()
    cal = calibrate()
    for i, op in enumerate(stream):
        if max_ops is not None and i >= max_ops:
            break
        if max_ops is None and timed and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.op = i
        status, detail = "ok", ""
        t0 = time.perf_counter()
        try:
            with workloads.op_cap(workloads.OP_CAP_S):
                t0 = time.perf_counter()
                result = workloads.execute(op, expected)
                t1 = time.perf_counter()
        except OpTimeout:
            t1 = time.perf_counter()
            status = "capped"
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            t1 = time.perf_counter()
            status, detail = "error", f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        cal_before, cal = cal, calibrate()
        if status == "ok":
            if tracer is not None:
                tracer.op = CHECK_OP
            try:
                workloads.check(op, result, expected)
            except (CheckFailed, ValueError, KeyError, TypeError) as exc:
                # malformed output (bad JSON, missing keys) is a wrong answer too
                status, detail = "wrong", f"{type(exc).__name__}: {exc}"
        records.append({
            "op": op.to_json(),
            "latency_s": t1 - t0,
            "cal_s": (cal_before + cal) / 2,
            "cases": op.cases,
            "status": status,
            "detail": detail,
        })
    return records


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("ops", "setup", "scaling"), default="ops")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    if args.mode == "scaling":
        set_up()
        out: dict = {"scaling": workloads.scaling_table()}
    elif args.mode == "setup":
        out = {"setup": set_up()}
    else:
        if args.workload is None:
            ap.error("--workload is required with --mode ops")
        tracer = Tracer() if args.trace else None
        setup = set_up(tracer)
        records = run_ops(
            args.workload, args.seed, args.seconds, args.max_ops, tracer
        )
        out = {"setup": setup, "ops": records}
        if tracer is not None:
            tracer.uninstall()
            totals = tracer.op_self_totals()
            gaps = [
                (r["latency_s"] - totals.get(i, 0.0)) / r["latency_s"]
                for i, r in enumerate(records) if r["latency_s"] > 0
            ]
            out["layers"] = tracer.layer_metrics()
            out["op_unaccounted_frac_max"] = max(gaps) if gaps else 0.0
            out["spans"] = len(tracer.names)
            if args.spans:
                tracer.write(args.spans)
    out["peak_rss_mb"] = peak_rss_mb()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
