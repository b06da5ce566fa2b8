"""Benchmark entry point for binmatroid.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``, so nothing is built or installed.  Workloads (see
``workloads.py``): ``verify-sweep``, ``analyze-decompose``,
``enumerate-sample``.  The ops run in one freshly started single-threaded
worker process, so caches start cold as for a CLI user; closed loop,
one client.

Times are normalised to a reference machine speed.  Around every op the
worker times a fixed pure-Python loop (`worker.calibrate`); each op's
latency is multiplied by CAL_REF_S over the mean of the loop times just
before and just after it, and set-up time likewise.  On a shared machine
whose speed drifts by tens of percent this cuts the run-to-run spread
severalfold; the raw times are kept in the results file.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
setup_s (median over at least five fresh set-ups), cases_per_s, op_p50_ms,
op_tail_ms and peak_rss_mb.  The two latency percentiles are Harrell-Davis
estimates; the tail is taken at the highest percentile with at least ten
ops beyond it, at most p99.  With ``--trace 1`` the same ops run twice in
fresh processes, untraced and then traced, and the last line carries the
per-layer metrics and the tracing overhead; the analyze-decompose traced
run also writes the n = 6..12 scaling table.  Full results, including the
environment stamp, per-op records and the tail percentile used, go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import metric_units  # noqa: E402

#: seconds `worker.calibrate` takes at the reference speed: its median on
#: the 2-vCPU Intel Xeon machine the benchmark was tuned on
CAL_REF_S = 0.007
#: fresh set-ups measured per run; setup_s is their median
SETUP_RUNS = 5
#: a run must end within this many seconds
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

TRACE_UNITS = {
    "trace.untraced_cases_per_s": "1/s",
    "trace.traced_cases_per_s": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.op_unaccounted_frac_max": "ratio",
    "trace.spans": "count",
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def worker(args: list[str], deadline: Deadline) -> dict:
    """Run one worker process to completion; its last stdout line is JSON.
    Op records gain `norm_latency_s`."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline.left(), 1.0),
        check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for r in out.get("ops", ()):
        r["norm_latency_s"] = normalise(r["latency_s"], r["cal_s"])
    return out


def harrell_davis(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) density.  It is far
    steadier than a single order statistic when op costs are spread out."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64  # midpoint-rule samples of the density per order statistic
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = acc = 0.0
    for j in range(n * steps):
        t = (j + 0.5) / (n * steps)
        w = math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += w
        acc += w * xs[j // steps]
    return acc / total


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it,
    capped at p99: (value, percentile, ops beyond)."""
    n = len(latencies)
    i = min(n - 11, math.ceil(0.99 * n) - 1)
    if i < 0:  # too few ops for ten beyond any percentile: report the max
        return max(latencies), 100.0, 0
    p = (i + 1) / n
    return harrell_davis(latencies, p), 100.0 * p, n - 1 - i


def summarise(records: list[dict], key: str = "norm_latency_s") -> tuple[dict, dict]:
    """cases_per_s, op_p50_ms and op_tail_ms over op records, plus details."""
    lat = [r[key] for r in records]
    busy = sum(lat)
    cases = sum(r["cases"] for r in records if r["status"] == "ok")
    tail, pct, beyond = tail_latency(lat)
    metrics = {
        "cases_per_s": cases / busy,
        "op_p50_ms": harrell_davis(lat, 0.5) * 1e3,
        "op_tail_ms": tail * 1e3,
    }
    details = {
        "ops": len(records),
        "cases": cases,
        "op_time_s": busy,
        "op_tail_percentile": pct,
        "op_tail_ops_beyond": beyond,
    }
    return metrics, details


def outcome(records: list[dict]) -> dict:
    statuses = [r["status"] for r in records]
    failed = sum(s != "ok" for s in statuses)
    return {
        "correct": not any(s in ("wrong", "error") for s in statuses),
        "attempted": len(records),
        "failed": failed,
        "capped": statuses.count("capped"),
        "fail_frac": failed / len(records),
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "binmatroid")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def normalise(seconds: float, cal_s: float) -> float:
    """A time measured beside calibration time `cal_s`, rescaled to the
    reference speed."""
    return seconds * CAL_REF_S / cal_s


def run_untraced(workload: str, seed: int, seconds: float, deadline: Deadline) -> tuple[dict, list, dict]:
    """The workload's ops in one fresh process, then set-up-only processes
    up to SETUP_RUNS set-ups."""
    out = worker(
        ["--mode", "ops", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        deadline,
    )
    setups = [out["setup"]]
    while len(setups) < SETUP_RUNS:
        setups.append(worker(["--mode", "setup"], deadline)["setup"])
    records = out["ops"]
    metrics, details = summarise(records)
    metrics = {
        "setup_s": statistics.median(normalise(s["seconds"], s["cal_s"]) for s in setups),
        **metrics,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    raw, _ = summarise(records, key="latency_s")
    details.update(
        raw_setup_s=statistics.median(s["seconds"] for s in setups),
        raw={k: raw[k] for k in ("cases_per_s", "op_p50_ms", "op_tail_ms")},
        cal_median_s=statistics.median(r["cal_s"] for r in records),
        setups=setups,
    )
    return metrics, records, details


def run_traced(workload: str, seed: int, seconds: float, deadline: Deadline) -> tuple[dict, list, dict]:
    """The same ops untraced and then traced, each in a fresh process."""
    base = ["--mode", "ops", "--workload", workload, "--seed", str(seed)]
    plain = worker(base + ["--seconds", str(seconds / 4)], deadline)
    n_ops = len(plain["ops"])
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"spans-{workload}-s{seed}.jsonl")
    traced = worker(
        base + ["--max-ops", str(n_ops), "--trace", "1", "--spans", spans_path], deadline
    )
    plain_m, plain_d = summarise(plain["ops"])
    traced_m, traced_d = summarise(traced["ops"])
    metrics = dict(traced["layers"])
    metrics.update({
        "trace.untraced_cases_per_s": plain_m["cases_per_s"],
        "trace.traced_cases_per_s": traced_m["cases_per_s"],
        "trace.overhead_frac": traced_d["op_time_s"] / plain_d["op_time_s"] - 1.0,
        "trace.op_unaccounted_frac_max": traced["op_unaccounted_frac_max"],
        "trace.spans": traced["spans"],
    })
    details = {"ops": n_ops, "spans_file": os.path.relpath(spans_path, ROOT)}
    if workload == "analyze-decompose":
        details["scaling"] = worker(["--mode", "scaling"], deadline)["scaling"]
    return metrics, plain["ops"] + traced["ops"], details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "binmatroid", "__init__.py")):
        print("error: src/binmatroid not found; run from a binmatroid checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(workloads.EXPECTED_PATH):
        print(f"error: {workloads.EXPECTED_PATH} is missing", file=sys.stderr)
        return 2

    deadline = Deadline(RUN_DEADLINE_S)
    env = environment(args.seed)
    if args.trace:
        metrics, records, details = run_traced(args.workload, args.seed, args.seconds, deadline)
        units = {**metric_units(), **TRACE_UNITS}
    else:
        metrics, records, details = run_untraced(args.workload, args.seed, args.seconds, deadline)
        units = END_TO_END_UNITS
    result = outcome(records)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        **result,
        "details": details,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "op_records": records,
    }
    os.makedirs(RESULTS, exist_ok=True)
    out_path = os.path.join(RESULTS, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    summary = {k: v for k, v in report.items() if k not in ("metrics", "op_records")}
    print(json.dumps(summary))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
