"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing
import worker
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def test_self_times_on_synthetic_span_tree():
    # root(10) -> a(4) -> a1(1); root -> b(3); generator span g(2 busy) under b
    busy = [10.0, 4.0, 1.0, 3.0, 2.0]
    parents = [-1, 0, 1, 0, 3]
    selfs = tracing.self_times(busy, parents)
    assert selfs == [3.0, 3.0, 1.0, 1.0, 2.0]
    assert sum(selfs) == busy[0]


def test_install_rebinds_every_alias_and_uninstall_restores():
    import binmatroid
    from binmatroid import census, cli, structure, verify

    before = {q: getattr(sys.modules[f"binmatroid.{q.split('.')[0]}"], q.split(".")[1])
              for q in tracing.qualified_names()}
    t = tracing.Tracer()
    t.install()
    try:
        originals = set(map(id, before.values()))
        for name, mod in list(sys.modules.items()):
            if name == "binmatroid" or name.startswith("binmatroid."):
                for attr, value in vars(mod).items():
                    assert id(value) not in originals, f"{name}.{attr} still unwrapped"
        # the `from .x import y` aliases resolve to the same wrapper
        assert verify.pg_sum_witness_mask is sys.modules["binmatroid.recognize"].pg_sum_witness_mask
        assert census.canonical_form is binmatroid.canonical_form
        assert cli.decompose is structure.decompose
        assert verify.has_decomposer_mask is structure.has_decomposer_mask

        t.op = 0
        verify.verify_structure_sampled(5, 20, 3)
        assert t.names[0] == "verify.verify_structure_sampled"
        assert t.op_self_totals()[0] == pytest.approx(t.busy[0], rel=1e-9)
        t.op = tracing.CHECK_OP  # spans of answer checks stay out of the metrics
        verify.verify_structure_sampled(5, 7, 4)
        layers = t.layer_metrics()
        assert layers["census.sample_claw_free_mask.outer_calls"] == 20
        assert set(layers) == set(tracing.metric_units())
    finally:
        t.uninstall()
    for q, fn in before.items():
        mod, attr = q.split(".")
        assert getattr(sys.modules[f"binmatroid.{mod}"], attr) is fn


def test_generator_wrapper_counts_yields_and_survives_early_exit():
    from binmatroid import gf2
    from binmatroid.matroid import BinaryMatroid
    from binmatroid.recognize import is_even_plane

    t = tracing.Tracer()
    t.install()
    try:
        assert sum(1 for _ in gf2.flats_of_dim(7, 3)) == gf2.gaussian_binomial(7, 3)
        assert t.yielded[-1] == gf2.gaussian_binomial(7, 3)
        is_even_plane(BinaryMatroid(7, 0b110))  # breaks out on the first odd plane
        assert t.stack == []
    finally:
        t.uninstall()


def test_tail_percentile_keeps_ten_ops_beyond():
    xs = [float(i) for i in range(64)]
    value, pct, beyond = run.tail_latency(xs)
    assert beyond == 10
    assert pct == pytest.approx(100 * 54 / 64)
    assert 51.0 < value < 55.0
    assert run.tail_latency([float(i) for i in range(2000)])[1] == pytest.approx(99.0)
    assert run.tail_latency([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)


def test_harrell_davis_quantiles():
    assert run.harrell_davis([2.5] * 30, 0.8) == pytest.approx(2.5)
    # symmetric data: the median estimate is the middle value
    assert run.harrell_davis([float(i) for i in range(41)], 0.5) == pytest.approx(20.0)
    xs = [float(i * i) for i in range(50)]
    assert run.harrell_davis(xs, 0.3) < run.harrell_davis(xs, 0.7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_each_workload(workload):
    worker.set_up()
    records = worker.run_ops(workload, seed=5, max_ops=2)
    assert [r["status"] for r in records] == ["ok", "ok"]


def _flip_even_plane(real):
    def classify(M):
        return dataclasses.replace(real(M), even_plane=not real(M).even_plane)
    return classify


def test_injected_wrong_answers_count_as_failed(monkeypatch):
    from binmatroid import census, cli, verify

    worker.set_up()
    monkeypatch.setattr(cli, "classify", _flip_even_plane(cli.classify))
    monkeypatch.setattr(census, "classify", _flip_even_plane(census.classify))
    monkeypatch.setattr(verify, "_structure_outcome", lambda mask, n: None)
    for workload in workloads.WORKLOADS:
        records = worker.run_ops(workload, seed=5, max_ops=2)
        statuses = {r["status"] for r in records if r["op"]["kind"] != "pgsum"}
        assert statuses == {"wrong"}, (workload, records)
        assert run.outcome(records)["correct"] is False


def test_broken_decomposition_tree_is_caught():
    expected = workloads.load_expected()
    key = next(k for k in expected["analyze"] if k.startswith("lift_join-7"))
    entry = expected["analyze"][key]
    rc, text = workloads.run_cli(["decompose", "-"], workloads.matroid_text(entry))
    tree = json.loads(text)["tree"]
    workloads.check_reconstruction(entry, tree)
    tree["join"] = tree["join"][::-1]
    with pytest.raises(workloads.CheckFailed):
        workloads.check_reconstruction(entry, tree)


def test_run_py_end_to_end_on_the_sweep(tmp_path):
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "verify-sweep",
             "--seed", "3", "--seconds", "1", "--trace", trace],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        want = run.END_TO_END_UNITS if trace == "0" else {**tracing.metric_units(), **run.TRACE_UNITS}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == want


def test_run_py_refuses_a_tree_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
