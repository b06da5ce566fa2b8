"""Span tracing for the benchmark's traced run.

`Tracer.install` replaces each layer function listed in `WRAPPED` by a
timing wrapper and rebinds every module-level alias of it inside the
`binmatroid` package, because `verify`, `census`, `structure` and `cli`
import names with ``from .x import y``.  Generators (`gf2.flats_of_dim`)
get one span per generator whose busy time is the sum of its resumes, so
streaming a million planes does not record a million spans.

Spans are kept in memory as parallel lists (name, start, end, busy,
parent, op) and written out once when the run ends.  A span's self time
is its busy time minus the busy time of its direct children; wrapped
calls nest strictly in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

#: layer functions timed in the traced run, by module
WRAPPED = {
    "gf2": ("closure_mask", "is_flat", "flats_of_dim"),
    "tables": (
        "plane_array",
        "planes_through_point",
        "sweep_tables",
        "claw_free_mask",
        "even_plane_mask",
        "anticlaw_free_mask",
    ),
    "matroid": (
        "canonical_form",
        "clique_number",
        "induced_independence_number",
        "find_claw",
        "find_anticlaw",
        "restrict",
        "rank_mask",
    ),
    "construct": ("lift_join",),
    "recognize": (
        "pg_sum_witness_mask",
        "pg_sum_forbidden_mask",
        "strict_pg_sum_mask",
        "triangle_free_mask",
        "classify",
        "is_even_plane",
        "is_anticlaw_free",
        "claw_free_any",
        "is_target",
    ),
    "structure": (
        "has_decomposer_mask",
        "find_decomposer",
        "minimal_decomposer_containing",
        "decompose",
    ),
    "census": ("sample_claw_free_mask", "random_even_plane_mask", "sampled_census"),
    "verify": ("verify_structure_sampled", "verify_pgsum"),
    "cli": ("report_json", "main"),
}

GENERATORS = frozenset({"gf2.flats_of_dim"})
PLANE_KERNELS = frozenset(
    {"tables.claw_free_mask", "tables.even_plane_mask", "tables.anticlaw_free_mask"}
)

#: op id of spans recorded while the benchmark checks an answer
CHECK_OP = -2

#: per-layer metric names emitted by `layer_metrics`, with their units
DERIVED_METRICS = {
    "gf2.flats_of_dim.yielded": "count",
    "census.sample_claw_free_mask.outer_calls": "count",
    "census.sampler.claw_checks_per_sample": "ratio",
    "recognize.pg_sum_witness.hit_frac": "ratio",
    "structure.find_decomposer.anchors_per_call": "ratio",
    "matroid.canonical_form.repeat_frac": "ratio",
    "tables.planes_scanned": "count",
}


def qualified_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric `layer_metrics` emits, with its unit."""
    units = {}
    for name in qualified_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_METRICS)
    return units


class Tracer:
    """In-memory span store plus the wrapper installer."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.busy: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.yielded: list[int] = []
        self.stack: list[int] = []
        self.op = -1  # -1 marks set-up work before the first op; see CHECK_OP
        self.pg_witness_hits = 0
        self.canonical_seen: set[tuple[int, int]] = set()
        self.canonical_repeats = 0
        self.planes_scanned = 0
        self._rebound: list[tuple[object, str, object]] = []

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.busy.append(0.0)
        self.yielded.append(0)
        return idx

    def _wrap_function(self, name: str, fn):
        stack = self.stack
        starts, ends, busy = self.starts, self.ends, self.busy
        open_span = self._open
        observe = self._observer(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(name)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                busy[idx] = t1 - t0
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        stack = self.stack
        starts, ends, busy, yielded = self.starts, self.ends, self.busy, self.yielded
        open_span = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = open_span(name)
            starts[idx] = perf_counter()
            try:
                while True:
                    stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        stack.pop()
                        busy[idx] += t1 - t0
                        ends[idx] = t1
                    yielded[idx] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def _observer(self, name: str):
        """Argument/result hook for the ratio and computed-count metrics."""
        if name == "recognize.pg_sum_witness_mask":
            def observe(args, kwargs, result):
                if result is not None:
                    self.pg_witness_hits += 1
            return observe
        if name == "matroid.canonical_form":
            def observe(args, kwargs, result):
                M = args[0] if args else kwargs["M"]
                key = (M.n, M.mask)
                if key in self.canonical_seen:
                    self.canonical_repeats += 1
                else:
                    self.canonical_seen.add(key)
            return observe
        if name in PLANE_KERNELS:
            from binmatroid.gf2 import gaussian_binomial

            def observe(args, kwargs, result):
                n = args[1] if len(args) > 1 else kwargs["n"]
                self.planes_scanned += gaussian_binomial(n, 3)
            return observe
        return None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every function in WRAPPED and rebind all of its aliases."""
        import importlib

        for mod_name in WRAPPED:
            importlib.import_module(f"binmatroid.{mod_name}")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "binmatroid" or key.startswith("binmatroid."))
        ]
        for qual in qualified_names():
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules[f"binmatroid.{mod_name}"], fn_name)
            if qual in GENERATORS:
                wrapper = self._wrap_generator(qual, original)
            else:
                wrapper = self._wrap_function(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.busy, self.parents)

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and self time, plus the ratio metrics; spans
        of the benchmark's own answer checks are left out."""
        names, parents, selfs = self.names, self.parents, self.self_times()
        calls = dict.fromkeys(qualified_names(), 0)
        self_s = dict.fromkeys(qualified_names(), 0.0)
        sampler = "census.sample_claw_free_mask"
        in_sampler = [False] * len(names)
        outer_samples = claw_checks = anchors = yielded = 0
        for i, name in enumerate(names):
            if self.ops[i] == CHECK_OP:
                continue
            calls[name] += 1
            self_s[name] += selfs[i]
            p = parents[i]
            in_sampler[i] = inside = p >= 0 and (in_sampler[p] or names[p] == sampler)
            if name == sampler and not inside:
                outer_samples += 1
            elif name == "tables.claw_free_mask" and inside:
                claw_checks += 1
            elif name == "structure.minimal_decomposer_containing" and p >= 0 \
                    and names[p] == "structure.find_decomposer":
                anchors += 1
            elif name == "gf2.flats_of_dim":
                yielded += self.yielded[i]
        out: dict[str, float] = {}
        for q in qualified_names():
            out[f"{q}.calls"] = calls[q]
            out[f"{q}.self_s"] = self_s[q]
        out["gf2.flats_of_dim.yielded"] = yielded
        out["census.sample_claw_free_mask.outer_calls"] = outer_samples
        out["census.sampler.claw_checks_per_sample"] = _ratio(claw_checks, outer_samples)
        out["recognize.pg_sum_witness.hit_frac"] = _ratio(
            self.pg_witness_hits, calls["recognize.pg_sum_witness_mask"]
        )
        out["structure.find_decomposer.anchors_per_call"] = _ratio(
            anchors, calls["structure.find_decomposer"]
        )
        out["matroid.canonical_form.repeat_frac"] = _ratio(
            self.canonical_repeats, calls["matroid.canonical_form"]
        )
        out["tables.planes_scanned"] = self.planes_scanned
        return out

    def op_self_totals(self) -> dict[int, float]:
        """Sum of span self times per op id."""
        totals: dict[int, float] = {}
        for op, s in zip(self.ops, self.self_times()):
            totals[op] = totals.get(op, 0.0) + s
        return totals

    def write(self, path: str) -> None:
        """One JSON array per span: name, start, end, busy, parent, op, yielded."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(
                self.names, self.starts, self.ends, self.busy,
                self.parents, self.ops, self.yielded,
            ):
                fh.write(json.dumps(row))
                fh.write("\n")


def self_times(busy: list[float], parents: list[int]) -> list[float]:
    """Busy time of each span minus the busy time of its direct children."""
    out = list(busy)
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= busy[i]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
