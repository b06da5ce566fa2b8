"""Regenerate ``data/expected.json``: the analyze-decompose input pool and
the digests every pooled op is checked against.

    python3 perfbench/record.py

The inputs are drawn once from a fixed pool seed and stored with their
points, so later changes to the library's samplers do not change them.
Census digests cover whole `sampled_census` records and therefore also
pin the sampler's random stream; a deliberate change to that stream
needs a fresh recording.  Every decomposition tree is checked to
reconstruct its input exactly before its digest is stored.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

POOL_SEED = 20181001


def pool_masks(rng: random.Random, n: int, kind: str) -> int:
    from binmatroid import census, construct
    from binmatroid.gf2 import ground_mask
    from binmatroid.matroid import BinaryMatroid

    if kind == "lift_join":
        n1 = rng.randint(2, n - 2)
        left = BinaryMatroid(n1, census.sample_claw_free_mask(n1, rng))
        right = BinaryMatroid(n - n1, census.sample_claw_free_mask(n - n1, rng))
        return construct.lift_join(left, right).mask
    if kind == "even_plane":
        return census.random_even_plane_mask(n, rng)
    if kind == "co_triangle_free":
        return ground_mask(n) & ~census._greedy_triangle_free(n, rng)
    if kind == "uniform":
        return census.sample_uniform_mask(n, rng)
    raise ValueError(kind)


def record() -> dict:
    from binmatroid.gf2 import iter_bits

    rng = random.Random(POOL_SEED)
    analyze = {}
    for n, per_kind in sorted(workloads.ANALYZE_POOL.items()):
        for kind in workloads.ANALYZE_KINDS:
            for i in range(per_kind):
                key = f"{kind}-{n}-{i}"
                entry = {"n": n, "kind": kind, "points": list(iter_bits(pool_masks(rng, n, kind)))}
                text = workloads.matroid_text(entry)
                rc_a, out_a = workloads.run_cli(["analyze", "-"], text)
                rc_d, out_d = workloads.run_cli(["decompose", "-"], text)
                if rc_a or rc_d:
                    raise SystemExit(f"{key}: analyze exited {rc_a}, decompose exited {rc_d}")
                report = json.loads(out_a)
                report.pop("tree")
                dec = json.loads(out_d)
                tree = dec.pop("tree")
                if dec != report:
                    raise SystemExit(f"{key}: analyze and decompose reports disagree")
                workloads.check_reconstruction(entry, tree)
                entry["report"] = workloads.digest(report)
                entry["tree"] = workloads.digest(tree)
                analyze[key] = entry
                print(key, len(entry["points"]), "points", file=sys.stderr)
    census_digests = {}
    from binmatroid import census

    for n, k, seeds in workloads.CENSUS_POOL:
        for s in seeds:
            op = workloads.Op("census", n, k, seed=s)
            record = census.sampled_census(n, k, s, filter_claw_free=True)
            census_digests[workloads.census_key(op)] = workloads.digest(record)
    return {"pool_seed": POOL_SEED, "analyze": analyze, "census": census_digests}


def main() -> int:
    data = record()
    os.makedirs(os.path.dirname(workloads.EXPECTED_PATH), exist_ok=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
