"""Write baseline.json: each workload's per-layer shares from a traced run.

    python3 bench/snapshot.py

Each workload gets one traced run under seed 1, as long as
``run_seconds`` in ``BENCHMARK.json``.  A share is a per-layer time
divided by the median traced pass time.  Times are inclusive, so
nested layers overlap: ``exhaust.pair_s`` contains the verify and
canonical spans, and ``cli.margins_s`` contains the margin solve it
calls.  Each claim row names the layer expected to dominate a
workload, with its share and the largest share among the layers it
competes with.
"""

from __future__ import annotations

import json
import platform
import sys

import run
import workloads

SEED = 1

# workload -> (dominant metric, metrics it is compared with)
CLAIMS = {
    "census": ("groupring.canonical_s",
               ("groupring.verify_s", "exhaust.self_s", "margins.solve_s")),
    "exhaust": ("exhaust.self_s",
                ("groupring.verify_s", "groupring.canonical_s", "margins.solve_s")),
    "margins": ("margins.solve_s",
                ("margins.fold_consistency_s", "exhaust.self_s", "groupring.verify_s")),
    "catalog": ("catalog.seed_s",
                ("catalog.load_s", "catalog.close_s", "catalog.save_s", "catalog.render_s")),
}


def main() -> int:
    if not run.use_checkout_sources():
        return 2
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    snapshot = {
        "about": "per-layer shares of the traced pass time from one traced run per workload",
        "python": platform.python_version(),
        "seed": SEED,
        "workloads": {},
        "claims": [],
    }
    for name in workloads.NAMES:
        result, info = run.run(name, SEED, seconds, trace=True)
        if not result["correct"]:
            print(f"{name}: outputs do not match the pinned verdicts", file=sys.stderr)
            return 1
        layers = {key: m for key, m in result["metrics"].items()
                  if not key.startswith("trace.") and m["value"]}
        wall = info["traced_wall_s"]
        snapshot["workloads"][name] = {
            "traced_wall_s": round(wall, 4),
            "trace.coverage": round(result["metrics"]["trace.coverage"]["value"], 4),
            "shares": {key: round(m["value"] / wall, 4)
                       for key, m in layers.items() if m["unit"] == "s"},
            "counts": {key: m["value"] for key, m in layers.items() if m["unit"] != "s"},
        }
        dominant, rivals = CLAIMS[name]
        shares = snapshot["workloads"][name]["shares"]
        snapshot["claims"].append({
            "workload": name,
            "dominant": dominant,
            "share": shares.get(dominant, 0.0),
            "largest_rival_share": max(shares.get(r, 0.0) for r in rivals),
        })
        print(f"{name}: {dominant} share {shares.get(dominant, 0.0)}")
    (run.BENCH_DIR / "baseline.json").write_text(json.dumps(snapshot, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
