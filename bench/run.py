"""Benchmark entry point for the cwm toolkit.

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Runs one workload of ``workloads.py`` in a closed loop (one caller,
``jobs=1``) on the ``src/`` tree of the checkout the script lives in.
Passes repeat while another one still fits in ``--seconds``.  Every case
of every pass is checked against ``verdicts.json``.  The last line of
stdout is one JSON object: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced phase that follows
an untraced one (their difference is the tracing overhead).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
# Untraced passes pause between cases for SETUP_REPS set-ups in a row once
# every SETUP_EVERY_S seconds.  The host's speed changes over seconds, so
# set-ups spread over the whole run give a steadier median than a burst.
SETUP_REPS = 3
SETUP_EVERY_S = 2.0


def use_checkout_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "cwm" / "__init__.py").is_file():
        print(f"no cwm sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def drop_cwm() -> None:
    """Forget the loaded cwm modules and free them, so the next import is
    fresh and the old copies do not add to the peak memory."""
    for name in [m for m in sys.modules if m.split(".")[0] == "cwm"]:
        del sys.modules[name]
    gc.collect()


def import_cwm():
    """Import cwm and its CLI from the checkout's sources."""
    cwm = importlib.import_module("cwm")
    importlib.import_module("cwm.cli")
    if Path(cwm.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cwm was imported from {cwm.__file__}, not from {SRC}")
    return cwm


def timed_passes(prepare, cases, tracer, budget: float, on_pass) -> list[float]:
    """Run passes until another round would overrun ``budget`` seconds.

    ``prepare()`` runs before each case, outside the timed region, and
    returns the ``cwm`` module the case runs on.  A pass's time is the
    sum of its case times; a round adds the prepares and the removal of
    the pass's work directory."""
    walls: list[float] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        tracer.reset()
        outputs: dict[str, object] = {}
        wall = 0.0
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            for case in cases:
                cwm = prepare()
                t0 = time.perf_counter()
                outputs.update(workloads.run_pass(cwm, [case], tracer, Path(tmp)))
                wall += time.perf_counter() - t0
            on_pass(outputs, wall)
        walls.append(wall)
        rounds.append(time.perf_counter() - t_round)
        if time.perf_counter() - start + statistics.median(rounds) > budget:
            return walls


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """The result object, and the pass counts (plus the median traced pass
    time) that the result line has no key for."""
    cases = workloads.setup(workload, seed)
    setup_times: list[float] = []
    last_setup = -math.inf

    def set_up():
        """Every SETUP_EVERY_S seconds, set up SETUP_REPS times in a row.
        The cases that follow run on the last import."""
        nonlocal last_setup
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            for _ in range(SETUP_REPS):
                drop_cwm()
                t0 = time.perf_counter()
                import_cwm()
                workloads.setup(workload, seed)
                setup_times.append(time.perf_counter() - t0)
            last_setup = time.perf_counter()
        return sys.modules["cwm"]

    pinned = json.loads((BENCH_DIR / "verdicts.json").read_text())[workload]
    tally = {"attempted": 0, "failed": 0}
    checksums = set()
    layer_rows: list[dict] = []

    def check(outputs):
        for case_id in sorted(set(pinned) | set(outputs)):
            tally["attempted"] += 1
            if outputs.get(case_id) != pinned.get(case_id):
                tally["failed"] += 1
                print(f"mismatch {case_id}: got {outputs.get(case_id)}, "
                      f"pinned {pinned.get(case_id)}", file=sys.stderr)
        checksums.add(workloads.digest(outputs))

    WORK_DIR.mkdir(exist_ok=True)
    try:
        budget = seconds / 2 if trace else seconds
        walls = timed_passes(set_up, cases, tracing.NullTracer(), budget,
                             lambda outputs, wall: check(outputs))
        if trace:
            tracer = tracing.Tracer()

            def on_traced(outputs, wall):
                check(outputs)
                layer_rows.append(tracing.pass_metrics(tracer, wall))

            # trace the modules of the last set-up
            cwm = sys.modules["cwm"]
            restore = tracing.install(tracer)
            try:
                traced = timed_passes(lambda: cwm, cases, tracer, budget, on_traced)
            finally:
                restore()
            tracing.write_spans(tracer, WORK_DIR / "traces" / f"{workload}-seed{seed}.jsonl")
    finally:
        # keep the written traces, drop everything else the passes left
        for entry in WORK_DIR.iterdir():
            if entry.name != "traces":
                shutil.rmtree(entry, ignore_errors=True)

    info = {"passes": len(walls)}
    if trace:
        traced_wall = statistics.median(traced)
        values = {name: statistics.median(row[name] for row in layer_rows)
                  for name in layer_rows[0]}
        values["trace.overhead_s"] = traced_wall - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer_units().items()}
        info.update(traced_passes=len(traced), traced_wall_s=traced_wall)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    result = {
        "correct": tally["failed"] == 0 and len(checksums) == 1,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }
    return result, info


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not use_checkout_sources():
        return 2
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    passes = f"{info['passes']} untraced passes"
    if args.trace:
        passes += (f", {info['traced_passes']} traced passes "
                   f"(median {info['traced_wall_s']:.4f} s)")
    print(f"workload {args.workload}, seed {args.seed}: {passes}, "
          f"{result['failed']} of {result['attempted']} case checks failed")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
