"""Self-test: a workload's checksums do not depend on the seed.

    python3 bench/check_seeds.py

The seed only reorders the cases and picks which catalog witness files
get corrupted, so one pass under each of two seeds must give identical
outputs, and both must match the pinned verdicts.  Exits 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import tracing
import workloads

SEEDS = (1, 2)


def main() -> int:
    if not run.use_checkout_sources():
        return 2
    cwm = run.import_cwm()
    pinned = json.loads((run.BENCH_DIR / "verdicts.json").read_text())
    run.WORK_DIR.mkdir(exist_ok=True)
    ok = True
    for name in workloads.NAMES:
        digests = []
        for seed in SEEDS:
            with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
                cases = workloads.setup(name, seed)
                outputs = workloads.run_pass(cwm, cases, tracing.NullTracer(), Path(tmp))
            digests.append(workloads.digest(outputs))
            ok = ok and outputs == pinned[name]
        same = len(set(digests)) == 1
        ok = ok and same
        print(f"{name}: seeds {SEEDS[0]} and {SEEDS[1]} -> "
              f"{' '.join(digests)} ({'identical' if same else 'DIFFERENT'})")
    print("seed self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
