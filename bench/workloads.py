"""The four benchmark workloads.

Each workload has a fixed case list.  ``setup`` turns the seed into the
inputs the program sees (the order of the cases, and which catalog
witness files get corrupted); ``run_pass`` runs every case once through
the public API with ``jobs=1`` and returns one output per case id.  An
output holds only what a correct optimisation cannot change (verdicts,
class-set hashes, CLI stdout hashes), never node or leaf counts, and is
compared with the pinned verdicts in ``verdicts.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import traceback
from pathlib import Path

# census rows of the criterion-5 subset (m <= 52, multiplier order >= 5)
CENSUS_ROWS = (
    (105, 36), (132, 81), (140, 36), (140, 64), (156, 81),
    (165, 100), (180, 64), (196, 64), (198, 81),
)
# (n, k, multiplier, coeff_bound)
CENSUS_SEARCHES = ((63, 16, None, 1),)
EXHAUST_SEARCHES = (
    (110, 81, None, 1),
    (130, 81, None, 1),
    (143, 81, None, 1),
    (143, 36, None, 1),
    (154, 81, None, 1),
    (44, 81, 3, 3),
    (91, 64, 2, 2),
    (104, 81, None, 1),
    (72, 49, None, 1),
    (132, 25, None, 1),
    (168, 25, None, 1),
    (116, 49, None, 1),
)
MARGIN_SEARCHES = ((176, 49, None, 1),)
MARGIN_CLI = (
    ("margins", "--n", "144", "--k", "49"),
    ("margins", "--n", "160", "--k", "81"),
)
# catalog window: about 537 records and 492 witness files
CATALOG_N_MAX = 2000
CATALOG_K_MAX = 1600
CATALOG_CORRUPTED = 4

NAMES = ("census", "exhaust", "margins", "catalog")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _search_id(spec) -> str:
    n, k, t, bound = spec
    extra = "" if t is None else f",t={t},m={bound}"
    return f"search({n},{k}{extra})"


# ------------------------------------------------------------------ setup


def setup(name: str, seed: int) -> list[tuple[str, object]]:
    """The workload's case list, ordered by the seed."""
    rng = random.Random(seed)
    if name == "census":
        rows = list(CENSUS_ROWS)
        rng.shuffle(rows)
        cases = [("census", tuple(rows))] + [("search", s) for s in CENSUS_SEARCHES]
    elif name == "exhaust":
        cases = [("search", s) for s in EXHAUST_SEARCHES]
    elif name == "margins":
        cases = [("search", s) for s in MARGIN_SEARCHES]
        cases += [("cli", argv) for argv in MARGIN_CLI]
    elif name == "catalog":
        return [("catalog", seed)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(cases)
    return cases


# ------------------------------------------------------------------ cases


def _run_search(cwm, spec, tracer, workdir):
    n, k, t, bound = spec
    outcome = cwm.search(n, k, multiplier=t, coeff_bound=bound, mode="all", jobs=1)
    class_set = sorted(sol.coeffs for sol in outcome.solutions)
    return {
        _search_id(spec): {
            "classes": outcome.classes,
            "exhaustive": outcome.exhaustive,
            "class_set": digest(class_set),
        }
    }


def _run_census(cwm, rows, tracer, workdir):
    out = {}
    for row in cwm.icw_census(cases=list(rows), mode="all", jobs=1):
        out[f"census({row.n},{row.k})"] = [
            row.n, row.k, row.d, row.m, row.multiplier, row.classes, row.exhaustive,
        ]
    return out


def _run_cli(cwm, argv, tracer, workdir):
    stdout = io.StringIO()
    with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cwm.cli.main(list(argv))
    text = stdout.getvalue()
    tracer.count("cli.stdout_bytes", len(text.encode()))
    return {"cli " + " ".join(argv): {"exit": code, "stdout": digest(text)}}


def corrupt_witnesses(witness_dir: Path, rng: random.Random, count: int) -> list[str]:
    """Zero one nonzero coefficient in each of ``count`` witness files.

    The sum of squares then falls below k, so a re-verifying load must
    reject every one of them."""
    chosen = rng.sample(sorted(witness_dir.glob("*.cw")), count)
    for path in chosen:
        header, coeffs = path.read_text().splitlines()[:2]
        values = coeffs.split()
        nonzero = [i for i, v in enumerate(values) if int(v)]
        values[rng.choice(nonzero)] = "0"
        path.write_text(f"{header}\n{' '.join(values)}\n")
    return sorted(path.name for path in chosen)


def _run_catalog(cwm, seed, tracer, workdir):
    catalog_mod = cwm.catalog
    root = workdir / "catalog"
    window = {"n_max": CATALOG_N_MAX, "k_max": CATALOG_K_MAX}
    cwm.seed_known_results(root, **window)
    records = root / catalog_mod.RECORD_FILE
    tracer.count("catalog.bytes_written", records.stat().st_size)
    witness_dir = root / catalog_mod.WITNESS_DIR
    corrupted = corrupt_witnesses(witness_dir, random.Random(seed), CATALOG_CORRUPTED)
    with tracer.span("catalog.load"):
        cat = cwm.Catalog(root, **window)
    quarantined = sorted(p.name for p in (witness_dir / catalog_mod.QUARANTINE_DIR).iterdir())
    tracer.count("catalog.quarantined", len(quarantined))
    with tracer.span("catalog.close"):
        cat.close_under_constructions()
    with tracer.span("catalog.save"):
        cat.save()
    with tracer.span("catalog.render"):
        table = cat.render_table()
    tracer.count("catalog.bytes_written", records.stat().st_size)
    statuses = sorted([rec.n, rec.k, rec.status] for rec in cat.records.values())
    return {
        "catalog statuses": {"records": len(statuses), "sha": digest(statuses)},
        "catalog table": {"chars": len(table), "sha": digest(table)},
        "catalog quarantine": {
            "quarantined": len(quarantined),
            "matches_corrupted": quarantined == corrupted,
        },
    }


RUNNERS = {
    "search": _run_search,
    "census": _run_census,
    "cli": _run_cli,
    "catalog": _run_catalog,
}


def run_pass(cwm, cases, tracer, workdir: Path) -> dict[str, object]:
    """Run every case once.  A case that raises leaves its ids out of the
    outputs, so the check against the pinned verdicts counts it as failed."""
    outputs: dict[str, object] = {}
    for kind, payload in cases:
        with tracer.span("case"):
            try:
                outputs.update(RUNNERS[kind](cwm, payload, tracer, workdir))
            except Exception:  # reported and counted, not fatal
                traceback.print_exc(file=sys.stderr)
    # compare as JSON would store them (tuples become lists)
    return json.loads(json.dumps(outputs))
