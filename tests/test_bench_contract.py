"""The names the benchmark under bench/ reaches into the package by.

bench/tracing.py wraps the functions of its TRACED table, and
bench/workloads.py calls the public API; a rename in the package, a
set-up check that rejects a workload's search, or a multiplier rule that
moves a census row off its pinned verdict would only show up when the
benchmark runs.  These tests read bench/ and change nothing there.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import cwm
import cwm.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_bench("workloads")


@pytest.mark.parametrize("module,attr", [row[:2] for row in load_bench("tracing").TRACED])
def test_traced_function_resolves(module, attr):
    assert module.split(".")[0] == "cwm"
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("span", ["margins.fold_consistency", "margins.pairs"])
def test_margins_search_calls_the_traced_name(span):
    # the margins workload's search must call fold_consistency_filter and
    # margin_pairs through the module attributes bench/tracing.py wraps; a
    # call routed around them would read 0 in that layer's metric
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        cwm.search(176, 49)
    finally:
        restore()
    assert Counter(name for name, *_ in tracer.spans)[span] >= 1


@pytest.mark.parametrize(
    "fn,args,kwargs",
    [
        (cwm.search, (63, 16), dict(multiplier=None, coeff_bound=1, mode="all", jobs=1)),
        (cwm.icw_census, (), dict(cases=[(105, 36)], mode="all", jobs=1)),
        (cwm.Catalog, ("root",), dict(n_max=2000, k_max=1600)),
        (cwm.seed_known_results, ("root",), dict(n_max=2000, k_max=1600)),
        (cwm.cli.main, (["margins", "--n", "144", "--k", "49"],), {}),
    ],
)
def test_workload_calls_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_catalog_layout_names():
    assert isinstance(cwm.catalog.RECORD_FILE, str)
    assert isinstance(cwm.catalog.WITNESS_DIR, str)
    assert isinstance(cwm.catalog.QUARANTINE_DIR, str)


@pytest.mark.parametrize(
    "n,k,t,bound",
    WORKLOADS.CENSUS_SEARCHES + WORKLOADS.EXHAUST_SEARCHES + WORKLOADS.MARGIN_SEARCHES,
)
def test_workload_search_plans(n, k, t, bound):
    cwm.exhaust.plan(n, k, t, bound)


VERDICTS = json.loads((BENCH / "verdicts.json").read_text())


@pytest.mark.parametrize("n,k", WORKLOADS.CENSUS_ROWS)
def test_census_row_plans(n, k):
    # the contracted search icw_census runs for the row, with the (d, m, t)
    # the benchmark pins for it
    d, m = cwm.exhaust.contraction_parameters(n, k)
    t = cwm.exhaust.plan(m, k, coeff_bound=d).table.multiplier
    assert [d, m, t] == VERDICTS["census"][f"census({n},{k})"][2:5]


def test_seed_self_test_passes():
    # every pinned verdict, census row, `cwm margins` byte and catalog hash
    # of bench/verdicts.json, under two seeds
    result = subprocess.run(
        [sys.executable, "bench/check_seeds.py"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
