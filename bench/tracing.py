"""Spans and counts for the traced benchmark phase.

Every span is recorded from this directory.  ``install`` replaces each
traced library function with a wrapper on every ``cwm`` module that binds
it by name (``exhaust`` and ``orbittable`` import ``orbits`` and the
multiplier functions directly, so each such binding gets its own
wrapper), and the workloads open spans around their own calls into the
public API.  Spans stay in memory; ``write_spans`` saves them at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path


class NullTracer:
    """Stands in for a tracer on untraced passes."""

    def reset(self) -> None:
        pass

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, amount: int = 1) -> None:
        pass


class Tracer:
    """Spans as [name, start, end, parent index or -1], plus counters."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.canonical_outputs: set = set()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, result, args)
            return result

        return wrapper


# ------------------------------------------------------------ count hooks


def _note_canonical(tracer, result, args):
    tracer.canonical_outputs.add(result.coeffs)


def _note_pair(tracer, result, args):
    tracer.count("exhaust.nodes", result.nodes_visited)
    tracer.count("exhaust.leaves", result.leaves_tested)
    tracer.count("exhaust.verified", result.solutions_found)


def _note_raw(tracer, result, args):
    tracer.count("margins.raw_solutions", len(result))


def _note_consistent(tracer, result, args):
    tracer.count("margins.fold_inputs", len(args[0]))
    tracer.count("margins.consistent_solutions", len(result))


def _note_pairs(tracer, result, args):
    tracer.count("margins.pairs", len(result))


def _note_witness(tracer, result, args):
    tracer.count("catalog.witness_files_written")
    tracer.count("catalog.bytes_written", len(result.encode()))


# (module, function, span name, count hook)
TRACED = (
    ("cwm.groupring", "canonical_form", "groupring.canonical", _note_canonical),
    ("cwm.groupring", "verify", "groupring.verify", None),
    ("cwm.groupring", "witness_format", "groupring.witness_format", _note_witness),
    ("cwm.exhaust", "exhaust_pair", "exhaust.pair", _note_pair),
    ("cwm.margins", "solve_margin_system", "margins.solve", _note_raw),
    ("cwm.margins", "self_conjugacy_filter", "margins.self_conjugacy", None),
    ("cwm.margins", "fold_consistency_filter", "margins.fold_consistency", _note_consistent),
    ("cwm.margins", "margin_pairs", "margins.pairs", _note_pairs),
    ("cwm.numbertheory", "prime_power_multiplier", "numbertheory.multiplier", None),
    ("cwm.numbertheory", "mcfarland_multiplier", "numbertheory.multiplier", None),
    ("cwm.numbertheory", "orbits", "numbertheory.orbits", None),
    ("cwm.orbittable", "build", "orbittable.build", None),
    ("cwm.orbittable", "default_factorization", "orbittable.factorization", None),
    ("cwm.constructions", "multiple", "constructions", None),
    ("cwm.constructions", "kronecker", "constructions", None),
    ("cwm.constructions", "type_ii", "constructions", None),
    ("cwm.constructions", "cw14m_family", "constructions", None),
    ("cwm.constructions", "rds_proper_parameters", "constructions", None),
    ("cwm.catalog", "seed_known_results", "catalog.seed", None),
)


def install(tracer: Tracer):
    """Wrap every traced function at each binding; returns an undo callable."""
    undo: list[tuple[object, str, object]] = []
    packages = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "cwm"]
    for module, attr, name, after in TRACED:
        original = getattr(sys.modules[module], attr)
        wrapper = tracer.wrap(name, original, after)
        for package in packages:
            for binding, value in list(vars(package).items()):
                if value is original:
                    undo.append((package, binding, value))
                    setattr(package, binding, wrapper)

    def restore():
        for target, binding, value in reversed(undo):
            setattr(target, binding, value)

    return restore


# ---------------------------------------------------------------- metrics

# per-layer time metric -> span name (outermost spans of that name)
TIME_METRICS = {
    "groupring.canonical_s": "groupring.canonical",
    "groupring.verify_s": "groupring.verify",
    "exhaust.pair_s": "exhaust.pair",
    "margins.solve_s": "margins.solve",
    "margins.self_conjugacy_s": "margins.self_conjugacy",
    "margins.fold_consistency_s": "margins.fold_consistency",
    "margins.pairs_s": "margins.pairs",
    "numbertheory.multiplier_s": "numbertheory.multiplier",
    "numbertheory.orbits_s": "numbertheory.orbits",
    "orbittable.build_s": "orbittable.build",
    "orbittable.factorization_s": "orbittable.factorization",
    "cli.margins_s": "cli.margins",
    "catalog.seed_s": "catalog.seed",
    "catalog.load_s": "catalog.load",
    "catalog.close_s": "catalog.close",
    "catalog.save_s": "catalog.save",
    "catalog.render_s": "catalog.render",
    "constructions.s": "constructions",
}
CALL_METRICS = {
    "groupring.canonical_calls": "groupring.canonical",
    "groupring.verify_calls": "groupring.verify",
    "exhaust.pair_calls": "exhaust.pair",
    "constructions.calls": "constructions",
}
COUNT_METRICS = (
    "exhaust.nodes",
    "exhaust.leaves",
    "margins.raw_solutions",
    "margins.consistent_solutions",
    "margins.pairs",
    "cli.stdout_bytes",
    "catalog.witness_files_written",
    "catalog.bytes_written",
    "catalog.quarantined",
)
# spans the workloads open around whole cases; everything else is a layer
CASE_SPAN = "case"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass whose wall time was ``wall``."""
    spans = tracer.spans
    duration = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[idx]

    def outermost(idx):
        name, parent = spans[idx][0], spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    inclusive: Counter = Counter()
    calls: Counter = Counter()
    pair_self = 0.0
    covered = 0.0
    for idx, (name, _, _, parent) in enumerate(spans):
        calls[name] += 1
        if outermost(idx):
            inclusive[name] += duration[idx]
        if name == "exhaust.pair":
            pair_self += duration[idx] - child_time[idx]
        top_level = parent < 0 or spans[parent][0] == CASE_SPAN
        if name != CASE_SPAN and top_level:
            covered += duration[idx]

    out = {metric: inclusive[name] for metric, name in TIME_METRICS.items()}
    out.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
    out.update({name: tracer.counts[name] for name in COUNT_METRICS})
    counts = tracer.counts
    out["groupring.canonical_useful_ratio"] = _ratio(
        len(tracer.canonical_outputs), calls["groupring.canonical"]
    )
    out["exhaust.self_s"] = pair_self
    out["exhaust.leaf_yield"] = _ratio(counts["exhaust.verified"], counts["exhaust.leaves"])
    out["exhaust.nodes_per_self_s"] = _ratio(counts["exhaust.nodes"], pair_self)
    out["margins.consistent_ratio"] = _ratio(
        counts["margins.consistent_solutions"], counts["margins.fold_inputs"]
    )
    out["trace.coverage"] = _ratio(covered, wall)
    return out


def write_spans(tracer: Tracer, path: Path) -> None:
    """One JSON object per span, times relative to the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for idx, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(
                json.dumps(
                    {"id": idx, "name": name, "parent": parent,
                     "start": start - origin, "end": end - origin}
                )
                + "\n"
            )
