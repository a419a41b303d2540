"""Span tracing around invorbit's public functions, from outside the package.

`Tracer.install` replaces module attributes with wrappers that record a
span (id, name, start, end, parent, run id, payload) on every call.  Where
one module calls another through a module attribute, that attribute is
wrapped, so each call site is timed once.  Distance calls are counted, not
spanned, by wrapping the `dist` of every space the scenario layer and the
oracle build.  Spans stay in memory until `dump`; `layer_metrics` turns
them into per-layer self times and counts.

A span's self time is its duration minus the durations of its children.
Children run in the thread of their parent, so they never overlap.  A
span that only waits for other threads (`WAITING`) has no self time.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import importlib
import itertools
import threading
import time
from collections import defaultdict
from pathlib import Path


def _len(result, args):
    return len(result)


def _checked_pairs(result, args):
    return result.checked_pairs


def _tail_points(result, args):
    from invorbit.numerics import tail_window

    return tail_window(len(args[1]))


# (module, attribute, span name, payload).  The payload is one number per
# call, except for the sweep, whose report carries several counts.
WRAPPED = [
    ("cli", "run_scenario", "cli.run_scenario", None),
    ("cli", "run_batch", "cli.run_batch", None),
    ("cli", "load_scenario", "scenario.load_scenario", None),
    ("cli", "build_space", "scenario.build", None),
    ("cli", "build_maps", "scenario.build", None),
    ("cli", "build_hypothesis", "scenario.build", None),
    ("cli", "emit_report", "report.emit_report", _len),
    ("cli", "write_trace_csv", "report.write_trace_csv", lambda r, a: len(a[0])),
    ("cli", "check_axioms", "spaces.check_axioms", lambda r, a: r.checked_triples),
    ("oracle", "check_axioms", "spaces.check_axioms", lambda r, a: r.checked_triples),
    ("cli", "sample_points", "spaces.sample", _len),
    ("solver", "sample_pairs", "spaces.sample", lambda r, a: 2 * len(r)),
    ("spaces", "sample_triples", "spaces.sample", lambda r, a: 3 * len(r)),
    ("cli", "audit", "solver.audit", _checked_pairs),
    ("solver", "audit", "solver.audit", _checked_pairs),
    ("oracle", "audit", "solver.audit", _checked_pairs),
    ("cli", "solve", "solver.solve", None),
    ("cli", "inverse_orbit", "solver.inverse_orbit", lambda r, a: len(r.points) - 1),
    ("solver", "inverse_orbit", "solver.inverse_orbit", lambda r, a: len(r.points) - 1),
    (
        "solver",
        "geometric_cauchy_check",
        "analysis.geometric_cauchy_check",
        lambda r, a: len(r.per_step_ratios),
    ),
    ("cli", "limit_sandwich_check", "analysis.limit_sandwich_check", _tail_points),
    ("cli", "polygon_bound", "analysis.polygon_bound", None),
    (
        "cli",
        "falsification_sweep",
        "oracle.falsification_sweep",
        lambda r, a: (
            r.matrices_checked,
            r.spaces_admitted,
            r.instances_checked,
            r.hypothesis_holders,
        ),
    ),
    ("oracle", "pair_from_tables", "oracle.pair_from_tables", None),
    ("oracle", "table_space", "oracle.table_space", None),
]

# Builders whose spaces get a counting `dist`.
COUNTED_SPACES = {("cli", "build_space"), ("oracle", "table_space")}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dist_cells: list[list[int]] = []
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _counted(self, space):
        cell = [0]
        self.dist_cells.append(cell)
        dist = space.dist

        def counting_dist(x, y):
            cell[0] += 1
            return dist(x, y)

        return dataclasses.replace(space, dist=counting_dist)

    def _wrap(self, name, fn, payload, counted):
        spans, ids, runs, local = self.spans, self._ids, self._runs, self._local
        clock = time.perf_counter
        counted_space = self._counted

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent, run = stack[-1] if stack else (0, next(runs))
            stack.append((span_id, run))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, run, None))
                raise
            end = clock()
            stack.pop()
            if counted:
                result = counted_space(result)
            value = payload(result, args) if payload else None
            spans.append((span_id, name, start, end, parent, run, value))
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, payload in WRAPPED:
            module = importlib.import_module(f"invorbit.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            counted = (module_name, attr) in COUNTED_SPACES
            setattr(module, attr, self._wrap(name, original, payload, counted))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def take(self) -> tuple[list[tuple], int]:
        """Hand over the spans and distance calls recorded so far."""
        spans = list(self.spans)
        self.spans.clear()  # the wrappers hold this list
        calls = sum(cell[0] for cell in self.dist_cells)
        self.dist_cells.clear()
        return spans, calls


def dump(spans: list[tuple], path: Path, append: bool = False) -> None:
    """Write spans as gzip CSV: id, name, start, end, parent, run, payload."""
    with gzip.open(path, "at" if append else "wt", compresslevel=1, newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(["id", "name", "start", "end", "parent", "run", "payload"])
        writer.writerows(spans)


# The batch's main thread only waits for its pool, whose threads start with
# empty span stacks, so their scenarios are not its children.  Its duration
# feeds queue_wait_s and busy_ratio, and it has no self time.
WAITING = {"cli.run_batch"}


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Per span name, the summed duration minus the time children cover."""
    child = defaultdict(float)
    for span_id, _, start, end, parent, _, _ in spans:
        child[parent] += end - start
    out = defaultdict(float)
    for span_id, name, start, end, _, _, _ in spans:
        if name not in WAITING:
            out[name] += (end - start) - child[span_id]
    return out


def layer_metrics(spans: list[tuple], dist_calls: int, nproc: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass over a workload."""
    own = self_times(spans)
    calls = defaultdict(int)
    sums = defaultdict(int)
    sweep = [0, 0, 0, 0]
    scenario_starts, scenario_busy, batch = [], 0.0, None
    for _, name, start, end, _, _, value in spans:
        calls[name] += 1
        if name == "oracle.falsification_sweep" and value is not None:
            sweep = [a + b for a, b in zip(sweep, value)]
        elif value is not None:
            sums[name] += value
        if name == "cli.run_scenario":
            scenario_starts.append(start)
            scenario_busy += end - start
        elif name == "cli.run_batch":
            batch = (start, end)
    matrices, admitted, instances, holders = sweep
    queue_wait = busy_ratio = 0.0
    if batch is not None:
        queue_wait = sum(max(0.0, s - batch[0]) for s in scenario_starts)
        busy_ratio = scenario_busy / ((batch[1] - batch[0]) * nproc)
    return {
        "spaces.dist.calls": dist_calls,
        "spaces.sample.self_s": own["spaces.sample"],
        "spaces.sample.draws": sums["spaces.sample"],
        "spaces.check_axioms.self_s": own["spaces.check_axioms"],
        "spaces.check_axioms.calls": calls["spaces.check_axioms"],
        "spaces.check_axioms.triples": sums["spaces.check_axioms"],
        "solver.audit.self_s": own["solver.audit"],
        "solver.audit.calls": calls["solver.audit"],
        "solver.audit.pairs": sums["solver.audit"],
        "solver.inverse_orbit.self_s": own["solver.inverse_orbit"],
        "solver.inverse_orbit.steps": sums["solver.inverse_orbit"],
        "solver.solve.self_s": own["solver.solve"],
        "analysis.geometric_cauchy_check.self_s": own["analysis.geometric_cauchy_check"],
        "analysis.geometric_cauchy_check.ratios": sums["analysis.geometric_cauchy_check"],
        "analysis.limit_sandwich_check.self_s": own["analysis.limit_sandwich_check"],
        "analysis.limit_sandwich_check.calls": calls["analysis.limit_sandwich_check"],
        "analysis.limit_sandwich_check.tail_points": sums["analysis.limit_sandwich_check"],
        "analysis.polygon_bound.self_s": own["analysis.polygon_bound"],
        "oracle.falsification_sweep.self_s": own["oracle.falsification_sweep"],
        "oracle.pair_from_tables.self_s": own["oracle.pair_from_tables"],
        "oracle.pair_from_tables.calls": calls["oracle.pair_from_tables"],
        "oracle.table_space.self_s": own["oracle.table_space"],
        "oracle.matrices": matrices,
        "oracle.spaces_admitted": admitted,
        "oracle.instances": instances,
        "oracle.holders": holders,
        "oracle.holder_ratio": holders / instances if instances else 0.0,
        "scenario.load_scenario.self_s": own["scenario.load_scenario"],
        "scenario.build.self_s": own["scenario.build"],
        "report.emit_report.self_s": own["report.emit_report"],
        "report.emit_report.bytes": sums["report.emit_report"],
        "report.write_trace_csv.self_s": own["report.write_trace_csv"],
        "report.write_trace_csv.rows": sums["report.write_trace_csv"],
        "cli.run_scenario.self_s": own["cli.run_scenario"],
        "cli.run_batch.queue_wait_s": queue_wait,
        "cli.run_batch.busy_ratio": busy_ratio,
    }


def layer_shares(spans: list[tuple]) -> dict[str, float]:
    """Each module's share of the traced self time, for the document."""
    own = self_times(spans)
    total = sum(own.values())
    shares = defaultdict(float)
    for name, value in own.items():
        shares[name.split(".")[0]] += value / total if total else 0.0
    return dict(shares)
