"""Spans around viscoflow's module boundaries, installed from the benchmark.

A Tracer replaces each named function with a wrapper that records one span
(name, operation id, parent span, start ns, end ns, cells, steps) in memory,
and puts the originals back when it is uninstalled. Spans of one operation
share its id. `solver.run` spans also carry the grid size and the number of
steps the call advanced, read once per call.

Two sets of boundaries exist. SETUP_AND_RUN is what the end-to-end metrics
need (set-up calls and solver.run) and is installed in every round: a few
wrapped calls per scenario. LAYERS adds every per-step boundary and is only
installed in the traced rounds of a `--trace 1` run.

`solver` binds eval_transport, bulk_signal_speed and shear_signal_speeds by
name at import, and `cli` binds parse_config, so those wrappers go on the
binding the caller looks up, not on the defining module.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

# (module[:class], attribute, span name)
SETUP_AND_RUN = (
    ("viscoflow.cli", "parse_config", "config.parse_config"),
    ("viscoflow.config", "parse_config", "config.parse_config"),
    ("viscoflow.solver", "init_scenario", "solver.init_scenario"),
    ("viscoflow.diagnostics", "certificate", "diagnostics.certificate"),
    ("viscoflow.stability", "equilibrium_background", "stability.equilibrium_background"),
    ("viscoflow.solver", "run", "solver.run"),
)
LAYERS = SETUP_AND_RUN + (
    ("viscoflow.cli", "main", "cli.main"),
    ("viscoflow.stability", "verify_against_simulation", "stability.verify"),
    ("viscoflow.solver", "step", "solver.step"),
    ("viscoflow.solver", "cfl_dt", "solver.cfl_dt"),
    ("viscoflow.solver", "eval_transport", "materials.eval_transport"),
    ("viscoflow.solver", "bulk_signal_speed", "quasilinear.signal_speed"),
    ("viscoflow.solver", "shear_signal_speeds", "quasilinear.signal_speed"),
    ("viscoflow.diagnostics", "monitor_c1", "diagnostics.monitor_c1"),
    ("viscoflow.diagnostics:DiagnosticSeries", "record", "diagnostics.series_record"),
)
# the program's set-up before its first step (the setup_s metric)
SETUP = frozenset({"config.parse_config", "solver.init_scenario", "diagnostics.certificate",
                   "stability.equilibrium_background"})
# layers whose calls and times are counted per step: only calls inside solver.run
PER_STEP = frozenset({"materials.eval_transport", "quasilinear.signal_speed",
                      "diagnostics.monitor_c1"})


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self, boundaries):
        self.boundaries = boundaries
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self):
        for path, attr, name in self.boundaries:
            owner = _owner(path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts_steps = name == "solver.run"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            sim = args[0] if counts_steps else None
            before = sim.step_count if counts_steps else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, self.op, parent, t0, t1,
                              sim.grid.n_cells if counts_steps else 0,
                              sim.step_count - before if counts_steps else 0)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        """All spans, one JSON array per line: name, op, parent, t0_ns, t1_ns, cells, steps."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def round_totals(spans) -> dict[str, float]:
    """End-to-end quantities of one round from its SETUP_AND_RUN spans."""
    setup_ns = run_ns = cell_steps = 0
    for name, _, _, t0, t1, cells, steps in spans:
        if name in SETUP:
            setup_ns += t1 - t0
        elif name == "solver.run":
            run_ns += t1 - t0
            cell_steps += cells * steps
    return {"setup_s": setup_ns * 1e-9, "run_s": run_ns * 1e-9, "cell_steps": cell_steps}


def layer_metrics(spans, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of `rounds` traced rounds of the same operations.

    Self time is a span's duration minus that of its direct children. Per-step
    calls and times of materials, quasilinear and the C^1 monitor count only
    spans inside solver.run; counts and seconds "per round" are totals over
    the traced rounds divided by their number.
    """
    n = len(spans)
    child = [0] * n
    in_run = [False] * n
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    calls: dict[str, int] = {}
    steps = cell_steps = 0
    step_ns = []
    for i, (name, _, parent, t0, t1, cells, nsteps) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            in_run[i] = in_run[parent] or spans[parent][0] == "solver.run"
        if name == "solver.run":
            steps += nsteps
            cell_steps += cells * nsteps
        elif name == "solver.step":
            step_ns.append(t1 - t0)
    for i, (name, _, _, t0, t1, _, _) in enumerate(spans):
        if name in PER_STEP and not in_run[i]:
            continue  # set-up calls, e.g. the reference signal speed
        total[name] = total.get(name, 0) + (t1 - t0)
        own[name] = own.get(name, 0) + (t1 - t0 - child[i])
        calls[name] = calls.get(name, 0) + 1

    per_step = max(steps, 1)
    per_cell_step = max(cell_steps, 1)
    pct = statistics.quantiles(step_ns, n=100) if len(step_ns) > 1 else [0.0] * 99

    def ns_cs(table, key):
        return table.get(key, 0) / per_cell_step

    def s_round(table, key):
        return table.get(key, 0) * 1e-9 / rounds

    return {
        "materials.eval_transport.calls_per_step":
            (calls.get("materials.eval_transport", 0) / per_step, "calls/step"),
        "materials.eval_transport.ns_per_cell_step":
            (ns_cs(total, "materials.eval_transport"), "ns"),
        "quasilinear.signal_speed.calls_per_step":
            (calls.get("quasilinear.signal_speed", 0) / per_step, "calls/step"),
        "quasilinear.signal_speed.ns_per_cell_step":
            (ns_cs(total, "quasilinear.signal_speed"), "ns"),
        "solver.step.self_ns_per_cell_step": (ns_cs(own, "solver.step"), "ns"),
        "solver.step.ms_p50": (pct[49] * 1e-6, "ms"),
        "solver.step.ms_p99": (pct[98] * 1e-6, "ms"),
        "solver.cfl_dt.self_ns_per_cell_step": (ns_cs(own, "solver.cfl_dt"), "ns"),
        "solver.run.self_ns_per_cell_step": (ns_cs(own, "solver.run"), "ns"),
        "solver.steps": (steps / rounds, "count"),
        "diagnostics.monitor_c1.ns_per_cell_step": (ns_cs(total, "diagnostics.monitor_c1"), "ns"),
        "diagnostics.series_record.calls":
            (calls.get("diagnostics.series_record", 0) / rounds, "count"),
        "diagnostics.series_record.ns_per_cell_step":
            (ns_cs(total, "diagnostics.series_record"), "ns"),
        "cli.output.self_s": (s_round(own, "cli.main"), "s"),
        "config.parse_config.s": (s_round(total, "config.parse_config"), "s"),
        "solver.init_scenario.s": (s_round(total, "solver.init_scenario"), "s"),
        "stability.verify.self_s": (s_round(own, "stability.verify"), "s"),
    }
