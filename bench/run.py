"""viscoflow benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload {blast,shear_wide,ringdown} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The package is imported from the
checkout's src/ and nowhere else. A run repeats whole rounds of the
workload's operations until S seconds have passed (at least one round),
checks every output of every round, and prints as its last stdout line one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics, medians over the rounds:
  wall_s            program calls of one round, from reading its configs to
                    its last output file; the benchmark's checks excluded
  setup_s           parse_config + init_scenario (+ certificate, or the
                    ring-down background) summed over the round
  cell_steps_per_s  cells x steps advanced / time inside solver.run
  peak_rss_mb       the process's peak resident set
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones (tracing.layer_metrics), the tracing overhead
(median of traced minus preceding untraced round wall time), and one step's
peak allocation under tracemalloc, measured in a pass of its own. Its spans
are written to .bench_out/spans_<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("blast", "shear_wide", "ringdown")
# the step whose allocations are measured: past the start-up transients
ALLOC_STEP = 10


def _import_program():
    """Import viscoflow from this checkout's src/, or exit 1 without a result."""
    src = ROOT / "src"
    if not (src / "viscoflow" / "__init__.py").is_file():
        sys.exit(f"benchmark: no viscoflow sources under {src}")
    sys.path.insert(0, str(src))
    import viscoflow
    if src.resolve() not in Path(viscoflow.__file__).resolve().parents:
        sys.exit(f"benchmark: imported viscoflow from {viscoflow.__file__}, not {src}")


class _Captured(Exception):
    """Ends the allocation pass once its step has been measured."""


def run_round(workload, tracer):
    """One round of every operation; returns its measurements and problems."""
    ops = workload.operations()
    results, problems, failed = {}, [], 0
    wall = 0.0
    out_bytes = 0
    first_span = len(tracer.spans)
    with tracer:
        for op in ops:
            if op.out_dir is not None:
                shutil.rmtree(op.out_dir, ignore_errors=True)
            tracer.op += 1
            t0 = time.perf_counter()
            try:
                results[op.name] = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                problems.append(f"{op.name}: failed with {type(exc).__name__}: {exc}")
            wall += time.perf_counter() - t0
            if op.out_dir is not None and op.out_dir.is_dir():
                out_bytes += sum(f.stat().st_size for f in op.out_dir.iterdir())
    checked = [f"{workload.name}: {msg}" for msg in workload.check(results)]
    totals = tracing.round_totals(tracer.spans[first_span:])
    return dict(wall_s=wall, attempted=len(ops), failed=failed, problems=problems,
                checked=checked, out_bytes=out_bytes, **totals)


def alloc_peak_per_cell(workload) -> float:
    """Peak bytes allocated by one solver step (the ALLOC_STEP-th call in the
    workload's first operation), per cell."""
    import viscoflow.solver as solver
    original = solver.step
    seen = {"calls": 0}

    def measured(sim, *args, **kwargs):
        seen["calls"] += 1
        if seen["calls"] < ALLOC_STEP:
            return original(sim, *args, **kwargs)
        tracemalloc.start()
        try:
            original(sim, *args, **kwargs)
            seen["peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seen["cells"] = sim.grid.n_cells
        raise _Captured

    op = workload.operations()[0]
    solver.step = measured
    try:
        op.call()
    except _Captured:
        pass
    finally:
        solver.step = original
    if "peak" not in seen:
        raise RuntimeError(f"the first operation ran fewer than {ALLOC_STEP} steps")
    return seen["peak"] / seen["cells"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)

    plain, traced = [], []
    layer_tracer = tracing.Tracer(tracing.LAYERS)
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.trace and len(traced) < len(plain):
            traced.append(run_round(workload, layer_tracer))
        else:
            plain.append(run_round(workload, tracing.Tracer(tracing.SETUP_AND_RUN)))
        if time.perf_counter() >= deadline and (not args.trace or traced):
            break
    rounds = plain + traced

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in tracing.layer_metrics(layer_tracer.spans, len(traced)).items()}
        metrics["cli.output.bytes"] = {
            "value": statistics.median(r["out_bytes"] for r in traced), "unit": "B"}
        # each traced round follows an untraced one; their difference is
        # taken pairwise, so slow drifts in the machine's speed cancel
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)),
            "unit": "s"}
        metrics["solver.step.alloc_peak_bytes_per_cell"] = {
            "value": alloc_peak_per_cell(workload), "unit": "B/cell"}
        layer_tracer.write(OUT / f"spans_{args.workload}.jsonl")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in plain), "unit": "s"},
            "cell_steps_per_s": {
                "value": statistics.median(r["cell_steps"] / r["run_s"] for r in plain),
                "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "unit": "MB"},
        }

    print("round wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in plain)
          + (" | traced: " + " ".join(f"{r['wall_s']:.3f}" for r in traced) if traced else ""),
          file=sys.stderr)
    problems = [p for r in rounds for p in r["problems"] + r["checked"]]
    for p in dict.fromkeys(problems):
        print(p, file=sys.stderr)
    print(json.dumps({
        "correct": not any(r["checked"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
