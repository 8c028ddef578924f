"""Tests of the benchmark itself: each correctness check accepts the
program's real output and rejects a corrupted copy of it, and the tracer
counts what it claims to count.

    python3 -m pytest bench -q

They run the real blast, shear_wide and one ring-down operation once each
(about 15 s in all).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run_ops(workload):
    return {op.name: op.call() for op in workload.operations()}


@pytest.fixture(scope="module")
def blast(tmp_path_factory):
    w = workloads.Blast(seed=7, work=tmp_path_factory.mktemp("blast"))
    results = _run_ops(w)
    runs = []
    for n in w.cells:
        cert_exit, exit_code = results[f"blast_{n}"]
        runs.append(dict(n_cells=n, cert_exit=cert_exit, exit=exit_code,
                         series=checks.read_csv(w.work / f"blast_{n}" / "series.csv")))
    return w, runs


@pytest.fixture(scope="module")
def shear(tmp_path_factory):
    w = workloads.ShearWide(seed=7, work=tmp_path_factory.mktemp("shear"))
    exit_code = _run_ops(w)["shear_wide"]
    return w, exit_code, checks.read_csv(w.work / "shear_wide" / "snapshot_002.csv")


def _copy_runs(runs):
    return [dict(r, series={k: v.copy() for k, v in r["series"].items()}) for r in runs]


def _copy_snap(snap):
    return {k: v.copy() for k, v in snap.items()}


class TestBlastChecks:
    def test_real_output_passes(self, blast):
        w, runs = blast
        assert checks.check_blast(runs, w.params) == []

    def test_wrong_exit_code_rejected(self, blast):
        w, runs = blast
        runs = _copy_runs(runs)
        runs[1]["exit"] = 4
        assert any("expected 3" in p for p in checks.check_blast(runs, w.params))

    def test_f_dip_rejected(self, blast):
        w, runs = blast
        runs = _copy_runs(runs)
        f = runs[0]["series"]["F"]
        f[100] = f[99] * (1 - 1e-9)
        assert any("F decreases" in p for p in checks.check_blast(runs, w.params))

    def test_f0_below_threshold_rejected(self, blast):
        w, runs = blast
        runs = _copy_runs(runs)
        runs[0]["series"]["F"][0] /= 1.2
        assert any("threshold" in p for p in checks.check_blast(runs, w.params))

    def test_mass_drift_rejected(self, blast):
        w, runs = blast
        runs = _copy_runs(runs)
        runs[0]["series"]["dM"][-1] += 1e-9
        assert any("mass drifts" in p for p in checks.check_blast(runs, w.params))

    def test_breakdown_times_apart_rejected(self, blast):
        w, runs = blast
        runs = _copy_runs(runs)
        runs[1]["series"]["t"][-1] *= 1.25
        assert any("breakdown times" in p for p in checks.check_blast(runs, w.params))


class TestShearChecks:
    def test_real_output_passes(self, shear):
        w, exit_code, snap = shear
        assert checks.check_shear(exit_code, snap, w.params) == []

    def test_wrong_exit_code_rejected(self, shear):
        w, _, snap = shear
        assert checks.check_shear(4, snap, w.params) != []

    def test_one_interior_cell_changed_rejected(self, shear):
        w, exit_code, snap = shear
        snap = _copy_snap(snap)
        snap["Pi11"][len(snap["Pi11"]) // 2 - 10] *= 1 + 1e-6  # inside the bump
        problems = checks.check_shear(exit_code, snap, w.params)
        assert any("Pi11 is not even" in p for p in problems)

    def test_odd_field_made_even_rejected(self, shear):
        w, exit_code, snap = shear
        snap = _copy_snap(snap)
        snap["v1"] = np.abs(snap["v1"])
        assert any("v1 is not odd" in p for p in checks.check_shear(exit_code, snap, w.params))

    def test_mass_change_rejected(self, shear):
        w, exit_code, snap = shear
        snap = _copy_snap(snap)
        n = len(snap["rho"])
        snap["rho"][n // 2 - 1: n // 2 + 1] += 1e-6  # symmetric, so only the mass moves
        problems = checks.check_shear(exit_code, snap, w.params)
        assert problems and all("mass" in p for p in problems)

    def test_exterior_cell_changed_rejected(self, shear):
        w, exit_code, snap = shear
        snap = _copy_snap(snap)
        snap["v2"][5] = snap["v2"][-6] = 1e-10  # symmetric, mass unchanged
        problems = checks.check_shear(exit_code, snap, w.params)
        assert problems == ["v2 leaves the reference state at cell 5, beyond the front "
                            "R + c_fast t"]

    def test_wrong_time_rejected(self, shear):
        w, exit_code, snap = shear
        snap = _copy_snap(snap)
        snap["t"][:] *= 0.5
        assert any("final snapshot is at" in p for p in checks.check_shear(exit_code, snap,
                                                                           w.params))


class TestRingdownChecks:
    def test_quadratic_root_matches_closed_form(self):
        # x^2 + x + k^2 at k = 2: x = -1/2 + i sqrt(k^2 - 1/4)
        root = checks.least_damped_root(checks.transverse_poly(2.0, 1.0, 1.0, 1.0))
        assert root == pytest.approx(complex(-0.5, np.sqrt(3.75)), rel=1e-14)

    def test_cubic_root_is_a_root(self):
        poly = checks.bulk_poly(2.0, 1.0, 1.0, 1.0, 1.0)
        root = checks.least_damped_root(poly)
        assert abs(np.polyval(poly, root)) < 1e-12 and root.real < 0 and root.imag > 0

    def test_real_fit_passes_and_three_percent_off_fails(self, tmp_path):
        w = workloads.Ringdown(seed=7, work=tmp_path)
        op = w.operations()[2]  # bulk, k near 4
        rec = op.call()
        assert w.check({op.name: rec}) == []
        _, _, k, _ = w.runs[2]
        poly = checks.bulk_poly(k, 1.0, 1.0, 1.0, 1.0)
        assert checks.check_ringdown(rec.fitted_decay * 1.03, rec.fitted_frequency, poly)
        assert checks.check_ringdown(rec.fitted_decay, rec.fitted_frequency * 0.97, poly)


class TestTracer:
    def test_counts_coefficient_calls_and_restores(self):
        import viscoflow.config
        import viscoflow.solver as solver
        original = solver.eval_transport
        cfg = viscoflow.config.parse_config("[profile]\nb = 0.1\n[grid]\nn_cells = 64\n"
                                            "[run]\nt_end = 0.05\n")
        tracer = tracing.Tracer(tracing.LAYERS)
        with tracer:
            sim = solver.init_scenario(cfg)
            solver.run(sim, cfg.t_end, series_cadence=1)
        assert solver.eval_transport is original
        m = tracing.layer_metrics(tracer.spans, rounds=1)
        assert m["solver.steps"][0] == sim.step_count > 0
        # cfl_dt, two relaxation half steps and two SSP-RK2 stages
        assert m["materials.eval_transport.calls_per_step"][0] == 5.0
        assert m["diagnostics.series_record.calls"][0] == sim.step_count + 1

    def test_self_time_subtracts_direct_children(self):
        spans = [("solver.run", 1, -1, 0, 100, 10, 2),
                 ("solver.step", 1, 0, 10, 60, 0, 0),
                 ("materials.eval_transport", 1, 1, 20, 30, 0, 0),
                 ("solver.step", 1, 0, 60, 90, 0, 0)]
        m = tracing.layer_metrics(spans, rounds=1)
        assert m["solver.run.self_ns_per_cell_step"][0] == 20 / 20
        assert m["solver.step.self_ns_per_cell_step"][0] == (40 + 30) / 20
        assert m["materials.eval_transport.calls_per_step"][0] == 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "blast", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
