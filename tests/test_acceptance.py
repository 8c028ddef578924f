"""Acceptance suite: each test implements one exit criterion at its stated
tolerance and prints one PASS line when it holds (run with -s to see them)."""

import time

import numpy as np
import pytest

from viscoflow import diagnostics, solver, stability
from viscoflow.config import ScenarioConfig, default_tolerances
from viscoflow.materials import BulkState, MaterialLaw, ReferenceState, ShearState
from viscoflow.quasilinear import (assemble_bulk, assemble_shear,
                                   characteristic_speeds_bulk_closed,
                                   characteristic_speeds_numeric,
                                   characteristic_speeds_shear_closed,
                                   det_bulk_closed_form, det_principal_symbol)
from viscoflow.solver import Grid1D, Simulation, bump

RNG_SEED = 735128


def random_law(rng):
    return MaterialLaw(A=rng.uniform(0.2, 2.0), gamma=rng.uniform(1.1, 2.5),
                       zeta=rng.uniform(0.2, 3.0), eta=rng.uniform(0.2, 3.0),
                       tau=rng.uniform(0.2, 3.0))


def random_direction(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


def test_criterion_1_characteristic_speed_reproduction():
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    worst_bulk = worst_shear = 0.0
    for _ in range(1000):
        law = random_law(rng)
        n = random_direction(rng)
        st = BulkState(rng.uniform(0.2, 5.0), tuple(rng.uniform(-1, 1, 3)),
                       rng.uniform(-0.5, 0.5))
        rep = characteristic_speeds_numeric(assemble_bulk(st, law), n)
        closed = characteristic_speeds_bulk_closed(st, law, n)
        worst_bulk = max(worst_bulk, float(np.max(
            np.abs(rep.speeds - closed) / np.maximum(1.0, np.abs(closed)))))

        # closed forms hold at equilibrium stress (see decisions ledger)
        sst = ShearState(rng.uniform(0.2, 5.0), tuple(rng.uniform(-1, 1, 3)))
        rep10 = characteristic_speeds_numeric(assemble_shear(sst, law), n)
        closed10 = characteristic_speeds_shear_closed(sst, law, n)
        scale = max(1.0, float(np.max(np.abs(closed10))))
        for target in closed10:
            worst_shear = max(worst_shear,
                              float(np.min(np.abs(rep10.speeds - target))) / scale)
    wall = time.perf_counter() - t0
    assert worst_bulk <= 1e-10
    assert worst_shear <= 1e-10
    assert wall < 10.0
    print(f"\nACCEPTANCE 1 PASS: speeds match closed forms over 1000 states "
          f"(bulk {worst_bulk:.2e}, shear {worst_shear:.2e}, {wall:.1f} s)")


def test_criterion_2_det_closed_form():
    rng = np.random.default_rng(RNG_SEED + 1)
    worst = 0.0
    for _ in range(1000):
        law = random_law(rng)
        st = BulkState(rng.uniform(0.2, 5.0), tuple(rng.uniform(-1, 1, 3)),
                       rng.uniform(-0.5, 0.5))
        sys5 = assemble_bulk(st, law)
        xi0 = rng.uniform(-2.0, 2.0)
        xi = rng.uniform(-1.0, 1.0, size=3)
        closed = det_bulk_closed_form(st, law, xi0, xi)
        numeric = det_principal_symbol(sys5, xi0, xi)
        worst = max(worst, abs(numeric - closed) / max(1.0, abs(closed)))
    assert worst <= 1e-10
    print(f"\nACCEPTANCE 2 PASS: det L matches alpha^3 tau/(zeta cs^8)"
          f"(alpha^2 - c_v^2 xi.xi) to {worst:.2e}")


def test_criterion_3_hurwitz_root_equivalence():
    rng = np.random.default_rng(RNG_SEED + 2)
    checked = disagreements = 0
    flips = [None, "zeta", "tau", "rho0", "eta"]
    while checked < 1000:
        kwargs = dict(rho0=rng.uniform(0.1, 5.0), cs=rng.uniform(0.1, 3.0),
                      zeta=rng.uniform(0.1, 5.0), eta=rng.uniform(0.1, 5.0),
                      tau=rng.uniform(0.1, 5.0))
        flip = flips[checked % len(flips)]
        if flip:
            kwargs[flip] = -kwargs[flip]
        bg = stability.Background(**kwargs)
        k = (rng.uniform(0.1, 5.0), 0.0, 0.0)
        disp = stability.shear_dispersion(bg, k)
        factors = [stability.bulk_dispersion(bg, k), disp["relaxation"],
                   disp["transverse"], disp["acoustic"]]
        marginal = False
        for poly in factors:
            verdict = stability.polynomial_verdict(poly)
            if abs(verdict.max_real_part) <= 1e-9:
                marginal = True
                continue
            if verdict.stable != (verdict.max_real_part < 0.0):
                disagreements += 1
        if not marginal:
            checked += 1
    assert disagreements == 0

    # headline verdict: stable iff tau, rho, zeta (and eta for shear) > 0
    def bulk_stable(**kw):
        bg = stability.Background(**{**dict(rho0=1, cs=1, zeta=1, tau=1, eta=1), **kw})
        return stability.polynomial_verdict(stability.bulk_dispersion(bg, (1, 0, 0))).stable

    def shear_stable(**kw):
        bg = stability.Background(**{**dict(rho0=1, cs=1, zeta=1, tau=1, eta=1), **kw})
        factors = stability.shear_dispersion(bg, (1, 0, 0)).values()
        return all(stability.polynomial_verdict(p).stable for p in factors)

    assert bulk_stable() and shear_stable()
    assert not bulk_stable(zeta=-1.0)
    assert not bulk_stable(tau=-1.0)
    assert not bulk_stable(rho0=-1.0)
    assert not shear_stable(tau=-1.0)
    assert not shear_stable(rho0=-1.0)
    assert not shear_stable(eta=-1.0)
    # the longitudinal factor couples zeta with eta (through zeta + 4 eta/3),
    # so a lone sign flip of zeta needs magnitude beyond 4 eta / 3
    assert not shear_stable(zeta=-2.0)
    print("\nACCEPTANCE 3 PASS: Routh-Hurwitz versus root signs, 1000 backgrounds, "
          "0 disagreements; sign-flip verdicts reproduced")


@pytest.mark.slow
def test_criterion_4_dispersion_vs_simulation():
    t0 = time.perf_counter()
    bg = stability.Background(rho0=1.0, cs=1.0, zeta=1.0, tau=1.0, eta=1.0)
    assert np.allclose(stability.bulk_dispersion(bg, (1, 0, 0)), [1, 1, 2, 1])
    rec = stability.verify_against_simulation(bg, k=1.0, system="bulk",
                                              cells_per_wavelength=512,
                                              tolerance=0.02)
    wall = time.perf_counter() - t0
    assert rec.passed
    assert rec.decay_error <= 0.02 and rec.frequency_error <= 0.02
    assert wall < 60.0
    print(f"\nACCEPTANCE 4 PASS: ring-down matches [1,1,2,1] roots "
          f"(decay err {rec.decay_error:.2e}, freq err {rec.frequency_error:.2e}, "
          f"{wall:.0f} s)")


@pytest.mark.slow
def test_criterion_5_navier_stokes_limit():
    tau = 1e-3
    law = MaterialLaw(A=0.5, gamma=2.0, zeta=1.0, eta=1.0, tau=tau)
    grid = Grid1D("planar", 512, 0.0, 2 * np.pi, bc="periodic")
    sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=1.0))
    x = grid.centers_interior
    sim.fields.set("rho", 1.0 + 0.01 * np.sin(x))
    sim.fields.set("u", 0.01 * np.sin(x))
    out, _ = solver.run(sim, 10.0 * tau)
    assert out.status == "ok"
    dudx = np.gradient(sim.fields.get("u"), grid.dx)
    frac = np.max(np.abs(sim.fields.get("Pi") + 1.0 * dudx)) / np.max(np.abs(dudx))
    assert frac <= 0.05
    print(f"\nACCEPTANCE 5 PASS: stress within {frac:.1%} of its Navier-Stokes value "
          f"after t = 10 tau")


@pytest.mark.slow
def test_criterion_6_conservation_and_stress_law():
    cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=512,
                         x_max=3.0, t_end=1.0, A=0.5, a=1e-3, c=2e-3)
    sim = solver.init_scenario(cfg)
    assert diagnostics.stress_integral(sim) > 0.0
    out, series = solver.run(sim, 1.0, series_cadence=5)
    assert out.status == "ok"
    t = np.asarray(series.t)
    dm = np.asarray(series.dM)
    g = np.asarray(series.G)
    dm_drift = np.max(np.abs(dm - dm[0])) / (abs(dm[0]) + 1.0)
    g_err = np.max(np.abs(g - g[0] * np.exp(-t))) / abs(g[0])
    assert dm_drift <= 1e-8
    assert g_err <= 0.01
    print(f"\nACCEPTANCE 6 PASS: dM drift {dm_drift:.1e} (<= 1e-8), "
          f"stress integral tracks exp(-t/tau) to {g_err:.1e} (<= 1e-2)")


@pytest.mark.slow
def test_criterion_7_finite_time_breakdown():
    t0 = time.perf_counter()

    def blast(n):
        tol = default_tolerances()
        # default 1e3 exceeds the 1024/2048-cell captured-gradient range;
        # 20x sits inside the mutually resolved window (decisions ledger)
        tol["grad_factor"] = 20.0
        cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=n,
                             x_max=2.0, t_end=0.05, A=1.0, gamma=2.0,
                             b_from_f0=None, tolerances=tol)
        probe = solver.init_scenario(cfg)
        threshold = diagnostics.blowup_threshold(probe.cv_bar, cfg.R, cfg.rho_bar)
        cfg.b_from_f0 = 1.1 * threshold
        sim = solver.init_scenario(cfg)
        cert = diagnostics.certificate(sim)
        out, series = solver.run(sim, cfg.t_end, series_cadence=1)
        return sim, cert, out, series

    sim1, cert1, out1, series1 = blast(1024)
    # (a) certificate satisfied with the recomputed threshold
    assert cert1.satisfied
    assert cert1.F0 == pytest.approx(1.1 * cert1.threshold, rel=1e-12)
    assert cert1.dM0 >= 0.0 and cert1.G0 == 0.0

    # (b) F monotone nondecreasing through the smooth phase
    f = np.asarray(series1.F)
    assert np.all(np.diff(f) >= 0.0)

    # (c) growth-inequality margin on at least 99% of smooth-phase steps
    growth = diagnostics.check_growth(series1, cert1)
    assert growth.fraction_ok >= 0.99

    # (d) breakdown at finite time, stable under resolution doubling
    assert out1.status == "breakdown"
    t_b1 = sim1.t
    sim2, cert2, out2, series2 = blast(2048)
    assert out2.status == "breakdown"
    t_b2 = sim2.t
    assert abs(t_b2 - t_b1) <= 0.10 * t_b1
    wall = time.perf_counter() - t0
    assert wall < 600.0
    print(f"\nACCEPTANCE 7 PASS: certificate satisfied (F0 {cert1.F0:.2f} > "
          f"threshold {cert1.threshold:.2f}), F monotone, margin ok on "
          f"{growth.fraction_ok:.1%} of steps, breakdown at t={t_b1:.5f} (1024) "
          f"vs t={t_b2:.5f} (2048): {abs(t_b2-t_b1)/t_b1:.1%} apart, {wall:.0f} s")


@pytest.mark.slow
def test_criterion_8_shear_trace_analog():
    law = MaterialLaw(A=0.5, gamma=2.0, zeta=1.0, eta=1.0, tau=1.0)
    ref = ReferenceState(rho_bar=1.0, R=1.0)
    grid = Grid1D("planar", 1024, -3.0, 3.0)
    sim = Simulation(grid, "shear", law, ref)
    x = grid.centers_interior
    w = bump(x)
    for name in ("Pi11", "Pi22", "Pi33"):
        sim.fields.set(name, 1e-3 * w)
    sim.fields.set("Pi12", 5e-4 * w)
    g0 = diagnostics.stress_integral(sim)
    assert g0 > 0.0
    out, series = solver.run(sim, 1.0, series_cadence=5)
    assert out.status == "ok"
    t = np.asarray(series.t)
    g = np.asarray(series.G)
    g_err = np.max(np.abs(g - g[0] * np.exp(-t))) / abs(g[0])
    assert g_err <= 0.01

    rep = characteristic_speeds_numeric(assemble_shear(ShearState(1.0), law), (1, 0, 0))
    for target in (-np.sqrt(10 / 3), -1.0, 0.0, 1.0, np.sqrt(10 / 3)):
        assert np.min(np.abs(rep.speeds - target)) <= 1e-10
    print(f"\nACCEPTANCE 8 PASS: stress trace follows the scalar law to {g_err:.1e}; "
          f"shear speed set verified")


def test_criterion_9_equilibrium_fixed_point():
    law = MaterialLaw(A=0.5, gamma=2.0, zeta=1.0, eta=1.0, tau=1.0)
    ref = ReferenceState(rho_bar=1.0, R=1.0)
    worst = 0.0
    for geometry, x_min in (("planar", -2.0), ("spherical", 0.0)):
        grid = Grid1D(geometry, 128, x_min, 2.0)
        sim = Simulation(grid, "bulk", law, ref)
        before = sim.fields.interior().copy()
        for _ in range(1000):
            out = solver.step(sim)
            assert out.status == "ok"
        rel = np.max(np.abs(sim.fields.interior() - before)) / ref.rho_bar
        worst = max(worst, rel)
    assert worst <= 1e-14
    print(f"\nACCEPTANCE 9 PASS: uniform state unchanged after 1000 steps "
          f"(max relative change {worst:.1e})")
