import gc
import re
import weakref

import numpy as np
import pytest

from viscoflow import diagnostics, solver
from viscoflow.config import ScenarioConfig, default_tolerances
from viscoflow.materials import (MaterialLaw, MaterialLawError, ReferenceState, eval_transport,
                                 stress_invariants)
from viscoflow.solver import Grid1D, Simulation, bump


def periodic_wave_sim(unit_law, n=256, amp=1e-3, zeta=None, tau=None, length=2 * np.pi):
    law = unit_law if zeta is None and tau is None else \
        MaterialLaw(A=0.5, gamma=2.0, zeta=zeta or 1.0, eta=1.0, tau=tau or 1.0)
    grid = Grid1D("planar", n, 0.0, length, bc="periodic")
    sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=length / 4))
    x = grid.centers_interior
    sim.fields.set("rho", 1.0 + amp * np.sin(2 * np.pi * x / length))
    sim.fields.set("u", amp * np.sin(2 * np.pi * x / length))
    return sim


class TestGrid:
    def test_spherical_requires_zero_origin(self):
        with pytest.raises(ValueError):
            Grid1D("spherical", 64, 0.5, 2.0)

    def test_spherical_rejects_periodic(self):
        with pytest.raises(ValueError):
            Grid1D("spherical", 64, 0.0, 2.0, bc="periodic")

    def test_uniform_spacing_and_centers(self):
        grid = Grid1D("planar", 10, 0.0, 1.0)
        assert grid.dx == pytest.approx(0.1)
        assert grid.centers_interior[0] == pytest.approx(0.05)
        assert len(grid.faces_interior) == 11

    @pytest.mark.parametrize("geometry,x_min,center", [("spherical", 0.0, 0.0),
                                                       ("planar", 0.0, 1.5),
                                                       ("planar", -3.0, 0.0)])
    def test_arms_are_measured_from_the_centre_of_symmetry(self, geometry, x_min, center):
        grid = Grid1D(geometry, 12, x_min, 3.0)
        assert grid.center == center
        assert np.array_equal(grid.arms, grid.centers_interior - center)
        assert np.array_equal(grid.radii, np.abs(grid.arms))

    def test_shear_spherical_combination_rejected(self, unit_law, unit_reference):
        grid = Grid1D("spherical", 64, 0.0, 4.0)
        with pytest.raises(ValueError):
            Simulation(grid, "shear", unit_law, unit_reference)

    @pytest.mark.parametrize("name", ["shear_longitudinal", "shear_transverse"])
    def test_a_reduced_layout_is_no_system(self, unit_law, name):
        # each is exact on one subspace of data alone (the transverse one at
        # Pi_bar = 0 only), so a caller names the system, "bulk" or "shear"
        grid = Grid1D("planar", 48, -3.0, 3.0, bc="periodic")
        with pytest.raises(ValueError, match=f"system must be bulk or shear, got '{name}'"):
            Simulation(grid, name, unit_law, ReferenceState(1.0, 1.5, Pi_bar=0.05))


class TestCflStep:
    def test_equilibrium_unit_coefficients(self, unit_law, unit_reference):
        grid = Grid1D("planar", 400, -2.0, 2.0)  # dx = 0.01
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        assert solver.cfl_dt(sim) == pytest.approx(0.4 * 0.01 / np.sqrt(2.0), rel=1e-14)

    def test_doubling_resolution_halves_dt(self, unit_law, unit_reference):
        dts = []
        for n in (400, 800):
            grid = Grid1D("planar", n, -2.0, 2.0)
            sim = Simulation(grid, "bulk", unit_law, unit_reference)
            dts.append(solver.cfl_dt(sim))
        assert dts[0] == pytest.approx(2.0 * dts[1], rel=1e-14)

    def test_shear_uses_fast_speed(self, unit_law, unit_reference):
        grid = Grid1D("planar", 400, -2.0, 2.0)
        sim = Simulation(grid, "shear", unit_law, unit_reference)
        # fast speed sqrt(cs^2 + (zeta + 4 eta/3)/(rho tau)) = sqrt(10/3)
        assert solver.cfl_dt(sim) == pytest.approx(0.4 * 0.01 / np.sqrt(10.0 / 3.0),
                                                   rel=1e-14)

    def test_invalid_state_raises(self, unit_law, unit_reference):
        grid = Grid1D("planar", 32, 0.0, 1.0)
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        sim.fields.set("u", np.full(32, np.nan))
        with pytest.raises(ValueError, match="maximum signal speed is not finite: nan"):
            solver.cfl_dt(sim)


class TestEquilibriumFixedPoint:
    @pytest.mark.parametrize("geometry,x_min", [("planar", -2.0), ("spherical", 0.0)])
    def test_uniform_state_is_exact(self, unit_law, unit_reference, geometry, x_min):
        grid = Grid1D(geometry, 128, x_min, 2.0)
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        before = sim.fields.interior().copy()
        for _ in range(200):
            out = solver.step(sim)
            assert out.status == "ok"
        assert np.array_equal(sim.fields.interior(), before)

    def test_shear_uniform_state(self, unit_law, unit_reference):
        grid = Grid1D("planar", 64, -2.0, 2.0)
        sim = Simulation(grid, "shear", unit_law, unit_reference)
        before = sim.fields.interior().copy()
        for _ in range(100):
            assert solver.step(sim).status == "ok"
        assert np.array_equal(sim.fields.interior(), before)


class TestInitScenario:
    def test_zero_amplitudes_give_uniform_state(self):
        cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=64,
                             x_max=4.0, t_end=0.5, A=0.5)
        sim = solver.init_scenario(cfg)
        assert np.allclose(sim.fields.get("rho"), 1.0)
        assert np.allclose(sim.fields.get("u"), 0.0)
        assert diagnostics.radial_momentum(sim) == 0.0 and diagnostics.stress_integral(sim) == 0.0

    def test_density_bump_only(self):
        cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=256,
                             x_max=4.0, t_end=0.5, A=0.5, a=0.2)
        sim = solver.init_scenario(cfg)
        assert diagnostics.relative_mass(sim) > 0.0
        assert diagnostics.radial_momentum(sim) == 0.0
        assert diagnostics.stress_integral(sim) == 0.0
        assert np.max(sim.fields.get("rho")) == pytest.approx(1.2, abs=1e-3)

    def test_velocity_bump_gives_positive_momentum(self):
        cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=256,
                             x_max=4.0, t_end=0.5, A=0.5, b=1.0)
        sim = solver.init_scenario(cfg)
        assert diagnostics.radial_momentum(sim) > 0.0

    def test_momentum_quadrature_refines_quadratically(self):
        # Richardson cross-check of the F(0) quadrature on refined grids
        values = {}
        for n in (128, 256, 512):
            cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=n,
                                 x_max=4.0, t_end=0.5, A=0.5, b=1.0)
            values[n] = diagnostics.radial_momentum(solver.init_scenario(cfg))
        err1 = abs(values[256] - values[128])
        err2 = abs(values[512] - values[256])
        assert err2 < 0.3 * err1  # midpoint quadrature: factor ~4 per refinement

    def test_exterior_exactly_at_reference(self):
        cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=256,
                             x_max=4.0, t_end=0.5, A=0.5, a=0.3, b=0.5, c=0.1)
        sim = solver.init_scenario(cfg)
        r = sim.grid.centers_interior
        outside = r >= 1.0
        assert np.array_equal(sim.fields.get("rho")[outside],
                              np.full(outside.sum(), 1.0))
        assert np.array_equal(sim.fields.get("u")[outside], np.zeros(outside.sum()))

    def test_b_from_f0_hits_target_exactly(self):
        target = 10.0
        cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=256,
                             x_max=4.0, t_end=0.5, A=0.5, b_from_f0=target)
        sim = solver.init_scenario(cfg)
        assert diagnostics.radial_momentum(sim) == pytest.approx(target, rel=1e-13)

    def test_set_up_builds_no_workspace(self):
        sim = solver.init_scenario(ScenarioConfig(n_cells=64, x_max=3.0, a=0.1, b=0.1))
        assert "work" not in vars(sim)

    def test_negative_density_profile_rejected(self):
        cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=64,
                             x_max=4.0, t_end=0.5, A=0.5)
        cfg.a = -2.0  # bypass config validation; init must still refuse
        with pytest.raises(ValueError):
            solver.init_scenario(cfg)


@pytest.mark.slow
class TestConservationAndRelaxation:
    def test_planar_mass_and_stress_law(self, unit_law, unit_reference):
        grid = Grid1D("planar", 1024, -3.0, 3.0)
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        x = grid.centers_interior
        sim.fields.set("rho", 1.0 + 1e-3 * bump(x))
        sim.fields.set("Pi", 2e-3 * bump(x))
        out, series = solver.run(sim, 0.5, series_cadence=5)
        assert out.status == "ok"
        dm = np.asarray(series.dM)
        assert np.max(np.abs(dm - dm[0])) <= 1e-8 * (abs(dm[0]) + 1.0)
        t = np.asarray(series.t)
        g = np.asarray(series.G)
        assert np.max(np.abs(g - g[0] * np.exp(-t))) <= 0.01 * abs(g[0])

    def test_spherical_mass_conservation_smooth_run(self):
        cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=512,
                             x_max=3.0, t_end=1.0, A=0.5, a=1e-3, c=2e-3)
        sim = solver.init_scenario(cfg)
        out, series = solver.run(sim, 1.0, series_cadence=10)
        assert out.status == "ok"
        dm = np.asarray(series.dM)
        assert np.max(np.abs(dm - dm[0])) <= 1e-8 * (abs(dm[0]) + 1.0)

    def test_navier_stokes_limit(self):
        law = MaterialLaw(A=0.5, gamma=2.0, zeta=1.0, eta=1.0, tau=1e-3)
        grid = Grid1D("planar", 512, 0.0, 2 * np.pi, bc="periodic")
        sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=1.0))
        x = grid.centers_interior
        sim.fields.set("rho", 1.0 + 0.01 * np.sin(x))
        sim.fields.set("u", 0.01 * np.sin(x))
        out, _ = solver.run(sim, 10 * 1e-3)
        assert out.status == "ok"
        u = sim.fields.get("u")
        pi = sim.fields.get("Pi")
        dudx = np.gradient(u, grid.dx)
        assert np.max(np.abs(pi + 1.0 * dudx)) <= 0.05 * np.max(np.abs(dudx))

    def test_shear_trace_follows_bulk_law(self, unit_law, unit_reference):
        grid = Grid1D("planar", 1024, -3.0, 3.0)
        sim = Simulation(grid, "shear", unit_law, unit_reference)
        x = grid.centers_interior
        w = bump(x)
        for name in ("Pi11", "Pi22", "Pi33"):
            sim.fields.set(name, 1e-3 * w)
        sim.fields.set("Pi12", 5e-4 * w)
        out, series = solver.run(sim, 1.0, series_cadence=10)
        assert out.status == "ok"
        t, g = np.asarray(series.t), np.asarray(series.G)
        assert np.max(np.abs(g - g[0] * np.exp(-t))) <= 0.01 * abs(g[0])


@pytest.mark.slow
class TestAccuracyProperties:
    @staticmethod
    def _smooth_ic(sim, amp):
        x = sim.grid.centers_interior
        length = sim.grid.x_max - sim.grid.x_min
        sim.fields.set("rho", 1.0 + amp * np.sin(2 * np.pi * x / length))
        sim.fields.set("u", amp * np.sin(2 * np.pi * x / length))

    @staticmethod
    def _restrict(fine):
        return fine.reshape(-1, 2).mean(axis=1)

    def test_smooth_self_convergence_second_order(self, unit_law):
        ref = ReferenceState(rho_bar=1.0, R=1.0)
        sols = {}
        for n in (128, 256, 512):
            grid = Grid1D("planar", n, 0.0, 2 * np.pi, bc="periodic")
            sim = Simulation(grid, "bulk", unit_law, ref)
            self._smooth_ic(sim, 0.05)
            out, _ = solver.run(sim, 0.3)
            assert out.status == "ok"
            sols[n] = sim.fields.get("rho")
        e1 = np.mean(np.abs(self._restrict(sols[256]) - sols[128]))
        e2 = np.mean(np.abs(self._restrict(sols[512]) - sols[256]))
        order = np.log2(e1 / e2)
        assert 1.6 <= order <= 2.2

    def test_post_shock_convergence_at_least_first_order(self):
        # nearly inviscid so the wave steepens into a captured discontinuity;
        # measured just after formation, before the (non-conservative)
        # shock-position drift accumulates
        law = MaterialLaw(A=0.5, gamma=2.0, zeta=1e-3, eta=1.0, tau=1e-3)
        ref = ReferenceState(rho_bar=1.0, R=1.0)
        sols, grads = {}, {}
        for n in (128, 256, 512):
            grid = Grid1D("planar", n, 0.0, 2 * np.pi, bc="periodic")
            sim = Simulation(grid, "bulk", law, ref)
            self._smooth_ic(sim, 0.8)
            out, _ = solver.run(sim, 0.9)
            assert out.status == "ok"
            sols[n] = sim.fields.get("rho")
            grads[n] = np.max(np.abs(np.diff(sols[n]))) / grid.dx
        assert grads[512] > 2.0 * grads[128]  # gradient grows with resolution: shock captured
        e1 = np.mean(np.abs(self._restrict(sols[256]) - sols[128]))
        e2 = np.mean(np.abs(self._restrict(sols[512]) - sols[256]))
        assert np.log2(e1 / e2) >= 0.8

    def test_galilean_boost_reproduces_solution(self, unit_law):
        ref = ReferenceState(rho_bar=1.0, R=1.0)
        n, w = 512, 1.0
        dx = 2 * np.pi / n
        shift_cells = 64
        t_end = shift_cells * dx / w

        def make(boost):
            grid = Grid1D("planar", n, 0.0, 2 * np.pi, bc="periodic")
            sim = Simulation(grid, "bulk", unit_law, ref)
            x = grid.centers_interior
            sim.fields.set("rho", 1.0 + 1e-3 * np.sin(x))
            sim.fields.set("u", boost + 1e-3 * np.sin(x))
            out, _ = solver.run(sim, t_end)
            assert out.status == "ok"
            return sim

        rest, boosted = make(0.0), make(w)
        for name in ("rho", "u", "Pi"):
            a = rest.fields.get(name) + (w if name == "u" else 0.0)
            b = np.roll(boosted.fields.get(name), -shift_cells)
            assert np.max(np.abs(a - b)) <= 1e-6

    def test_spherical_matches_planar_at_large_radius(self, unit_law):
        r0, width, amp, t_end = 20.0, 0.5, 1e-3, 0.4
        grid_s = Grid1D("spherical", 4096, 0.0, 24.0)
        sim_s = Simulation(grid_s, "bulk", unit_law,
                           ReferenceState(rho_bar=1.0, R=r0 + 2.0))
        r = grid_s.centers_interior
        sim_s.fields.set("rho", 1.0 + amp * bump((r - r0) / width))
        out_s, _ = solver.run(sim_s, t_end)
        assert out_s.status == "ok"

        grid_p = Grid1D("planar", 4096, 0.0, 24.0)
        sim_p = Simulation(grid_p, "bulk", unit_law,
                           ReferenceState(rho_bar=1.0, R=11.0))
        x = grid_p.centers_interior
        sim_p.fields.set("rho", 1.0 + amp * bump((x - r0) / width))
        out_p, _ = solver.run(sim_p, t_end)
        assert out_p.status == "ok"

        ds = sim_s.fields.get("rho") - 1.0
        dp = sim_p.fields.get("rho") - 1.0
        assert np.max(np.abs(ds - dp)) <= 0.05 * np.max(np.abs(dp))

    def test_ssprk3_runs_and_converges(self, unit_law):
        ref = ReferenceState(rho_bar=1.0, R=1.0)
        grid = Grid1D("planar", 256, 0.0, 2 * np.pi, bc="periodic")
        sim = Simulation(grid, "bulk", unit_law, ref, integrator="ssprk3")
        self._smooth_ic(sim, 0.05)
        out, _ = solver.run(sim, 0.3)
        assert out.status == "ok"


class TestOrderOfAccuracy:
    """Observed orders of the scheme on a smooth bump, against the PDE
    rather than the code's own bits. A three-run Richardson estimate
    p = log2(|u_1 - u_2| / |u_2 - u_3|), in the L1 norm over every field,
    needs no reference solution. In space, each grid is compared with the
    pair averages of the next finer one; minmod clips the slopes at extrema,
    so the L1 order sits near 1.5 (1.52 to 1.53 measured), against about
    0.7 with the slopes zeroed. In time, at a fixed grid, the Strang split
    gives 2 (1.99 to 2.68 measured), a Lie split 1.

    The cases: periodic bulk and shear with constant laws, fixed planar bulk,
    fixed planar shear with power laws for zeta and eta, and spherical bulk
    on [0, 4]. The runs raise front_tol, which no periodic run reads: the
    front check's numerical tail trips it at the default on the fixed and
    spherical ones (ROADMAP item 1)."""

    CASES = {"bulk": dict(system="bulk", bc="periodic"),
             "shear": dict(system="shear", bc="periodic"),
             "bulk-fixed": dict(system="bulk"),
             "shear-fixed-powerlaw": dict(system="shear", zeta="powerlaw:1.0,1.5",
                                          eta="powerlaw:0.5,1.0"),
             "bulk-spherical": dict(system="bulk", geometry="spherical", x_min=0.0)}

    @classmethod
    def _final(cls, case, n_cells, cfl=0.4, tau=1.0):
        cfg = ScenarioConfig(**{"x_min": -4.0, "x_max": 4.0} | cls.CASES[case],
                             n_cells=n_cells, cfl=cfl, tau=repr(tau), a=0.05, b=0.05, c=0.02,
                             tolerances=default_tolerances() | {"front_tol": 1e300})
        sim = solver.init_scenario(cfg)
        out, _ = solver.run(sim, 0.5)
        assert out.status == "ok", out.message
        return sim.fields.interior().copy()

    @staticmethod
    def _order(first_difference, second_difference):
        def l1(d):  # per unit length: the norms of two grids compare
            return np.abs(d).mean(axis=1).sum()
        return np.log2(l1(first_difference) / l1(second_difference))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_space_order(self, case):
        def pair_averages(u):
            return 0.5 * (u[:, 0::2] + u[:, 1::2])
        # spherical bulk reads 1.32 at 128/256/512 cells, too close to the bound
        grids = (256, 512, 1024) if case == "bulk-spherical" else (128, 256, 512)
        coarse, mid, fine = (self._final(case, n) for n in grids)
        assert self._order(coarse - pair_averages(mid), mid - pair_averages(fine)) >= 1.3

    @pytest.mark.parametrize("system", ["bulk", "shear"])
    @pytest.mark.parametrize("tau", [1.0, 0.1])
    def test_time_order(self, system, tau):
        u1, u2, u3 = (self._final(system, 256, cfl, tau) for cfl in (0.4, 0.2, 0.1))
        assert self._order(u1 - u2, u2 - u3) >= 1.7

    @pytest.mark.parametrize("case", ["bulk-fixed", "shear-fixed-powerlaw", "bulk-spherical"])
    def test_time_order_on_fixed_and_spherical_grids(self, case):
        u1, u2, u3 = (self._final(case, 256, cfl) for cfl in (0.4, 0.2, 0.1))
        assert self._order(u1 - u2, u2 - u3) >= 1.7


class TestMonitorsAndOutcomes:
    def test_front_containment_violation_detected(self, unit_law, unit_reference):
        grid = Grid1D("planar", 256, -4.0, 4.0)
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        rho = sim.fields.get("rho").copy()
        rho[-5] += 1e-4  # contamination far outside the support radius
        sim.fields.set("rho", rho)
        out = solver.step(sim)
        assert out.status == "invalid_state"
        assert "finite-propagation" in out.message

    def test_density_floor_trips_invalid_state(self, unit_law, unit_reference):
        grid = Grid1D("planar", 64, -2.0, 2.0, bc="periodic")
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        rho = sim.fields.get("rho").copy()
        rho[10] = 1e-16
        sim.fields.set("rho", rho)
        out = solver.step(sim)
        assert out.status == "invalid_state"
        assert "below floor" in out.message or "invalid" in out.message

    @pytest.mark.parametrize("dt,message", [
        (0.5, r"density -2\.262e\+00 below floor 1\.0e-12 at cell \d+"),
        (5.0, r"field rho non-finite at cell \d+")])
    def test_diverging_update_is_caught_after_the_step(self, dt, message):
        # an explicit dt far beyond the CFL limit: the update runs, and the
        # check after it names the field and the cell
        law = MaterialLaw(A=0.5, gamma=2.0)
        grid = Grid1D("planar", 64, -2.0, 2.0, bc="periodic")
        sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=1.0))
        sim.fields.set("u", 0.5 * bump(grid.centers_interior))
        out = solver.step(sim, dt)
        assert (out.status, out.dt_used, sim.step_count) == ("invalid_state", dt, 1)
        assert re.fullmatch(message, out.message), out.message

    def test_dt_floor_trips_breakdown(self, unit_law, unit_reference):
        grid = Grid1D("planar", 64, -2.0, 2.0, bc="periodic")
        sim = Simulation(grid, "bulk", unit_law, unit_reference,
                         tolerances={"dt_floor": 1.0})
        out = solver.step(sim)
        assert out.status == "breakdown"
        assert "collapsed" in out.message

    def test_unknown_tolerance_rejected(self, unit_law, unit_reference):
        grid = Grid1D("planar", 64, -2.0, 2.0, bc="periodic")
        with pytest.raises(ValueError, match="unknown tolerance 'chek_front'"):
            Simulation(grid, "bulk", unit_law, unit_reference,
                       tolerances={"chek_front": 0.0, "front_tol": 1.0})

    @pytest.mark.parametrize("name, value", [
        ("cfl", -0.4), ("cfl", 0.0), ("cfl", float("nan")), ("cfl", 1.5),
        ("dt_floor", float("nan")), ("dt_floor", -1.0), ("dt_floor", 0.0)])
    def test_bad_cfl_or_tolerance_rejected(self, unit_law, unit_reference, name, value):
        # each would otherwise run: a false breakdown, a field blamed for a
        # non-finite step, an unstable step, or the floor check switched off
        grid = Grid1D("planar", 64, -2.0, 2.0, bc="periodic")
        setting = {"cfl": value} if name == "cfl" else {"tolerances": {name: value}}
        with pytest.raises(ValueError, match=name):
            Simulation(grid, "bulk", unit_law, unit_reference, **setting)

    def test_gradient_threshold_trips_breakdown(self, unit_law, unit_reference):
        grid = Grid1D("planar", 256, 0.0, 2 * np.pi, bc="periodic")
        sim = Simulation(grid, "bulk", unit_law, unit_reference,
                         tolerances={"grad_factor": 1e-6})
        x = grid.centers_interior
        sim.fields.set("u", 0.01 * np.sin(x))
        out = solver.step(sim)
        assert out.status == "breakdown"
        assert "gradient" in out.message

    @pytest.mark.parametrize("advance", [
        lambda sim: solver.step(sim, 1e-3),
        lambda sim: solver.step(sim),
        lambda sim: solver.run(sim, 0.1)[0]], ids=["step-dt", "step", "run"])
    @pytest.mark.parametrize("field, value, named", [
        ("u", np.nan, "field u non-finite at cell 17"),
        ("rho", -0.5, "density -5.000e-01 below floor 1.0e-12 at cell 17")],
        ids=["nan-u", "negative-rho"])
    def test_nonfinite_state_named_before_the_step(self, unit_law, unit_reference, advance,
                                                   field, value, named):
        # the state check comes before the time-step choice, whose signal
        # speed would only read nan
        grid = Grid1D("planar", 64, -2.0, 2.0, bc="periodic")
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        values = sim.fields.get(field).copy()
        values[17] = value
        sim.fields.set(field, values)
        out = advance(sim)
        assert out.status == "invalid_state"
        assert named in out.message
        assert sim.step_count == 0
        assert sim.t == 0.0

    @pytest.mark.parametrize("dt", [None, 1e-3])
    def test_law_turning_negative_is_a_short_outcome(self, dt):
        # zeta = 1.5 - rho is positive at rho_bar = 1 but not on top of the bump
        law = MaterialLaw(A=1.0, gamma=2.0,
                          zeta=lambda rho, pi, pi2: 1.5 - rho)
        grid = Grid1D("planar", 64, -2.0, 2.0, bc="periodic")
        sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=1.0))
        sim.fields.set("rho", 1.0 + 0.8 * bump(grid.centers_interior))
        out = solver.step(sim, dt)
        assert out.status == "invalid_state"
        # without dt the law fails in the time-step choice, before any update
        cause = "no admissible time step: " if dt is None else \
            "state became invalid during the update: "
        assert out.message.startswith(cause)
        assert "zeta" in out.message and "at index" in out.message
        assert len(out.message) < 200

    @staticmethod
    def _negative_zeta_bump():
        law = MaterialLaw(A=1.0, gamma=2.0,
                          zeta=lambda rho, pi, pi2: 1.5 - rho)
        grid = Grid1D("planar", 64, -2.0, 2.0, bc="periodic")
        sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=1.0))
        rho = 1.0 + 0.8 * bump(grid.centers_interior)
        sim.fields.set("rho", rho)
        return sim, int(np.argmax(rho >= 1.5))  # the first interior cell in violation

    @pytest.mark.parametrize("dt", [None, 1e-3, "run"])
    def test_law_violation_names_the_interior_cell(self, dt):
        sim, cell = self._negative_zeta_bump()
        assert cell == 23
        if dt == "run":
            # run chooses the time step itself and words its failure as step does
            out, _ = solver.run(sim, 0.1)
            assert out.message.startswith("no admissible time step: transport coefficient zeta")
        else:
            out = solver.step(sim, dt)
        assert f"at index {cell} " in out.message

    def test_cfl_dt_raises_the_law_violation(self):
        # the MaterialLawError itself, with the coefficient and the interior cell
        sim, cell = self._negative_zeta_bump()
        with pytest.raises(MaterialLawError, match=f"zeta.* at index {cell} "):
            solver.cfl_dt(sim)

    def test_law_violation_in_the_stencil_names_the_interior_cell(self):
        # the right-hand side evaluates the law on the ghost-padded stencil
        sim, cell = self._negative_zeta_bump()
        solver._fill_ghosts(sim)
        with pytest.raises(MaterialLawError, match=f"at index {cell} "):
            solver._hyperbolic_rhs(sim, sim.grid.interior)

    @staticmethod
    def _negative_zeta_bump_in_a_window():
        # the bump of _negative_zeta_bump, narrower, on a fixed grid: a step
        # works on the window around it
        law = MaterialLaw(A=1.0, gamma=2.0,
                          zeta=lambda rho, pi, pi2: 1.5 - rho)
        grid = Grid1D("planar", 128, -4.0, 4.0)
        sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=1.0))
        rho = 1.0 + 0.8 * bump(grid.centers_interior / 0.5)
        sim.fields.set("rho", rho)
        window = solver._window(sim)
        # cells 56-71 differ: 52-75 with the reach, rounded out to blocks of 32
        assert (window.start, window.stop) == (2 + 32, 2 + 96) and window != grid.interior
        return sim, int(np.argmax(rho >= 1.5))

    @pytest.mark.parametrize("dt", [None, 1e-3, "run"])
    def test_law_violation_in_a_window_names_the_interior_cell(self, dt):
        sim, cell = self._negative_zeta_bump_in_a_window()
        out = solver.run(sim, 0.1)[0] if dt == "run" else solver.step(sim, dt)
        assert out.status == "invalid_state"
        assert f"zeta = {1.5 - sim.fields.get('rho')[cell]:.6g} " in out.message
        assert f"at index {cell} " in out.message

    def test_law_violation_in_a_window_stage_names_the_interior_cell(self):
        # zeta turns negative where rho reaches the highest density the second
        # SSP stage of the step reads (its fifth evaluation, after the set-up,
        # cfl_dt, the relaxation and the first stage), which a converging flow
        # makes higher than any before it: the first stage has then updated
        # the window of the fields in place
        limit, seen = [np.inf], []

        def zeta(rho, pi, pi2):
            seen.append(np.copy(rho))
            if len(seen) == 5:
                limit[0] = rho.max()
            return 1.0 - 2.0 * (rho >= limit[0])

        law = MaterialLaw(A=1.0, gamma=2.0, zeta=zeta)
        grid = Grid1D("planar", 128, -4.0, 4.0)
        sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=1.0))
        w = bump(grid.centers_interior / 0.5)
        sim.fields.set("rho", 1.0 + 0.3 * w)
        u = sim.fields.get("u")
        u -= grid.centers_interior * w  # +0.0 outside the bump, as at the reference
        window = solver._window(sim)
        assert (window.start, window.stop) == (2 + 32, 2 + 96) and window != grid.interior
        out = solver.step(sim)
        assert out.message.startswith("state became invalid during the update: "
                                      "transport coefficient zeta")
        assert seen[4].size == window.stop - window.start + 2  # the window and a cell beyond
        assert limit[0] > seen[2].max()  # no earlier evaluation read rho that high
        cell = window.start - 1 - grid.n_ghost + int(np.argmax(seen[4] >= limit[0]))
        assert 56 <= cell < 72 and f"at index {cell} " in out.message

    @pytest.mark.parametrize("system,bc,integrator,failing", [
        ("bulk", "periodic", "ssprk2", 4), ("bulk", "fixed", "ssprk2", 4),
        ("shear", "periodic", "ssprk2", 4), ("bulk", "periodic", "ssprk3", 4),
        ("bulk", "periodic", "ssprk3", 5)],
        ids=["stage-2", "window-stage-2", "shear-stage-2", "rk3-stage-2", "rk3-stage-3"])
    def test_failed_update_leaves_density_and_velocities_as_they_were(self, system, bc,
                                                                      integrator, failing):
        # zeta turns negative at one cell at evaluation `failing` of the step
        # (cfl_dt, the relaxation, then one per SSP stage): a stage after the
        # first, when the fields already hold an updated stage
        calls = []

        def zeta(rho, pi, pi2):
            calls.append(1)
            out = np.ones_like(rho)
            if len(calls) == failing:
                out[rho.size // 2] = -1.0
            return out

        law = MaterialLaw(A=1.0, gamma=2.0, zeta=zeta)
        grid = Grid1D("planar", 64, -2.0, 2.0, bc=bc)
        sim = Simulation(grid, system, law, ReferenceState(rho_bar=1.0, R=1.0),
                         integrator=integrator)
        # on a periodic grid the bump reaches the edges, whose ghosts then move
        w = bump(grid.centers_interior / (2.5 if bc == "periodic" else 1.0))
        sim.fields.set("rho", 1.0 + 0.5 * w)
        rows = [0, *range(sim.layout.velocity.start, sim.layout.velocity.stop)]
        sim.fields.data[rows[1], grid.interior] = 0.2 * w
        before = sim.fields.interior()[rows]
        calls.clear()
        out = solver.step(sim)
        assert out.status == "invalid_state" and len(calls) > failing
        assert out.message.startswith("state became invalid during the update: "
                                      "transport coefficient zeta")
        assert sim.step_count == 0 and sim.t == 0.0
        after = sim.fields.interior()[rows]
        assert np.array_equal(after.view(np.int64), before.view(np.int64))
        kept = sim.fields.data.copy()  # and the ghosts are those of the interior
        solver._fill_ghosts(sim)
        assert np.array_equal(kept.view(np.int64), sim.fields.data.view(np.int64))

    @pytest.mark.parametrize("change", [{}, {"bc": "periodic"}, {"Pi_bar": 0.05},
                                        {"integrator": "ssprk3"},
                                        {"geometry": "spherical", "v_bar": 0.1},
                                        {"v_bar": -0.0}],
                             ids=["stationary", "periodic", "Pi_bar", "ssprk3",
                                  "spherical_v_bar", "negative_zero_v_bar"])
    def test_window_is_the_whole_interior_unless_the_reference_is_stationary(self, change):
        geometry = change.get("geometry", "planar")
        grid = Grid1D(geometry, 128, 0.0 if geometry == "spherical" else -4.0, 4.0,
                      bc=change.get("bc", "fixed"))
        reference = ReferenceState(rho_bar=1.0, R=1.0, Pi_bar=change.get("Pi_bar", 0.0),
                                   v_bar=(change.get("v_bar", 0.0), 0.0, 0.0))
        sim = Simulation(grid, "bulk", MaterialLaw(A=0.5, gamma=2.0), reference,
                         integrator=change.get("integrator", "ssprk2"))
        assert solver._window(sim) == grid.interior  # nothing differs
        rho = sim.fields.get("rho")
        rho += 0.1 * bump(grid.radii / 0.5)
        window = solver._window(sim)
        assert (window == grid.interior) == bool(change)

    def test_run_requires_forward_time(self, unit_law, unit_reference):
        grid = Grid1D("planar", 64, -2.0, 2.0)
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        sim.t = 1.0
        with pytest.raises(ValueError):
            solver.run(sim, 0.5)

    def test_series_timestamps_strictly_increasing(self, unit_law, unit_reference):
        grid = Grid1D("planar", 128, 0.0, 2 * np.pi, bc="periodic")
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        x = grid.centers_interior
        sim.fields.set("rho", 1.0 + 1e-4 * np.sin(x))
        out, series = solver.run(sim, 0.2, series_cadence=3)
        assert out.status == "ok"
        assert np.all(np.diff(series.t) > 0.0)

    @pytest.mark.parametrize("refused", [16, 17], ids=["no-time-step", "failed-update"])
    def test_last_series_row_has_the_dt_that_reached_it(self, monkeypatch, refused):
        # zeta turns negative at evaluation `refused` of the run: 16 is the
        # time-step choice of step 4 (dt_used nan), 17 its opening relaxation
        # (dt_used the dt of the refused update); neither step advances
        calls = []

        def zeta(rho, pi, pi2):
            calls.append(1)
            return -1.0 if len(calls) == refused else 1.0

        law = MaterialLaw(A=1.0, gamma=2.0, zeta=zeta)
        grid = Grid1D("planar", 64, -2.0, 2.0, bc="periodic")
        sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=1.0))
        sim.fields.set("rho", 1.0 + 0.5 * bump(grid.centers_interior))
        outcomes, original = [], solver.step
        monkeypatch.setattr(solver, "step", lambda s: outcomes.append(original(s)) or outcomes[-1])
        calls.clear()
        out, series = solver.run(sim, 1.0, series_cadence=5)
        assert out.status == "invalid_state" and sim.step_count == 3 and len(outcomes) == 4
        reached, refused_dt = outcomes[2].dt_used, outcomes[3].dt_used
        assert np.isnan(refused_dt) if refused == 16 else refused_dt != reached
        assert series.t == [0.0, sim.t]
        assert series.dt == [0.0, reached]

    def test_observer_called_once_per_step(self, unit_law, unit_reference):
        grid = Grid1D("planar", 64, 0.0, 2 * np.pi, bc="periodic")
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        calls = []
        solver.run(sim, 20 * solver.cfl_dt(sim), observer=lambda s: calls.append(s.step_count))
        assert calls == list(range(1, 21))

    def test_run_calls_step_once_per_step(self, monkeypatch, unit_law):
        sim = periodic_wave_sim(unit_law, n=64)
        calls = []
        original = solver.step

        def counted(*args, **kwargs):
            calls.append(args[0].step_count)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "step", counted)
        solver.run(sim, 20 * solver.cfl_dt(sim))
        assert calls == list(range(20))

    def test_observer_sees_read_only_fields(self, unit_law):
        def writer(s):
            if s.step_count == 3:
                s.fields.data[1, 5] = 0.5

        sim = periodic_wave_sim(unit_law, n=64)
        with pytest.raises(ValueError, match="read-only"):
            solver.run(sim, 10 * solver.cfl_dt(sim), observer=writer)
        assert sim.step_count == 3 and sim.fields.data.flags.writeable
        # a caller may edit the fields between steps: the next step must not
        # reuse anything computed before the edit
        sim.fields.set("u", 2e-3 * np.cos(sim.grid.centers_interior))
        fresh = Simulation(sim.grid, "bulk", unit_law, sim.reference)
        fresh.fields.data[:] = sim.fields.data
        dt = solver.cfl_dt(sim)
        assert solver.step(sim, dt) == solver.step(fresh, dt)
        assert np.array_equal(sim.fields.data.view(np.int64), fresh.fields.data.view(np.int64))


class TestCoefficientEvaluations:
    @staticmethod
    def count_calls(monkeypatch, law, system):
        grid = Grid1D("planar", 64, 0.0, 2 * np.pi, bc="periodic")
        sim = Simulation(grid, system, law, ReferenceState(rho_bar=1.0, R=1.0))
        sim.fields.set("rho", 1.0 + 1e-3 * np.sin(grid.centers_interior))
        results = []

        def counted(*args, **kwargs):
            results.append(eval_transport(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(solver, "eval_transport", counted)
        out, _ = solver.run(sim, 0.5)
        assert out.status == "ok" and sim.step_count > 5
        return len(results) / sim.step_count, results

    @pytest.mark.parametrize("system", ["bulk", "shear"])
    def test_constant_law_takes_the_scalar_path(self, monkeypatch, unit_law, system):
        per_step, results = self.count_calls(monkeypatch, unit_law, system)
        assert per_step == 5
        assert all(type(c) is float for r in results for c in r)

    @pytest.mark.parametrize("system", ["bulk", "shear"])
    def test_state_dependent_law_at_most_five_per_step(self, monkeypatch, system):
        law = MaterialLaw(A=0.5, gamma=2.0, zeta=lambda r, p, q: r,
                          eta=1.0, tau=1.0)
        per_step, results = self.count_calls(monkeypatch, law, system)
        assert 0 < per_step <= 5
        assert all(isinstance(r[0], np.ndarray) for r in results)


class TestLawForms:
    """A law of rho alone is evaluated without the stress invariants; a law
    of (rho, pi, pi2) receives them, and both give the same bits when they
    compute the same values."""

    CONFIG = ScenarioConfig(system="shear", zeta="powerlaw:1.0,1.5", eta="powerlaw:0.5,1.0",
                            a=0.2, b=0.3, c=0.05, n_cells=64, x_min=-2.0, x_max=2.0,
                            t_end=0.1, tolerances=default_tolerances() | {"front_tol": 1e300})

    def test_density_law_runs_without_the_invariants(self, monkeypatch):
        sim = solver.init_scenario(self.CONFIG)
        assert sim.law.stress_readers == set()
        same = solver.init_scenario(self.CONFIG)
        same.law = MaterialLaw(A=sim.law.A, gamma=sim.law.gamma,
                               zeta=lambda rho, pi, pi2: 1.0 * rho**1.5,
                               eta=lambda rho, pi, pi2: 0.5 * rho**1.0, tau=1.0)
        out, _ = solver.run(same, self.CONFIG.t_end)

        def refused(stress):
            raise AssertionError("a law of rho alone needs no stress invariants")

        monkeypatch.setattr(solver, "stress_invariants", refused)
        assert solver.run(sim, self.CONFIG.t_end)[0] == out and out.status == "ok"
        assert sim.step_count == same.step_count > 5
        assert np.array_equal(sim.fields.data.view(np.int64), same.fields.data.view(np.int64))

    def test_stress_law_sees_pi2(self):
        seen = []

        def eta(rho, pi, pi2):
            seen.append(pi2)
            return 0.5 * rho

        sim = solver.init_scenario(self.CONFIG)
        sim.law = MaterialLaw(A=sim.law.A, gamma=sim.law.gamma, zeta=1.0, eta=eta, tau=1.0)
        window = solver._window(sim)
        # the 10-row layout's pi2: Pi22's row stands for Pi33, the other components are +0.0
        p11, p22 = sim.fields.data[sim.layout.stress, window]
        zero = np.zeros_like(p11)
        _, pi2 = stress_invariants((p11, zero, zero, p22, zero, p22))
        assert solver.step(sim).status == "ok"
        assert len(seen) == 5 and np.any(pi2 > 0.0)
        assert np.array_equal(seen[0], pi2)  # cfl_dt's evaluation on the window


class TestStepPlans:
    @staticmethod
    def bump_sim(system, geometry, bc, integrator):
        law = MaterialLaw(A=0.5, gamma=1.8, zeta=lambda r, p, q: r,
                          eta=0.7, tau=0.5)
        # wide enough that the first windows of a fixed grid are partial
        grid = Grid1D(geometry, 192, 0.0 if geometry == "spherical" else -6.0, 6.0, bc=bc)
        sim = Simulation(grid, system, law, ReferenceState(rho_bar=1.0, R=1.0),
                         integrator=integrator,
                         tolerances={"front_tol": 1e300, "grad_factor": 1e9})
        w = bump(grid.radii / 0.6)
        sim.fields.set("rho", 1.0 + 0.2 * w)
        sim.fields.data[1, grid.interior] = 0.1 * w * grid.arms + 0.0  # +0.0 outside, not -0.0
        for f in range(sim.layout.stress.start, sim.layout.stress.stop):
            sim.fields.data[f, grid.interior] += 0.02 * f * w
        if system == "shear":
            sim.fields.set("v2", 0.05 * w)
        return sim

    @pytest.mark.parametrize("system,geometry,bc", [
        ("bulk", "planar", "fixed"), ("bulk", "planar", "periodic"),
        ("bulk", "spherical", "fixed"), ("shear", "planar", "fixed"),
        ("shear", "planar", "periodic")])
    @pytest.mark.parametrize("integrator", ["ssprk2", "ssprk3"])
    def test_junk_lanes_are_never_read(self, system, geometry, bc, integrator):
        # NaN in every scratch buffer before each step, and True in the minmod
        # mask, must not change a bit: only `grads` and the plan's face areas
        # and cell volumes carry values from one step to the next
        def poison(sim):
            sim.work.scratch.fill(np.nan)
            sim.work.mask.fill(True)

        sims = [self.bump_sim(system, geometry, bc, integrator) for _ in range(2)]
        poison(sims[1])
        windows = []
        plain, poisoned = (solver.run(sim, 0.15, observer=observer)[0] for sim, observer in
                           zip(sims, (lambda s: windows.append(s._carry.window), poison)))
        assert plain == poisoned and plain.status == "ok"
        assert sims[0].step_count == sims[1].step_count > 10
        assert np.array_equal(sims[0].fields.data.view(np.int64),
                              sims[1].fields.data.view(np.int64))
        stationary = bc == "fixed" and integrator == "ssprk2"
        assert (windows[0] != sims[0].grid.interior) == stationary  # a partial window

    def test_a_run_builds_one_plan_per_window(self, monkeypatch):
        # a step's relaxations and SSP stages all read the fields over its
        # window, so one plan serves them; the window widens with the bump
        # a block at a time
        sim = self.bump_sim("bulk", "planar", "fixed", "ssprk2")
        built, used = [], []
        build, advance = solver._Plan.__init__, solver._advance_hyperbolic
        monkeypatch.setattr(solver._Plan, "__init__",
                            lambda p, ws, cols: built.append(cols) or build(p, ws, cols))
        monkeypatch.setattr(solver, "_advance_hyperbolic",
                            lambda s, dt, cols: used.append(cols) or advance(s, dt, cols))
        out, _ = solver.run(sim, 0.3)
        assert out.status == "ok" and len(used) == sim.step_count > 10
        windows = {(w.start, w.stop) for w in used}
        assert 1 < len(windows) < len(used)
        assert built == [w for i, w in enumerate(used) if i == 0 or w != used[i - 1]]
        assert len(built) == len(windows)
        # the README blast scenario: one plan per block its window's edge crosses
        built.clear()
        used.clear()
        sim = solver.init_scenario(ScenarioConfig(
            system="bulk", geometry="spherical", n_cells=1024, x_max=2.0, t_end=0.05, A=1.0,
            gamma=2.0, b_from_f0=31.92, tolerances=default_tolerances() | {"grad_factor": 20.0}))
        assert solver.run(sim, 0.05)[0].status == "breakdown" and sim.step_count > 300
        first, last = used[0], used[-1]
        growth = (last.stop - last.start) - (first.stop - first.start)
        assert len(built) <= -(-growth // solver.WINDOW_BLOCK) + 1

    def test_a_finished_run_frees_its_workspace_without_the_collector(self, unit_law):
        # a reference cycle through the plans would keep each finished run's
        # buffers until the garbage collector ran: many small runs (the
        # ring-downs) would then hold several at once
        sim = periodic_wave_sim(unit_law, n=64)
        solver.run(sim, 10 * solver.cfl_dt(sim))
        work = weakref.ref(sim.work)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del sim
            assert work() is None
        finally:
            if enabled:
                gc.enable()


class TestGeometry:
    def test_arrays_are_computed_once_and_read_only(self):
        grid = Grid1D("spherical", 32, 0.0, 2.0)
        for name in ("cell_volumes", "face_areas", "quad_weights", "centers_interior"):
            arr = getattr(grid, name)
            assert getattr(grid, name) is arr
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_spherical_volumes_and_weights_sum_to_the_ball(self):
        grid = Grid1D("spherical", 64, 0.0, 2.0)
        assert np.sum(grid.cell_volumes) == pytest.approx(8.0 / 3.0, rel=1e-14)
        assert np.sum(grid.quad_weights) == pytest.approx(4.0 * np.pi * 8.0 / 3.0, rel=1e-14)
        assert grid.face_areas[0] == 0.0 and grid.face_areas[-1] == 4.0

    def test_planar_volumes_are_dx(self):
        grid = Grid1D("planar", 10, -1.0, 1.0)
        assert np.all(grid.cell_volumes == grid.dx) and np.all(grid.face_areas == 1.0)
        assert np.array_equal(grid.quad_weights, grid.cell_volumes)


class TestDeterminism:
    def test_identical_config_bit_identical_series(self):
        def one():
            cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=128,
                                 x_max=3.0, t_end=0.2, A=0.5, a=1e-3, c=1e-3)
            sim = solver.init_scenario(cfg)
            _, series = solver.run(sim, 0.2, series_cadence=1)
            return np.asarray(series.F), np.asarray(series.G)

        f1, g1 = one()
        f2, g2 = one()
        assert np.array_equal(f1, f2)
        assert np.array_equal(g1, g2)
