import numpy as np
import pytest

from viscoflow import diagnostics, solver
from viscoflow.config import ScenarioConfig
from viscoflow.diagnostics import (BlowupCertificate, CertificateError,
                                   DiagnosticSeries, InsufficientDataError,
                                   blowup_threshold, certificate, check_growth,
                                   monitor_c1, radial_momentum, relative_mass,
                                   stress_integral)
from viscoflow.materials import MaterialLaw, ReferenceState
from viscoflow.solver import Grid1D, Simulation, bump


def spherical_sim(n=256, a=0.0, b=0.0, c=0.0, x_max=4.0, A=0.5, **kwargs):
    cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=n, x_max=x_max,
                         t_end=0.5, A=A, a=a, b=b, c=c, **kwargs)
    return solver.init_scenario(cfg)


class TestFunctionals:
    def test_momentum_zero_for_zero_velocity(self):
        sim = spherical_sim(a=0.3, c=0.1)
        assert radial_momentum(sim) == 0.0

    def test_momentum_positive_for_outward_bump(self):
        sim = spherical_sim(b=1.0)
        assert radial_momentum(sim) > 0.0

    def test_momentum_within_richardson_error_bar(self):
        coarse = radial_momentum(spherical_sim(n=256, b=1.0))
        fine = radial_momentum(spherical_sim(n=512, b=1.0))
        finest = radial_momentum(spherical_sim(n=1024, b=1.0))
        # midpoint rule: next refinement shrinks the difference ~4x, so the
        # coarse value lies within ~(4/3)|fine - coarse| of the fine one
        assert abs(fine - coarse) < 1e-4 * abs(finest)
        assert abs(finest - fine) < 0.35 * abs(fine - coarse)

    def test_relative_mass_zero_for_uniform(self):
        sim = spherical_sim()
        assert relative_mass(sim) == 0.0

    def test_relative_mass_matches_bump_integral(self):
        a = 0.2
        sim = spherical_sim(n=1024, a=a)
        # independent oracle: trapezoid quadrature of the closed-form profile
        r = np.linspace(0.0, 1.0, 200001)
        expected = a * 4.0 * np.pi * np.trapezoid(r**2 * bump(r), r)
        assert relative_mass(sim) == pytest.approx(expected, rel=1e-4)

    def test_stress_integral_zero_without_bump(self):
        assert stress_integral(spherical_sim(a=0.1)) == 0.0

    def test_stress_integral_matches_bump_integral(self):
        c = 0.05
        sim = spherical_sim(n=1024, c=c)
        r = np.linspace(0.0, 1.0, 200001)
        expected = c * 4.0 * np.pi * np.trapezoid(r**2 * bump(r), r)
        assert stress_integral(sim) == pytest.approx(expected, rel=1e-4)

    def test_planar_momentum_uses_signed_arm(self, unit_law, unit_reference):
        grid = Grid1D("planar", 256, -2.0, 2.0)
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        x = grid.centers_interior
        sim.fields.set("u", x * bump(x))  # outward on both sides of the center
        assert radial_momentum(sim) > 0.0


class TestThresholdAndCertificate:
    def test_threshold_formula(self):
        # 16 pi/3 * sqrt(2) * 1 * 2 = 32 sqrt(2) pi / 3
        assert blowup_threshold(np.sqrt(2.0), 1.0, 2.0) == \
            pytest.approx(32.0 * np.sqrt(2.0) * np.pi / 3.0, rel=1e-15)
        assert blowup_threshold(np.sqrt(2.0), 1.0, 2.0) == pytest.approx(47.39075, abs=1e-5)

    def test_zero_velocity_data_not_satisfied(self):
        sim = spherical_sim(a=1.0)  # max rho0 = 2, v = 0
        cert = certificate(sim)
        assert cert.F0 == 0.0
        assert cert.dM0 > 0.0
        assert not cert.satisfied
        assert cert.max_rho0 == pytest.approx(2.0, abs=1e-3)

    def test_scaled_velocity_bump_satisfies(self):
        probe = spherical_sim(n=512)
        target = 1.1 * blowup_threshold(probe.cv_bar, 1.0, 1.0)
        sim = spherical_sim(n=512, b_from_f0=target)
        cert = certificate(sim)
        assert cert.satisfied
        assert cert.F0 == pytest.approx(target, rel=1e-12)
        assert cert.threshold == pytest.approx(blowup_threshold(sim.cv_bar, 1.0, 1.0),
                                               rel=1e-12)

    def test_certificate_monotone_in_amplitude(self):
        f_values = [certificate(spherical_sim(b=b)).F0 for b in (1.0, 2.0, 4.0)]
        assert f_values[0] < f_values[1] < f_values[2]
        # a satisfied certificate stays satisfied when the amplitude grows
        thr = blowup_threshold(spherical_sim().cv_bar, 1.0, 1.0)
        for factor in (1.2, 2.4, 4.8):
            assert certificate(spherical_sim(b_from_f0=factor * thr)).satisfied

    def test_refused_for_state_dependent_transport(self):
        cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=128,
                             x_max=4.0, t_end=0.5, A=0.5, zeta="powerlaw:1.0,1.0")
        sim = solver.init_scenario(cfg)
        with pytest.raises(CertificateError, match="constant"):
            certificate(sim)

    def test_refused_for_nonconstant_exterior(self, unit_law, unit_reference):
        grid = Grid1D("spherical", 256, 0.0, 4.0)
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        rho = sim.fields.get("rho").copy()
        rho[-10] += 0.01  # contamination outside radius R
        sim.fields.set("rho", rho)
        with pytest.raises(CertificateError, match="constant outside"):
            certificate(sim)

    def test_refused_for_moving_background(self, unit_law):
        grid = Grid1D("planar", 128, -2.0, 2.0)
        ref = ReferenceState(rho_bar=1.0, R=1.0, v_bar=(0.5, 0.0, 0.0))
        sim = Simulation(grid, "bulk", unit_law, ref)
        with pytest.raises(CertificateError):
            certificate(sim)


class TestGrowthCheck:
    @staticmethod
    def synthetic_series(f_of_t, times):
        series = DiagnosticSeries()
        for t in times:
            series.t.append(float(t))
            series.dt.append(0.0)
            series.F.append(float(f_of_t(t)))
            series.dM.append(0.0)
            series.G.append(0.0)
            series.max_grad_u.append(0.0)
            series.max_grad_rho.append(0.0)
        return series

    @staticmethod
    def cert(c_v=np.sqrt(2.0), R=1.0, max_rho0=1.0, F0=0.0):
        thr = blowup_threshold(c_v, R, max_rho0)
        return BlowupCertificate(R, c_v, max_rho0, thr, F0, 0.0, 0.0, F0 > thr)

    def test_equilibrium_margins_vanish(self):
        series = self.synthetic_series(lambda t: 0.0, np.linspace(0, 1, 50))
        gc = check_growth(series, self.cert())
        assert np.allclose(gc.margins, 0.0)
        assert gc.fraction_ok == 1.0

    def test_saturating_growth_flagged(self):
        # dF/dt -> 0 while F stays huge: the inequality must fail
        cert = self.cert(F0=1000.0)
        series = self.synthetic_series(lambda t: 1000.0 + 0.001 * t,
                                       np.linspace(0, 1, 50))
        gc = check_growth(series, cert)
        assert gc.fraction_ok < 0.5

    def test_exact_growth_ode_solution_has_nonnegative_margin(self):
        # dF/dt = F^2 / (V (R + c t)^5) with V = 4 pi rho0 / 3 integrates to
        # 1/F(t) = 1/F0 - (R^-4 - (R + c t)^-4) / (4 c V); feeding this exact
        # solution through the forward-difference margin must pass everywhere
        cert = self.cert(F0=100.0)
        c, R = cert.c_bar_v, cert.R
        vol = 4.0 * np.pi / 3.0 * cert.max_rho0

        def f_exact(t):
            return 1.0 / (1.0 / cert.F0 - (R**-4 - (R + c * t) ** -4) / (4.0 * c * vol))

        # this solution reaches infinity near t = 0.049; stay inside
        series = self.synthetic_series(f_exact, np.linspace(0.0, 0.04, 400))
        gc = check_growth(series, cert)
        assert gc.fraction_ok == 1.0
        # forward differencing of a convex F overshoots: margins nonnegative
        assert np.all(gc.margins >= 0.0)

    def test_insufficient_data(self):
        series = self.synthetic_series(lambda t: t, np.linspace(0, 1, 5))
        with pytest.raises(InsufficientDataError):
            check_growth(series, self.cert())

    def test_nonmonotonic_timestamps_rejected(self):
        series = self.synthetic_series(lambda t: t, [0.0, 0.1, 0.1, 0.2] + list(
            np.linspace(0.3, 1.0, 8)))
        with pytest.raises(ValueError):
            check_growth(series, self.cert())


class TestMonitor:
    def test_equilibrium_gradient_zero(self):
        sim = spherical_sim()
        grad, crossed = monitor_c1(sim)
        assert grad == 0.0
        assert not crossed

    def test_linear_wave_gradient_decays(self, unit_law, unit_reference):
        grid = Grid1D("planar", 256, 0.0, 2 * np.pi, bc="periodic")
        sim = Simulation(grid, "bulk", unit_law, unit_reference)
        x = grid.centers_interior
        sim.fields.set("rho", 1.0 + 1e-4 * np.sin(x))
        sim.fields.set("u", 1e-4 * np.sin(x))
        g0 = monitor_c1(sim)[0]
        out, _ = solver.run(sim, 3.0)
        assert out.status == "ok"
        g1 = monitor_c1(sim)[0]
        assert g1 < g0  # stable background damps the wave

    def test_a_simulation_built_directly_is_judged_against_its_own_data(self, unit_law):
        # grad_factor * (max|du/dx| + c_v/R) = 2 * (0.01 + 1e-6 c_v) admits the
        # wave's own decaying gradient; a scale of 0 stopped it at its first step
        grid = Grid1D("planar", 256, 0.0, 2 * np.pi, bc="periodic")
        sim = Simulation(grid, "bulk", unit_law, ReferenceState(rho_bar=1.0, R=1e6),
                         tolerances={"grad_factor": 2.0})
        sim.fields.set("u", 0.01 * np.sin(grid.centers_interior))
        out, _ = solver.run(sim, 0.5)
        assert out.status == "ok" and sim.t == pytest.approx(0.5)

    def test_the_scale_is_that_of_the_state_the_first_step_starts_from(self):
        cfg = ScenarioConfig(system="bulk", geometry="spherical", n_cells=128, x_max=3.0,
                             t_end=0.1, A=0.5, a=0.1, b=0.2)
        sim = solver.init_scenario(cfg)
        assert sim.max_grad0 == max(diagnostics.max_gradients(sim))  # before any step
        sim.fields.set("u", 2.0 * sim.fields.get("u"))
        start = max(diagnostics.max_gradients(sim))
        assert sim.max_grad0 == start
        assert solver.step(sim).status == "ok"
        assert max(diagnostics.max_gradients(sim)) != start
        assert sim.max_grad0 == start
        solver.run(sim, 0.1)
        assert sim.max_grad0 == start

    def test_each_attempt_at_the_first_step_takes_its_own_scale(self, unit_law, unit_reference):
        grid = Grid1D("planar", 64, -2.0, 2.0, bc="periodic")
        sim = Simulation(grid, "bulk", unit_law, unit_reference,
                         tolerances={"dt_floor": 1e-3})
        sim.fields.set("u", 0.1 * bump(grid.centers_interior))
        assert solver.step(sim, 1e-4).status == "breakdown"  # refused: below dt_floor
        assert sim.step_count == 0
        sim.fields.set("u", 0.2 * bump(grid.centers_interior))
        start = max(diagnostics.max_gradients(sim))
        assert solver.step(sim).status == "ok"
        assert sim.max_grad0 == start
