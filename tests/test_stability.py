import time

import numpy as np
import pytest

from viscoflow import stability
from viscoflow.materials import BulkState, MaterialLaw, ReferenceState, ShearState
from viscoflow.quasilinear import (assemble_bulk, assemble_shear, bulk_signal_speed,
                                   shear_signal_speeds)
from viscoflow.stability import (Background, FitError, bulk_dispersion,
                                 equilibrium_background, fit_complex_exponential,
                                 hurwitz_deltas, poly_roots, polynomial_verdict,
                                 shear_dispersion, verify_against_simulation)


def unit_background(**kwargs):
    base = dict(rho0=1.0, cs=1.0, zeta=1.0, tau=1.0, eta=1.0)
    base.update(kwargs)
    return Background(**base)


class TestBulkDispersion:
    def test_unit_coefficients(self):
        problem = bulk_dispersion(unit_background(), (1.0, 0.0, 0.0))
        assert np.allclose(problem, [1.0, 1.0, 2.0, 1.0])

    def test_zero_wavenumber(self):
        problem = bulk_dispersion(unit_background(tau=2.0), (0.0, 0.0, 0.0))
        assert np.allclose(problem, [2.0, 1.0, 0.0, 0.0])
        roots = poly_roots(problem)
        assert np.allclose(sorted(np.real(roots)), [-0.5, 0.0, 0.0], atol=1e-12)
        assert np.allclose(np.imag(roots), 0.0, atol=1e-12)

    def test_constant_term_positive(self, rng):
        for _ in range(50):
            bg = unit_background(rho0=rng.uniform(0.1, 5), cs=rng.uniform(0.1, 3),
                                 zeta=rng.uniform(0.1, 3), tau=rng.uniform(0.1, 3))
            k = rng.uniform(0.1, 5, size=3)
            problem = bulk_dispersion(bg, k)
            assert problem[3] == pytest.approx(np.dot(k, k) * bg.cs**2)
            assert problem[3] > 0.0

    def test_coefficient_structure_under_k_scaling(self, rng):
        bg = unit_background(rho0=1.7, cs=0.8, zeta=0.4, tau=1.3)
        k = np.array([0.9, 0.1, -0.4])
        base = bulk_dispersion(bg, k)
        for s in (2.0, 3.5):
            scaled = bulk_dispersion(bg, s * k)
            assert scaled[0] == pytest.approx(base[0])
            assert scaled[1] == pytest.approx(base[1])
            assert scaled[2] == pytest.approx(s**2 * base[2], rel=1e-13)
            assert scaled[3] == pytest.approx(s**2 * base[3], rel=1e-13)

    def test_from_material_law(self):
        law = MaterialLaw(A=0.5, gamma=2.0, zeta=1.0, eta=1.0, tau=1.0)
        bg = equilibrium_background(law, ReferenceState(rho_bar=1.0, R=1.0))
        assert bg.cs == pytest.approx(1.0)
        assert (bg.zeta, bg.eta, bg.tau) == (1.0, 1.0, 1.0)


class TestRouthHurwitz:
    def test_unit_cubic_deltas(self):
        verdict = polynomial_verdict(bulk_dispersion(unit_background(), (1, 0, 0)))
        assert verdict.deltas == pytest.approx((1.0, 1.0, 1.0))
        assert verdict.stable

    def test_stable_deltas_beside_a_right_half_plane_root_raise(self, monkeypatch):
        # the verdict checks its roots: a Hurwitz-stable factor whose roots
        # cross the axis means one of the two is wrong
        poly = bulk_dispersion(unit_background(), (1, 0, 0))
        roots = stability.poly_roots(poly)
        monkeypatch.setattr(stability, "poly_roots", lambda p: roots + 1.0)
        with pytest.raises(ValueError, match=r"root \+0\.7849\d+ -1\.3071\d+i lies in the right"):
            polynomial_verdict(poly)
        # a root within the marginal band is marginal, as before
        monkeypatch.setattr(stability, "poly_roots", lambda p: roots - roots.real.max() + 1e-10)
        verdict = polynomial_verdict(poly)
        assert verdict.marginal and not verdict.stable

    def test_negative_bulk_viscosity_unstable(self):
        problem = bulk_dispersion(unit_background(zeta=-1.0), (1, 0, 0))
        verdict = polynomial_verdict(problem)
        assert verdict.deltas[1] == pytest.approx(-1.0)
        assert not verdict.stable
        assert verdict.max_real_part > 0.0

    def test_stable_for_positive_coefficients_any_k(self, rng):
        for _ in range(200):
            bg = unit_background(rho0=rng.uniform(0.05, 10), cs=rng.uniform(0.05, 5),
                                 zeta=rng.uniform(0.05, 10), tau=rng.uniform(0.05, 10))
            k = rng.uniform(0.05, 10, size=3)
            assert polynomial_verdict(bulk_dispersion(bg, k)).stable

    def test_deltas_vs_root_signs(self, rng):
        flips = [{}, {"zeta": -1.0}, {"tau": -1.0}, {"rho0": -1.0}]
        checked = 0
        while checked < 400:
            bg_kwargs = dict(rho0=rng.uniform(0.1, 5), cs=rng.uniform(0.1, 3),
                             zeta=rng.uniform(0.1, 5), tau=rng.uniform(0.1, 5))
            flip = flips[checked % len(flips)]
            for key, sign in flip.items():
                bg_kwargs[key] = sign * bg_kwargs[key]
            verdict = polynomial_verdict(bulk_dispersion(Background(**bg_kwargs),
                                                         (rng.uniform(0.1, 5), 0, 0)))
            if abs(verdict.max_real_part) <= 1e-9:
                continue  # marginal: outside the comparison band, resample
            assert verdict.stable == (verdict.max_real_part < 0.0)
            checked += 1

    def test_marginal_never_stable(self):
        # pure double root at zero from k = 0
        verdict = polynomial_verdict(bulk_dispersion(unit_background(), (0, 0, 0)))
        assert verdict.marginal
        assert not verdict.stable

    def test_galilean_invariance_of_verdict(self, rng):
        k = (1.3, -0.2, 0.4)
        still = bulk_dispersion(unit_background(), k)
        moving = bulk_dispersion(unit_background(v0=(5.0, -2.0, 1.0)), k)
        assert np.allclose(still, moving)
        v1, v2 = polynomial_verdict(still), polynomial_verdict(moving)
        assert v1.stable == v2.stable
        assert np.allclose(v1.roots, v2.roots)


class TestPolyRoots:
    def test_unit_cubic_roots(self):
        roots = poly_roots([1.0, 1.0, 2.0, 1.0])
        assert roots.size == 3  # the full degree: no coefficient dropped
        # frozen from the companion-matrix oracle
        assert roots[0] == pytest.approx(-0.5698402909980532, rel=1e-12)
        pair = roots[1:]
        assert np.allclose(sorted(pair.imag), [-1.3071412786820455, 1.3071412786820455],
                           rtol=1e-12)
        assert np.allclose(pair.real, -0.2150798545009734, rtol=1e-12)

    def test_factorable_quadratic(self):
        roots = poly_roots([1.0, 0.0, -1.0])
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-14)

    def test_zero_wavenumber_cubic(self):
        roots = poly_roots([2.0, 1.0, 0.0, 0.0])
        assert np.allclose(sorted(roots.real), [-0.5, 0.0, 0.0], atol=1e-14)

    def test_residual_bound(self, rng):
        for _ in range(200):
            poly = rng.uniform(-2, 2, size=4)
            if abs(poly[0]) < 1e-3:
                poly[0] = 1.0
            roots = poly_roots(poly)
            residual = np.max(np.abs(np.polyval(poly, roots)))
            assert residual <= 1e-9 * np.max(np.abs(poly))

    def test_leading_zero_reduces_degree(self):
        roots = poly_roots([0.0, 1.0, 1.0])
        assert roots.size == 1
        assert np.allclose(roots, [-1.0])

    def test_only_exact_zeros_are_dropped(self):
        # tau = 1 beside coefficients 3e300: every root is kept and polished,
        # though p(x) overflows near the large pair -1/6 +- sqrt(3) 1e150 i
        roots = poly_roots([1.0, 1.0, 3e300, 2e300])
        assert roots.size == 3
        assert np.allclose(roots.real, [-2 / 3, -1 / 6, -1 / 6], rtol=1e-12)
        assert np.allclose(roots.imag, [0.0, -(3**0.5) * 1e150, 3**0.5 * 1e150], rtol=1e-12)
        roots = poly_roots([1e-301, 1.0, 1.0])
        assert np.allclose(roots, [-1e301, -1.0], rtol=1e-12)

    def test_each_root_is_polished_at_its_own_scale(self):
        # the bulk cubic of tau = 1e-160: -1/tau beside the pair -tau/2 +- sqrt(2) i
        roots = poly_roots([1e-160, 1.0, 3e-160, 2.0])
        assert np.allclose(roots, [-1e160, -5e-161 - 2**0.5 * 1j, -5e-161 + 2**0.5 * 1j],
                           rtol=1e-12)

    def test_nonfinite_newton_step_raises(self):
        # p'(x) = 2e308 x overflows at the roots +-i
        with pytest.raises(ValueError, match="Newton step"):
            poly_roots([1e308, 0.0, 1e308])

    def test_deterministic_ordering(self):
        roots1 = poly_roots([1.0, 1.0, 2.0, 1.0])
        roots2 = poly_roots([1.0, 1.0, 2.0, 1.0])
        assert np.array_equal(roots1, roots2)
        assert np.all(np.diff(roots1.real) >= 0.0)


class TestShearFactors:
    def test_relaxation_factor_root(self):
        disp = shear_dispersion(unit_background(tau=2.0), (1, 0, 0))
        roots = poly_roots(disp["relaxation"])
        assert np.allclose(roots, [-0.5])

    def test_transverse_quadratic(self):
        disp = shear_dispersion(unit_background(), (1, 0, 0))
        assert np.allclose(disp["transverse"], [1.0, 1.0, 1.0])
        roots = poly_roots(disp["transverse"])
        assert np.allclose(sorted(roots.imag), [-np.sqrt(3) / 2, np.sqrt(3) / 2], rtol=1e-12)
        assert np.allclose(roots.real, -0.5, rtol=1e-12)
        assert polynomial_verdict(disp["transverse"]).stable

    def test_acoustic_cubic_unit_coefficients(self):
        disp = shear_dispersion(unit_background(), (1, 0, 0))
        # zeta + 4 eta/3 + cs^2 rho tau = 10/3
        assert np.allclose(disp["acoustic"], [1.0, 1.0, 10.0 / 3.0, 1.0])
        verdict = polynomial_verdict(disp["acoustic"])
        assert verdict.stable
        assert verdict.max_real_part < 0.0

    def test_full_verdict_stable_iff_positive_coefficients(self, rng):
        for _ in range(100):
            bg = unit_background(rho0=rng.uniform(0.1, 5), cs=rng.uniform(0.1, 3),
                                 zeta=rng.uniform(0.1, 5), eta=rng.uniform(0.1, 5),
                                 tau=rng.uniform(0.1, 5))
            disp = shear_dispersion(bg, (rng.uniform(0.1, 5), 0, 0))
            verdicts = {n: polynomial_verdict(p) for n, p in disp.items()}
            assert all(v.stable for v in verdicts.values())

    def test_negative_eta_unstable(self):
        disp = shear_dispersion(unit_background(eta=-1.0), (1, 0, 0))
        verdicts = {n: polynomial_verdict(p) for n, p in disp.items()}
        assert not verdicts["transverse"].stable

    def test_strongly_negative_zeta_unstable(self):
        # the acoustic factor destabilizes once zeta + 4 eta/3 < 0
        disp = shear_dispersion(unit_background(zeta=-2.0), (1, 0, 0))
        verdicts = {n: polynomial_verdict(p) for n, p in disp.items()}
        assert not verdicts["acoustic"].stable


class TestFactorsAreTheLinearisedSystem:
    """The dispersion factors against the linearised system that
    `quasilinear.assemble_*` builds: a mode exp(i k x + x t) of
    a0 Phi_t + a1 Phi_x + b Phi = 0 has x an eigenvalue of -a0^-1 (i k a1 + b)."""

    @staticmethod
    def eigenvalues(system, k):
        return np.linalg.eigvals(-np.linalg.solve(system.a0, 1j * k * system.a1 + system.b))

    def test_roots_are_the_eigenvalues_of_the_assembled_system(self, rng):
        for _ in range(300):
            rho, A, zeta, eta, tau = np.exp(rng.uniform(np.log(0.03), np.log(30.0), 5))
            gamma, k = rng.uniform(1.1, 3.0), rng.uniform(0.1, 10.0)
            law = MaterialLaw(A=A, gamma=gamma, zeta=zeta, eta=eta, tau=tau)
            bg = equilibrium_background(law, ReferenceState(rho_bar=rho, R=1.0))
            factors = shear_dispersion(bg, (k, 0.0, 0.0))
            cases = [
                (assemble_bulk(BulkState(rho), law),
                 # the transverse velocities v2, v3 are neutral
                 [poly_roots(bulk_dispersion(bg, (k, 0.0, 0.0))), [0.0, 0.0]]),
                (assemble_shear(ShearState(rho), law),
                 [poly_roots(factors["relaxation"]).repeat(3),
                  poly_roots(factors["transverse"]).repeat(2), poly_roots(factors["acoustic"])]),
            ]
            for system, roots in cases:
                eigs = list(self.eigenvalues(system, k))
                scale = max(np.abs(eigs))
                for root in np.concatenate(roots):
                    nearest = int(np.argmin(np.abs(np.array(eigs) - root)))
                    assert abs(eigs.pop(nearest) - root) <= 1e-9 * scale, (rho, A, gamma, zeta,
                                                                          eta, tau, k)

    def test_branches_tend_to_their_characteristic_speeds(self):
        bg = unit_background(rho0=1.3, cs=0.7, zeta=0.9, eta=0.4, tau=2.5)
        k = 1e4
        factors = shear_dispersion(bg, (k, 0.0, 0.0))
        cs2, rho = bg.cs**2, bg.rho0
        expected = {"bulk": bulk_signal_speed(cs2, bg.zeta, rho, bg.tau),
                    "transverse": np.sqrt(bg.eta / (rho * bg.tau)),
                    "acoustic": shear_signal_speeds(cs2, bg.zeta, bg.eta, rho, bg.tau)}
        polys = {"bulk": bulk_dispersion(bg, (k, 0.0, 0.0)), **factors}
        for name, speed in expected.items():
            top = max(poly_roots(polys[name]).imag)
            assert top / k == pytest.approx(speed, rel=1e-6), name


class TestHurwitzDeltas:
    def test_cubic_convention(self):
        assert hurwitz_deltas([1.0, 1.0, 2.0, 1.0]) == pytest.approx((1.0, 1.0, 1.0))

    def test_quadratic_and_linear(self):
        assert hurwitz_deltas([1.0, 1.0, 1.0]) == pytest.approx((1.0, 1.0))
        assert hurwitz_deltas([2.0, 1.0]) == pytest.approx((1.0,))

    def test_verdict_agreement_over_all_factors(self, rng):
        # random positive backgrounds with one coefficient flipped at a time
        names = ["rho0", "cs", "zeta", "eta", "tau"]
        checked = 0
        while checked < 500:
            kwargs = {n: rng.uniform(0.1, 5.0) for n in names}
            flip = names[checked % len(names)]
            if flip != "cs":
                kwargs[flip] = -kwargs[flip]
            bg = Background(**kwargs)
            k = (rng.uniform(0.1, 5.0), 0.0, 0.0)
            disp = shear_dispersion(bg, k)
            polys = [bulk_dispersion(bg, k), disp["transverse"], disp["acoustic"],
                     disp["relaxation"]]
            for poly in polys:
                verdict = polynomial_verdict(poly)
                if abs(verdict.max_real_part) <= 1e-9:
                    continue
                assert verdict.stable == (verdict.max_real_part < 0.0), poly
            checked += 1


class TestRingDownFit:
    def test_recovers_known_exponential(self):
        t = np.linspace(0.0, 10.0, 400)
        x = -0.21 + 1.31j
        fit = fit_complex_exponential(t, 0.37 * np.exp(x * t))
        assert -fit.real == pytest.approx(0.21, rel=1e-10)
        assert abs(fit.imag) == pytest.approx(1.31, rel=1e-10)

    def test_rejects_non_exponential(self):
        t = np.linspace(0.0, 10.0, 400)
        signal = np.exp(-0.2 * t) * (1.0 + 0.8 * np.sin(3.0 * t)) * np.exp(1j * t**2)
        with pytest.raises(FitError):
            fit_complex_exponential(t, signal)

    def test_an_overdamped_mode_is_refused(self):
        # at k = 0.1 the transverse roots are real: the mode has no period
        # to ring down over
        with pytest.raises(ValueError, match=r"no oscillatory root to ring down: the roots "
                                             r"are \[-0\.98989794\d*, -0\.01010205\d*\]"):
            verify_against_simulation(unit_background(), k=0.1, system="shear_transverse",
                                      cells_per_wavelength=32)

    @pytest.mark.parametrize("k,efolds", [(0.500001, "9425"), (0.51, "93.78")])
    def test_a_mode_that_decays_below_rounding_is_refused(self, k, efolds):
        # just past critical damping (k = 1/2) the transverse root nears the
        # real axis, and three periods of the ring-down grow without bound
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"the root \(-0\.\d+\+0\.\d+j\) decays {efolds} "
                                             r"e-folds in three periods, taking amplitude "
                                             r"1e-06 below double-precision rounding"):
            verify_against_simulation(unit_background(), k=k, system="shear_transverse",
                                      cells_per_wavelength=32)
        assert time.perf_counter() - start < 1.0

    def test_a_stopped_ring_down_says_why(self):
        # an amplitude of twice the density seeds a negative density
        with pytest.raises(FitError, match=r"status invalid_state: state invalid before the "
                                           r"step \(density -5\.096e-01 below floor 1\.0e-12 "
                                           r"at cell 1\); refusing to advance"):
            verify_against_simulation(unit_background(), k=1.0, cells_per_wavelength=64,
                                      amplitude_frac=2.0)


@pytest.mark.slow
class TestVerifyAgainstSimulation:
    @pytest.mark.parametrize("tau,cells", [(1.0, 256), (0.5, 128), (2.0, 128)])
    def test_bulk_ring_down_matches_cubic_roots(self, tau, cells):
        rec = verify_against_simulation(unit_background(tau=tau), k=1.0, system="bulk",
                                        cells_per_wavelength=cells)
        assert rec.passed
        assert rec.decay_error <= 0.02 and rec.frequency_error <= 0.02

    def test_shear_transverse_matches_quadratic(self):
        rec = verify_against_simulation(unit_background(), k=1.0,
                                        system="shear_transverse",
                                        cells_per_wavelength=128)
        assert rec.passed

    def test_near_ideal_limit_frequency_approaches_sound(self):
        bg = unit_background(zeta=1e-3, tau=1e-3)
        rec = verify_against_simulation(bg, k=1.0, system="bulk",
                                        cells_per_wavelength=256, tolerance=0.05)
        # inviscid limit: oscillation frequency tends to cs k = 1
        assert rec.fitted_frequency == pytest.approx(1.0, rel=0.02)
