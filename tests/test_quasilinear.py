import numpy as np
import pytest

from viscoflow.materials import (SYM_INDEX, BulkState, MaterialLaw, MaterialLawError,
                                 ShearState, eval_transport, sound_speed)
from viscoflow.quasilinear import (OFFDIAG_WEIGHT, QuasilinearSystem,
                                   assemble_bulk, assemble_shear,
                                   characteristic_speeds_bulk_closed,
                                   characteristic_speeds_numeric,
                                   characteristic_speeds_shear_closed,
                                   det_bulk_closed_form, det_principal_symbol)


def random_bulk_state(rng, with_pi=True):
    return BulkState(rng.uniform(0.2, 5.0), tuple(rng.uniform(-1, 1, 3)),
                     rng.uniform(-0.5, 0.5) if with_pi else 0.0)


def random_law(rng):
    return MaterialLaw(A=rng.uniform(0.2, 2.0), gamma=rng.uniform(1.1, 2.5),
                       zeta=rng.uniform(0.2, 3.0), eta=rng.uniform(0.2, 3.0),
                       tau=rng.uniform(0.2, 3.0))


def random_direction(rng):
    n = rng.normal(size=3)
    return n / np.linalg.norm(n)


class TestBulkAssembly:
    def test_equilibrium_matrix_entries(self, unit_law):
        st = BulkState(1.0)
        sys5 = assemble_bulk(st, unit_law)
        assert np.allclose(np.diag(sys5.a0), [1.0, 1.0, 1.0, 1.0, 1.0])
        assert np.allclose(sys5.a0, np.diag(np.diag(sys5.a0)))
        assert np.allclose(sys5.a1[0], [0.0, 1.0, 0.0, 0.0, 0.0])
        assert sys5.b[4, 4] == pytest.approx(1.0)
        assert np.count_nonzero(sys5.b) == 1

    def test_a0_diagonal_general(self):
        # rho = 2 with cs = 1 needs A = 1/(gamma rho^(gamma-1)) = 0.25
        law = MaterialLaw(A=0.25, gamma=2.0, zeta=1.0, eta=1.0, tau=1.0)
        st = BulkState(2.0, (0.3, 0.0, 0.0))
        sys5 = assemble_bulk(st, law)
        assert np.allclose(np.diag(sys5.a0), [0.5, 2.0, 2.0, 2.0, 1.0])
        # top-left advective entry of the x-direction matrix is v1 / rho
        assert sys5.a1[0, 0] == pytest.approx(0.15, rel=1e-15)
        assert sys5.a1[1, 1] == pytest.approx(0.3 * 2.0, rel=1e-15)  # v1 rho / cs^2

    def test_matrices_symmetric_for_random_states(self, rng):
        for _ in range(100):
            sys5 = assemble_bulk(random_bulk_state(rng), random_law(rng))
            for m in (sys5.a0, sys5.a1, sys5.a2, sys5.a3, sys5.b):
                assert np.allclose(m, m.T, atol=1e-14)

    def test_a0_positive_definite_for_admissible_states(self, rng):
        for _ in range(100):
            sys5 = assemble_bulk(random_bulk_state(rng), random_law(rng))
            assert np.all(np.linalg.eigvalsh(sys5.a0) > 0.0)

    def test_invalid_state_raises_material_law_error(self, unit_law):
        with pytest.raises(MaterialLawError, match="zeta"):
            assemble_bulk(BulkState(1.0), MaterialLaw(A=1.0, gamma=2.0,
                                                      zeta=lambda r, p, q: r - 10.0))


class TestBulkSpeeds:
    def test_equilibrium_unit_coefficients(self, unit_law):
        st = BulkState(1.0)
        speeds = characteristic_speeds_bulk_closed(st, unit_law, (1, 0, 0))
        assert np.allclose(speeds, [-np.sqrt(2), 0.0, 0.0, 0.0, np.sqrt(2)], atol=1e-14)

    def test_small_viscosity_limit_approaches_sound_speed(self):
        law = MaterialLaw(A=0.5, gamma=2.0, zeta=1e-12, eta=1.0, tau=1.0)
        st = BulkState(1.0)
        speeds = characteristic_speeds_bulk_closed(st, law, (1, 0, 0))
        assert speeds[-1] == pytest.approx(sound_speed(law, 1.0), rel=1e-10)

    def test_galilean_shift(self, unit_law):
        st = BulkState(1.0, (0.3, 0.0, 0.0))
        speeds = characteristic_speeds_bulk_closed(st, unit_law, (1, 0, 0))
        assert np.allclose(speeds, [0.3 - np.sqrt(2), 0.3, 0.3, 0.3, 0.3 + np.sqrt(2)],
                           atol=1e-14)

    def test_numeric_matches_closed_form_at_equilibrium(self, unit_law):
        st = BulkState(1.0)
        rep = characteristic_speeds_numeric(assemble_bulk(st, unit_law), (1, 0, 0))
        assert rep.hyperbolic_verdict == "FOSH"
        assert np.allclose(np.sort(rep.speeds), [-np.sqrt(2), 0, 0, 0, np.sqrt(2)],
                           atol=1e-10)
        assert rep.multiplicities == [1, 3, 1]

    def test_fosh_after_orthogonal_congruence(self, rng):
        # Q^T a Q keeps every matrix symmetric and a0 positive definite, makes
        # a0 non-diagonal, and leaves the spectrum of a0^-1 an unchanged
        for _ in range(5):
            st, law, n = random_bulk_state(rng), random_law(rng), random_direction(rng)
            sys5 = assemble_bulk(st, law)
            q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
            turned = QuasilinearSystem(*(q.T @ m @ q for m in (sys5.a0, sys5.a1, sys5.a2,
                                                               sys5.a3, sys5.b)))
            assert np.count_nonzero(turned.a0 - np.diag(np.diag(turned.a0))) > 0
            rep = characteristic_speeds_numeric(turned, n)
            assert rep.hyperbolic_verdict == "FOSH"
            closed = characteristic_speeds_bulk_closed(st, law, n)
            assert np.allclose(rep.speeds, closed, rtol=1e-9, atol=1e-9)
            assert rep.multiplicities == [1, 3, 1]

    def test_degenerate_when_a0_singular(self, unit_law):
        sys5 = assemble_bulk(BulkState(1.0), unit_law)
        a0 = sys5.a0.copy()
        a0[4, 4] = 0.0  # tau -> 0 removes the stress time derivative
        broken = QuasilinearSystem(a0, sys5.a1, sys5.a2, sys5.a3, sys5.b)
        rep = characteristic_speeds_numeric(broken, (1, 0, 0))
        assert rep.hyperbolic_verdict == "degenerate"
        assert rep.speeds.size == 0

    def test_galilean_shift_of_numeric_spectrum(self, rng, unit_law):
        n = random_direction(rng)
        st = BulkState(1.3, (0.1, -0.4, 0.2), 0.1)
        w = np.array([0.7, -0.3, 0.5])
        boosted = BulkState(1.3, tuple(np.array(st.v) + w), 0.1)
        rep = characteristic_speeds_numeric(assemble_bulk(st, unit_law), n)
        rep_b = characteristic_speeds_numeric(assemble_bulk(boosted, unit_law), n)
        assert np.allclose(rep_b.speeds, rep.speeds + np.dot(w, n), atol=1e-12)


class TestShearAssembly:
    def test_equilibrium_contraction_vanishes(self, unit_law):
        st = ShearState(1.0)
        sys10 = assemble_shear(st, unit_law)
        phi = np.concatenate([[1.0], np.zeros(9)])
        # constant state: only the b-term could contribute, and the stress is zero
        assert np.allclose(sys10.b @ phi, 0.0)

    def test_stress_row_velocity_couplings(self, unit_law):
        # Pi11 row carries 2 eta on d1 v1 plus (zeta - 2 eta/3); Pi22 row only
        # the trace part, all through the documented row scale 1/(2 eta cs^2)
        st = ShearState(1.0)
        zeta, eta, _ = eval_transport(unit_law, *st.invariants)
        cs2 = sound_speed(unit_law, 1.0) ** 2
        srow = 1.0 / (2.0 * eta * cs2)
        sys10 = assemble_shear(st, unit_law)
        row_p11 = 4 + SYM_INDEX.index((0, 0))
        row_p22 = 4 + SYM_INDEX.index((1, 1))
        assert sys10.a1[row_p11, 1] == pytest.approx((2.0 * eta + zeta - 2 * eta / 3) * srow)
        assert sys10.a1[row_p22, 1] == pytest.approx((zeta - 2 * eta / 3) * srow)
        row_p12 = 4 + SYM_INDEX.index((0, 1))
        assert sys10.a1[row_p12, 2] == pytest.approx(eta * OFFDIAG_WEIGHT * srow)

    def test_symmetric_when_zeta_is_two_thirds_eta(self, rng):
        law = MaterialLaw(A=0.5, gamma=2.0, zeta=2.0 / 3.0, eta=1.0, tau=1.0)
        for _ in range(25):
            st = ShearState(rng.uniform(0.3, 3.0), tuple(rng.uniform(-1, 1, 3)))
            sys10 = assemble_shear(st, law)
            for m in (sys10.a0, sys10.a1, sys10.a2, sys10.a3):
                assert np.allclose(m, m.T, atol=1e-13)

    def test_not_symmetric_otherwise(self, unit_law):
        sys10 = assemble_shear(ShearState(1.0), unit_law)  # zeta = eta = 1
        assert not np.allclose(sys10.a1, sys10.a1.T, atol=1e-13)


def direct_shear_residuals(state, law, gt, gx):
    """Independent evaluation of the ten equations of motion at a point.

    gt and gx[k] are the time and spatial derivative 10-vectors in physical
    components (rho, v1..v3, Pi11..Pi33); product terms are expanded from
    the equations as written, with no reference to the assembly code.
    """
    rho, v = state.rho, np.array(state.v)
    Pi = state.tensor()
    cs2 = sound_speed(law, rho) ** 2
    zeta, eta, tau = eval_transport(law, *state.invariants)

    def comp(vec, i, j):
        return vec[4 + SYM_INDEX.index((min(i, j), max(i, j)))]

    res = np.zeros(10)
    divv = sum(gx[k][1 + k] for k in range(3))
    res[0] = gt[0] / rho + divv + sum(v[k] * gx[k][0] for k in range(3)) / rho
    for i in range(3):
        dj_pi = sum(comp(gx[j], i, j) for j in range(3))
        res[1 + i] = (rho / cs2 * gt[1 + i] + gx[i][0]
                      + rho / cs2 * sum(v[k] * gx[k][1 + i] for k in range(3))
                      + dj_pi / cs2)
    for n, (i, j) in enumerate(SYM_INDEX):
        transport = sum(v[k] * comp(gx[k], i, j) + Pi[i, j] * gx[k][1 + k]
                        for k in range(3))
        res[4 + n] = (tau * gt[4 + n] + eta * gx[i][1 + j] + eta * gx[j][1 + i]
                      + (zeta - 2.0 * eta / 3.0) * divv * (1.0 if i == j else 0.0)
                      + tau * transport + Pi[i, j])
    return res


class TestShearResidualOracle:
    def test_contraction_matches_direct_equations(self, rng):
        # random point states and derivative vectors stand in for arbitrary
        # smooth fields evaluated at a point
        weights = np.ones(10)
        for n, (i, j) in enumerate(SYM_INDEX):
            if i != j:
                weights[4 + n] = OFFDIAG_WEIGHT
        for _ in range(300):
            law = random_law(rng)
            st = ShearState(rng.uniform(0.3, 4.0), tuple(rng.uniform(-1, 1, 3)),
                            tuple(rng.uniform(-0.8, 0.8, 6)))
            gt = rng.uniform(-1, 1, 10)
            gx = [rng.uniform(-1, 1, 10) for _ in range(3)]
            sys10 = assemble_shear(st, law)
            phi = weights * np.concatenate([[st.rho], st.v, st.Pi_sym])
            contraction = (sys10.a0 @ (weights * gt) + sys10.a1 @ (weights * gx[0])
                           + sys10.a2 @ (weights * gx[1]) + sys10.a3 @ (weights * gx[2])
                           + sys10.b @ phi)
            cs2 = sound_speed(law, st.rho) ** 2
            _, eta, _ = eval_transport(law, *st.invariants)
            scale = np.ones(10)
            for n, (i, j) in enumerate(SYM_INDEX):
                scale[4 + n] = (OFFDIAG_WEIGHT if i != j else 1.0) / (2.0 * eta * cs2)
            expected = scale * direct_shear_residuals(st, law, gt, gx)
            denom = np.maximum(1.0, np.abs(expected))
            assert np.max(np.abs(contraction - expected) / denom) < 1e-12


class TestShearSpeeds:
    def test_unit_coefficient_speed_set(self, unit_law):
        speeds = characteristic_speeds_shear_closed(ShearState(1.0), unit_law, (1, 0, 0))
        expected = np.sort([-np.sqrt(10 / 3), -1.0, 0.0, 1.0, np.sqrt(10 / 3)])
        assert np.allclose(speeds, expected, atol=1e-14)

    def test_transverse_speed_scaling(self):
        law = MaterialLaw(A=0.5, gamma=2.0, zeta=1.0, eta=1.0, tau=1.0)
        st = ShearState(4.0)
        speeds = characteristic_speeds_shear_closed(st, law, (1, 0, 0))
        assert np.min(np.abs(speeds - 0.5)) < 1e-14  # sqrt(eta / (rho tau)) = 1/2

    def test_small_eta_limit_recovers_bulk(self):
        law_small = MaterialLaw(A=0.5, gamma=2.0, zeta=1.0, eta=1e-13, tau=1.0)
        bulk_like = characteristic_speeds_shear_closed(ShearState(1.0), law_small, (1, 0, 0))
        assert bulk_like[-1] == pytest.approx(np.sqrt(2.0), rel=1e-10)  # bulk c_v
        assert abs(bulk_like[-2]) < 1e-6  # transverse speed collapses

    def test_numeric_spectrum_and_multiplicities(self, unit_law):
        rep = characteristic_speeds_numeric(assemble_shear(ShearState(1.0), unit_law),
                                            (1, 0, 0))
        assert rep.hyperbolic_verdict in ("strongly-hyperbolic", "FOSH")
        assert len(rep.speeds) == 10
        assert rep.multiplicities == [1, 2, 4, 2, 1]
        for target in (-np.sqrt(10 / 3), -1.0, 0.0, 1.0, np.sqrt(10 / 3)):
            assert np.min(np.abs(rep.speeds - target)) < 1e-10


class TestPrincipalSymbolDeterminant:
    def test_root_at_advective_alpha(self, rng, unit_law):
        for _ in range(20):
            st = random_bulk_state(rng)
            xi = rng.uniform(-1, 1, 3)
            xi0 = -float(np.dot(st.v, xi))  # alpha = 0
            sys5 = assemble_bulk(st, unit_law)
            closed = det_bulk_closed_form(st, unit_law, xi0, xi)
            assert closed == pytest.approx(0.0, abs=1e-12)
            assert det_principal_symbol(sys5, xi0, xi) == pytest.approx(0.0, abs=1e-10)

    def test_root_at_signal_alpha(self, unit_law):
        st = BulkState(1.0, (0.2, -0.1, 0.3))
        zeta, _, tau = eval_transport(unit_law, *st.invariants)
        cv = np.sqrt(sound_speed(unit_law, 1.0) ** 2 + zeta / (st.rho * tau))
        xi = np.array([0.3, 0.7, -0.2])
        xi0 = -float(np.dot(st.v, xi)) + cv * float(np.linalg.norm(xi))
        assert det_principal_symbol(assemble_bulk(st, unit_law), xi0, xi) == \
            pytest.approx(0.0, abs=1e-10)

    def test_equilibrium_unit_value(self, unit_law):
        # alpha = 1, c_v^2 = 2: det = 1 * 1/(1*1) * (1 - 2) = -1
        sys5 = assemble_bulk(BulkState(1.0), unit_law)
        assert det_principal_symbol(sys5, 1.0, (1.0, 0.0, 0.0)) == pytest.approx(-1.0, rel=1e-12)
        assert det_bulk_closed_form(BulkState(1.0), unit_law, 1.0, (1, 0, 0)) == \
            pytest.approx(-1.0, rel=1e-15)

    def test_degree_five_in_xi0(self, rng, unit_law):
        # determinant interpolated exactly by a degree-5 polynomial in xi0
        st = random_bulk_state(rng)
        sys5 = assemble_bulk(st, unit_law)
        xi = rng.uniform(-1, 1, 3)
        nodes = np.linspace(-2.0, 2.0, 6)
        vals = [det_principal_symbol(sys5, x0, xi) for x0 in nodes]
        coeffs = np.polyfit(nodes, vals, 5)
        probe = 0.731
        interp = np.polyval(coeffs, probe)
        direct = det_principal_symbol(sys5, probe, xi)
        assert interp == pytest.approx(direct, rel=1e-8, abs=1e-10)


class TestClosedVsNumericRandom:
    def test_bulk_thousand_states(self, rng):
        worst = 0.0
        for _ in range(250):
            st, law = random_bulk_state(rng), random_law(rng)
            n = random_direction(rng)
            rep = characteristic_speeds_numeric(assemble_bulk(st, law), n)
            closed = characteristic_speeds_bulk_closed(st, law, n)
            worst = max(worst, np.max(np.abs(rep.speeds - closed)
                                      / np.maximum(1.0, np.abs(closed))))
        assert worst < 1e-10

    def test_shear_equilibrium_stress_states(self, rng):
        # closed forms hold at vanishing stress, where the transport-product
        # coupling Pi_ij d_k v^k drops out of the principal symbol
        worst = 0.0
        for _ in range(250):
            law = random_law(rng)
            st = ShearState(rng.uniform(0.2, 5.0), tuple(rng.uniform(-1, 1, 3)))
            n = random_direction(rng)
            rep = characteristic_speeds_numeric(assemble_shear(st, law), n)
            closed = characteristic_speeds_shear_closed(st, law, n)
            scale = max(1.0, float(np.max(np.abs(closed))))
            for target in closed:
                worst = max(worst, float(np.min(np.abs(rep.speeds - target))) / scale)
        assert worst < 1e-10
