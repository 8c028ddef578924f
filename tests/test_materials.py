import functools

import numpy as np
import pytest

from viscoflow.materials import (_SHEAR_LONGITUDINAL, _SHEAR_TRANSVERSE, LAYOUTS, BulkState,
                                 MaterialLaw, MaterialLawError, ReferenceState, ShearState,
                                 eval_transport, pressure, sound_speed, stress_invariants)

# the public layouts and the two reduced shear layouts the solver's builders step
EVERY_LAYOUT = LAYOUTS | {"shear_longitudinal": _SHEAR_LONGITUDINAL,
                          "shear_transverse": _SHEAR_TRANSVERSE}


class TestPressure:
    def test_unit_normalization(self):
        law = MaterialLaw(A=1.0, gamma=2.0)
        assert pressure(law, 1.0) == 1.0

    def test_power_law(self):
        law = MaterialLaw(A=1.0, gamma=2.0)
        assert pressure(law, 2.0) == pytest.approx(4.0, rel=1e-15)

    def test_fractional_exponent(self):
        law = MaterialLaw(A=0.5, gamma=1.4)
        assert pressure(law, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_rejects_nonpositive_density(self):
        law = MaterialLaw(A=1.0, gamma=2.0)
        with pytest.raises(ValueError):
            pressure(law, 0.0)
        with pytest.raises(ValueError):
            pressure(law, -1.0)


class TestSoundSpeed:
    def test_unit_coefficients(self):
        law = MaterialLaw(A=0.5, gamma=2.0)  # A gamma = 1
        assert sound_speed(law, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_direct_evaluation(self):
        law = MaterialLaw(A=1.0, gamma=2.0)
        assert sound_speed(law, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_nontrivial_exponent(self):
        law = MaterialLaw(A=1.0, gamma=5.0 / 3.0)
        assert sound_speed(law, 8.0) == pytest.approx(np.sqrt(20.0 / 3.0), rel=1e-14)

    def test_rejects_nonpositive_density(self):
        law = MaterialLaw(A=1.0, gamma=2.0)
        with pytest.raises(ValueError):
            sound_speed(law, -0.5)

    def test_cs_squared_is_gamma_p_over_rho(self, rng):
        # algebraic identity of the power-law EOS over random parameters
        for _ in range(200):
            law = MaterialLaw(A=rng.uniform(0.1, 5.0), gamma=rng.uniform(1.05, 3.0))
            rho = rng.uniform(0.01, 20.0)
            cs2 = sound_speed(law, rho) ** 2
            assert cs2 == pytest.approx(law.gamma * pressure(law, rho) / rho, rel=1e-12)


class TestTransportLaws:
    def test_constant_law(self):
        law = MaterialLaw(A=1.0, gamma=2.0, zeta=1.0, eta=1.0, tau=1.0)
        assert eval_transport(law, 3.7, 0.2, 0.5) == (1.0, 1.0, 1.0)

    def test_constant_law_gives_floats_for_arrays(self):
        law = MaterialLaw(A=1.0, gamma=2.0, zeta=2, eta=0.5, tau=3)
        rho = np.linspace(1.0, 2.0, 8)
        out = eval_transport(law, rho, np.zeros(8), np.zeros(8))
        assert out == (2.0, 0.5, 3.0) and all(type(c) is float for c in out)
        # a mixed law: the constant part is a float, the others per-cell arrays
        mixed = MaterialLaw(A=1.0, gamma=2.0, zeta=lambda r, p, q: r, eta=3,
                            tau=lambda r, p, q: 2.0 * r)
        zeta, eta, tau = eval_transport(mixed, rho, np.zeros(8), np.zeros(8))
        assert type(eta) is float and eta == 3.0
        assert np.array_equal(zeta, rho) and np.array_equal(tau, 2.0 * rho)

    def test_density_proportional_law(self):
        law = MaterialLaw(A=1.0, gamma=2.0, zeta=lambda rho, pi, pi2: rho)
        zeta, _, _ = eval_transport(law, 2.0)
        assert zeta == 2.0

    def test_stress_dependent_law_at_equilibrium(self):
        law = MaterialLaw(A=1.0, gamma=2.0,
                          tau=lambda rho, pi, pi2: 1.0 / (1.0 + pi**2))
        _, _, tau = eval_transport(law, 1.0, 0.0, 0.0)
        assert tau == 1.0

    def test_nonpositive_evaluation_names_coefficient(self):
        law = MaterialLaw(A=1.0, gamma=2.0, eta=lambda rho, pi, pi2: rho - 2.0)
        with pytest.raises(MaterialLawError, match="eta"):
            eval_transport(law, 1.0)

    def test_violation_names_first_offending_index(self):
        law = MaterialLaw(A=1.0, gamma=2.0, tau=lambda rho, pi, pi2: 2.0 - rho)
        rho = np.linspace(1.0, 3.0, 64)
        with pytest.raises(MaterialLawError) as err:
            eval_transport(law, rho)
        msg = str(err.value)
        assert "tau" in msg and "at index 32" in msg and "rho=2.01587" in msg
        assert len(msg) < 200

    def test_nonfinite_evaluation_raises(self):
        law = MaterialLaw(A=1.0, gamma=2.0, zeta=lambda rho, pi, pi2: np.inf)
        with pytest.raises(MaterialLawError, match="zeta"):
            eval_transport(law, 1.0)

    def test_never_returns_nonpositive_without_raising(self, rng):
        # adversarial law: positive except in a hidden corner of state space
        law = MaterialLaw(A=1.0, gamma=2.0, zeta=lambda rho, pi, pi2: rho - 1.0)
        for _ in range(100):
            rho = rng.uniform(0.5, 2.0)
            try:
                zeta, _, _ = eval_transport(law, rho)
            except MaterialLawError:
                continue
            assert zeta > 0.0

    def test_constant_coefficient_rejects_nonpositive(self):
        with pytest.raises(MaterialLawError, match="must be positive, got 0.0"):
            MaterialLaw(A=1.0, gamma=2.0, zeta=0.0)

    def test_law_forms_are_told_apart_when_built(self):
        # fn(rho) cannot take three positional arguments; neither can np.exp
        seen = []
        law = MaterialLaw(A=1.0, gamma=2.0, zeta=lambda rho: 2.0 * rho,
                          eta=lambda rho, pi, pi2: seen.append(pi2) or rho, tau=np.exp)
        assert law.stress_readers == {"eta"}
        rho = np.array([1.0, 2.0])
        zeta, eta, tau = eval_transport(law, rho, np.zeros(2), np.array([0.5, 3.0]))
        assert np.array_equal(zeta, 2.0 * rho) and np.array_equal(tau, np.exp(rho))
        assert np.array_equal(seen[0], [0.5, 3.0])
        assert MaterialLaw(A=1.0, gamma=2.0, zeta=lambda rho: rho).stress_readers == set()

    @pytest.mark.parametrize("reads", [False, True])
    def test_every_kind_of_callable_is_read_by_its_signature(self, reads):
        # a plain function is read from its code, any other callable by inspect
        def rho_law(rho, /):
            return rho

        def stress_law(rho, pi=0.0, pi2=0.0):
            return rho

        class Law:
            def __call__(self, rho, *stress):
                return rho

            def method(self, rho):
                return rho

        base = stress_law if reads else rho_law
        laws = [base, functools.wraps(base)(lambda *args: base(*args)),
                functools.partial(base), Law() if reads else Law().method]
        if reads:
            laws.append(lambda *state: 1.0)
        for law in laws:
            assert MaterialLaw(A=1.0, gamma=2.0, zeta=law).stress_readers == (
                {"zeta"} if reads else set()), law

    def test_density_law_violation_names_the_point(self):
        law = MaterialLaw(A=1.0, gamma=2.0, zeta=lambda rho: 2.0 - rho)
        rho = np.linspace(1.0, 3.0, 64)
        with pytest.raises(MaterialLawError, match=r"zeta = -0\.015873 .* at index 32 "
                                                   r"\(rho=2\.01587, pi=0\.25\)"):
            eval_transport(law, rho, np.full(64, 0.25), np.zeros(64))
        for bad in (np.nan, -np.inf, np.inf, 0.0):
            with pytest.raises(MaterialLawError, match="at index 3 "):
                eval_transport(MaterialLaw(A=1.0, gamma=2.0, tau=lambda r: np.where(
                    np.arange(5) == 3, bad, r)), np.ones(5))

    def test_has_constant_transport_flag(self):
        law = MaterialLaw(A=1.0, gamma=2.0)
        assert law.has_constant_transport
        law2 = MaterialLaw(A=1.0, gamma=2.0, tau=lambda rho, pi, pi2: rho)
        assert not law2.has_constant_transport


class TestMaterialLawValidation:
    def test_gamma_must_exceed_one(self):
        with pytest.raises(ValueError):
            MaterialLaw(A=1.0, gamma=1.0)

    def test_amplitude_must_be_positive(self):
        with pytest.raises(ValueError):
            MaterialLaw(A=0.0, gamma=2.0)


class TestStates:
    def test_bulk_state_rejects_nonpositive_density(self):
        with pytest.raises(ValueError):
            BulkState(0.0)
        with pytest.raises(ValueError):
            BulkState(-1.0)

    def test_bulk_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            BulkState(1.0, (np.nan, 0.0, 0.0))

    def test_shear_state_symmetry_round_trip(self, rng):
        sym = tuple(rng.uniform(-1, 1, 6))
        st = ShearState(1.0, (0.0, 0.0, 0.0), sym)
        t = st.tensor()
        assert np.array_equal(t, t.T)
        for i in range(3):
            for j in range(3):
                assert st.component(i, j) == st.component(j, i)

    def test_shear_trace_matches_bulk_scalar(self):
        st = ShearState(1.0, Pi_sym=(1.0, 0.3, -0.2, 2.0, 0.1, 3.0))
        assert st.bulk_scalar == pytest.approx((1.0 + 2.0 + 3.0) / 3.0, rel=1e-15)

    def test_from_tensor_rejects_asymmetric(self):
        bad = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            ShearState.from_tensor(1.0, (0, 0, 0), bad)

    def test_shear_invariants(self):
        st = ShearState(2.0, Pi_sym=(1.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        rho, pi, pi2 = st.invariants
        assert rho == 2.0
        assert pi == pytest.approx(1.0 / 3.0)
        assert pi2 == pytest.approx(1.0 + 2.0 * 1.0)  # Pi11^2 + 2 Pi12^2

    def test_shear_invariants_are_those_of_the_tensor(self, rng):
        for _ in range(50):
            st = ShearState(1.0, Pi_sym=tuple(rng.uniform(-2.0, 2.0, 6)))
            t = st.tensor()
            _, pi, pi2 = st.invariants
            assert pi == pytest.approx(np.trace(t) / 3.0, rel=1e-14, abs=1e-15)
            assert pi2 == pytest.approx(np.sum(t * t), rel=1e-14)

    @pytest.mark.parametrize("system", sorted(EVERY_LAYOUT))
    def test_invariants_of_rows_have_the_bits_of_each_cell(self, rng, system):
        # the solver passes the stress components of its field rows; the
        # point states pass their stored components
        layout = EVERY_LAYOUT[system]
        rows = rng.uniform(-2.0, 2.0, size=(len(layout.names), 40))
        pi, pi2 = stress_invariants(layout.stress_components(rows))
        for c in range(rows.shape[1]):
            assert (pi[c], pi2[c]) == stress_invariants(
                tuple(float(x) for x in layout.stress_components(rows[:, c])))

    @pytest.mark.parametrize("system", ["shear_longitudinal", "shear_transverse"])
    def test_reduced_layouts_give_the_invariants_of_the_ten_rows(self, rng, system):
        # a law fn(rho, pi, pi2) sees the bits of the 10-row layout's
        # invariants: a folded component (Pi33 in Pi22's row) counts in
        # full, an absent one as a row of +0.0
        layout, full = EVERY_LAYOUT[system], LAYOUTS["shear"]
        rows = rng.uniform(-2.0, 2.0, size=(len(layout.names), 40))
        rows[layout.stress, :6] = [[-0.0, 0.0, 1e-200, -1e-200, np.inf, -np.inf]]
        ten = np.zeros((len(full.names), rows.shape[1]))
        for f, r in zip(full.components, layout.components):
            if r is not None:
                ten[f] = rows[r]
        with np.errstate(invalid="ignore", under="ignore"):
            got = stress_invariants(layout.stress_components(rows))
            want = stress_invariants(full.stress_components(ten))
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))

    def test_reference_state_validation(self):
        with pytest.raises(ValueError):
            ReferenceState(rho_bar=-1.0, R=1.0)
        with pytest.raises(ValueError):
            ReferenceState(rho_bar=1.0, R=0.0)
