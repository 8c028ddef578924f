"""Coefficient matrices of the quasilinear systems, principal symbols, and
characteristic speeds (closed form and numeric eigensolver).

Bulk system, unknowns Phi = (rho, v1, v2, v3, Pi): the five coefficient
matrices are symmetric with

    a0 = diag(1/rho, rho/cs^2, rho/cs^2, rho/cs^2, tau/(zeta cs^2))

and a0 positive definite whenever rho, cs, zeta, tau > 0, so the system is
first-order symmetric hyperbolic there.

Shear system, unknowns Phi = (rho, v1, v2, v3, m11, m12, m13, m22, m23, m33):
stress components are stored with the symmetric-tensor weight m_ij =
sqrt(2) Pi_ij for i < j (m_ii = Pi_ii), and the six stress rows are scaled by
1/(2 eta cs^2). With this fixed convention the matrices are symmetric exactly
when zeta = 2 eta / 3 and the stress tensor vanishes; they are merely
invertible-in-a0 otherwise. Rows reproduce the full equations of motion,
including the stress-divergence transport product Pi_ij d_k v^k.

Assembly at a state outside that class raises the ValueError of its cause:
`materials.sound_speed`'s for a density that is not positive and finite,
`MaterialLawError` (with the coefficient) for a law violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .materials import (BulkState, MaterialLaw, ReferenceState, ShearState, SYM_INDEX,
                        eval_transport, sound_speed, sound_speed2, stress_invariants,
                        sym_position)

__all__ = [
    "QuasilinearSystem",
    "CharacteristicReport",
    "bulk_signal_speed",
    "reference_signal_speed",
    "shear_signal_speeds",
    "assemble_bulk",
    "assemble_shear",
    "characteristic_speeds_bulk_closed",
    "characteristic_speeds_shear_closed",
    "characteristic_speeds_numeric",
    "det_principal_symbol",
    "det_bulk_closed_form",
]

OFFDIAG_WEIGHT = np.sqrt(2.0)
EIG_COND_CAP = 1e8  # eigenvector condition limit for strong hyperbolicity


@dataclass(frozen=True)
class QuasilinearSystem:
    """Matrices of a0 d_t Phi + a_k d_k Phi + b Phi = 0 evaluated at one state."""

    a0: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    b: np.ndarray

    def spatial(self, direction) -> np.ndarray:
        n = np.asarray(direction, dtype=float)
        return n[0] * self.a1 + n[1] * self.a2 + n[2] * self.a3


@dataclass
class CharacteristicReport:
    """Eigenstructure of the principal symbol in one propagation direction."""

    speeds: np.ndarray
    multiplicities: list[int]
    tolerance: float  # sorted speeds this close or closer form one cluster
    eigenvector_condition: float
    symmetric: bool
    a0_posdef: bool
    hyperbolic_verdict: str  # "FOSH" | "strongly-hyperbolic" | "degenerate"


def bulk_signal_speed(cs2, zeta, rho, tau):
    """Fast characteristic speed of the bulk system, sqrt(cs^2 + zeta/(rho tau))."""
    return np.sqrt(cs2 + zeta / (rho * tau))


def shear_signal_speeds(cs2, zeta, eta, rho, tau):
    """Fast characteristic speed of the shear system, sqrt(cs^2 + (zeta + 4 eta/3)/(rho tau)),
    the one the solver and the front read. The transverse speed
    sqrt(eta/(rho tau)) is formed by `characteristic_speeds_shear_closed`."""
    return np.sqrt(cs2 + (zeta + 4.0 * eta / 3.0) / (rho * tau))


def reference_signal_speed(law: MaterialLaw, system: str, reference: ReferenceState) -> float:
    """The front speed c_v at the reference state: the bulk signal speed, or
    the fast shear speed, with the law evaluated at the isotropic stress
    Pi_bar delta_ij and cs^2 from `sound_speed2`. It is evaluated as the
    solver evaluates a row, on one-element arrays (numpy's scalar power
    rounds apart from its vectorised one for some gamma), and so has the
    bits of the solver's speed at a cell that holds the reference state. An
    overflow or a division by zero in the array arithmetic raises
    FloatingPointError."""
    rho, pi = np.full(1, reference.rho_bar), np.full(1, reference.Pi_bar)
    stress = (pi,) if system == "bulk" else (pi, 0.0, 0.0, pi, 0.0, pi)
    with np.errstate(over="raise", divide="raise"):
        zeta, eta, tau = eval_transport(law, rho, *stress_invariants(stress))
        cs2 = sound_speed2(law, rho)
        fast = (bulk_signal_speed(cs2, zeta, rho, tau) if system == "bulk"
                else shear_signal_speeds(cs2, zeta, eta, rho, tau))
    return float(fast[0])


def _coefficients(state: BulkState | ShearState, law: MaterialLaw):
    """(cs, zeta, eta, tau) at a state point. A density that is not positive
    and finite raises ValueError, a law violation `MaterialLawError`."""
    cs = sound_speed(law, state.rho)
    return (cs, *eval_transport(law, *state.invariants))


def assemble_bulk(state: BulkState, law: MaterialLaw) -> QuasilinearSystem:
    """5x5 symmetric matrices of the bulk-viscous system at a state point."""
    cs, zeta, _, tau = _coefficients(state, law)
    rho = state.rho
    v = state.v
    cs2 = cs * cs

    a0 = np.diag([1.0 / rho, rho / cs2, rho / cs2, rho / cs2, tau / (zeta * cs2)])

    spatial = []
    for k in range(3):
        a = np.zeros((5, 5))
        a[0, 0] = v[k] / rho
        a[0, 1 + k] = a[1 + k, 0] = 1.0
        for i in range(3):
            a[1 + i, 1 + i] = v[k] * rho / cs2
        a[1 + k, 4] = a[4, 1 + k] = 1.0 / cs2
        a[4, 4] = tau * v[k] / (zeta * cs2)
        spatial.append(a)

    b = np.zeros((5, 5))
    b[4, 4] = 1.0 / (zeta * cs2)
    return QuasilinearSystem(a0, *spatial, b)


def assemble_shear(state: ShearState, law: MaterialLaw) -> QuasilinearSystem:
    """10x10 matrices of the shear+bulk system at a state point.

    Storage convention is fixed: off-diagonal stress unknowns carry the
    sqrt(2) weight and stress rows the 1/(2 eta cs^2) scale (see module
    docstring); characteristic speeds are invariant under both.
    """
    cs, zeta, eta, tau = _coefficients(state, law)
    rho = state.rho
    v = state.v
    cs2 = cs * cs
    srow = 1.0 / (2.0 * eta * cs2)
    Pi = state.tensor()

    a0 = np.diag([1.0 / rho] + [rho / cs2] * 3 + [tau * srow] * 6)

    spatial = []
    for k in range(3):
        a = np.zeros((10, 10))
        # mass row, scaled by 1/rho
        a[0, 0] = v[k] / rho
        a[0, 1 + k] = 1.0
        # velocity rows, scaled by rho/cs^2; stress divergence d_j Pi_ij picks
        # the stored component (i, k) with its storage weight
        for i in range(3):
            a[1 + i, 0] = 1.0 if i == k else 0.0
            a[1 + i, 1 + i] += v[k] * rho / cs2
            col = 4 + sym_position(i, k)
            w = 1.0 if i == k else OFFDIAG_WEIGHT
            a[1 + i, col] += (1.0 / cs2) / w
        # stress rows: sqrt(2)-weighted equation for (i, j), scaled by srow
        for n, (i, j) in enumerate(SYM_INDEX):
            w = 1.0 if i == j else OFFDIAG_WEIGHT
            row = 4 + n
            a[row, row] += tau * v[k] * srow
            for l in range(3):
                coeff = eta * ((1.0 if (i == k and j == l) else 0.0)
                               + (1.0 if (j == k and i == l) else 0.0))
                if i == j and k == l:
                    coeff += zeta - 2.0 * eta / 3.0
                if k == l:
                    coeff += tau * Pi[i, j]
                a[row, 1 + l] += w * srow * coeff
        spatial.append(a)

    b = np.zeros((10, 10))
    for n in range(6):
        b[4 + n, 4 + n] = srow
    return QuasilinearSystem(a0, *spatial, b)


def _unit(direction) -> np.ndarray:
    n = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(n)
    if not np.isfinite(norm) or norm == 0.0:
        raise ValueError("direction must be a nonzero finite 3-vector")
    return n / norm


def characteristic_speeds_bulk_closed(state: BulkState, law: MaterialLaw, direction) -> np.ndarray:
    """Sorted speeds {v.n (x3), v.n +- c_v} with c_v = sqrt(cs^2 + zeta/(rho tau))."""
    cs, zeta, _, tau = _coefficients(state, law)
    n = _unit(direction)
    vn = float(np.dot(state.v, n))
    cv = bulk_signal_speed(cs * cs, zeta, state.rho, tau)
    return np.sort(np.array([vn - cv, vn, vn, vn, vn + cv]))


def characteristic_speeds_shear_closed(state: ShearState, law: MaterialLaw, direction) -> np.ndarray:
    """The closed-form speed set {v.n, v.n +- slow, v.n +- fast}, sorted.

    Returns the five distinct values only; multiplicities (which bring the
    count to the system dimension) come from the numeric eigensolver.
    """
    cs, zeta, eta, tau = _coefficients(state, law)
    n = _unit(direction)
    vn = float(np.dot(state.v, n))
    slow = np.sqrt(eta / (state.rho * tau))
    fast = shear_signal_speeds(cs * cs, zeta, eta, state.rho, tau)
    return np.sort(np.array([vn - fast, vn - slow, vn, vn + slow, vn + fast]))


def _cluster_multiplicities(values: np.ndarray, tol: float) -> list[int]:
    mult = []
    i = 0
    while i < len(values):
        j = i + 1
        while j < len(values) and values[j] - values[j - 1] <= tol:
            j += 1
        mult.append(j - i)
        i = j
    return mult


def characteristic_speeds_numeric(sys: QuasilinearSystem, direction) -> CharacteristicReport:
    """Eigenvalues of a0^{-1} (n_k a_k) with hyperbolicity verdict.

    FOSH requires all matrices symmetric and a0 positive definite; otherwise
    strongly-hyperbolic needs a real spectrum and an eigenvector matrix with
    condition number at most `EIG_COND_CAP`. A singular a0 yields a degenerate
    verdict with no speeds.
    """
    n = _unit(direction)
    a0 = sys.a0
    an = sys.spatial(n)

    symmetric = all(np.allclose(m, m.T, rtol=1e-12, atol=1e-12)
                    for m in (sys.a0, sys.a1, sys.a2, sys.a3))
    a0_sym = np.allclose(a0, a0.T, rtol=1e-12, atol=1e-12)
    try:
        eigs_a0 = np.linalg.eigvalsh(a0) if a0_sym else np.real(np.linalg.eigvals(a0))
    except np.linalg.LinAlgError:
        eigs_a0 = np.array([0.0])
    a0_posdef = bool(np.all(eigs_a0 > 0.0))
    scale = max(float(np.max(np.abs(a0))), 1.0)
    if np.min(np.abs(eigs_a0)) <= 1e-14 * scale:
        return CharacteristicReport(np.array([]), [], 0.0, np.inf, symmetric, False, "degenerate")

    if symmetric and a0_posdef:
        # congruence a0 = L L^T to the symmetric eigenproblem of L^-1 an L^-T
        inv = np.linalg.inv(np.linalg.cholesky(a0))
        speeds = np.linalg.eigvalsh(inv @ an @ inv.T)
        cond = 1.0
        verdict = "FOSH"
    else:
        vals, vecs = np.linalg.eig(np.linalg.solve(a0, an))
        speed_scale = max(float(np.max(np.abs(vals))), 1.0)
        real_spectrum = bool(np.max(np.abs(vals.imag)) <= 1e-9 * speed_scale)
        cond = float(np.linalg.cond(vecs))
        if real_spectrum and cond <= EIG_COND_CAP:
            verdict = "strongly-hyperbolic"
        else:
            verdict = "degenerate"
        speeds = np.sort(vals.real)

    tol = 1e-7 * max(1.0, float(np.max(np.abs(speeds))) if speeds.size else 1.0)
    mult = _cluster_multiplicities(speeds, tol)
    return CharacteristicReport(speeds, mult, tol, cond, symmetric, a0_posdef, verdict)


def det_principal_symbol(sys: QuasilinearSystem, xi0: float, xi_vec) -> float:
    """Determinant of xi0 a0 + xi_k a_k."""
    xi = np.asarray(xi_vec, dtype=float)
    return float(np.linalg.det(xi0 * sys.a0 + sys.spatial(xi)))


def det_bulk_closed_form(state: BulkState, law: MaterialLaw, xi0: float, xi_vec) -> float:
    """Closed form rho^2 alpha^3 tau / (zeta cs^8) (alpha^2 - c_v^2 xi.xi).

    alpha = xi0 + v.xi. The rho^2 prefactor is fixed by the a0 diagonal,
    (1/rho)(rho/cs^2)^3 tau/(zeta cs^2); it does not move the roots.
    """
    cs, zeta, _, tau = _coefficients(state, law)
    xi = np.asarray(xi_vec, dtype=float)
    alpha = xi0 + float(np.dot(state.v, xi))
    cv2 = cs * cs + zeta / (state.rho * tau)
    return (state.rho**2 * alpha**3 * tau / (zeta * cs**8)
            * (alpha**2 - cv2 * float(np.dot(xi, xi))))
