"""Linearized dispersion relations about uniform equilibrium, Routh-Hurwitz
determinants, polynomial root solving, and the closed loop back to the
nonlinear solver in its linear regime.

A dispersion relation is its polynomials, each an array of coefficients,
highest degree first: `bulk_dispersion` returns the bulk cubic, and
`shear_dispersion` a dict of the three factors of the 10-field determinant.
`polynomial_verdict` judges any one of them. Polynomials are in the variable
x = -i*Omega where Omega = omega - v0.k is the frequency in the frame moving
with the background; stability means every root has negative real part.
Background velocity only shifts the real part of omega, so verdicts are
frame independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import (_SHEAR_TRANSVERSE, MaterialLaw, ReferenceState, eval_transport,
                        sound_speed, stress_invariants)

__all__ = [
    "Background",
    "StabilityVerdict",
    "FitError",
    "equilibrium_background",
    "bulk_dispersion",
    "shear_dispersion",
    "hurwitz_deltas",
    "poly_roots",
    "polynomial_verdict",
    "verify_against_simulation",
    "fit_complex_exponential",
]

MARGINAL_BAND = 1e-9  # |Re x| below this is classified marginal, never stable


@dataclass(frozen=True)
class Background:
    """Uniform equilibrium state with transport coefficients frozen at it."""

    rho0: float
    cs: float
    zeta: float
    tau: float
    eta: float = 1.0
    v0: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "v0", tuple(float(c) for c in self.v0))


def equilibrium_background(law: MaterialLaw, reference: ReferenceState) -> Background:
    """The reference state as a Background, its coefficients evaluated at
    its isotropic stress Pi_bar delta_ij."""
    zeta, eta, tau = eval_transport(law, reference.rho_bar,
                                    *stress_invariants((reference.Pi_bar,)))
    return Background(rho0=reference.rho_bar, cs=sound_speed(law, reference.rho_bar),
                      zeta=zeta, tau=tau, eta=eta, v0=reference.v_bar)


@dataclass
class StabilityVerdict:
    deltas: tuple[float, ...]
    stable: bool
    roots: np.ndarray
    max_real_part: float
    marginal: bool


def bulk_dispersion(background: Background, k_vec) -> np.ndarray:
    """The bulk cubic tau x^3 + x^2 + (tau cs^2 + zeta/rho0) k^2 x + cs^2 k^2,
    as its coefficients, highest degree first.

    A mode exp(i k x + x t) of the linearised equations has x rho = -i k rho0 u,
    (1 + tau x) Pi = -i k zeta u and rho0 x u + i k (cs^2 rho + Pi) = 0;
    eliminating rho and Pi and multiplying by x (1 + tau x) / rho0 gives the
    cubic. Its complex pair tends to x = +-i c_v k at large k, with
    c_v^2 = cs^2 + zeta/(rho0 tau), the characteristic speed
    (`quasilinear.bulk_signal_speed`)."""
    k_vec = np.asarray(k_vec, dtype=float)
    k2 = float(np.dot(k_vec, k_vec))
    b = background
    return np.array([b.tau, 1.0,
                     (b.tau * b.cs**2 + b.zeta / b.rho0) * k2,
                     k2 * b.cs**2])


def shear_dispersion(background: Background, k_vec) -> dict[str, np.ndarray]:
    """The three factors of the 10x10 linearized determinant, by name, each
    as its coefficients, highest degree first:

    - relaxation: 1 + tau x, whose root -1/tau has multiplicity 3;
    - transverse: rho tau x^2 + rho x + eta k^2, twice (v2 and v3);
    - acoustic: rho tau x^3 + rho x^2 + (zeta + 4 eta/3 + cs^2 rho tau) k^2 x + cs^2 rho k^2,
      the bulk cubic times rho with the longitudinal viscosity zeta + 4 eta/3
      in place of zeta.

    At large k the transverse pair tends to x = +-i k sqrt(eta/(rho tau)) and
    the acoustic pair to x = +-i k sqrt(cs^2 + (zeta + 4 eta/3)/(rho tau)):
    the slow and fast characteristic speeds
    (`quasilinear.characteristic_speeds_shear_closed`).
    """
    k_vec = np.asarray(k_vec, dtype=float)
    k2 = float(np.dot(k_vec, k_vec))
    b = background
    return {"relaxation": np.array([b.tau, 1.0]),
            "transverse": np.array([b.rho0 * b.tau, b.rho0, b.eta * k2]),
            "acoustic": np.array([b.rho0 * b.tau, b.rho0,
                                  (b.zeta + 4.0 * b.eta / 3.0 + b.cs**2 * b.rho0 * b.tau) * k2,
                                  b.cs**2 * b.rho0 * k2])}


def hurwitz_deltas(poly) -> tuple[float, ...]:
    """Hurwitz-style determinants for degree <= 3 polynomials.

    Cubic [a3, a2, a1, a0]: (a0, a1 a2 - a0 a3, a3 (a1 a2 - a0 a3)), the
    convention whose positivity (together with a2 > 0) is equivalent to all
    roots lying in the open left half plane. Quadratic [a2, a1, a0]:
    (a1, a1 a0). Linear [a1, a0]: (a0,).
    """
    p = np.asarray(poly, dtype=float)
    if len(p) == 4:
        d2 = p[2] * p[1] - p[3] * p[0]
        return (p[3], d2, p[0] * d2)
    if len(p) == 3:
        return (p[1], p[1] * p[2])
    if len(p) == 2:
        return (p[1],)
    raise ValueError(f"unsupported polynomial degree {len(p) - 1}")


def _second_coefficient_positive(poly) -> bool:
    # for a cubic, delta positivity alone misses the sign of the x^2
    # coefficient; for lower degrees the leading coefficient plays that role
    p = np.asarray(poly, dtype=float)
    return bool(p[1] > 0.0) if len(p) == 4 else bool(p[0] > 0.0)


def poly_roots(poly):
    """All roots via the companion matrix, one Newton step each, sorted by
    (real, imag). Leading coefficients that are exactly zero are dropped
    first, so the root count is the degree that remains.

    The step at a root x is taken in y = x / 2^e, with 1 <= 2^e <= max(|x|, 1):
    an exact rescaling, so it has the bits of the step in x wherever that one
    is finite, and it stays finite near a root too large for p(x) to be a
    float. A step that is still not finite raises ValueError.
    """
    p = np.trim_zeros(np.asarray(poly, dtype=float), "f")
    if p.size == 0:
        raise ValueError("polynomial has no nonzero coefficients")
    if p.size == 1:
        return np.array([], dtype=complex)
    roots = np.roots(p)
    e = np.maximum(np.frexp(np.abs(roots))[1] - 1, 0)
    with np.errstate(all="ignore"):
        q = np.ldexp(p, -np.outer(e, np.arange(p.size)))  # row of x: p(2^e y) / 2^(e n)
        y = roots / np.ldexp(1.0, e)
        val = der = np.zeros_like(y)
        for c in q.T:  # Horner, as np.polyval and np.polyder do it
            val = val * y + c
        for c in (q[:, :-1] * np.arange(p.size - 1, 0, -1)).T:
            der = der * y + c
        step = np.where(der != 0, val / der, 0.0)
    if not np.all(np.isfinite(step)):
        raise ValueError("the Newton step of a root is not finite")
    roots = roots - step * np.ldexp(1.0, e)
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def polynomial_verdict(poly) -> StabilityVerdict:
    """Stability of one factor, judged by its Hurwitz deltas and the sign of
    its second coefficient; a factor whose largest real part of a root lies
    within MARGINAL_BAND of zero is marginal, never stable. The roots check a
    stable verdict: beside a polished root with Re x > MARGINAL_BAND it
    raises ValueError naming that root, since the verdict or the roots must
    then be wrong."""
    roots = poly_roots(poly)
    max_re = float(np.max(roots.real)) if roots.size else -np.inf
    deltas = hurwitz_deltas(poly)
    stable = all(d > 0.0 for d in deltas) and _second_coefficient_positive(poly)
    marginal = bool(abs(max_re) <= MARGINAL_BAND)
    if stable and max_re > MARGINAL_BAND:
        x = roots[np.argmax(roots.real)]
        raise ValueError(f"the Hurwitz verdict is stable, but the root {x.real:+.12g} "
                         f"{x.imag:+.12g}i lies in the right half plane")
    if marginal:
        stable = False
    return StabilityVerdict(deltas, stable, roots, max_re, marginal)


# ---------------------------------------------------------------------------
# closed loop against the nonlinear solver in its linear regime


class FitError(RuntimeError):
    """The recorded signal is not a clean exponential; the message gives the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (fit residual {residual:.3e})")


def fit_complex_exponential(times: np.ndarray, signal: np.ndarray) -> complex:
    """Least-squares fit of signal ~ C exp(x t); returns the complex exponent x.

    Fits log(signal) linearly in t with phase unwrapping; raises FitError if
    the signal has zeros or the relative log-linear residual exceeds 0.05.
    """
    mags = np.abs(signal)
    if np.any(mags <= 0.0) or not np.all(np.isfinite(mags)):
        raise FitError("signal vanished or became non-finite", np.inf)
    logmag = np.log(mags)
    phase = np.unwrap(np.angle(signal))
    a = np.vstack([times, np.ones_like(times)]).T
    (slope_re, _), res_re, *_ = np.linalg.lstsq(a, logmag, rcond=None)
    (slope_im, _), res_im, *_ = np.linalg.lstsq(a, phase, rcond=None)
    n = len(times)
    spread_mag = max(float(logmag.max() - logmag.min()), 1e-30)
    spread_ph = max(float(phase.max() - phase.min()), 1e-30)
    rms_mag = float(np.sqrt(np.sum(res_re) / n)) / spread_mag if np.size(res_re) else 0.0
    rms_ph = float(np.sqrt(np.sum(res_im) / n)) / spread_ph if np.size(res_im) else 0.0
    rms = max(rms_mag, rms_ph)
    if rms > 0.05:
        raise FitError("signal is not a single exponential", rms)
    return complex(slope_re, slope_im)


@dataclass
class SimulationComparison:
    fitted_decay: float
    fitted_frequency: float
    decay_error: float        # relative
    frequency_error: float    # relative
    passed: bool


def _least_damped_oscillatory(poly, amplitude_frac: float) -> complex:
    """The oscillatory root x of greatest real part, with its imaginary part
    made positive. A mode whose roots are all real (overdamped) has no
    period to ring down over: ValueError, naming the roots. A mode that
    decays 6 pi |Re x| / Im x e-folds over the ring-down's three periods,
    enough to take `amplitude_frac` below double-precision rounding, leaves
    nothing to fit, and just past critical damping, where Im x -> 0, its
    run would not end: ValueError, naming the root."""
    roots = poly_roots(poly)
    osc = roots[np.abs(roots.imag) > 1e-12]
    if not osc.size:
        raise ValueError(f"no oscillatory root to ring down: the roots are {roots.real.tolist()}")
    root = osc[int(np.argmax(osc.real))]
    root = complex(root.real, abs(root.imag))
    efolds = 6.0 * np.pi * abs(root.real) / root.imag
    if abs(amplitude_frac) * np.exp(-efolds) < np.finfo(float).eps:
        raise ValueError(f"the root {root} decays {efolds:.4g} e-folds in three periods, taking "
                         f"amplitude {amplitude_frac!r} below double-precision rounding")
    return root


def _law_for_background(background: Background) -> MaterialLaw:
    # gamma = 2 makes A = cs^2 / (2 rho0) reproduce the requested sound speed
    b = background
    return MaterialLaw(A=b.cs**2 / (2.0 * b.rho0), gamma=2.0,
                       zeta=b.zeta, eta=b.eta, tau=b.tau)


def verify_against_simulation(background: Background, k: float,
                              system: str = "bulk",
                              cells_per_wavelength: int = 256,
                              amplitude_frac: float = 1e-6,
                              tolerance: float = 0.02) -> SimulationComparison:
    """Run a periodic plane-wave ring-down and compare with the dispersion root.

    Seeds the linear eigenmode of the least-damped oscillatory root at
    wavenumber k with relative amplitude `amplitude_frac`, records the k-th
    spatial Fourier coefficient of the perturbed field at every step, fits a
    complex exponential over two periods after discarding the first, and
    checks decay rate and frequency against the prediction within `tolerance`.
    `system` names the mode: "bulk", or "shear_transverse", whose run moves
    only v2 and Pi12 and so steps the 5 rows of the reduced transverse
    layout (`materials.FieldLayout`), with the bits of the 10-row shear
    layout. A mode with no oscillatory root (overdamped: the transverse
    mode at small k) raises ValueError naming its roots, and so does one
    whose three periods would take `amplitude_frac` below double-precision
    rounding (the transverse mode just past critical damping), naming its
    root, before the run is built. A run that stops
    early raises FitError with the outcome's status and message.
    """
    from . import solver  # local import: solver sits above this module

    b = background
    law = _law_for_background(b)
    length = 2.0 * np.pi / k
    grid = solver.Grid1D(geometry="planar", n_cells=cells_per_wavelength,
                         x_min=0.0, x_max=length, bc="periodic")
    reference = ReferenceState(rho_bar=b.rho0, R=length / 4.0)
    x_cells = grid.centers_interior
    eps = amplitude_frac * b.rho0
    wave = np.exp(1j * k * x_cells)
    # each mode: the root its seeded eigenmode evolves by, as exp(x t), its
    # run, the rows it seeds, and the probed field's row with its uniform part
    # (a view, cut once: a run writes the fields in place)
    if system == "bulk":
        x_fit = _least_damped_oscillatory(bulk_dispersion(b, (k, 0.0, 0.0)), amplitude_frac)
        sim = solver.Simulation(grid, "bulk", law=law, reference=reference)
        sim.fields.set("rho", b.rho0 + np.real(-1j * b.rho0 * k * eps / x_fit * wave))
        sim.fields.set("u", np.real(eps * wave))
        sim.fields.set("Pi", np.real(-1j * b.zeta * k * eps / (1.0 + b.tau * x_fit) * wave))
        probe, base = sim.fields.get("rho"), b.rho0
    elif system == "shear_transverse":
        x_fit = _least_damped_oscillatory(shear_dispersion(b, (k, 0.0, 0.0))["transverse"],
                                          amplitude_frac)
        sim = solver._reduced(_SHEAR_TRANSVERSE, grid, law, reference)
        sim.fields.set("v2", np.real(eps * wave))
        sim.fields.set("Pi12", np.real(-1j * b.eta * k * eps / (1.0 + b.tau * x_fit) * wave))
        probe, base = sim.fields.get("v2"), 0.0
    else:
        raise ValueError(f"unknown system {system!r}")

    period = 2.0 * np.pi / x_fit.imag
    t_settle = period
    t_end = 3.0 * period
    times, coeffs = [], []
    kernel = np.exp(-1j * k * x_cells)

    def observer(s):
        c = ((probe - base) * kernel).sum() * grid.dx
        times.append(s.t)
        coeffs.append(c)

    outcome, _ = solver.run(sim, t_end, observer=observer)
    if outcome.status != "ok":
        raise FitError(f"solver stopped with status {outcome.status}: {outcome.message}", np.inf)

    times_arr = np.asarray(times)
    coeffs_arr = np.asarray(coeffs)
    window = times_arr >= t_settle
    fit = fit_complex_exponential(times_arr[window], coeffs_arr[window])
    decay, frequency = -fit.real, abs(fit.imag)

    decay_pred = -x_fit.real
    freq_pred = x_fit.imag
    decay_err = abs(decay - decay_pred) / max(abs(decay_pred), 1e-30)
    freq_err = abs(frequency - freq_pred) / freq_pred
    return SimulationComparison(
        fitted_decay=decay, fitted_frequency=frequency,
        decay_error=decay_err, frequency_error=freq_err,
        passed=bool(decay_err <= tolerance and freq_err <= tolerance))
