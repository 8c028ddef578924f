"""Correctness checks for the benchmark's workloads.

Nothing here imports viscoflow. Reference values come from the scenario
parameters through the formulas below, or from properties the numerical
method must have (conservation, mirror symmetry, finite propagation). No
check compares against stored output. Each check returns a list of problems;
an empty list means the output is right.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# relative size of a discrepancy that counts as rounding
ROUNDING = 1e-12
# the ring-down fit must match the dispersion root to this relative error
RINGDOWN_TOL = 0.02
# the two blast resolutions must break down within this share of each other
BREAKDOWN_SPREAD = 0.10

# x1 -> -x1 parity of each 10-field column in the snapshot CSV
SHEAR_PARITY = {"rho": 1, "v1": -1, "v2": 1, "v3": 1, "Pi11": 1, "Pi12": -1,
                "Pi13": -1, "Pi22": 1, "Pi23": 1, "Pi33": 1}


def bump(s):
    """exp(1 - 1/(1 - s^2)) on |s| < 1, zero elsewhere."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def sound_speed2(A: float, gamma: float, rho: float) -> float:
    return A * gamma * rho ** (gamma - 1.0)


def bulk_front_speed(A, gamma, rho_bar, zeta, tau) -> float:
    """c_v = sqrt(A gamma rho^(gamma-1) + zeta / (rho tau))."""
    return float(np.sqrt(sound_speed2(A, gamma, rho_bar) + zeta / (rho_bar * tau)))


def shear_fast_speed(A, gamma, rho_bar, zeta, eta, tau) -> float:
    """sqrt(cs^2 + (zeta + 4 eta / 3) / (rho tau)), the fastest shear family."""
    return float(np.sqrt(sound_speed2(A, gamma, rho_bar)
                         + (zeta + 4.0 * eta / 3.0) / (rho_bar * tau)))


def blowup_threshold(c_v: float, R: float, max_rho0: float) -> float:
    """(16 pi / 3) c_v R^4 max rho0."""
    return 16.0 * np.pi / 3.0 * c_v * R**4 * max_rho0


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a viscoflow CSV (one header line, then numbers) by name."""
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(names)}


def bulk_poly(k, rho0, cs2, zeta, tau):
    """tau x^3 + x^2 + tau k^2 (cs^2 + zeta/rho0) x + k^2 cs^2."""
    return [tau, 1.0, tau * k * k * (cs2 + zeta / rho0), k * k * cs2]


def transverse_poly(k, rho0, eta, tau):
    """rho tau x^2 + rho x + eta k^2."""
    return [rho0 * tau, rho0, eta * k * k]


def least_damped_root(poly) -> complex:
    """The oscillatory root with the largest real part, with Im >= 0."""
    roots = np.roots(poly)
    # one Newton step on each root to remove the eigensolver's rounding
    roots = roots - np.polyval(poly, roots) / np.polyval(np.polyder(poly), roots)
    osc = roots[np.abs(roots.imag) > 1e-12]
    if osc.size == 0:
        raise ValueError("no oscillatory root")
    root = osc[int(np.argmax(osc.real))]
    return complex(root.real, abs(root.imag))


# ---------------------------------------------------------------------------


def check_blast(runs: list[dict], p: dict) -> list[str]:
    """runs: one dict per resolution with n_cells, cert_exit, exit and the
    series.csv columns under "series". p: the scenario parameters."""
    problems = []
    c_v = bulk_front_speed(p["A"], p["gamma"], p["rho_bar"], p["zeta"], p["tau"])
    domain_mass = p["rho_bar"] * 4.0 * np.pi / 3.0 * p["x_max"] ** 3
    ends = []
    for run in runs:
        n = run["n_cells"]
        if run["cert_exit"] != 0:
            problems.append(f"n={n}: blowup-cert exited {run['cert_exit']}, expected 0")
        if run["exit"] != 3:
            problems.append(f"n={n}: simulate exited {run['exit']}, expected 3")
        s = run.get("series")
        if s is None:
            problems.append(f"n={n}: no series.csv")
            continue
        dx = p["x_max"] / n
        centres = (np.arange(n) + 0.5) * dx
        max_rho0 = float(np.max(p["rho_bar"] + p["a"] * bump(centres / p["R"])))
        thr = blowup_threshold(c_v, p["R"], max_rho0)
        f = s["F"]
        if not f[0] > thr:
            problems.append(f"n={n}: F(0) = {f[0]!r} does not exceed the threshold {thr!r}")
        scale = ROUNDING * float(np.max(np.abs(f)))
        if np.any(np.diff(f) < -scale):
            i = int(np.argmin(np.diff(f)))
            problems.append(f"n={n}: F decreases at series row {i + 1}")
        drift = float(np.max(np.abs(s["dM"] - s["dM"][0])))
        if drift > ROUNDING * domain_mass:
            problems.append(f"n={n}: relative mass drifts by {drift:.3e}")
        ends.append(float(s["t"][-1]))
    if len(ends) == len(runs) and len(ends) > 1:
        if (max(ends) - min(ends)) > BREAKDOWN_SPREAD * max(ends):
            problems.append(f"breakdown times {ends} differ by more than "
                            f"{BREAKDOWN_SPREAD:.0%}")
    return problems


def check_shear(exit_code: int, snap: dict[str, np.ndarray] | None, p: dict) -> list[str]:
    """The final snapshot of the planar shear bump. p: the scenario parameters,
    with the laws' coefficient and exponent under zeta/eta as (c, e)."""
    if exit_code != 0:
        return [f"simulate exited {exit_code}, expected 0"]
    if snap is None:
        return ["no final snapshot"]
    problems = []
    n, lo, hi = p["n_cells"], p["x_min"], p["x_max"]
    dx = (hi - lo) / n
    centres = lo + (np.arange(n) + 0.5) * dx
    if len(snap["rho"]) != n:
        return [f"snapshot has {len(snap['rho'])} rows, expected {n}"]
    t = p["t_end"]
    if np.any(np.abs(snap["t"] - t) > ROUNDING * t):
        problems.append(f"final snapshot is at t = {snap['t'][0]!r}, expected {t!r}")

    s = (centres - 0.5 * (lo + hi)) / p["R"]
    mass = float(np.sum(snap["rho"]) * dx)
    expected = float(np.sum(p["rho_bar"] + p["a"] * bump(s)) * dx)
    if abs(mass - expected) > ROUNDING * expected:
        problems.append(f"mass {mass!r} differs from the quadrature {expected!r}")

    for name, parity in SHEAR_PARITY.items():
        col = snap[name]
        err = float(np.max(np.abs(col - parity * col[::-1])))
        if err > ROUNDING * max(1.0, float(np.max(np.abs(col)))):
            kind = "even" if parity > 0 else "odd"
            problems.append(f"{name} is not {kind} under x -> -x (error {err:.3e})")

    rho = p["rho_bar"]
    zeta = p["zeta"][0] * rho ** p["zeta"][1]
    eta = p["eta"][0] * rho ** p["eta"][1]
    c_fast = shear_fast_speed(p["A"], p["gamma"], rho, zeta, eta, p["tau"])
    outside = np.abs(s * p["R"]) > p["R"] + c_fast * t
    for name in SHEAR_PARITY:
        # the reference state is rho_bar at rest with zero stress
        ref, scale = (rho, rho) if name == "rho" else \
            (0.0, c_fast if name.startswith("v") else rho * c_fast**2)
        dev = np.abs(snap[name][outside] - ref) / scale
        if dev.size and float(np.max(dev)) > ROUNDING:
            j = int(np.flatnonzero(outside)[int(np.argmax(dev))])
            problems.append(f"{name} leaves the reference state at cell {j}, "
                            f"beyond the front R + c_fast t")
    return problems


def check_ringdown(fitted_decay: float, fitted_frequency: float, poly) -> list[str]:
    root = least_damped_root(poly)
    decay, freq = -root.real, root.imag
    problems = []
    if abs(fitted_decay - decay) > RINGDOWN_TOL * abs(decay):
        problems.append(f"fitted decay {fitted_decay!r} is not within "
                        f"{RINGDOWN_TOL:.0%} of {decay!r}")
    if abs(fitted_frequency - freq) > RINGDOWN_TOL * freq:
        problems.append(f"fitted frequency {fitted_frequency!r} is not within "
                        f"{RINGDOWN_TOL:.0%} of {freq!r}")
    return problems
