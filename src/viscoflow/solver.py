"""Finite-volume method-of-lines evolution of the 3-field (bulk) and 10-field
(shear) systems in planar and spherically symmetric one-dimensional geometry.

Scheme: MUSCL reconstruction with a minmod limiter and local Lax-Friedrichs
(Rusanov) dissipation built from the fastest local characteristic speed.
The mass equation and the stress transport are updated in conservative form
(volume-weighted in spherical geometry, which makes the discrete total mass
and stress integral conservation exact up to boundary flux); the velocity
equations are updated in primitive quasilinear form, since the system is not
a conservation law in the velocity and stress variables. The relaxation
source is integrated by Strang splitting with an exact exponential update
toward the local Navier-Stokes value, stable for arbitrarily small
relaxation time. Time integration is SSP-RK2 (SSP-RK3 optional).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .config import ScenarioConfig, default_tolerances, material_law, reference_state
from .materials import LAYOUTS, MaterialLaw, ReferenceState, eval_transport
from .quasilinear import bulk_signal_speed, reference_signal_speed, shear_signal_speeds

__all__ = [
    "SolverError",
    "InvalidStateError",
    "Grid1D",
    "FluidFields",
    "InitialReport",
    "StepOutcome",
    "Simulation",
    "bump",
    "init_scenario",
    "cfl_dt",
    "step",
    "run",
]


class SolverError(RuntimeError):
    pass


class InvalidStateError(SolverError):
    pass


def bump(s):
    """The compactly supported C-infinity profile exp(1 - 1/(1 - s^2)) on |s| < 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - si * si))
    return out


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid with two ghost cells on each side.

    Spherical geometry requires x_min = 0; the inner boundary is reflective
    and the outer boundary is held at the reference state. Planar grids are
    either periodic or held at the reference state on both sides.
    """

    geometry: str
    n_cells: int
    x_min: float
    x_max: float
    bc: str = "fixed"
    n_ghost: int = 2

    def __post_init__(self):
        if self.geometry not in ("planar", "spherical"):
            raise ValueError(f"geometry must be planar or spherical, got {self.geometry!r}")
        if self.bc not in ("fixed", "periodic"):
            raise ValueError(f"bc must be fixed or periodic, got {self.bc!r}")
        if self.geometry == "spherical":
            if self.x_min != 0.0:
                raise ValueError("spherical geometry requires x_min = 0")
            if self.bc == "periodic":
                raise ValueError("spherical geometry cannot be periodic")
        if self.n_cells < 4:
            raise ValueError("need at least 4 cells")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def n_padded(self) -> int:
        return self.n_cells + 2 * self.n_ghost

    @property
    def faces_padded(self) -> np.ndarray:
        """Positions of all faces of the padded array (n_padded + 1)."""
        return self.x_min + (np.arange(self.n_padded + 1) - self.n_ghost) * self.dx

    @property
    def centers_padded(self) -> np.ndarray:
        f = self.faces_padded
        return 0.5 * (f[:-1] + f[1:])

    @property
    def centers_interior(self) -> np.ndarray:
        return self.centers_padded[self.n_ghost:self.n_ghost + self.n_cells]

    @property
    def faces_interior(self) -> np.ndarray:
        return self.faces_padded[self.n_ghost:self.n_ghost + self.n_cells + 1]

    @property
    def center(self) -> float:
        return 0.5 * (self.x_min + self.x_max)


class FluidFields:
    """Named field arrays over the padded grid."""

    def __init__(self, names: tuple[str, ...], grid: Grid1D):
        self.names = names
        self.data = np.zeros((len(names), grid.n_padded))
        self._index = {n: i for i, n in enumerate(names)}
        self._inner = slice(grid.n_ghost, grid.n_ghost + grid.n_cells)

    def get(self, name: str) -> np.ndarray:
        return self.data[self._index[name], self._inner]

    def set(self, name: str, values) -> None:
        self.data[self._index[name], self._inner] = values

    def interior(self) -> np.ndarray:
        return self.data[:, self._inner]


@dataclass
class InitialReport:
    max_rho0: float
    dm0: float
    f0: float
    g0: float
    max_grad0: float


@dataclass
class StepOutcome:
    status: str                  # "ok" | "breakdown" | "invalid_state"
    dt_used: float
    max_wave_speed: float
    max_gradient: float
    message: str = ""


class Simulation:
    """Mutable evolution state: one writer, no shared mutation.

    `tolerances` overrides entries of `config.default_tolerances()`; the
    monitors read the merged dict.
    """

    def __init__(self, grid: Grid1D, system: str, law: MaterialLaw,
                 reference: ReferenceState, cfl: float = 0.4,
                 integrator: str = "ssprk2",
                 tolerances: dict[str, float] | None = None):
        if system not in ("bulk", "shear"):
            raise ValueError(f"system must be bulk or shear, got {system!r}")
        if system == "shear" and grid.geometry == "spherical":
            raise ValueError("unsupported combination: shear system with spherical geometry")
        if integrator not in ("ssprk2", "ssprk3"):
            raise ValueError(f"integrator must be ssprk2 or ssprk3, got {integrator!r}")
        self.grid = grid
        self.system = system
        self.law = law
        self.reference = reference
        self.cfl = float(cfl)
        self.integrator = integrator
        self.tolerances = {**default_tolerances(), **(tolerances or {})}
        self.layout = LAYOUTS[system]
        self.fields = FluidFields(self.layout.names, grid)
        self.t = 0.0
        self.step_count = 0
        self.initial = InitialReport(reference.rho_bar, 0.0, 0.0, 0.0, 0.0)
        self.cv_bar = reference_signal_speed(law, system, reference)
        self.reference_vector = self.layout.reference(reference)
        # front-check normalisation per row: rho_bar, c_v for velocities,
        # rho_bar c_v^2 for stresses
        self.front_scales = np.full(len(self.layout.names), self.cv_bar)
        self.front_scales[0] = reference.rho_bar
        self.front_scales[list(self.layout.stress)] = reference.rho_bar * self.cv_bar**2

    @classmethod
    def uniform(cls, grid: Grid1D, system: str, law: MaterialLaw,
                reference: ReferenceState, **kwargs) -> "Simulation":
        sim = cls(grid, system, law, reference, **kwargs)
        sim.fields.data[:] = sim.reference_vector[:, None]
        return sim

    def refresh_initial_report(self) -> None:
        gu, grho = diagnostics.max_gradients(self)
        self.initial = InitialReport(
            max_rho0=float(np.max(self.fields.get("rho"))),
            dm0=diagnostics.relative_mass(self),
            f0=diagnostics.radial_momentum(self),
            g0=diagnostics.stress_integral(self),
            max_grad0=max(gu, grho))


# ---------------------------------------------------------------------------
# spatial discretization


def _fill_ghosts(sim: Simulation, data: np.ndarray) -> None:
    g = sim.grid.n_ghost
    n = sim.grid.n_cells
    if sim.grid.bc == "periodic":
        data[:, :g] = data[:, n:n + g]
        data[:, n + g:] = data[:, g:2 * g]
        return
    ref = sim.reference_vector[:, None]
    data[:, n + g:] = ref
    if sim.grid.geometry == "spherical":
        # mirror at the origin: odd rows (the radial velocity) flip sign
        for f, sign in enumerate(sim.layout.parity):
            data[f, :g] = sign * data[f, 2 * g - 1:g - 1:-1]
    else:
        data[:, :g] = ref


def _minmod_slopes(w: np.ndarray) -> np.ndarray:
    """Limited slopes per cell along the last axis; zero in the outermost cells."""
    s = np.zeros_like(w)
    dl = w[..., 1:-1] - w[..., :-2]
    dr = w[..., 2:] - w[..., 1:-1]
    s[..., 1:-1] = np.where(dl * dr > 0.0, np.sign(dl) * np.minimum(np.abs(dl), np.abs(dr)), 0.0)
    return s


def _face_states(w: np.ndarray):
    """MUSCL left/right states at the faces between consecutive padded cells."""
    s = _minmod_slopes(w)
    left = w[..., :-1] + 0.5 * s[..., :-1]
    right = w[..., 1:] - 0.5 * s[..., 1:]
    return left, right


def _cell_coefficients(sim: Simulation, data: np.ndarray):
    """(cs2, zeta, eta, tau, fast_speed) on the padded grid."""
    law = sim.law
    rho = data[0]
    if sim.system == "bulk":
        pi = data[2]
        pi2 = 3.0 * pi * pi
    else:
        p11, p12, p13, p22, p23, p33 = (data[f] for f in sim.layout.stress)
        pi = (p11 + p22 + p33) / 3.0
        pi2 = p11**2 + p22**2 + p33**2 + 2.0 * (p12**2 + p13**2 + p23**2)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        cs2 = law.A * law.gamma * rho ** (law.gamma - 1.0)
        zeta, eta, tau = eval_transport(law, rho, pi, pi2)
        zeta = np.broadcast_to(np.asarray(zeta, float), rho.shape)
        eta = np.broadcast_to(np.asarray(eta, float), rho.shape)
        tau = np.broadcast_to(np.asarray(tau, float), rho.shape)
        if sim.system == "bulk":
            fast = bulk_signal_speed(cs2, zeta, rho, tau)
        else:
            fast = shear_signal_speeds(cs2, zeta, eta, rho, tau)[1]
    return cs2, zeta, eta, tau, fast


def _geometry_weights(sim: Simulation):
    """(face areas, cell volumes) for the divergence of conservative fluxes.

    Face j sits between padded cells j and j+1. Planar geometry uses unit
    areas and dx volumes; spherical uses r^2 areas and shell volumes, making
    sum(V_i * div_i) telescope exactly.
    """
    grid = sim.grid
    if grid.geometry == "planar":
        area = np.ones(grid.n_padded - 1)
        vol = np.full(grid.n_padded, grid.dx)
        return area, vol
    xf = grid.faces_padded
    area = xf[1:-1] ** 2
    vol = (xf[1:] ** 3 - xf[:-1] ** 3) / 3.0
    return area, vol


def _conservative_divergence(sim: Simulation, flux: np.ndarray) -> np.ndarray:
    """(A F)_+ - (A F)_- over cell volume, for the interior cells."""
    g, n = sim.grid.n_ghost, sim.grid.n_cells
    area, vol = _geometry_weights(sim)
    lo, hi = g - 1, g + n
    af = area[lo:hi] * flux[lo:hi]
    return (af[1:] - af[:-1]) / vol[g:g + n]


def _central_derivative(sim: Simulation, hat: np.ndarray) -> np.ndarray:
    g, n = sim.grid.n_ghost, sim.grid.n_cells
    lo, hi = g - 1, g + n
    h = hat[lo:hi]
    return (h[1:] - h[:-1]) / sim.grid.dx


def _dissipation(sim: Simulation, s_face: np.ndarray, jump: np.ndarray) -> np.ndarray:
    g, n = sim.grid.n_ghost, sim.grid.n_cells
    lo, hi = g - 1, g + n
    d = s_face[lo:hi] * jump[lo:hi]
    return (d[1:] - d[:-1]) / (2.0 * sim.grid.dx)


def _hyperbolic_rhs(sim: Simulation, data: np.ndarray):
    """Method-of-lines right-hand side on the interior cells, plus the
    maximum signal speed used for the CFL condition."""
    g, n = sim.grid.n_ghost, sim.grid.n_cells
    cs2, zeta, eta, tau, fast = _cell_coefficients(sim, data)
    uvel = data[1]
    spd = np.abs(uvel) + fast
    s_face = np.maximum(spd[:-1], spd[1:])

    left, right = _face_states(data)
    hat = 0.5 * (left + right)
    jump = right - left

    rho_i = data[0, g:g + n]
    cs2_i = cs2[g:g + n]
    rhs = np.zeros((data.shape[0], n))

    # mass: conservative Rusanov flux
    f_mass = 0.5 * (left[0] * left[1] + right[0] * right[1]) - 0.5 * s_face * jump[0]
    rhs[0] = -_conservative_divergence(sim, f_mass)

    # velocities: primitive quasilinear form with Rusanov dissipation
    layout = sim.layout
    d_rho = _central_derivative(sim, hat[0])
    for comp, (fld, drive) in enumerate(zip(layout.velocity, layout.drive)):
        du = _central_derivative(sim, hat[fld])
        d_stress = _central_derivative(sim, hat[drive])
        adv = data[1, g:g + n] * du
        press = (cs2_i / rho_i) * d_rho if comp == 0 else 0.0
        rhs[fld] = -(adv + press + d_stress / rho_i) + _dissipation(sim, s_face, jump[fld])

    # stress transport: conservative Rusanov flux of u * Pi
    for fld in layout.stress:
        f = 0.5 * (left[1] * left[fld] + right[1] * right[fld]) - 0.5 * s_face * jump[fld]
        rhs[fld] = -_conservative_divergence(sim, f)

    max_speed = float(np.max(spd[g:g + n]))
    return rhs, max_speed


def _velocity_gradients(sim: Simulation, data: np.ndarray) -> list[np.ndarray]:
    """Face-consistent velocity derivatives on the interior: the divergence
    uses the conservative face average so its volume-weighted sum telescopes."""
    grads = []
    for comp, fld in enumerate(sim.layout.velocity):
        left, right = _face_states(data[fld])
        hat = 0.5 * (left + right)
        if comp == 0:
            grads.append(_conservative_divergence(sim, hat))
        else:
            grads.append(_central_derivative(sim, hat))
    return grads


def _relax(sim: Simulation, data: np.ndarray, delta: float) -> None:
    """Exact exponential update of the stress toward its Navier-Stokes value,
    with the velocity gradient frozen over the substep."""
    g, n = sim.grid.n_ghost, sim.grid.n_cells
    _fill_ghosts(sim, data)
    cs2, zeta, eta, tau, _ = _cell_coefficients(sim, data)
    zeta_i = zeta[g:g + n]
    eta_i = eta[g:g + n]
    tau_i = tau[g:g + n]
    grads = _velocity_gradients(sim, data)
    factor = np.exp(-delta / tau_i)

    def update(fld: int, eq: np.ndarray) -> None:
        cur = data[fld, g:g + n]
        data[fld, g:g + n] = eq + (cur - eq) * factor

    if sim.system == "bulk":
        div = grads[0]
        update(sim.layout.stress[0], -zeta_i * div)
        return
    dv1, dv2, dv3 = grads
    p11, p12, p13, p22, p23, p33 = sim.layout.stress
    trace_part = (zeta_i - 2.0 * eta_i / 3.0) * dv1
    update(p11, -(2.0 * eta_i * dv1 + trace_part))
    update(p12, -eta_i * dv2)
    update(p13, -eta_i * dv3)
    update(p22, -trace_part)
    update(p23, np.zeros(n))
    update(p33, -trace_part)


# ---------------------------------------------------------------------------
# time stepping


def cfl_dt(sim: Simulation) -> float:
    """cfl * dx / max(|u| + fastest local characteristic speed)."""
    g, n = sim.grid.n_ghost, sim.grid.n_cells
    data = sim.fields.data
    _fill_ghosts(sim, data)
    try:
        _, _, _, _, fast = _cell_coefficients(sim, data)
    except ValueError as exc:
        raise InvalidStateError(str(exc)) from exc
    spd = np.abs(data[1, g:g + n]) + fast[g:g + n]
    smax = float(np.max(spd))
    if not np.isfinite(smax) or smax <= 0.0:
        raise InvalidStateError(f"maximum signal speed is not finite: {smax}")
    return sim.cfl * sim.grid.dx / smax


def _advance_hyperbolic(sim: Simulation, data: np.ndarray, dt: float) -> float:
    g, n = sim.grid.n_ghost, sim.grid.n_cells
    sl = np.s_[:, g:g + n]

    def euler(state: np.ndarray):
        _fill_ghosts(sim, state)
        rhs, smax = _hyperbolic_rhs(sim, state)
        out = state.copy()
        out[sl] += dt * rhs
        return out, smax

    u0 = data.copy()
    u1, s1 = euler(u0)
    if sim.integrator == "ssprk2":
        u2, s2 = euler(u1)
        data[sl] = 0.5 * u0[sl] + 0.5 * u2[sl]
        return max(s1, s2)
    u2, s2 = euler(u1)
    u2[sl] = 0.75 * u0[sl] + 0.25 * u2[sl]
    u3, s3 = euler(u2)
    data[sl] = u0[sl] / 3.0 + 2.0 / 3.0 * u3[sl]
    return max(s1, s2, s3)


def _front_violation(sim: Simulation) -> str | None:
    tol = sim.tolerances
    if not tol["check_front"] or sim.grid.bc == "periodic":
        return None
    grid = sim.grid
    x = grid.centers_interior
    arm = x if grid.geometry == "spherical" else np.abs(x - grid.center)
    radius = sim.reference.R + sim.cv_bar * sim.t + int(tol["front_slack_cells"]) * grid.dx
    outside = arm > radius
    if not np.any(outside):
        return None
    dev = (np.abs(sim.fields.interior()[:, outside] - sim.reference_vector[:, None])
           / sim.front_scales[:, None])
    worst = float(np.max(dev))
    if worst > tol["front_tol"]:
        f, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        cell = int(np.flatnonzero(outside)[j])
        return (f"finite-propagation check failed: field {sim.fields.names[f]} deviates "
                f"{worst:.3e} (> {tol['front_tol']:.1e}) at cell {cell} beyond the front")
    return None


def _state_problem(sim: Simulation) -> str | None:
    """The first non-finite field value, else the lowest density below the
    floor, with its field and cell; None for a valid state."""
    interior = sim.fields.interior()
    finite = np.isfinite(interior)
    if not np.all(finite):
        f, j = np.unravel_index(int(np.argmin(finite)), interior.shape)
        return f"field {sim.fields.names[f]} non-finite at cell {j}"
    rho = interior[0]
    floor = sim.tolerances["rho_floor_frac"] * sim.reference.rho_bar
    if np.any(rho < floor):
        cell = int(np.argmin(rho))
        return f"density {rho[cell]:.3e} below floor {floor:.1e} at cell {cell}"
    return None


def step(sim: Simulation, dt: float | None = None) -> StepOutcome:
    """One Strang-split SSP step; never raises on physical breakdown, instead
    reporting it (with the failing check and cell) in the outcome."""
    data = sim.fields.data
    problem = _state_problem(sim)
    if problem is not None:
        return StepOutcome("invalid_state", 0.0, np.nan, np.nan,
                           f"state invalid before the step ({problem}); refusing to advance")
    dt_floor = sim.tolerances["dt_floor"]
    try:
        if dt is None:
            dt = cfl_dt(sim)
        if dt < dt_floor:
            return StepOutcome("breakdown", dt, np.nan, np.nan,
                               f"time step {dt:.3e} collapsed below the floor {dt_floor:.1e}")
        _relax(sim, data, 0.5 * dt)
        max_speed = _advance_hyperbolic(sim, data, dt)
        _relax(sim, data, 0.5 * dt)
    except (ValueError, InvalidStateError) as exc:
        return StepOutcome("invalid_state", dt or np.nan, np.nan, np.nan,
                           f"state became invalid during the update: {exc}")

    sim.t += dt
    sim.step_count += 1

    problem = _state_problem(sim)
    if problem is not None:
        return StepOutcome("invalid_state", dt, max_speed, np.nan, problem)

    max_grad, crossed = diagnostics.monitor_c1(sim)
    if crossed:
        return StepOutcome("breakdown", dt, max_speed, max_grad,
                           f"gradient {max_grad:.3e} crossed the breakdown threshold at t={sim.t:.6g}")
    msg = _front_violation(sim)
    if msg is not None:
        return StepOutcome("invalid_state", dt, max_speed, max_grad, msg)
    return StepOutcome("ok", dt, max_speed, max_grad)


def run(sim: Simulation, t_end: float, observer=None, observer_cadence: int = 1,
        series_cadence: int | None = None):
    """Advance with CFL-limited steps until t_end or a non-ok outcome.

    Returns (final StepOutcome, DiagnosticSeries or None). The observer is
    called with the simulation every `observer_cadence` accepted steps;
    identical configurations produce bit-identical series on one platform.
    """
    if t_end < sim.t:
        raise ValueError("t_end must not precede the current time")
    series = diagnostics.DiagnosticSeries() if series_cadence else None
    if series is not None:
        series.record(sim, 0.0)
    eps = 1e-12 * max(1.0, abs(t_end))
    outcome = StepOutcome("ok", 0.0, 0.0, 0.0)
    while sim.t < t_end - eps:
        try:
            dt = cfl_dt(sim)
        except InvalidStateError as exc:
            outcome = StepOutcome("invalid_state", np.nan, np.nan, np.nan, str(exc))
            if series is not None:
                series.mark_breakdown(sim.t, outcome.message)
            break
        dt = min(dt, t_end - sim.t)
        outcome = step(sim, dt)
        done = outcome.status != "ok" or sim.t >= t_end - eps
        if series is not None and (sim.step_count % series_cadence == 0 or done) \
                and sim.t > series.t[-1]:
            series.record(sim, outcome.dt_used)
        if observer is not None and sim.step_count % observer_cadence == 0:
            observer(sim)
        if outcome.status != "ok":
            if series is not None:
                series.mark_breakdown(sim.t, outcome.message)
            break
    return outcome, series


# ---------------------------------------------------------------------------
# scenario construction


def _apply_profiles(sim: Simulation, a: float, b: float, c: float) -> None:
    grid = sim.grid
    x = grid.centers_interior
    R = sim.reference.R
    s = (x / R) if grid.geometry == "spherical" else (x - grid.center) / R
    w = bump(s)
    ref = sim.reference
    inner = sim.fields.interior()
    inner[0] = ref.rho_bar + a * w
    inner[sim.layout.velocity[0]] = ref.v_bar[0] + b * s * w
    for f in sim.layout.normal:
        inner[f] = ref.Pi_bar + c * w


def init_scenario(cfg: ScenarioConfig) -> Simulation:
    """Build a Simulation from a validated configuration.

    Initial data is the smooth compactly supported bump family: a density
    bump of amplitude a, an outward velocity bump b * (r/R) * w(r/R) (the
    odd radial factor keeps the velocity field differentiable at the
    origin), and a stress bump of amplitude c (isotropic for the 10-field
    system). If b_from_f0 is set, b is rescaled so the grid quadrature of
    the initial weighted momentum F(0) equals it exactly (F(0) is linear in
    b). The initial report (max rho0, dM(0), F(0), G(0)) is stored on the
    simulation.
    """
    law = material_law(cfg)
    ref = reference_state(cfg)
    grid = Grid1D(cfg.geometry, cfg.n_cells, cfg.x_min, cfg.x_max, bc=cfg.bc)
    sim = Simulation.uniform(grid, cfg.system, law, ref, cfl=cfg.cfl,
                             integrator=cfg.integrator, tolerances=cfg.tolerances)
    b = cfg.b
    if cfg.b_from_f0 is not None:
        _apply_profiles(sim, cfg.a, 1.0, cfg.c)
        slope = diagnostics.radial_momentum(sim)
        if slope == 0.0:
            raise ValueError("cannot scale the velocity bump: F(0) vanishes at unit amplitude")
        b = cfg.b_from_f0 / slope
    _apply_profiles(sim, cfg.a, b, cfg.c)
    rho = sim.fields.get("rho")
    if np.any(rho <= 0.0):
        raise ValueError("initial density profile is not positive everywhere")
    _fill_ghosts(sim, sim.fields.data)
    sim.refresh_initial_report()
    return sim
