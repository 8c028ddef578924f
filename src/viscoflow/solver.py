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

Cost of a step. A step works on its active window only (`_window`): the
span of the interior cells that differ, bit for bit, from the reference
state, widened by the cells one step can carry a difference and clipped to
the interior. Each of a step's four stencil passes (the velocity gradients
of two relaxations, the right-hand sides of two SSP stages) changes a cell
only if it or a neighbour differs, since a minmod slope vanishes beside two
equal cells, so that reach is four cells. Where the reference state is a
fixed point of the step, the cells outside the window would come out of it
unchanged, so the step leaves them alone: the relaxations, the SSP stages
(whose halo in the stage buffer is copied from the state), `cfl_dt`, the
validity check, the C^1 monitor and the front check all read the window.
The window is the whole interior on a periodic grid, with a uniform stress
Pi_bar != 0 (which relaxes toward 0), with a moving spherical background,
with SSP-RK3 (whose closing u/3 + 2u/3 need not give u), and when the
disturbance spans the grid. The diagnostic series stays whole-grid: its
pairwise sums fix the bits. Inside `run`, an ok step finds the next step's
window by scanning its own.

The transport coefficients are evaluated in three places: `cfl_dt`, each
relaxation half-step and each SSP stage of the hyperbolic update (the window
plus one cell on either side) -- five evaluations per SSP-RK2 step. A
constant coefficient costs no per-cell work: `eval_transport` gives its
float, with no positivity check (it passed one when the law was built), and
the float enters the arithmetic directly, with the same bits as a per-cell
array of it. A law whose three coefficients are constant
(`MaterialLaw.has_constant_transport`) also skips the stress invariants. The
field rows of each group (velocities, driving stresses, stresses) are
contiguous and are updated as one block. A step allocates little: the SSP
stage, the right-hand side, the MUSCL slopes and face states, the fluxes and
the derivatives live in one `_Workspace` per Simulation, made at its first
step and filled in place; the grid's face areas, cell volumes and quadrature
weights are computed once per `Grid1D`. `step` is the one place that
chooses a time step: `run` only calls it, and inside `run` it clips the CFL
step to the run's end. Inside `run`, which owns the state between steps, a
step after an ok one skips the check before it (the previous step's check
after it read the same fields) and, unless its window is wider than the last
one, its opening relaxation's velocity gradients (the previous closing one
left them in the workspace and changed only the stress rows). The C^1
monitor differences the density and velocity rows as one block. One
floating-point error state covers a step's update, one a `cfl_dt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import diagnostics
from .config import (ScenarioConfig, default_tolerances, grid_problems, material_law,
                     reference_state, run_problems, symmetry_center)
from .materials import LAYOUTS, MaterialLaw, MaterialLawError, ReferenceState, eval_transport
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

    A spherical grid starts at the origin; the inner boundary is reflective
    and the outer boundary is held at the reference state. Planar grids are
    either periodic or held at the reference state on both sides. The
    geometry arrays are computed once per grid and are read-only. A grid
    that `config.grid_problems` rejects raises ValueError with the first
    problem, worded as the config validator words it.
    """

    geometry: str
    n_cells: int
    x_min: float
    x_max: float
    bc: str = "fixed"
    n_ghost: ClassVar[int] = 2

    def __post_init__(self):
        problems = grid_problems(self.geometry, self.bc, self.n_cells, self.x_min, self.x_max)
        if problems:
            raise ValueError(problems[0])

    @cached_property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def n_padded(self) -> int:
        return self.n_cells + 2 * self.n_ghost

    @cached_property
    def interior(self) -> slice:
        """The interior cells of a padded array."""
        return slice(self.n_ghost, self.n_ghost + self.n_cells)

    @cached_property
    def faces_interior(self) -> np.ndarray:
        return _frozen(self.x_min + np.arange(self.n_cells + 1) * self.dx)

    @cached_property
    def centers_interior(self) -> np.ndarray:
        f = self.faces_interior
        return _frozen(0.5 * (f[:-1] + f[1:]))

    @property
    def center(self) -> float:
        return symmetry_center(self.geometry, self.x_min, self.x_max)

    @cached_property
    def arms(self) -> np.ndarray:
        """Signed distance of each interior cell centre from the centre of
        symmetry, `config.symmetry_center`."""
        return _frozen(self.centers_interior - self.center)

    @cached_property
    def radii(self) -> np.ndarray:
        """Distance of each interior cell centre from the centre of symmetry."""
        return _frozen(np.abs(self.arms))

    @cached_property
    def face_areas(self) -> np.ndarray:
        """Areas of the n_cells + 1 interior faces: 1 planar, r^2 spherical."""
        if self.geometry == "planar":
            return _frozen(np.ones(self.n_cells + 1))
        return _frozen(self.faces_interior ** 2)

    @cached_property
    def cell_volumes(self) -> np.ndarray:
        """Interior cell volumes of the finite-volume update: dx planar,
        (r+^3 - r-^3)/3 spherical, so that sum(V_i * div_i) telescopes."""
        if self.geometry == "planar":
            return _frozen(np.full(self.n_cells, self.dx))
        xf = self.faces_interior
        return _frozen((xf[1:] ** 3 - xf[:-1] ** 3) / 3.0)

    @cached_property
    def quad_weights(self) -> np.ndarray:
        """Cell integration weights of the diagnostics: dx for planar (per
        unit cross-section), 4 pi (r+^3 - r-^3)/3 for spherical shells."""
        if self.geometry == "spherical":
            faces = self.faces_interior
            return _frozen(4.0 * np.pi * (faces[1:] ** 3 - faces[:-1] ** 3) / 3.0)
        return self.cell_volumes


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


class FluidFields:
    """Named field arrays over the padded grid."""

    def __init__(self, names: tuple[str, ...], grid: Grid1D):
        self.names = names
        self.data = np.zeros((len(names), grid.n_padded))
        self._index = {n: i for i, n in enumerate(names)}
        self._inner = grid.interior

    def get(self, name: str) -> np.ndarray:
        return self.data[self._index[name], self._inner]

    def set(self, name: str, values) -> None:
        self.data[self._index[name], self._inner] = values

    def interior(self) -> np.ndarray:
        return self.data[:, self._inner]


class _FaceViews:
    """Views, for `rows` field rows and a window of k cells, into the pool
    buffers of a _Workspace: the MUSCL differences and slopes, then the face
    states, jump and average."""

    def __init__(self, ws: "_Workspace", rows: int, k: int):
        self.diff, self.adiff, self.slope = ws.rows(0, rows, k + 3), ws.rows(1, rows, k + 3), \
            ws.rows(2, rows, k + 2)
        self.flat, self.pick = ws.masks(0, rows, k + 2), ws.masks(1, rows, k + 2)
        self.left, self.right = ws.rows(0, rows, k + 1), ws.rows(1, rows, k + 1)
        self.jump, self.hat = ws.rows(2, rows, k + 1), ws.rows(3, rows, k + 1)


class _WindowViews:
    """What a step over the padded columns `cols` works in: views cut from a
    _Workspace (`all` for every field row, the hyperbolic right-hand side;
    `vel` for the velocity rows, the relaxation; the right-hand side and,
    after the fluxes, the derivatives of rows up to the last driving stress
    and the velocity dissipation; the relaxation's Navier-Stokes stresses
    and velocity gradients), and the grid's face areas and cell volumes
    there."""

    def __init__(self, ws: "_Workspace", layout, grid: Grid1D, cols: slice):
        nf, nv = len(layout.names), len(layout.velocity)
        g, k = grid.n_ghost, cols.stop - cols.start
        lo, hi = cols.start - g, cols.stop - g
        self.cols = cols
        self.all = _FaceViews(ws, nf, k)
        self.vel = _FaceViews(ws, nv, k)
        self.rhs = ws.rows(4, nf, k)
        self.u_left, self.u_right = ws.rows(5, 1, k + 1)[0], ws.rows(6, 1, k + 1)[0]
        self.deriv = ws.rows(0, layout.drive_rows.stop, k)
        self.diss_faces = ws.rows(1, nv, k + 1)
        self.diss = ws.rows(3, nv, k)
        self.eq = ws.rows(1, len(layout.stress), k)
        self.grads = ws.grads[:, lo:hi]
        self.areas, self.volumes = grid.face_areas[lo:hi + 1], grid.cell_volumes[lo:hi]


class _Workspace:
    """The arrays a step of one Simulation reuses on every call.

    `stage` holds the SSP stages over the padded grid and `grads` the
    velocity gradients of the interior, kept from one step to the next inside
    `run`. Four pool buffers hold, in turn, the MUSCL slopes, the face
    states, the fluxes and the derivatives; `window(cols)` cuts the views of
    a step over the columns `cols` from them (and from the right-hand side
    and face velocity buffers), and `rows` cuts the C^1 monitor's
    differences. All are cut from one allocation: as separate arrays of a
    large grid, their release at the end of a run shrank the heap, and the
    next run's set-up page-faulted its fields back in.
    """

    def __init__(self, layout, grid: Grid1D):
        nf, n = len(layout.names), grid.n_cells
        nv = len(layout.velocity)
        sizes = [nf * (n + 3)] * 4 + [nf * grid.n_padded, nf * n, n + 1, n + 1, nv * n]
        parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        self._buffers = parts[:4] + parts[5:8]
        self.stage = parts[4].reshape(nf, grid.n_padded)
        self.grads = parts[8].reshape(nv, n)
        self._masks = np.split(np.empty(2 * nf * (n + 2), dtype=bool), 2)
        self._layout, self._grid = layout, grid
        self._views: _WindowViews | None = None

    def rows(self, buffer: int, rows: int, cols: int) -> np.ndarray:
        """A (rows, cols) view at the start of buffer `buffer`: 0-3 the pool,
        4 the right-hand side, 5 and 6 the face velocities."""
        return self._buffers[buffer][:rows * cols].reshape(rows, cols)

    def masks(self, buffer: int, rows: int, cols: int) -> np.ndarray:
        return self._masks[buffer][:rows * cols].reshape(rows, cols)

    def window(self, cols: slice) -> _WindowViews:
        """The views of a step over the padded columns `cols`; those of the
        last window asked for are kept, so a run whose window stays put
        builds them once."""
        if self._views is None or self._views.cols != cols:
            self._views = _WindowViews(self, self._layout, self._grid, cols)
        return self._views


@dataclass(frozen=True)
class _Carry:
    """What `run` holds between steps: its end time, and what the last ok
    step left for the next -- the window of the state it left, and the
    window over which `work.grads` holds that state's velocity gradients.
    Both windows are None until the run's first ok step."""

    t_end: float
    window: slice | None
    grads: slice | None


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
    message: str = ""


class Simulation:
    """Mutable evolution state: one writer, no shared mutation.

    `tolerances` overrides entries of `config.default_tolerances()`; the
    monitors read the merged dict. Settings that `config.run_problems`
    rejects (an unknown system or integrator, a cfl outside (0, 1], a key
    `default_tolerances()` lacks or a value that is not finite and positive)
    raise ValueError with the first problem.
    """

    def __init__(self, grid: Grid1D, system: str, law: MaterialLaw,
                 reference: ReferenceState, cfl: float = 0.4,
                 integrator: str = "ssprk2",
                 tolerances: dict[str, float] | None = None):
        tolerances = tolerances or {}
        problems = run_problems(system, grid.geometry, integrator, cfl, tolerances)
        if problems:
            raise ValueError(problems[0])
        self.tolerances = default_tolerances() | tolerances
        self.grid = grid
        self.system = system
        self.law = law
        self.reference = reference
        self.cfl = float(cfl)
        self.integrator = integrator
        self.layout = LAYOUTS[system]
        self.fields = FluidFields(self.layout.names, grid)
        self.t = 0.0
        self.step_count = 0
        self.initial = InitialReport(reference.rho_bar, 0.0, 0.0, 0.0, 0.0)
        # None outside `run`; inside, what the run holds between steps (see step)
        self._carry: _Carry | None = None
        self.cv_bar = reference_signal_speed(law, system, reference)
        self.reference_vector = self.layout.reference(reference)
        # front-check normalisation per row: rho_bar, c_v for velocities,
        # rho_bar c_v^2 for stresses
        self.front_scales = np.full(len(self.layout.names), self.cv_bar)
        self.front_scales[0] = reference.rho_bar
        self.front_scales[list(self.layout.stress)] = reference.rho_bar * self.cv_bar**2

    @cached_property
    def work(self) -> _Workspace:
        """The step's reused buffers, allocated at the first step."""
        return _Workspace(self.layout, self.grid)

    @cached_property
    def _stationary(self) -> bool:
        """Whether a step maps the uniform reference state to itself, bit for
        bit (see _window). The last test fails for -0.0 and subnormals, which
        an update by a zero right-hand side does not keep."""
        r = self.reference_vector
        return bool(self.grid.bc == "fixed" and self.integrator == "ssprk2"
                    and self.reference.Pi_bar == 0.0
                    and (self.grid.geometry == "planar" or r[1] == 0.0)
                    and np.array_equal(_bits(0.5 * (r + 0.0) + 0.5 * (r + 0.0)), _bits(r)))

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
        np.multiply(data[:, 2 * g - 1:g - 1:-1], sim.layout.parity_column, out=data[:, :g])
    else:
        data[:, :g] = ref


def _face_states(w: np.ndarray, v: _FaceViews) -> None:
    """MUSCL minmod-limited left/right states at the n + 1 interior faces, into
    v.left and v.right, from the rows `w` over the interior and two cells on
    each side. The minmod slope is where(dl dr > 0, the one of dl, dr of least
    magnitude, 0)."""
    d = np.subtract(w[:, 1:], w[:, :-1], out=v.diff)
    np.abs(d, out=v.adiff)
    dl, dr = d[:, :-1], d[:, 1:]
    s = np.multiply(dl, dr, out=v.slope)
    flat = np.greater(s, 0.0, out=v.flat)
    np.logical_not(flat, out=flat)
    np.less_equal(v.adiff[:, :-1], v.adiff[:, 1:], out=v.pick)
    np.copyto(s, dr)
    np.copyto(s, dl, where=v.pick)
    np.copyto(s, 0.0, where=flat)
    s *= 0.5
    np.add(w[:, 1:-2], s[:, :-1], out=v.left)
    np.subtract(w[:, 2:-1], s[:, 1:], out=v.right)


def _transport(sim: Simulation, data: np.ndarray, cells: slice):
    """(zeta, eta, tau) on the padded cells `cells`; the law's floats when it
    is constant. A law violation is reported at its interior cell, the one
    an evaluation over the whole interior names."""
    rho = data[0, cells]
    if sim.law.has_constant_transport:
        return eval_transport(sim.law, rho)  # floats; no invariants needed
    if sim.system == "bulk":
        pi = data[sim.layout.stress[0], cells]
        pi2 = 3.0 * pi * pi
    else:
        p11, p12, p13, p22, p23, p33 = data[sim.layout.stress_rows, cells]
        pi = (p11 + p22 + p33) / 3.0
        pi2 = p11**2 + p22**2 + p33**2 + 2.0 * (p12**2 + p13**2 + p23**2)
    try:
        return eval_transport(sim.law, rho, pi, pi2)
    except MaterialLawError:
        inner = sim.grid.interior
        if cells != inner:
            # outside `cells` a whole-grid step holds the reference state,
            # which the law accepts (Simulation evaluated it there)
            whole = np.repeat(sim.reference_vector[:, None], data.shape[1], axis=1)
            keep = slice(max(cells.start, inner.start), min(cells.stop, inner.stop))
            whole[:, keep] = data[:, keep]
            _transport(sim, whole, inner)  # raises, naming the interior cell
        raise


def _signal_speed(sim: Simulation, data: np.ndarray, cells: slice, transport):
    """(cs2, fastest characteristic speed) on the padded cells `cells`."""
    law = sim.law
    rho = data[0, cells]
    zeta, eta, tau = transport
    cs2 = law.A * law.gamma * rho ** (law.gamma - 1.0)
    if sim.system == "bulk":
        return cs2, bulk_signal_speed(cs2, zeta, rho, tau)
    return cs2, shear_signal_speeds(cs2, zeta, eta, rho, tau)[1]


def _divergence(w: _WindowViews, faces: np.ndarray, out: np.ndarray) -> np.ndarray:
    """((A F)_+ - (A F)_-) / V per row of the face values of the window `w`,
    into `out`; `faces` is scaled by the areas in place."""
    faces *= w.areas
    np.subtract(faces[:, 1:], faces[:, :-1], out=out)
    out /= w.volumes
    return out


def _hyperbolic_rhs(sim: Simulation, data: np.ndarray, cols: slice) -> np.ndarray:
    """Method-of-lines right-hand side on the padded columns `cols` (a reused
    buffer), read from them and two cells on either side.

    Mass and stress rows take the conservative Rusanov flux of rho u and
    u Pi; velocity rows the primitive quasilinear form with Rusanov
    dissipation."""
    grid, layout = sim.grid, sim.layout
    c0, c1, dx = cols.start, cols.stop, grid.dx
    ws = sim.work.window(cols)
    near = slice(c0 - 1, c1 + 1)  # the cells on either side of a face of `cols`
    cs2, fast = _signal_speed(sim, data, near, _transport(sim, data, near))
    spd = np.abs(data[1, near])
    spd += fast
    s_face = np.maximum(spd[:-1], spd[1:])

    v = ws.all
    _face_states(data[:, c0 - 2:c1 + 2], v)
    left, right = v.left, v.right
    jump = np.subtract(right, left, out=v.jump)
    top = layout.drive_rows.stop  # the velocity update reads the rows above it
    hat = np.add(left[:top], right[:top], out=v.hat[:top])
    hat *= 0.5

    # mass and stresses: flux 0.5 (uL wL + uR wR) - 0.5 s (wR - wL), formed
    # for every row; the velocity rows of rhs are overwritten below
    np.copyto(ws.u_left, left[1])
    np.copyto(ws.u_right, right[1])
    flux = left
    flux *= ws.u_left
    right *= ws.u_right
    flux += right
    flux *= 0.5
    flux -= np.multiply(jump, 0.5 * s_face, out=right)
    rhs = np.negative(_divergence(ws, flux, ws.rhs), out=ws.rhs)

    # velocities: -(u du + (cs2/rho) drho + dPi_1i / rho) + dissipation
    rho_i, u_i = data[0, cols], data[1, cols]
    deriv = np.subtract(hat[:, 1:], hat[:, :-1], out=ws.deriv)
    deriv /= dx
    vel = np.multiply(deriv[layout.velocity_rows], u_i, out=rhs[layout.velocity_rows])
    vel[0] += (cs2[1:-1] / rho_i) * deriv[0]
    vel[1:] += 0.0  # no pressure term; keeps the signed zeros of u du + 0 + ...
    d_stress = deriv[layout.drive_rows]
    d_stress /= rho_i
    vel += d_stress
    np.negative(vel, out=vel)
    d = np.multiply(jump[layout.velocity_rows], s_face, out=ws.diss_faces)
    diss = np.subtract(d[:, 1:], d[:, :-1], out=ws.diss)
    diss /= 2.0 * dx
    vel += diss
    return rhs


def _velocity_gradients(data: np.ndarray, layout, w: _WindowViews) -> np.ndarray:
    """Face-consistent velocity derivatives on the window `w`, into its
    gradient view: the divergence uses the conservative face average so its
    volume-weighted sum telescopes. Transverse rows exist only in planar
    geometry, where this is the central difference of the face averages."""
    v = w.vel
    _face_states(data[layout.velocity_rows, w.cols.start - 2:w.cols.stop + 2], v)
    hat = np.add(v.left, v.right, out=v.hat)
    hat *= 0.5
    return _divergence(w, hat, w.grads)


def _relax(sim: Simulation, data: np.ndarray, delta: float, cols: slice,
           carried: bool) -> None:
    """Exact exponential update of the stress toward its Navier-Stokes value
    on the padded columns `cols`, with the velocity gradient frozen over the
    substep; `carried` reuses the last relaxation's ghosts and gradients."""
    if not carried:
        _fill_ghosts(sim, data)
    w = sim.work.window(cols)
    zeta, eta, tau = _transport(sim, data, cols)
    grads = w.grads if carried else _velocity_gradients(data, sim.layout, w)
    factor = np.exp(-delta / tau)
    eq = w.eq  # rows in layout.stress order
    if sim.system == "bulk":
        np.multiply(grads[0], -zeta, out=eq[0])
    else:
        # Pi11, Pi12, Pi13, Pi22, Pi23, Pi33
        dv1 = grads[0]
        trace_part = (zeta - 2.0 * eta / 3.0) * dv1
        np.multiply(2.0 * eta, dv1, out=eq[0])
        eq[0] += trace_part
        np.negative(eq[0], out=eq[0])
        np.multiply(grads[1:3], -eta, out=eq[1:3])
        np.negative(trace_part, out=eq[3])
        eq[4] = 0.0
        eq[5] = eq[3]
    cur = data[sim.layout.stress_rows, cols]
    cur -= eq
    cur *= factor
    cur += eq


# ---------------------------------------------------------------------------
# the active window

# cells a step can carry a difference from the reference state: one per
# stencil pass (a minmod slope vanishes beside two equal cells, so a face
# state differs only beside a differing cell), four passes per SSP-RK2 step
STEP_REACH_CELLS = 4


def _window(sim: Simulation, within: slice | None = None) -> slice:
    """The active window of a step, as padded columns: the span of the cells
    of `within` (the interior by default) that differ from the reference
    state, bit for bit, widened by STEP_REACH_CELLS and clipped to the
    interior. Outside it the state holds the reference, which a step leaves
    alone when it is stationary. The whole interior when it is not, or when
    no cell differs."""
    inner = sim.grid.interior
    if not sim._stationary:
        return inner
    within = within or inner
    ref = _bits(sim.reference_vector)[:, None]
    differs = np.any(_bits(sim.fields.data[:, within]) != ref, axis=0)
    first = int(np.argmax(differs))
    if not differs[first]:
        return inner
    last = len(differs) - 1 - int(np.argmax(differs[::-1]))
    return slice(max(within.start + first - STEP_REACH_CELLS, inner.start),
                 min(within.start + last + 1 + STEP_REACH_CELLS, inner.stop))


def _active(sim: Simulation) -> slice:
    """The window of the current state, carried from the last ok step inside `run`."""
    return getattr(sim._carry, "window", None) or _window(sim)


# ---------------------------------------------------------------------------
# time stepping


def cfl_dt(sim: Simulation) -> float:
    """cfl * dx / max(|u| + fastest local characteristic speed), over the
    active window: unless it is the whole interior, it reaches past the
    cells that differ into cells at the reference state, whose speed every
    cell outside it shares."""
    data = sim.fields.data
    cols = _active(sim)
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            _, fast = _signal_speed(sim, data, cols, _transport(sim, data, cols))
    except ValueError as exc:
        raise InvalidStateError(str(exc)) from exc
    spd = np.abs(data[1, cols])
    spd += fast
    smax = float(spd.max())
    if not np.isfinite(smax) or smax <= 0.0:
        raise InvalidStateError(f"maximum signal speed is not finite: {smax}")
    return sim.cfl * sim.grid.dx / smax


def _advance_hyperbolic(sim: Simulation, data: np.ndarray, dt: float, cols: slice) -> None:
    """SSP-RK2 (or RK3) over the padded columns `cols` of `data`, in place.
    The stages live in one reused buffer; `data` itself is the stage-0
    state."""
    inner = np.s_[:, cols]
    stage = sim.work.stage
    # a stage reads g cells beyond the window: interior cells, where the state
    # holds the reference, or ghosts, which it refills before reading them
    g = sim.grid.n_ghost
    stage[:, cols.start - g:cols.start] = data[:, cols.start - g:cols.start]
    stage[:, cols.stop:cols.stop + g] = data[:, cols.stop:cols.stop + g]

    def euler(src: np.ndarray) -> None:
        # stage[inner] = src[inner] + dt * rhs(src)
        _fill_ghosts(sim, src)
        rhs = _hyperbolic_rhs(sim, src, cols)
        rhs *= dt
        np.add(src[inner], rhs, out=stage[inner])

    euler(data)
    euler(stage)
    if sim.integrator == "ssprk2":
        u0, u2 = data[inner], stage[inner]  # views: data = 0.5 u0 + 0.5 u2
        u0 *= 0.5
        u2 *= 0.5
        u0 += u2
    else:
        stage[inner] = 0.75 * data[inner] + 0.25 * stage[inner]
        euler(stage)
        data[inner] = data[inner] / 3.0 + 2.0 / 3.0 * stage[inner]


FRONT_SLACK_CELLS = 2  # cells of slack beyond R + c_v t


def _front_violation(sim: Simulation, cols: slice) -> str | None:
    """The worst deviation from the reference beyond the front, if above
    front_tol, with its field and cell. Only the padded columns `cols` are
    read: outside them the state holds the reference."""
    if sim.grid.bc == "periodic":
        return None
    grid = sim.grid
    g = grid.n_ghost
    radius = sim.reference.R + sim.cv_bar * sim.t + FRONT_SLACK_CELLS * grid.dx
    outside = np.flatnonzero(grid.radii[cols.start - g:cols.stop - g] > radius) + cols.start
    if outside.size == 0:
        return None
    dev = (np.abs(sim.fields.data[:, outside] - sim.reference_vector[:, None])
           / sim.front_scales[:, None])
    worst = float(np.max(dev))
    tol = sim.tolerances["front_tol"]
    if worst > tol:
        f, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        return (f"finite-propagation check failed: field {sim.fields.names[f]} deviates "
                f"{worst:.3e} (> {tol:.1e}) at cell {int(outside[j]) - g} beyond the front")
    return None


RHO_FLOOR_FRAC = 1e-12  # density below this fraction of rho_bar is invalid


def _state_problem(sim: Simulation, cols: slice) -> str | None:
    """The first non-finite field value, else the lowest density below the
    floor, with its field and cell; None for a valid state. Only the padded
    columns `cols` are read: outside them the state holds the reference."""
    block = sim.fields.data[:, cols]
    first = cols.start - sim.grid.n_ghost
    finite = np.isfinite(block)
    if not finite.all():
        f, j = np.unravel_index(int(np.argmin(finite)), block.shape)
        return f"field {sim.fields.names[f]} non-finite at cell {first + j}"
    rho = block[0]
    floor = RHO_FLOOR_FRAC * sim.reference.rho_bar
    if (rho < floor).any():
        j = int(np.argmin(rho))
        return f"density {rho[j]:.3e} below floor {floor:.1e} at cell {first + j}"
    return None


def step(sim: Simulation, dt: float | None = None) -> StepOutcome:
    """One Strang-split SSP step over the active window; never raises on
    physical breakdown, instead reporting it (with the failing check and
    cell) in the outcome. The state is checked before the time step is
    chosen. Without `dt` the step takes `cfl_dt`, clipped inside `run` to the
    run's end. Inside `run`, a step after an ok one skips what that one
    already computed."""
    data = sim.fields.data
    carry = sim._carry
    carried = carry is not None and carry.window is not None
    window = _active(sim)
    problem = None if carried else _state_problem(sim, window)
    if problem is not None:
        return StepOutcome("invalid_state", 0.0,
                           f"state invalid before the step ({problem}); refusing to advance")
    if dt is None:
        try:
            dt = cfl_dt(sim)
        except InvalidStateError as exc:
            return StepOutcome("invalid_state", np.nan, f"no admissible time step: {exc}")
        if carry is not None:
            dt = min(dt, carry.t_end - sim.t)
    dt_floor = sim.tolerances["dt_floor"]
    if dt < dt_floor:
        return StepOutcome("breakdown", dt,
                           f"time step {dt:.3e} collapsed below the floor {dt_floor:.1e}")
    # the carried gradients cover the last step's window; a wider one needs new ones
    reuse = carried and carry.grads.start <= window.start and window.stop <= carry.grads.stop
    try:
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            _relax(sim, data, 0.5 * dt, window, reuse)
            _advance_hyperbolic(sim, data, dt, window)
            _relax(sim, data, 0.5 * dt, window, False)
    except ValueError as exc:
        return StepOutcome("invalid_state", dt,
                           f"state became invalid during the update: {exc}")

    sim.t += dt
    sim.step_count += 1

    problem = _state_problem(sim, window)
    if problem is not None:
        return StepOutcome("invalid_state", dt, problem)

    max_grad, crossed = diagnostics.monitor_c1(sim, cells=window)
    if crossed:
        return StepOutcome("breakdown", dt,
                           f"gradient {max_grad:.3e} crossed the breakdown threshold at t={sim.t:.6g}")
    msg = _front_violation(sim, window)
    if msg is not None:
        return StepOutcome("invalid_state", dt, msg)
    if carry is not None:
        # the step changed only the window, so only it can hold differing cells
        sim._carry = _Carry(carry.t_end, _window(sim, within=window), window)
    return StepOutcome("ok", dt)


def run(sim: Simulation, t_end: float, observer=None, series_cadence: int | None = None):
    """Advance by `step`, which chooses each CFL-limited time step and clips
    it to t_end, until t_end or a non-ok outcome.

    Returns (final StepOutcome, DiagnosticSeries or None). The observer is
    called with the simulation after each step, the last one included (also
    one that found no admissible time step), and sees the fields read-only: a
    write to them raises ValueError. Identical configurations produce
    bit-identical series on one platform. A `step` after `run` returns or
    raises recomputes everything.
    """
    if t_end < sim.t:
        raise ValueError("t_end must not precede the current time")
    series = diagnostics.DiagnosticSeries() if series_cadence else None
    if series is not None:
        series.record(sim, 0.0)
    eps = 1e-12 * max(1.0, abs(t_end))
    outcome = StepOutcome("ok", 0.0)
    sim._carry = _Carry(t_end, None, None)
    try:
        while sim.t < t_end - eps:
            outcome = step(sim)
            done = outcome.status != "ok" or sim.t >= t_end - eps
            if series is not None and (sim.step_count % series_cadence == 0 or done) \
                    and sim.t > series.t[-1]:
                series.record(sim, outcome.dt_used)
            if observer is not None:
                sim.fields.data.flags.writeable = False
                observer(sim)
                sim.fields.data.flags.writeable = True
            if outcome.status != "ok":
                break
    finally:
        sim._carry = None
        sim.fields.data.flags.writeable = True
    return outcome, series


# ---------------------------------------------------------------------------
# scenario construction


def _apply_profiles(sim: Simulation, a: float, b: float, c: float) -> None:
    ref = sim.reference
    s = sim.grid.arms / ref.R
    w = bump(s)
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
