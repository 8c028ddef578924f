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
weights are computed once per `Grid1D`. At a few hundred cells a step costs
its numpy calls, not its arithmetic, and a call on shifted 2-D views costs
about three times one on contiguous 1-D slices. So the stencil passes (the
MUSCL face states, the right-hand side, the velocity gradients) run on flat
work buffers: a window of k cells and two on either side is a row W = k + 4
wide, the rows sit end to end, a shift along x is one contiguous 1-D slice,
and a per-face or per-cell factor is one W-wide row broadcast over the
(rows, W) block. The lanes past a row's valid span hold junk that nothing
reads (a NaN there changes no bit). Every view of these passes is cut once,
in a `_Plan` of one source array (the fields or the SSP stage) over one
window, which is rebuilt only when the window or the source array changes.
A window that spans whole padded rows (every periodic run) is read as flat
rows of the source; on any other the three steps that read the source read
2-D views of it. The choice is made when the plan is built. `step` is the
one place that chooses a time step: `run` only calls it, and inside `run`
it clips the CFL step to the run's end. Inside `run`, which owns the state
between steps, a step after an ok one skips the check before it (the
previous step's check after it read the same fields) and, unless its window
is wider than the last one, its opening relaxation's velocity gradients (the
previous closing one left them in the workspace and changed only the stress
rows). The C^1 monitor differences the density and velocity rows as one
block. One floating-point error state covers a step's update, one a
`cfl_dt`.
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


class _Faces:
    """The views of one MUSCL pass over `block`, an (m, W) view of a source
    array: m field rows over a window of k cells and two cells on either
    side, W = k + 4. The pass runs on flat work buffers whose rows sit end to
    end, W wide, so that a shift along x is one contiguous 1-D slice. Lane c
    of a row holds column c of `block`, or the face to its left; the lanes
    outside a row's valid span hold junk that nothing reads. A contiguous
    block (whole padded rows, or one row) is read as flat rows; the three
    steps that read any other read 2-D views of it and of the buffers."""

    def __init__(self, pools: list[np.ndarray], mask: np.ndarray, block: np.ndarray):
        self.shape = block.shape
        n = block.size
        d, a, s = (b[:n] for b in pools[:3])
        flat = block.flags.c_contiguous
        w, d2, a2, s2 = (x.reshape(-1) if flat else x.reshape(self.shape) for x in (block, d, a, s))
        self.diff, self.magnitude = (w[..., 1:], w[..., :-1], d2[..., 1:]), (d[1:], a[1:])
        self.product, self.least = (d[1:-1], d[2:], s[1:-1]), (a[1:-1], a[2:])
        self.slope, self.dl, self.flat = s[1:-1], d[1:-1], mask[1:n - 1]
        # the face states overwrite the differences and their magnitudes
        self.states = (w[..., 1:-2], s2[..., 1:-2], d2[..., 2:-1]), \
            (w[..., 2:-1], s2[..., 2:-1], a2[..., 2:-1])
        self.left, self.right = d, a

    def rows(self, flat: np.ndarray) -> np.ndarray:
        return flat[:self.shape[0] * self.shape[1]].reshape(self.shape)


def _forward(a: np.ndarray, out: np.ndarray) -> tuple:
    """The arguments of np.subtract for out[c] = a[c + 1] - a[c] over flat rows."""
    a, out = a.reshape(-1), out.reshape(-1)
    return a[1:], a[:-1], out[:-1]


class _Plan:
    """A step's stencil passes over one source array `src` (the fields or
    the SSP stage) and the padded columns `cols`: every view they read or
    write, cut once. A per-face or per-cell factor is a W-wide row, broadcast
    over a contiguous (rows, W) block. An SSP stage update and the velocity
    gradients write whole padded rows where the window spans them (their
    ghost columns are refilled before anything reads them), else the
    window."""

    def __init__(self, ws: "_Workspace", layout, grid: Grid1D, src: np.ndarray, cols: slice):
        g = grid.n_ghost
        c0, c1 = cols.start - g, cols.stop + g
        width, vel, drive = c1 - c0, layout.velocity_rows, layout.drive_rows
        span = slice(0, width) if width == grid.n_padded else slice(g, width - g)
        written = slice(c0 + span.start, c0 + span.stop)
        self.src, self.cols, self.near = src, cols, slice(cols.start - 1, cols.stop + 1)
        self.areas, self.volumes = ws.areas[c0:c1], ws.volumes[c0:c1]
        # the right-hand side; the five pool buffers hold in turn
        #   0: differences, left states, fluxes, derivatives
        #   1: their magnitudes, right states, velocity dissipation at the faces
        #   2: slopes, jumps
        #   3: face averages (rows up to the last driving stress), velocity
        #      dissipation at the cells
        #   4: the right-hand side
        self.all = f = _Faces(ws.pools, ws.mask, src[:, c0:c1])
        flux, right, jump, hat, rhs = (f.rows(b) for b in ws.pools)
        # the face rows: uL, then the Rusanov speeds s; uR, then the signal
        # speeds of the cells, then s / 2
        self.u_left, self.u_right = (r[:width] for r in ws.face_rows)
        self.spd, self.u_near = self.u_right[1:-1], src[1, self.near]
        self.max_speed, self.s_face = (self.spd[:-1], self.spd[1:]), self.u_left
        self.s_faces = self.s_face[g:-1]
        self.flux, self.right, self.jump = flux, right, (right, flux, jump)
        self.rhs, self.div = rhs, _forward(flux, rhs)
        top, deriv = drive.stop, flux
        self.hat, self.deriv_top = (flux[:top], right[:top], hat[:top]), deriv[:top]
        self.deriv = _forward(hat[:top], deriv[:top])
        self.u_row, self.rho_row, self.rho_cells = src[1, c0:c1], src[0, c0:c1], src[0, cols]
        self.vel, self.vel_rest = rhs[vel], rhs[vel.start + 1:vel.stop]
        self.vel0, self.drho = rhs[vel.start, g:-g], deriv[0, g:-g]
        self.deriv_vel, self.deriv_drive, self.jump_vel = deriv[vel], deriv[drive], jump[vel]
        nv = vel.stop - vel.start
        self.diss_faces, self.diss_cells = right[:nv], hat[:nv]
        self.diss = _forward(right[:nv], hat[:nv])
        # an SSP stage update; a stage reads g cells beyond the window, copied
        # from the state (interior cells at the reference) unless they are
        # ghosts, which it refills before reading them
        self.cells, self.stage_cells, self.rhs_cells = src[:, written], ws.stage[:, written], \
            rhs[:, span]
        self.halo = [(ws.stage[:, a:b], src[:, a:b]) for a, b in ((c0, cols.start), (cols.stop, c1))
                     if span.start]
        # the relaxation; its velocity gradients are cut at their first use,
        # since only the fields' plans need them (a plan holds no reference to
        # the workspace, which holds it: a cycle would keep a finished run's
        # buffers until the garbage collector ran)
        self.grads, self.stress = ws.grads[:, cols], src[layout.stress_rows, cols]
        k, ns = cols.stop - cols.start, len(layout.stress)
        self.eq = ws.pools[1][:ns * k].reshape(ns, k)
        self._gradient = ws.pools, ws.mask, src[vel, c0:c1], ws.grads[:, written], span

    @cached_property
    def velocity(self) -> _Faces:
        """The velocity rows' MUSCL pass, with the views that turn its face
        states into the gradients."""
        pools, mask, block, grads, span = self._gradient
        v = _Faces(pools, mask, block)
        hat, diff = v.rows(pools[3]), v.rows(pools[0])
        v.average, v.hat_rows = (v.left, v.right, hat.reshape(-1)), hat
        v.grad_diff = _forward(hat, diff)
        v.grad_div = diff[:, span], self.volumes[span], grads
        return v


class _Workspace:
    """The arrays a step of one Simulation reuses on every call.

    Scratch, whose values live no longer than a step: five pool buffers of
    (fields x padded cells) each, which a plan's passes share in turn (see
    `_Plan`), two face rows, the minmod mask and `stage`, the SSP stages
    over the padded grid. Kept: `grads`, the velocity gradients over the
    padded grid, which carry from one step to the next inside `run`, and
    `areas` and `volumes`, the face areas and cell volumes by padded column,
    1 outside the interior so that a junk lane never divides by zero (on a
    planar grid, views of the one value 1 and of dx). `plan(src, cols)`
    gives the views of the passes over the source `src` and the padded
    columns `cols`, and `rows` the C^1 monitor's differences. The float
    arrays are cut from one allocation: as separate arrays of a large grid,
    their release at the end of a run shrank the heap, and the next run's
    set-up page-faulted its fields back in.
    """

    def __init__(self, layout, grid: Grid1D):
        nf, nv, p, g = len(layout.names), len(layout.velocity), grid.n_padded, grid.n_ghost
        sizes = [nf * p] * 6 + [p] * 2 + [nv * p, p, p]
        memory = np.empty(sum(sizes))
        parts = np.split(memory, np.cumsum(sizes)[:-1])
        self.scratch = memory[:sum(sizes[:8])]
        self.pools, self.stage, self.face_rows = parts[:5], parts[5].reshape(nf, p), parts[6:8]
        self.grads, self.areas, self.volumes = parts[8].reshape(nv, p), parts[9], parts[10]
        if grid.geometry == "planar":  # 1 and dx everywhere: views of one value each
            self.areas, self.volumes = np.broadcast_to(1.0, p), np.broadcast_to(grid.dx, p)
        else:
            self.areas[:], self.volumes[:] = 1.0, 1.0
            self.areas[g:g + grid.n_cells + 1] = grid.face_areas
            self.volumes[grid.interior] = grid.cell_volumes
        self.mask = np.empty(nf * p, dtype=bool)
        self._layout, self._grid = layout, grid
        self._plans: tuple[_Plan, ...] = ()

    def rows(self, rows: int, cols: int) -> np.ndarray:
        """A (rows, cols) view at the start of the first pool buffer."""
        return self.pools[0][:rows * cols].reshape(rows, cols)

    def plan(self, src: np.ndarray, cols: slice) -> _Plan:
        """The plan of the array `src` over the padded columns `cols`. The
        last two built are kept (a step's fields and stage), so a run whose
        window stays put builds them once."""
        for plan in self._plans:
            if plan.src is src and plan.cols == cols:
                return plan
        self._plans = (_Plan(self, self._layout, self._grid, src, cols),) + self._plans[:1]
        return self._plans[0]


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


def _reconstruct(f: _Faces) -> None:
    """MUSCL minmod-limited states at the faces, into f.left (w[c - 1] +
    s[c - 1] at the face left of lane c) and f.right (w[c] - s[c]). The slope
    is s = copysign(min(|dl|, |dr|) / 2, dl) where dl dr > 0, else +0: the one
    of dl, dr of least magnitude, halved, with the same bits for ties, signed
    zeros, infinities and NaNs."""
    np.subtract(*f.diff)
    np.abs(*f.magnitude)
    np.multiply(*f.product)
    np.greater(f.slope, 0.0, out=f.flat)
    np.logical_not(f.flat, out=f.flat)
    np.minimum(*f.least, out=f.slope)
    f.slope *= 0.5
    np.copysign(f.slope, f.dl, out=f.slope)
    np.copyto(f.slope, 0.0, where=f.flat)
    np.add(*f.states[0])
    np.subtract(*f.states[1])


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


def _hyperbolic_rhs(sim: Simulation, data: np.ndarray, cols: slice) -> _Plan:
    """Method-of-lines right-hand side on the padded columns `cols`, read
    from them and two cells on either side, into `rhs` of the plan it
    returns; `rhs_cells` are its lanes that an SSP stage update reads.

    Mass and stress rows take the conservative Rusanov flux of rho u and
    u Pi; velocity rows the primitive quasilinear form with Rusanov
    dissipation."""
    p = sim.work.plan(data, cols)
    dx = sim.grid.dx
    cs2, fast = _signal_speed(sim, data, p.near, _transport(sim, data, p.near))
    _reconstruct(p.all)
    jump = np.subtract(*p.jump)
    hat = np.add(*p.hat)  # the face averages of the rows the velocity update reads
    hat *= 0.5

    # mass and stresses: flux 0.5 (uL wL + uR wR) - 0.5 s (wR - wL), formed
    # for every row in place of the face states; the velocity rows of rhs
    # are overwritten below
    flux, right = p.flux, p.right
    np.copyto(p.u_left, flux[1])
    np.copyto(p.u_right, right[1])
    flux *= p.u_left
    right *= p.u_right
    flux += right
    flux *= 0.5
    spd = np.abs(p.u_near, out=p.spd)
    spd += fast
    np.maximum(*p.max_speed, out=p.s_faces)
    flux -= np.multiply(jump, np.multiply(p.s_face, 0.5, out=p.u_right), out=right)
    flux *= p.areas
    np.subtract(*p.div)  # ((A F)_+ - (A F)_-) / V
    p.rhs /= p.volumes
    np.negative(p.rhs, out=p.rhs)

    # velocities: -(u du + (cs2/rho) drho + dPi_1i / rho) + dissipation
    np.subtract(*p.deriv)
    p.deriv_top /= dx
    vel = np.multiply(p.deriv_vel, p.u_row, out=p.vel)
    p.vel0 += (cs2[1:-1] / p.rho_cells) * p.drho
    p.vel_rest += 0.0  # no pressure term; keeps the signed zeros of u du + 0 + ...
    p.deriv_drive /= p.rho_row
    vel += p.deriv_drive
    np.negative(vel, out=vel)
    np.multiply(p.jump_vel, p.s_face, out=p.diss_faces)
    np.subtract(*p.diss)
    p.diss_cells /= 2.0 * dx
    vel += p.diss_cells
    return p


def _velocity_gradients(p: _Plan) -> np.ndarray:
    """Face-consistent velocity derivatives on the plan's window, into its
    gradient view: the divergence uses the conservative face average so its
    volume-weighted sum telescopes. Transverse rows exist only in planar
    geometry, where this is the central difference of the face averages."""
    v = p.velocity
    _reconstruct(v)
    hat = np.add(*v.average)
    hat *= 0.5
    v.hat_rows *= p.areas
    np.subtract(*v.grad_diff)
    np.divide(*v.grad_div)
    return p.grads


def _relax(sim: Simulation, data: np.ndarray, delta: float, cols: slice,
           carried: bool) -> None:
    """Exact exponential update of the stress toward its Navier-Stokes value
    on the padded columns `cols`, with the velocity gradient frozen over the
    substep; `carried` reuses the last relaxation's ghosts and gradients."""
    if not carried:
        _fill_ghosts(sim, data)
    p = sim.work.plan(data, cols)
    zeta, eta, tau = _transport(sim, data, cols)
    grads = p.grads if carried else _velocity_gradients(p)
    factor = np.exp(-delta / tau)
    eq = p.eq  # rows in layout.stress order
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
    cur = p.stress
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
    p = sim.work.plan(data, cols)
    for halo in p.halo:
        np.copyto(*halo)

    def euler(src: np.ndarray) -> None:
        # stage = src + dt * rhs(src) on the plan's written columns
        _fill_ghosts(sim, src)
        p = _hyperbolic_rhs(sim, src, cols)
        p.rhs *= dt
        np.add(p.cells, p.rhs_cells, out=p.stage_cells)

    euler(data)
    euler(sim.work.stage)
    u0, u2 = p.cells, p.stage_cells
    if sim.integrator == "ssprk2":
        u0 *= 0.5  # data = 0.5 u0 + 0.5 u2
        u2 *= 0.5
        u0 += u2
    else:
        u2[:] = 0.75 * u0 + 0.25 * u2
        euler(sim.work.stage)
        u0[:] = u0 / 3.0 + 2.0 / 3.0 * u2


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
    write to them raises ValueError. A series row's dt is that of the step
    that reached its t, also on the last row when the run ends on a step
    that did not advance. Identical configurations produce
    bit-identical series on one platform. A `step` after `run` returns or
    raises recomputes everything.
    """
    if t_end < sim.t:
        raise ValueError("t_end must not precede the current time")
    series = diagnostics.DiagnosticSeries() if series_cadence else None
    if series is not None:
        series.record(sim, 0.0)
    eps = 1e-12 * max(1.0, abs(t_end))
    outcome, dt = StepOutcome("ok", 0.0), 0.0
    sim._carry = _Carry(t_end, None, None)
    try:
        while sim.t < t_end - eps:
            count = sim.step_count
            outcome = step(sim)
            if sim.step_count > count:
                dt = outcome.dt_used  # of the step that reached sim.t
            done = outcome.status != "ok" or sim.t >= t_end - eps
            if series is not None and (sim.step_count % series_cadence == 0 or done) \
                    and sim.t > series.t[-1]:
                series.record(sim, dt)
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
