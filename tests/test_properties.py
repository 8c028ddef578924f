"""Invariants of the finite-volume evolution over randomized inputs.

Each property holds exactly, or to rounding, for the discrete scheme itself,
so an optimization of the step that changes the arithmetic shows up here:

- planar mirror symmetry: data that is even in x (odd for the rows with
  parity -1) stays so bit for bit;
- discrete mass, sum(V_i rho_i), is conserved to rounding when no mass
  crosses the boundary;
- a constant law gives the same bits whether its coefficients are floats,
  which take the scalar path, functions returning the constant as a float
  or as a per-cell array, or a mix of one float and two per-cell functions;
- `run`, which validates once per step and carries the velocity gradients
  of a step's closing relaxation into the next (and, for a law that reads
  no stress, its Navier-Stokes stresses), gives the same bits, time steps
  and outcome as a loop of `cfl_dt` and public `step` calls, with constant
  laws, laws of rho alone and laws of the stress, and as its window widens;
- on a periodic grid, rolling the initial data by m cells rolls the result
  of a run by m cells, bit for bit, with the same time steps;
- with Pi_bar = 0, the uniform reference state is a fixed point of the
  step, bit for bit, and a run that steps only the active window around a
  bump gives the bits, time steps and outcome of one over the whole grid;
- inside `run`, the window that a step's edge bands give keeps every cell
  that differs from the reference STEP_REACH_CELLS inside it, and never
  shrinks;
- the front check, which reads the cells beyond the front as runs at the
  window's ends, gives the message of a mask over the window, ties and a
  cell centred on the front's radius included;
- `Grid1D` and `Simulation` accept a scenario's grid and run settings
  exactly when `config.validate` does, and reject them with one of its
  messages;
- `cli._csv_lines`, which formats each distinct bit pattern of a column
  once, writes the bytes of one `repr` per value;
- scale invariance: scaling x_min, x_max, R, t_end and the laws of zeta,
  eta and tau by a power of two lam leaves the fields of every step
  unchanged, bit for bit, and scales each time step by exactly lam;
- the MUSCL face states of a step plan, whose minmod slope is
  copysign(min(|dl|, |dr|) / 2, dl) where dl dr > 0, have the bits of the
  pick of the slope of least magnitude, signed zeros, infinities and NaNs
  included, on flat rows and on a window read through 2-D views;
- a negation folded into a division (x / -v) or a subtraction (d - v) has
  the bits of the negation done apart, a NaN's sign aside;
- shear data without transverse motion (v2, v3, Pi12, Pi13 and Pi23 zero)
  and with Pi33 = Pi22 evolves in the 4-row reduced longitudinal layout
  with the bits, times, time steps and outcomes of the 10-row "shear"
  layout, whose transverse rows stay +0.0 and whose Pi33 keeps Pi22's
  bits; data at Pi_bar = 0 that moves only v2 and Pi12 does so in the
  5-row reduced transverse layout, the other rows of the 10-row run
  staying uniform or +0.0.
"""

import struct

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from viscoflow import cli, solver
from viscoflow.config import (ScenarioConfig, default_tolerances, material_law,
                              reference_state, validate)
from viscoflow.materials import (_SHEAR_LONGITUDINAL, _SHEAR_TRANSVERSE, LAYOUTS, MaterialLaw,
                                 ReferenceState)
from viscoflow.solver import Grid1D, Simulation, bump

# A draw that runs the solver costs up to a second, and shrinking a failing
# one took minutes: those tests report their first failing draw unshrunk. The
# draws are those of the default phases. The tests that run no solver shrink.
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True, database=None,
                    phases=(Phase.explicit, Phase.reuse, Phase.generate))
SHRINKING = settings(PROPERTY, phases=tuple(Phase))
UNTRIPPED = {"front_tol": 1e300, "grad_factor": 1e9}
coefficient = st.floats(0.5, 2.0)


def amplitudes(rows):
    return st.lists(st.floats(-0.1, 0.1), min_size=rows, max_size=rows)


def state_dependent_law(z0, e0, t0):
    # depends on rho, the trace and the contraction only: mirror-even
    return MaterialLaw(
        A=0.5, gamma=1.8,
        zeta=lambda rho, pi, pi2: z0 * rho**1.5 * (1.0 + pi2),
        eta=lambda rho, pi, pi2: e0 * rho * (1.0 + pi2),
        tau=lambda rho, pi, pi2: t0 * (0.5 + 0.5 * rho))


def density_law(z0, e0, t0):
    # fn(rho) power laws: the solver forms no stress invariants for them
    return MaterialLaw(A=0.5, gamma=1.8, zeta=lambda rho: z0 * rho**1.5,
                       eta=lambda rho: e0 * rho**0.5, tau=lambda rho: t0 * (0.5 + 0.5 * rho))


def some_law(constant, c):
    """Constant coefficients c, or the state-dependent law built from them."""
    if constant:
        return MaterialLaw(A=0.5, gamma=1.8, zeta=c[0], eta=c[1], tau=c[2])
    return state_dependent_law(*c)


# every form a law takes, by what a carried relaxation may keep of the last one
CARRIED_LAWS = {"constant": lambda c: some_law(True, c), "rho": lambda c: density_law(*c),
                "pi2": lambda c: some_law(False, c)}


def mirror(sim, rows):
    """Reflect x and flip the odd rows."""
    return np.array(sim.layout.parity)[:, None] * rows[:, ::-1]


def set_symmetric_bumps(sim, amps):
    """Each row gets ref + a * bump (even rows) or a * s * bump (odd rows),
    built on the left half of the grid and mirrored, so the data is exactly
    symmetric whatever the rounding of the cell centres."""
    grid = sim.grid
    half = grid.n_cells // 2
    s = (grid.centers_interior[:half] - grid.center) / sim.reference.R
    w = bump(s)
    inner = sim.fields.interior()
    for f, (a, sign) in enumerate(zip(amps, sim.layout.parity)):
        left = sim.reference_vector[f] + a * (w if sign > 0 else s * w)
        inner[f, :half] = left
        inner[f, half:] = sign * left[::-1] if sign < 0 else left[::-1]


def bumped(system, geometry, law, amps, bc="fixed", integrator="ssprk2", x_max=3.0):
    """A Simulation at the reference state plus amps[f] * bump on row f,
    on a grid of 16 cells per unit of x_max."""
    cells = int(16 * x_max)
    if geometry == "spherical":
        grid = Grid1D("spherical", cells, 0.0, x_max)
    else:
        grid = Grid1D("planar", cells, -x_max, x_max, bc=bc)
    sim = Simulation(grid, system, law, ReferenceState(rho_bar=1.0, R=1.5),
                     integrator=integrator, tolerances=UNTRIPPED)
    arm = grid.centers_interior - grid.center
    w = bump(arm / 1.5)
    inner = sim.fields.interior()
    for f in range(inner.shape[0]):
        inner[f] += amps[f] * w
    return sim


def bits(a):
    return a.view(np.int64)


def evolve(sim, steps):
    for _ in range(steps):
        out = solver.step(sim)
        assert out.status == "ok", out.message
    return sim.fields.interior().copy()


class TestMirrorSymmetry:
    @PROPERTY
    @given(amps=amplitudes(3), constant=st.booleans(), c=st.tuples(coefficient, coefficient,
                                                                     coefficient))
    def test_bulk(self, amps, constant, c):
        law = some_law(constant, c)
        grid = Grid1D("planar", 48, -3.0, 3.0)
        sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=1.5),
                         tolerances=UNTRIPPED)
        set_symmetric_bumps(sim, amps)
        final = evolve(sim, 15)
        assert np.array_equal(final, mirror(sim, final))

    @PROPERTY
    @given(amps=amplitudes(10), constant=st.booleans(), c=st.tuples(coefficient, coefficient,
                                                                      coefficient))
    def test_shear(self, amps, constant, c):
        law = some_law(constant, c)
        grid = Grid1D("planar", 48, -3.0, 3.0)
        sim = Simulation(grid, "shear", law,
                         ReferenceState(rho_bar=1.0, R=1.5, Pi_bar=0.05),
                         tolerances=UNTRIPPED)
        set_symmetric_bumps(sim, amps)
        final = evolve(sim, 15)
        assert np.array_equal(final, mirror(sim, final))


class TestMass:
    @PROPERTY
    @given(amps=amplitudes(10), system=st.sampled_from(["bulk", "shear"]))
    def test_periodic_planar_mass_to_rounding(self, amps, system):
        grid = Grid1D("planar", 64, 0.0, 2.0 * np.pi, bc="periodic")
        law = state_dependent_law(1.0, 0.7, 1.2)
        sim = Simulation(grid, system, law, ReferenceState(rho_bar=1.0, R=1.0),
                         tolerances=UNTRIPPED)
        x = grid.centers_interior
        inner = sim.fields.interior()
        for f in range(inner.shape[0]):
            inner[f] += amps[f] * np.sin((f + 1) * x + f)
        mass0 = float(np.sum(inner[0]) * grid.dx)
        rho = evolve(sim, 20)[0]
        assert abs(float(np.sum(rho) * grid.dx) - mass0) <= 1e-14 * mass0

    @PROPERTY
    @given(a=st.floats(-0.3, 0.3), b=st.floats(-0.3, 0.3), c=st.floats(-0.1, 0.1))
    def test_spherical_mass_to_rounding(self, a, b, c):
        grid = Grid1D("spherical", 96, 0.0, 3.0)
        law = MaterialLaw(A=0.5, gamma=2.0, zeta=1.0, tau=1.0)
        sim = Simulation(grid, "bulk", law, ReferenceState(rho_bar=1.0, R=1.0),
                         tolerances=UNTRIPPED)
        r = grid.centers_interior
        w = bump(r)
        sim.fields.set("rho", 1.0 + a * w)
        sim.fields.set("u", b * r * w)
        sim.fields.set("Pi", c * w)
        mass0 = float(np.sum(grid.cell_volumes * sim.fields.get("rho")))
        # 10 steps move the disturbance less than a cell: no flux at r = 3
        rho = evolve(sim, 10)[0]
        assert abs(float(np.sum(grid.cell_volumes * rho)) - mass0) <= 1e-14 * mass0


class TestScalarPath:
    @staticmethod
    def run(system, geometry, zeta, eta, tau, amps):
        law = MaterialLaw(A=0.5, gamma=1.8, zeta=zeta, eta=eta, tau=tau)
        return evolve(bumped(system, geometry, law, amps), 12)

    @PROPERTY
    @given(c=st.tuples(coefficient, coefficient, coefficient), amps=amplitudes(10),
           case=st.sampled_from([("bulk", "planar"), ("bulk", "spherical"),
                                 ("shear", "planar")]),
           const=st.integers(0, 2))
    def test_constant_law_bits_match_the_general_path(self, c, amps, case, const):
        def as_float(v):
            return lambda rho, pi, pi2: v

        def per_cell(v):
            return lambda rho, pi, pi2: np.full_like(rho, v)

        mixed = tuple(v if i == const else per_cell(v) for i, v in enumerate(c))
        scalar = self.run(*case, *c, amps)
        for law in (tuple(map(as_float, c)), tuple(map(per_cell, c)), mixed):
            general = self.run(*case, *law, amps)
            assert np.array_equal(bits(scalar), bits(general))


class TestCarriedState:
    """A step inside `run` keeps the last one's velocity gradients while its
    window holds, and for a law that reads no stress (constants, fn(rho))
    the Navier-Stokes stresses of its closing relaxation too."""

    @staticmethod
    def run_matches_public_steps(case, law, integrator, amps, x_max=3.0):
        """The windows of the run's steps."""
        system, geometry, bc = case
        sim_a, sim_b = (bumped(system, geometry, law, amps, bc, integrator, x_max)
                        for _ in range(2))
        t_end = 12.5 * solver.cfl_dt(sim_a)
        times, windows = [], []

        def observer(s):
            times.append(s.t)
            windows.append(s._carry.window)

        out_a, _ = solver.run(sim_a, t_end, observer=observer)

        expected = []
        while sim_b.t < t_end - 1e-12 * max(1.0, t_end):
            out_b = solver.step(sim_b, min(solver.cfl_dt(sim_b), t_end - sim_b.t))
            expected.append(sim_b.t)
            if out_b.status != "ok":
                break
        assert out_a == out_b
        assert times == expected and len(times) >= 12
        assert np.array_equal(bits(sim_a.fields.data), bits(sim_b.fields.data))
        return windows

    # every case with every form of law: ten draws of both left some unrun
    @pytest.mark.parametrize("law", sorted(CARRIED_LAWS))
    @pytest.mark.parametrize("case", [("bulk", "planar", "fixed"), ("bulk", "planar", "periodic"),
                                      ("bulk", "spherical", "fixed"), ("shear", "planar", "fixed"),
                                      ("shear", "planar", "periodic")], ids="-".join)
    @settings(PROPERTY, max_examples=4)
    @given(c=st.tuples(coefficient, coefficient, coefficient),
           integrator=st.sampled_from(["ssprk2", "ssprk3"]), amps=amplitudes(10))
    def test_run_matches_public_steps(self, case, law, c, integrator, amps):
        self.run_matches_public_steps(case, CARRIED_LAWS[law](c), integrator, amps)

    @pytest.mark.parametrize("law", sorted(CARRIED_LAWS))
    @pytest.mark.parametrize("case", [("bulk", "spherical", "fixed"), ("shear", "planar", "fixed")],
                             ids="-".join)
    def test_run_matches_public_steps_as_the_window_widens(self, case, law):
        # a bump of 24 cells in 160: the window starts a block or two wide
        # and widens a block at a time, and each widened step keeps nothing
        amps = [0.05, 0.0, 0.02, 0.0, 0.0, 0.03, 0.0, 0.02, 0.0, 0.02][:len(LAYOUTS[case[0]].names)]
        windows = self.run_matches_public_steps(case, CARRIED_LAWS[law]((1.1, 0.9, 1.3)),
                                                "ssprk2", amps, x_max=10.0)
        assert windows[-1] != windows[0]


class TestPeriodicTranslation:
    @PROPERTY
    @given(system=st.sampled_from(["bulk", "shear"]), constant=st.booleans(),
           c=st.tuples(coefficient, coefficient, coefficient), shift=st.integers(1, 63),
           amps=amplitudes(10))
    def test_rolled_data_gives_the_rolled_result(self, system, constant, c, shift, amps):
        grid = Grid1D("planar", 64, 0.0, 2.0 * np.pi, bc="periodic")
        sims = [Simulation(grid, system, some_law(constant, c),
                           ReferenceState(rho_bar=1.0, R=1.0), tolerances=UNTRIPPED)
                for _ in range(2)]
        x = grid.centers_interior
        inner = sims[0].fields.interior()
        for f in range(inner.shape[0]):
            inner[f] += amps[f] * np.sin((f + 1) * x + f)
        sims[1].fields.interior()[:] = np.roll(inner, shift, axis=1)

        t_end = 30.0 * solver.cfl_dt(sims[0])
        times = [[], []]
        for sim, seen in zip(sims, times):
            out, _ = solver.run(sim, t_end, observer=lambda s, seen=seen: seen.append(s.t))
            assert out.status == "ok"
        assert times[0] == times[1] and len(times[0]) >= 25
        rolled = np.roll(sims[0].fields.interior(), shift, axis=1)
        assert np.array_equal(bits(rolled), bits(sims[1].fields.interior()))


law_spec = st.one_of(st.floats(0.3, 3.0).map(repr),
                    st.tuples(st.floats(0.3, 3.0), st.floats(-2.0, 2.0))
                    .map(lambda cp: f"powerlaw:{cp[0]!r},{cp[1]!r}"))


@st.composite
def uniform_scenarios(draw):
    """A uniform reference with Pi_bar = 0 on any grid the solver accepts."""
    system = draw(st.sampled_from(["bulk", "shear"]))
    geometry = "planar" if system == "shear" else draw(st.sampled_from(["planar", "spherical"]))
    bc = "fixed" if geometry == "spherical" else draw(st.sampled_from(["fixed", "periodic"]))
    v_bar = draw(st.floats(-0.5, 0.5)) if geometry == "planar" else 0.0
    law = material_law(ScenarioConfig(A=draw(st.floats(0.2, 2.0)),
                                      gamma=draw(st.floats(1.2, 3.0)),
                                      **{name: draw(law_spec) for name in ("zeta", "eta", "tau")}))
    reference = ReferenceState(rho_bar=draw(st.floats(0.3, 3.0)), R=1.0,
                               v_bar=(v_bar, 0.0, 0.0))
    grid = Grid1D(geometry, 40, 0.0 if geometry == "spherical" else -2.0, 2.0, bc=bc)
    return grid, system, law, reference


class TestFixedPoint:
    """The precondition of the active window: where the reference is stationary,
    a step leaves a cell whose neighbourhood holds it alone."""

    @PROPERTY
    @given(uniform_scenarios())
    def test_uniform_reference_is_unchanged(self, scenario):
        grid, system, law, reference = scenario
        sim = Simulation(grid, system, law, reference)
        assert sim._stationary == (grid.bc == "fixed")
        before = sim.fields.interior().copy()
        for _ in range(20):
            assert solver.step(sim).status == "ok"
        assert np.array_equal(bits(sim.fields.interior()), bits(before))

    def test_uniform_stress_relaxes(self, unit_law):
        grid = Grid1D("planar", 40, -2.0, 2.0)
        sim = Simulation(grid, "bulk", unit_law,
                         ReferenceState(rho_bar=1.0, R=1.0, Pi_bar=0.05),
                         tolerances=UNTRIPPED)
        assert not sim._stationary
        before = sim.fields.interior().copy()
        assert solver.step(sim).status == "ok"
        assert np.all(np.abs(sim.fields.get("Pi")) < 0.05)
        assert not np.array_equal(sim.fields.interior(), before)


def whole_interior(sim):
    return sim.grid.interior


class TestActiveWindow:
    @PROPERTY
    @given(system=st.sampled_from(["bulk", "shear"]), spherical=st.booleans(),
           amps=amplitudes(10).filter(lambda a: any(a[:3])), centre=st.floats(0.0, 1.0),
           width=st.floats(0.15, 0.6),
           v_bar=st.floats(-0.3, 0.3), constant=st.booleans(),
           c=st.tuples(coefficient, coefficient, coefficient), front=st.booleans())
    def test_run_matches_the_whole_grid_run(self, system, spherical, amps, centre, width,
                                            v_bar, constant, c, front):
        spherical = spherical and system == "bulk"
        if spherical:
            grid, v_bar = Grid1D("spherical", 160, 0.0, 4.0), 0.0
            middle = 2.0 * centre
        else:
            grid = Grid1D("planar", 160, -4.0, 4.0)
            middle = 4.0 * centre - 2.0
        # the front check trips on some runs, late enough to follow the window
        reference = ReferenceState(rho_bar=1.0, R=abs(middle - grid.center)
                                   + width, v_bar=(v_bar, 0.0, 0.0))
        tolerances = {"grad_factor": 1e9, "front_tol": 1e-5 if front else 1e300}

        def bumped_sim():
            sim = Simulation(grid, system, some_law(constant, c), reference,
                             tolerances=tolerances)
            w = bump((grid.centers_interior - middle) / width)
            inner = sim.fields.interior()
            for f in range(inner.shape[0]):
                inner[f] += amps[f] * w
            return sim

        def evolve(sim):
            times = []
            out, _ = solver.run(sim, 30.5 * solver.cfl_dt(sim),
                                observer=lambda s: times.append(s.t))
            return out, times

        sim = bumped_sim()
        # a bump too small to change a bit leaves the uniform fixed point,
        # whose window is the whole interior by design (TestEquilibriumFixedPoint)
        assume(solver._window(sim) != grid.interior)
        out, times = evolve(sim)
        whole = bumped_sim()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_window", whole_interior)
            assert evolve(whole) == (out, times)
        assert np.array_equal(bits(sim.fields.data), bits(whole.fields.data))
        assert len(times) >= (30 if out.status == "ok" else 1)

    @pytest.mark.parametrize("geometry", ["planar", "spherical"])
    def test_edge_bands_keep_every_difference_inside_the_window(self, geometry):
        # a density bump at rest splits into two pulses moving apart (one
        # outward pulse on the spherical grid); the planar one sits off the
        # middle of a block, so its two bands turn dirty at different steps
        grid = Grid1D(geometry, 400, -4.0 if geometry == "planar" else 0.0, 4.0)
        sim = Simulation(grid, "bulk", MaterialLaw(A=0.5, gamma=1.8, zeta=1.0, tau=0.5),
                         ReferenceState(rho_bar=1.0, R=1.0), tolerances=UNTRIPPED)
        rho = sim.fields.get("rho")
        rho += 0.2 * bump((grid.arms - (0.3 if geometry == "planar" else 0.0)) / 0.4)
        inner, reach = grid.interior, solver.STEP_REACH_CELLS
        assert solver.WINDOW_BLOCK >= reach  # a dirty band's block covers a step's reach
        ref = bits(sim.reference_vector)[:, None]
        windows = [solver._window(sim)]

        def inside(s):
            window, last = s._carry.window, windows[-1]
            differs = np.flatnonzero((bits(s.fields.data[:, inner]) != ref).any(axis=0))
            first, end = differs[[0, -1]] + inner.start
            assert window.start == inner.start or first >= window.start + reach
            assert window.stop == inner.stop or end < window.stop - reach
            assert window.start <= last.start and last.stop <= window.stop  # never shrinks
            windows.append(window)

        out, _ = solver.run(sim, 60.5 * solver.cfl_dt(sim), observer=inside)
        assert out.status == "ok" and len(windows) > 60 and windows[0] != inner
        # the window widened block by block on every side with a band
        assert len({w.start for w in windows}) > (2 if geometry == "planar" else 0)
        assert len({w.stop for w in windows}) > 2


def front_by_mask(sim, cols):
    """The front check as a mask over every cell of the padded columns
    `cols`: the cells whose radius exceeds the front's, their worst
    deviation, and the first (field, cell) of it in row-major order."""
    grid, g = sim.grid, sim.grid.n_ghost
    radius = sim.reference.R + sim.cv_bar * sim.t + solver.FRONT_SLACK_CELLS * grid.dx
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


class TestFrontCheck:
    def test_runs_at_the_window_ends_match_a_mask(self):
        # deviations from a few values, so that the worst one ties within a
        # row and across rows of one scale (the shear velocities, stresses)
        rng = np.random.default_rng(7)
        seen = dict.fromkeys(["both ends", "tail", "on the radius", "inside", "tie"], 0)
        for _ in range(400):
            system = str(rng.choice(["bulk", "shear"]))
            geometry = "planar" if system == "shear" or rng.random() < 0.5 else "spherical"
            n = int(rng.choice([8, 16, 32, 64]))
            grid = Grid1D(geometry, n, -4.0 if geometry == "planar" else 0.0, 4.0)
            slack = solver.FRONT_SLACK_CELLS * grid.dx
            on = int(rng.choice(np.flatnonzero(grid.radii > slack)))
            if rng.random() < 0.25:
                # a cell centred on the front, with the worst deviation: with
                # dyadic centres R + 0 + slack is exact
                R, t = grid.radii[on] - slack, 0.0
            else:
                R, t = rng.uniform(0.05, 2.0), rng.uniform(0.0, 0.5)
            sim = Simulation(grid, system, MaterialLaw(A=0.5, gamma=1.8),
                             ReferenceState(rho_bar=1.0, R=R),
                             tolerances={"front_tol": float(rng.choice([1e-4, 1e-2, 1.0]))})
            sim.t = t
            inner = sim.fields.interior()
            inner += (rng.choice([0.0, 0.0, 1e-3, 2e-3, -2e-3, 0.5], size=inner.shape)
                      * sim.front_scales[:, None])
            f = int(rng.integers(len(inner)))
            inner[f, on] += sim.front_scales[f]
            lo = int(rng.integers(0, n))
            hi = int(rng.integers(lo + 1, n + 1))
            cols = slice(lo + grid.n_ghost, hi + grid.n_ghost)
            message = solver._front_violation(sim, cols)
            assert message == front_by_mask(sim, cols)

            radius = R + sim.cv_bar * t + slack
            radii = grid.radii[lo:hi]
            beyond = radii > radius
            seen["inside"] += not beyond.any()
            seen["on the radius"] += bool((radii == radius).any())
            seen["both ends"] += bool(beyond[0] and beyond[-1] and not beyond.all())
            seen["tail"] += geometry == "spherical" and bool(beyond[-1] and not beyond[0])
            dev = (np.abs(inner[:, lo:hi][:, beyond] - sim.reference_vector[:, None])
                   / sim.front_scales[:, None])
            seen["tie"] += message is not None and int(np.sum(dev == dev.max())) > 1
        assert min(seen.values()) >= 10, seen


# values on either side of each grid and run rule
WITHIN = {"system": ["bulk", "shear"], "geometry": ["planar", "spherical"],
          "bc": ["fixed", "periodic"], "n_cells": [8, 9, 10], "x_min": [-1.0, 0.0, 0.5],
          "cfl": [0.4, 1.0], "integrator": ["ssprk2", "ssprk3"],
          "tolerance_key": list(default_tolerances()), "tolerance": [1e-3, 10.0]}
BEYOND = {"system": ["plasma"], "geometry": ["conical"], "bc": ["open"], "n_cells": [6, 7],
          "x_min": [4.0], "cfl": [-0.4, 0.0, float("nan"), 1.5], "integrator": ["euler"],
          "tolerance_key": ["chek_front"], "tolerance": [float("nan"), -1.0, 0.0]}


@st.composite
def grid_and_run_settings(draw):
    """Settings with at most two entries beyond their rule's boundary."""
    beyond = draw(st.sets(st.sampled_from(sorted(BEYOND)), max_size=2))

    def values(name):
        return st.sampled_from((BEYOND if name in beyond else WITHIN)[name])

    out = {name: draw(values(name)) for name in WITHIN if not name.startswith("tolerance")}
    out["tolerances"] = draw(st.dictionaries(values("tolerance_key"), values("tolerance"),
                                             max_size=2))
    return out


class TestSharedRules:
    """The grid and run rules are the same for the config and the constructors."""

    @settings(SHRINKING, max_examples=200)
    @given(grid_and_run_settings())
    def test_constructors_accept_what_validate_accepts(self, s):
        # the material, reference and front are valid, so any problem
        # validate reports is a grid or run problem
        cfg = ScenarioConfig(**(s | {"tolerances": default_tolerances() | s["tolerances"]}),
                             A=0.5, t_end=0.25)
        problems = validate(cfg)
        try:
            grid = Grid1D(s["geometry"], s["n_cells"], s["x_min"], cfg.x_max, bc=s["bc"])
            Simulation(grid, s["system"], material_law(cfg), reference_state(cfg),
                       cfl=s["cfl"], integrator=s["integrator"], tolerances=s["tolerances"])
        except ValueError as exc:
            assert str(exc) in problems
        else:
            assert problems == []


# signed zeros, NaN payloads of either sign, infinities and subnormals
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
SPECIAL = [0.0, -0.0, float("nan"), -float("nan"), PAYLOAD_NAN, -PAYLOAD_NAN, float("inf"),
           -float("inf"), 5e-324, -5e-324, 2.225073858507201e-308, 1.0, 0.1]


@st.composite
def csv_tables(draw):
    """Float columns of many repeats and special values, and an integer column
    like `multiplicity` in speeds.csv, all of 0 to 16 rows."""
    rows = draw(st.integers(0, 16))
    pool = draw(st.lists(st.sampled_from(SPECIAL) | st.floats(), min_size=1, max_size=4))
    value = st.sampled_from(pool) | st.sampled_from(SPECIAL)
    floats = [draw(st.lists(value, min_size=rows, max_size=rows))
              for _ in range(draw(st.integers(1, 4)))]
    counts = draw(st.lists(st.integers(0, 8), min_size=rows, max_size=rows))
    return floats, counts


class TestCsvWords:
    @settings(SHRINKING, max_examples=50)
    @given(csv_tables())
    @example(([[]], []))
    @example(([[-0.0], [0.0]], [3]))
    def test_csv_lines_are_a_repr_per_value(self, table):
        floats, counts = table
        # strided float columns, as `dispersion` passes them, and a list column
        columns = [*np.ascontiguousarray(np.array(floats, dtype=float).T).T, counts]
        header = [f"c{i}" for i in range(len(columns))]
        oracle = ",".join(header) + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in zip(*floats, map(float, counts)))
        assert "".join(cli._csv_lines(header, columns)) == oracle


# steps that make ties |dl| = |dr|, sign changes, and products dl dr that
# underflow to 0 (1e-200 * 1e-200)
STEPS = [1.0, -1.0, 0.5, 3.0, 0.0, -0.0, 1e-200, -1e-200, 1e300]


@st.composite
def stencil_rows(draw):
    """A system, its field rows over a padded grid of 8 to 14 cells, and a
    window of it, the whole grid in about half the cases. One row is drawn
    from special values and runs of equal steps; the others are it rolled by
    the row's index, odd rows negated."""
    system = draw(st.sampled_from(["bulk", "shear"]))
    n = draw(st.integers(8, 14))
    row = [draw(st.sampled_from(SPECIAL) | st.floats())]
    for _ in range(n + 3):
        step = draw(st.sampled_from(STEPS) | st.just(None))
        row.append(draw(st.sampled_from(SPECIAL) | st.floats()) if step is None
                   else row[-1] + step)
    rows = np.array([(-1.0) ** r * np.roll(row, r) for r in range(len(LAYOUTS[system].names))])
    if draw(st.booleans()):
        return system, rows, 0, n  # the whole grid: flat rows
    lo = draw(st.integers(0, n - 1))
    return system, rows, lo, draw(st.integers(lo + 1, n))


def picked_face_states(w):
    """The minmod face states as a where-chain: the slope of least magnitude
    (dl on a tie), zeroed where dl dr is not positive, then halved."""
    d = w[:, 1:] - w[:, :-1]
    dl, dr = d[:, :-1], d[:, 1:]
    s = dl * dr
    flat = ~(s > 0.0)
    pick = np.less_equal(np.abs(dl), np.abs(dr))
    np.copyto(s, dr)
    np.copyto(s, dl, where=pick)
    np.copyto(s, 0.0, where=flat)
    s *= 0.5
    return w[:, 1:-2] + s[:, :-1], w[:, 2:-1] - s[:, 1:]


class TestScaleInvariance:
    """x -> lam x and t -> lam t, with zeta, eta and tau -> lam zeta, lam eta,
    lam tau, map a solution to a solution with rho, v and Pi unchanged. For lam
    a power of two every product and quotient of a step scales exactly, so the
    scaled run repeats the bits of the unscaled one."""

    LAWS = {"constant": [(1.3, None), (0.8, None), (0.9, None)],
            "power": [(1.3, 1.5), (0.8, 1.0), (0.9, 0.5)]}

    @staticmethod
    def scenario(system, geometry, bc, laws, lam):
        zeta, eta, tau = (repr(lam * c) if p is None else f"powerlaw:{lam * c!r},{p!r}"
                          for c, p in laws)
        x_min = 0.0 if geometry == "spherical" else -2.0
        return solver.init_scenario(ScenarioConfig(
            system=system, geometry=geometry, bc=bc, zeta=zeta, eta=eta, tau=tau, R=lam,
            a=0.2, b=0.3, c=0.05, n_cells=96, x_min=lam * x_min, x_max=lam * 2.0,
            t_end=lam * 0.5, tolerances=default_tolerances() | UNTRIPPED))

    @pytest.mark.parametrize("law", ["constant", "power"])
    @pytest.mark.parametrize("system,geometry,bc", [
        ("bulk", "planar", "fixed"), ("bulk", "planar", "periodic"),
        ("bulk", "spherical", "fixed"), ("shear", "planar", "fixed"),
        ("shear", "planar", "periodic")])
    def test_power_of_two_scaling_scales_every_step(self, system, geometry, bc, law):
        base = self.scenario(system, geometry, bc, self.LAWS[law], 1.0)
        scaled = {lam: self.scenario(system, geometry, bc, self.LAWS[law], lam)
                  for lam in (2.0**-3, 2.0**2)}
        for _ in range(40):
            out = solver.step(base)
            assert out.status == "ok", out.message
            for lam, sim in scaled.items():
                assert solver.step(sim).dt_used == lam * out.dt_used
                assert sim.t == lam * base.t
                assert np.array_equal(sim.fields.data.view(np.int64),
                                      base.fields.data.view(np.int64))


class TestMinmod:
    @settings(SHRINKING, max_examples=60)
    @given(stencil_rows())
    @example(("bulk", np.tile(np.arange(12) * 1e-200, (3, 1)), 0, 8))  # dl dr underflows to 0
    @example(("shear", np.tile([0.0, -0.0, PAYLOAD_NAN, 1.0, 2.0, 3.0, np.inf, 5e-324, -5e-324,
                                -1.0, 0.0, 1.0, 1e300, -1e300], (10, 1)), 3, 7))
    def test_face_states_match_the_picked_slope(self, case):
        system, data, lo, hi = case
        grid = Grid1D("planar", data.shape[1] - 4, 0.0, 1.0, bc="periodic")
        sim = Simulation(grid, system, MaterialLaw(A=0.5, gamma=2.0), ReferenceState(1.0, 1.0))
        sim.fields.data[:] = data
        cols = slice(2 + lo, 2 + hi)
        plan = sim.work.plan(cols)
        rows = (slice(None), sim.layout.velocity)
        with np.errstate(all="ignore"):
            for faces, block in zip((plan.all, plan.velocity), rows):
                solver._reconstruct(faces)
                width = hi - lo + 4
                got = [faces.rows(f)[:, 2:width - 1] for f in (faces.left, faces.right)]
                want = picked_face_states(data[block, lo:lo + width])
                for g, w in zip(got, want):
                    assert np.array_equal(g.view(np.int64), w.view(np.int64))


@st.composite
def sign_rows(draw):
    """x, v and d: three blocks of 1 or 2 rows of 1 to 40 values, drawn from
    the special values and any float."""
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 40)))
    value = st.sampled_from(SPECIAL) | st.floats()
    return [np.array(draw(st.lists(value, min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1]))).reshape(shape)
            for _ in range(3)]


def same_bits(got, want):
    """Bit for bit, a NaN only as a NaN."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


PAIRS = np.array([np.repeat(SPECIAL, len(SPECIAL))]), np.array([np.tile(SPECIAL, len(SPECIAL))])


class TestSignFolding:
    """A step folds two negations into the call beside them, in place as it
    does: the right-hand side divided by -V has the bits of its quotient by
    V negated, and the velocity rows' d - v those of -v + d. Rounding to
    nearest is symmetric in sign, so only a NaN's sign can differ."""

    @settings(SHRINKING, max_examples=100)
    @given(sign_rows())
    @example([PAIRS[0], PAIRS[1], PAIRS[0]])  # every pair of special values
    def test_a_folded_negation_keeps_the_bits(self, rows):
        x, v, d = rows
        with np.errstate(all="ignore"):
            folded, negated = x.copy(), x.copy()
            folded /= -v[0]  # a row broadcast over the block, as the volumes are
            negated /= v[0]
            same_bits(folded, np.negative(negated, out=negated))
            folded, negated = v.copy(), np.negative(v)
            same_bits(np.subtract(d, folded, out=folded), np.add(negated, d, out=negated))


REDUCTION_LAWS = {
    "constant": lambda z, e, t: MaterialLaw(A=0.5, gamma=1.8, zeta=z, eta=e, tau=t),
    "rho": lambda z, e, t: MaterialLaw(A=0.5, gamma=1.8,
                                       zeta=lambda rho, pi, pi2: z * rho**1.5,
                                       eta=lambda rho, pi, pi2: e * rho,
                                       tau=lambda rho, pi, pi2: t * (0.5 + 0.5 * rho)),
    "pi2": state_dependent_law}


def repeats_the_full_run(layout, bc, integrator, law, reference, front, seed, amps):
    """Rough data (a bump times noise, amps[name] on the named rows of the
    reduced `layout`), evolved in the 10-row layout and in `layout`, step by
    step and then by `run`. After every step the outcomes, times and step
    counts agree, and each of the ten fields has the bits the reduced run
    answers for it: a stored row's, Pi22's for Pi33 in the longitudinal
    layout, +0.0 for a component the layout does not store."""
    grid = Grid1D("planar", 48, -3.0, 3.0, bc=bc)
    # the default front_tol trips on some fixed runs: their messages must agree too
    settings = dict(integrator=integrator,
                    tolerances={"grad_factor": 1e9} | ({} if front else {"front_tol": 1e300}))
    full = Simulation(grid, "shear", law, reference, **settings)
    reduced = solver._reduced(layout, grid, law, reference, **settings)
    assert reduced.system == "shear" and reduced.layout is layout
    rng = np.random.default_rng(seed)
    w = bump((grid.centers_interior - grid.center) / reference.R)
    for name, a in amps.items():
        reduced.fields.set(name, reduced.fields.get(name)
                           + a * w * rng.uniform(0.5, 1.5, grid.n_cells))
    names = LAYOUTS["shear"].names
    for name in names:
        full.fields.set(name, reduced.fields.get(name))

    def same():
        assert full.t == reduced.t and full.step_count == reduced.step_count
        for name in names:
            assert np.array_equal(bits(full.fields.get(name)), bits(reduced.fields.get(name)))

    for _ in range(8):
        out = solver.step(full)
        assert solver.step(reduced) == out
        same()
        if out.status != "ok":
            return
    # `run` carries gradients and windows from step to step
    t_end = full.t + 12.5 * solver.cfl_dt(full)
    (out, _), (out_reduced, _) = (solver.run(sim, t_end) for sim in (full, reduced))
    assert out_reduced == out
    same()


class TestLongitudinalReduction:
    """The 4-row longitudinal layout is the 10-row one without its
    transverse rows and with Pi22's row standing for Pi33, bit for bit, for
    every law: constant, of rho alone, or of pi2 too."""

    @settings(PROPERTY, max_examples=4)
    @given(c=st.tuples(coefficient, coefficient, coefficient), amps=amplitudes(4),
           v_bar=st.floats(-0.3, 0.3), Pi_bar=st.sampled_from([0.0, 0.05]),
           front=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("law", sorted(REDUCTION_LAWS))
    @pytest.mark.parametrize("integrator", ["ssprk2", "ssprk3"])
    @pytest.mark.parametrize("bc", ["fixed", "periodic"])
    def test_reduced_layout_repeats_the_full_one(self, bc, integrator, law, c, amps, v_bar,
                                                 Pi_bar, front, seed):
        reference = ReferenceState(rho_bar=1.0, R=1.5, Pi_bar=Pi_bar, v_bar=(v_bar, 0.0, 0.0))
        repeats_the_full_run(_SHEAR_LONGITUDINAL, bc, integrator, REDUCTION_LAWS[law](*c),
                             reference, front, seed, dict(zip(_SHEAR_LONGITUDINAL.names, amps)))


class TestTransverseReduction:
    """The 5-row transverse layout is the 10-row one on data at Pi_bar = 0
    whose only non-uniform rows are v2 and Pi12, bit for bit, for every law:
    rho and v1 stay uniform, and v3, Pi13, Pi22, Pi23 and Pi33 stay +0.0."""

    @settings(PROPERTY, max_examples=4)
    @given(c=st.tuples(coefficient, coefficient, coefficient), amps=amplitudes(2),
           v_bar=st.floats(-0.3, 0.3), front=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("law", sorted(REDUCTION_LAWS))
    @pytest.mark.parametrize("integrator", ["ssprk2", "ssprk3"])
    @pytest.mark.parametrize("bc", ["fixed", "periodic"])
    def test_reduced_layout_repeats_the_full_one(self, bc, integrator, law, c, amps, v_bar,
                                                 front, seed):
        reference = ReferenceState(rho_bar=1.0, R=1.5, v_bar=(v_bar, 0.0, 0.0))
        repeats_the_full_run(_SHEAR_TRANSVERSE, bc, integrator, REDUCTION_LAWS[law](*c),
                             reference, front, seed, dict(zip(("v2", "Pi12"), amps)))
