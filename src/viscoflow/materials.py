"""Fluid state types, the barotropic equation of state, and transport-coefficient laws.

All quantities are in dimensionless code units. The pressure law is the power
law P = A * rho**gamma with A > 0 and gamma > 1; transport coefficients
(bulk viscosity zeta, shear viscosity eta, relaxation time tau) are either
positive constants or functions of the rotational invariants of the state:
the density rho, the normalized stress trace pi = Pi_ii / 3, and the full
contraction pi2 = Pi_ij Pi_ij. `MaterialLaw` holds a constant as a float and
a function as the callable itself, fn(rho) or fn(rho, pi, pi2); a function
accepts scalars and numpy arrays alike and returns strictly positive, finite
values.

Each fact of a fluid state is stated here once, and the solver, the
reference evaluation and the analyses read it from here: the squared sound
speed (`sound_speed2`), the invariants (pi, pi2) of a stored stress
(`stress_invariants`), and the rows of each system's solver fields
(`FieldLayout`), which say where each stress component lives. A caller
names a system, "bulk" or "shear" (`LAYOUTS`); the two reduced shear
layouts, which store fewer rows for data in a subspace, are private to the
solver's builders.
"""

from __future__ import annotations

import inspect
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MaterialLawError",
    "MaterialLaw",
    "BulkState",
    "ShearState",
    "ReferenceState",
    "FieldLayout",
    "LAYOUTS",
    "pressure",
    "sound_speed2",
    "sound_speed",
    "stress_invariants",
    "eval_transport",
]


class MaterialLawError(ValueError):
    """A transport-coefficient law produced a non-positive or non-finite value."""


@dataclass(frozen=True)
class MaterialLaw:
    """Equation of state P = A rho**gamma plus transport-coefficient laws.

    Each of zeta, eta and tau is a positive finite constant, stored as a
    float, or a law: the caller's callable, kept as given, in one of two
    forms. fn(rho, pi, pi2) receives the stress invariants. fn(rho), a
    callable that cannot take three positional arguments, reads the density
    alone, and the solver forms no invariants for a law whose functions all
    take that form (the config's powerlaw:c,p does). The form is told apart
    once, here, from the callable's signature, and `stress_readers` names the
    coefficients of the first form; a callable whose signature cannot be read
    is taken to be fn(rho, pi, pi2). A law must accept scalars and numpy
    arrays alike and return strictly positive, finite values on every
    admissible state; `eval_transport` checks each value it returns.
    """

    A: float
    gamma: float
    zeta: float | Callable = 1.0
    eta: float | Callable = 1.0
    tau: float | Callable = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.A) and self.A > 0.0):
            raise ValueError(f"EOS amplitude A must be positive, got {self.A}")
        if not (np.isfinite(self.gamma) and self.gamma > 1.0):
            raise ValueError(f"adiabatic exponent gamma must exceed 1, got {self.gamma}")
        for name in ("zeta", "eta", "tau"):
            value = getattr(self, name)
            if not callable(value):
                value = float(value)
                if not (np.isfinite(value) and value > 0.0):
                    raise MaterialLawError(f"constant coefficient must be positive, got {value}")
                object.__setattr__(self, name, value)
        object.__setattr__(self, "stress_readers", frozenset(
            name for name in ("zeta", "eta", "tau")
            if callable(getattr(self, name)) and _reads_stress(getattr(self, name))))
        # set here, not computed on first read: `eval_transport` reads it on every call
        object.__setattr__(self, "has_constant_transport",
                           not any(map(callable, (self.zeta, self.eta, self.tau))))


def _reads_stress(fn: Callable) -> bool:
    """Whether a law is fn(rho, pi, pi2): whether it takes three positional
    arguments, or has no signature to read. Else it is fn(rho). A plain
    function's code object tells in well under a microsecond, where
    `inspect.signature` takes about 15 us, and a run's set-up builds its law
    twice."""
    if type(fn) is types.FunctionType and not hasattr(fn, "__wrapped__"):
        code = fn.__code__
        return code.co_argcount >= 3 or bool(code.co_flags & inspect.CO_VARARGS)
    try:
        inspect.signature(fn).bind(0.0, 0.0, 0.0)
    except TypeError:  # fn(rho)
        return False
    except ValueError:  # no signature to read
        pass
    return True


def pressure(law: MaterialLaw, rho):
    """Pressure P = A rho**gamma. Raises ValueError for non-positive rho."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0) or not np.all(np.isfinite(rho)):
        raise ValueError("pressure requires rho > 0 and finite")
    out = law.A * rho**law.gamma
    return float(out) if out.ndim == 0 else out


def sound_speed2(law: MaterialLaw, rho):
    """The squared sound speed dP/drho = A gamma rho**(gamma-1), of a float
    or an array of densities, unchecked. Every cs^2 of the program is this
    expression: the solver's, the front speed's and the analyses'."""
    return law.A * law.gamma * rho ** (law.gamma - 1.0)


def sound_speed(law: MaterialLaw, rho):
    """Adiabatic sound speed sqrt(dP/drho) = sqrt(`sound_speed2`). Raises
    ValueError for non-positive or non-finite rho."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0) or not np.all(np.isfinite(rho)):
        raise ValueError("sound_speed requires rho > 0 and finite")
    out = np.sqrt(sound_speed2(law, rho))
    return float(out) if out.ndim == 0 else out


def stress_invariants(stress):
    """The invariants (pi, pi2) of a stress from its components.

    `stress` holds the components along its first axis: the bulk scalar Pi
    alone, whose stress Pi delta_ij has pi = Pi and pi2 = 3 Pi^2, or the six
    Pi11, Pi12, Pi13, Pi22, Pi23, Pi33 in `SYM_INDEX` order, each counted
    with its symmetric partner in pi2 = Pi_ij Pi_ij. A component is a float
    or a row of cells, and pi and pi2 take the shape of the rows. A layout
    gives its rows in this order (`FieldLayout.stress_components`), a
    component it does not store as +0.0: the float enters each sum as a row
    of +0.0 would, so every layout gives the bits of the 10-row one.
    """
    if len(stress) == 1:
        pi = stress[0]
        return pi, 3.0 * pi * pi
    p11, p12, p13, p22, p23, p33 = stress
    return (p11 + p22 + p33) / 3.0, p11**2 + p22**2 + p33**2 + 2.0 * (p12**2 + p13**2 + p23**2)


def eval_transport(law: MaterialLaw, rho, pi=0.0, pi2=0.0):
    """Evaluate (zeta, eta, tau) at a state point or array of points.

    A constant coefficient gives its float whatever the shape of the state:
    it was checked when the law was built, and it broadcasts against any
    array. A law of constants alone returns its three floats at once, with
    no work per call. A law of rho alone is called with rho, one of the
    stress with (rho, pi, pi2). A law's value is checked to be strictly
    positive and finite; a violation raises MaterialLawError naming the
    offending coefficient, its first offending point (by index, among more
    than one) and the rho and pi given there.
    """
    if law.has_constant_transport:
        return law.zeta, law.eta, law.tau
    out = []
    for name in ("zeta", "eta", "tau"):
        coeff = getattr(law, name)
        if not callable(coeff):
            out.append(coeff)
            continue
        arr = np.asarray(coeff(rho, pi, pi2) if name in law.stress_readers else coeff(rho),
                         dtype=float)
        # min() is NaN when any value is, so a NaN fails the first test
        if not (arr.size == 0 or arr.min() > 0.0 and arr.max() < np.inf):
            # report the first offending point, never whole arrays
            bad = ~(np.isfinite(arr) & (arr > 0.0))
            bad, val, r, p = np.broadcast_arrays(bad, arr, rho, pi)
            i = int(np.argmax(bad))
            where = f" at index {i}" if bad.size > 1 else ""
            raise MaterialLawError(
                f"transport coefficient {name} = {val.flat[i]:.6g} is non-positive or "
                f"non-finite{where} (rho={r.flat[i]:.6g}, pi={p.flat[i]:.6g})")
        out.append(float(arr) if arr.ndim == 0 else arr)
    return tuple(out)


def _check_state_values(rho: float, values) -> None:
    if not np.isfinite(rho) or rho <= 0.0:
        raise ValueError(f"state requires rho > 0 and finite, got {rho}")
    if not np.all(np.isfinite(values)):
        raise ValueError("state fields must be finite")


@dataclass(frozen=True)
class BulkState:
    """Point state of the 5-field system: density, velocity, bulk stress scalar."""

    rho: float
    v: tuple[float, float, float] = (0.0, 0.0, 0.0)
    Pi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(float(c) for c in self.v))
        _check_state_values(self.rho, np.array(self.v + (self.Pi,)))

    @property
    def invariants(self) -> tuple[float, float, float]:
        """(rho, pi, pi2), the arguments of a transport law."""
        return (self.rho, *stress_invariants((self.Pi,)))


# storage order of the six independent stress components
SYM_INDEX = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SYM_POS = {(i, j): n for n, (i, j) in enumerate(SYM_INDEX)}


def sym_position(i: int, j: int) -> int:
    """Storage slot of tensor component (i, j); symmetry is built in."""
    return _SYM_POS[(min(i, j), max(i, j))]


@dataclass(frozen=True)
class FieldLayout:
    """Row layout of one system's solver fields.

    Row 0 is the density and row 1 the x-velocity in every layout. The
    groups are slices of contiguous rows, so each cuts its group as a view:
    `velocity` the velocity rows, `stress` the stored stress rows, and
    `drive` per velocity row the stress row Pi_1i whose x-derivative drives
    it. `components` says where each stress component lives, in the order
    `stress_invariants` reads (Pi alone for the bulk system, `SYM_INDEX`
    for the shear one): its row, or None where the layout does not store it
    and it is +0.0. `normal` holds the rows of the diagonal stresses, whose
    sum is the trace: a row that stands for two components is listed twice.
    `parity` is the sign each row takes under the mirror x -> -x, which the
    solver's spherical ghost fill applies at the origin.

    `LAYOUTS` names one layout per evolved system, the name a caller gives:
    "bulk" (rho, u, Pi) and "shear" (rho, v1, v2, v3 and the six stresses).
    Two private layouts of the shear system store only the rows whose bits
    can differ on data in a subspace, and only a builder of such data steps
    one (`solver._reduced`); the Simulation's system is "shear" still:

    - `_SHEAR_LONGITUDINAL` (rho, v1, Pi11, Pi22), for planar data that is
      even under y -> -y and z -> -z and under y <-> z. v2, v3, Pi12, Pi13
      and Pi23 stay +0.0 for all time, and Pi33 keeps the bits of Pi22, so
      Pi22's row stands for Pi33. A shear config's data (the bump family
      seeds rho, v1 and the normal stresses alike) is such data, so
      `solver.init_scenario` evolves it in this layout.
    - `_SHEAR_TRANSVERSE` (rho, v1, v2, Pi11, Pi12), for planar data at
      Pi_bar = 0 whose only non-uniform rows are v2 and Pi12 (the
      transverse ring-down of `stability.verify_against_simulation`): rho
      and v1 stay uniform, and v3, Pi11, Pi13, Pi22, Pi23 and Pi33 stay +0.0.

    Every step gives a reduced layout's rows the bits the 10-row layout
    gives them; other data needs the 10 rows.
    """

    names: tuple[str, ...]
    velocity: slice
    stress: slice
    components: tuple[int | None, ...]
    normal: tuple[int, ...]
    drive: slice
    parity: tuple[float, ...]

    def stress_components(self, rows) -> tuple:
        """The stress components of `rows`, an array over the layout's rows
        (or cut from one along its last axis), in `components` order: a
        stored component's row, an absent one the float +0.0."""
        return tuple(0.0 if f is None else rows[f] for f in self.components)

    def reference(self, ref: ReferenceState) -> np.ndarray:
        """The field vector of the constant reference state."""
        out = np.zeros(len(self.names))
        out[0] = ref.rho_bar
        out[self.velocity] = ref.v_bar[:len(self.names[self.velocity])]
        out[list(self.normal)] = ref.Pi_bar
        return out


LAYOUTS = {
    "bulk": FieldLayout(names=("rho", "u", "Pi"), velocity=slice(1, 2), stress=slice(2, 3),
                        components=(2,), drive=slice(2, 3), normal=(2,),
                        parity=(1.0, -1.0, 1.0)),
    "shear": FieldLayout(
        names=("rho", "v1", "v2", "v3") + tuple(f"Pi{i + 1}{j + 1}" for i, j in SYM_INDEX),
        # SYM_INDEX opens with Pi11, Pi12, Pi13: the driving stresses
        velocity=slice(1, 4), stress=slice(4, 10), drive=slice(4, 7),
        components=tuple(range(4, 10)), normal=tuple(4 + sym_position(i, i) for i in range(3)),
        # v1 and the stresses Pi_1j with exactly one index 1 flip sign
        parity=(1.0, -1.0, 1.0, 1.0) + tuple(-1.0 if (i == 0) != (j == 0) else 1.0
                                             for i, j in SYM_INDEX)),
}

# the shear rows whose bits can differ on each kind of data (see FieldLayout)
_SHEAR_LONGITUDINAL = FieldLayout(
    names=("rho", "v1", "Pi11", "Pi22"), velocity=slice(1, 2), stress=slice(2, 4),
    components=(2, None, None, 3, None, 3), drive=slice(2, 3), normal=(2, 3, 3),
    parity=(1.0, -1.0, 1.0, 1.0))
_SHEAR_TRANSVERSE = FieldLayout(
    names=("rho", "v1", "v2", "Pi11", "Pi12"), velocity=slice(1, 3), stress=slice(3, 5),
    components=(3, 4, None, None, None, None), drive=slice(3, 5), normal=(3,),
    parity=(1.0, -1.0, 1.0, 1.0, -1.0))


@dataclass(frozen=True)
class ShearState:
    """Point state of the 10-field system with a symmetric viscous stress tensor.

    Only the six independent components are stored (order Pi11, Pi12, Pi13,
    Pi22, Pi23, Pi33), so an asymmetric stress is unrepresentable.
    """

    rho: float
    v: tuple[float, float, float] = (0.0, 0.0, 0.0)
    Pi_sym: tuple[float, ...] = (0.0,) * 6

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(float(c) for c in self.v))
        sym = tuple(float(c) for c in self.Pi_sym)
        if len(sym) != 6:
            raise ValueError("Pi_sym must hold the 6 independent components")
        object.__setattr__(self, "Pi_sym", sym)
        _check_state_values(self.rho, np.array(self.v + sym))

    @classmethod
    def from_tensor(cls, rho, v, tensor) -> "ShearState":
        tensor = np.asarray(tensor, dtype=float)
        if tensor.shape != (3, 3) or not np.allclose(tensor, tensor.T):
            raise ValueError("stress tensor must be symmetric 3x3")
        return cls(rho, tuple(v), tuple(tensor[i, j] for i, j in SYM_INDEX))

    def component(self, i: int, j: int) -> float:
        return self.Pi_sym[sym_position(i, j)]

    def tensor(self) -> np.ndarray:
        full = np.zeros((3, 3))
        for n, (i, j) in enumerate(SYM_INDEX):
            full[i, j] = full[j, i] = self.Pi_sym[n]
        return full

    @property
    def bulk_scalar(self) -> float:
        """Normalized trace Pi_ii / 3: the scalar evolved by the 5-field system."""
        return stress_invariants(self.Pi_sym)[0]

    @property
    def invariants(self) -> tuple[float, float, float]:
        """(rho, pi, pi2), the arguments of a transport law."""
        return (self.rho, *stress_invariants(self.Pi_sym))


@dataclass(frozen=True)
class ReferenceState:
    """Constant state outside the initially perturbed ball of radius R."""

    rho_bar: float
    R: float
    Pi_bar: float = 0.0
    v_bar: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not (np.isfinite(self.rho_bar) and self.rho_bar > 0.0):
            raise ValueError(f"reference density must be positive, got {self.rho_bar}")
        if not (np.isfinite(self.R) and self.R > 0.0):
            raise ValueError(f"support radius R must be positive, got {self.R}")
        object.__setattr__(self, "v_bar", tuple(float(c) for c in self.v_bar))
