"""Line-oriented scenario configuration: parsing, validation, canonical printing.

Format: `[section]` headers with `key = value` lines, `#` comments, UTF-8.
Sections and keys are fixed (unknown ones are errors). [tolerances] holds
the thresholds of the run's monitors, so any run can override them; the
analysis thresholds are module constants (`quasilinear.EIG_COND_CAP`,
`stability.MARGINAL_BAND`). Validation reports every error it finds, each
with its line number, rather than stopping at the first.

Each validity rule is written once. The grid and run rules live in
`grid_problems` and `run_problems`, which `solver.Grid1D` and
`solver.Simulation` also call; the material and reference rules live in the
`materials` constructors, whose messages `validate` collects, and `validate`
refuses a reference state at which the law's coefficients or the front speed
c_v (`quasilinear.reference_signal_speed`) overflow. The rules of
one subcommand live in `cli`: `simulate`'s front containment and steady
exterior, and the wavenumbers of `stability` and `dispersion`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .materials import MaterialLaw, ReferenceState
from .quasilinear import reference_signal_speed

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "default_tolerances",
    "grid_problems",
    "run_problems",
    "symmetry_center",
    "parse_config",
    "format_config",
    "apply_overrides",
    "material_law",
    "reference_state",
]


class ConfigError(ValueError):
    """Carries the full list of (line, message) problems found in a config."""

    def __init__(self, errors: list[tuple[int, str]]):
        self.errors = errors
        lines = "\n".join(f"  line {ln}: {msg}" if ln else f"  {msg}" for ln, msg in errors)
        super().__init__(f"invalid configuration:\n{lines}")


def default_tolerances() -> dict[str, float]:
    return {
        "grad_factor": 1e3,          # breakdown when max_grad exceeds factor * initial scale
        "dt_floor": 1e-12,           # breakdown when the CFL step collapses below this
        "front_tol": 1e-8,           # relative deviation allowed outside the front
    }


@dataclass
class ScenarioConfig:
    # [scenario]
    system: str = "bulk"            # bulk | shear
    geometry: str = "planar"        # planar | spherical
    bc: str = "fixed"               # fixed | periodic (planar only)
    # [material]
    A: float = 1.0
    gamma: float = 2.0
    zeta: str = "1.0"               # constant or "powerlaw:coeff,exponent"
    eta: str = "1.0"
    tau: str = "1.0"
    # [reference]
    rho_bar: float = 1.0
    R: float = 1.0
    Pi_bar: float = 0.0
    v_bar: float = 0.0              # x-component; used by planar boost runs
    # [profile]
    a: float = 0.0                  # density bump amplitude
    b: float = 0.0                  # radial/axial velocity bump amplitude
    c: float = 0.0                  # stress bump amplitude
    b_from_f0: float | None = None  # if set, rescale b so F(0) hits this value
    # [grid]
    n_cells: int = 256
    x_min: float = 0.0
    x_max: float = 4.0
    cfl: float = 0.4
    # [run]
    t_end: float = 0.5
    integrator: str = "ssprk2"      # ssprk2 | ssprk3
    series_cadence: int = 1
    snapshot_times: tuple[float, ...] = ()
    # [tolerances]
    tolerances: dict[str, float] = field(default_factory=default_tolerances)


_SCHEMA: dict[str, dict[str, type]] = {
    "scenario": {"system": str, "geometry": str, "bc": str},
    "material": {"A": float, "gamma": float, "zeta": str, "eta": str, "tau": str},
    "reference": {"rho_bar": float, "R": float, "Pi_bar": float, "v_bar": float},
    "profile": {"a": float, "b": float, "c": float, "b_from_f0": float},
    "grid": {"n_cells": int, "x_min": float, "x_max": float, "cfl": float},
    "run": {"t_end": float, "integrator": str, "series_cadence": int,
            "snapshot_times": tuple},
}


def _parse_law_spec(spec: str):
    """A coefficient from its config string: a float for a constant, a
    function of rho alone for powerlaw:c,p."""
    spec = spec.strip()
    if spec.startswith("powerlaw:"):
        parts = spec[len("powerlaw:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"powerlaw needs two parameters, got {spec!r}")
        coeff, expo = float(parts[0]), float(parts[1])
        if coeff <= 0.0:
            raise ValueError("powerlaw coefficient must be positive")
        return lambda rho: coeff * rho**expo
    return float(spec)


def material_law(cfg: ScenarioConfig) -> MaterialLaw:
    return MaterialLaw(A=cfg.A, gamma=cfg.gamma,
                       zeta=_parse_law_spec(cfg.zeta),
                       eta=_parse_law_spec(cfg.eta),
                       tau=_parse_law_spec(cfg.tau))


def reference_state(cfg: ScenarioConfig) -> ReferenceState:
    return ReferenceState(rho_bar=cfg.rho_bar, R=cfg.R, Pi_bar=cfg.Pi_bar,
                          v_bar=(cfg.v_bar, 0.0, 0.0))


def _convert(raw: str, kind: type):
    if kind is tuple:
        raw = raw.strip()
        return tuple(float(part) for part in raw.split(",")) if raw else ()
    return kind(raw)


def _assign(cfg: ScenarioConfig, section: str, key: str, raw: str) -> str | None:
    """Set one entry of `section` from its text; returns the problem, if any."""
    if section == "tolerances":
        kind = float
    elif key in _SCHEMA[section]:
        kind = _SCHEMA[section][key]
    else:
        return f"unknown key {key!r} in [{section}]"
    try:
        value = _convert(raw, kind)
    except ValueError:
        return f"{key!r} must be of type {kind.__name__}, got {raw!r}"
    if section == "tolerances":
        cfg.tolerances[key] = value
    else:
        setattr(cfg, key, value)
    return None


def parse_config(text: str) -> ScenarioConfig:
    """Parse and fully validate; raises ConfigError listing all problems."""
    cfg = ScenarioConfig()
    errors: list[tuple[int, str]] = []
    seen: set[tuple[str, str]] = set()
    section = None

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA and section != "tolerances":
                errors.append((lineno, f"unknown section [{section}]"))
                section = None
            continue
        if "=" not in line:
            errors.append((lineno, f"expected key = value, got {line!r}"))
            continue
        if section is None:
            errors.append((lineno, "key outside any [section]"))
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if (section, key) in seen:
            errors.append((lineno, f"duplicate key {key!r} in [{section}]"))
            continue
        seen.add((section, key))
        problem = _assign(cfg, section, key, raw)
        if problem:
            errors.append((lineno, problem))

    errors.extend((0, msg) for msg in validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def grid_problems(geometry: str, bc: str, n_cells: int, x_min: float,
                  x_max: float) -> list[str]:
    """What makes a grid invalid, as messages; [] for a valid grid."""
    problems = []
    if geometry not in ("planar", "spherical"):
        problems.append(f"geometry must be planar or spherical, got {geometry!r}")
    if bc not in ("fixed", "periodic"):
        problems.append(f"bc must be fixed or periodic, got {bc!r}")
    if geometry == "spherical":
        if bc == "periodic":
            problems.append("spherical geometry cannot be periodic")
        if x_min != 0.0:
            problems.append("spherical geometry requires x_min = 0")
    if n_cells < 8:
        problems.append(f"n_cells must be at least 8, got {n_cells}")
    if not x_max > x_min:
        problems.append("x_max must exceed x_min")
    return problems


def symmetry_center(geometry: str, x_min: float, x_max: float) -> float:
    """The centre of symmetry of a grid: the origin (spherical) or the middle
    of the domain (planar), where the profile bumps sit."""
    return 0.0 if geometry == "spherical" else 0.5 * (x_min + x_max)


def run_problems(system: str, geometry: str, integrator: str, cfl: float,
                 tolerances: dict[str, float]) -> list[str]:
    """What makes a run's settings invalid, as messages; [] for valid ones.

    `tolerances` holds overrides of `default_tolerances()`: each key must be
    one of its keys and each value finite and positive.
    """
    problems = []
    if system not in ("bulk", "shear"):
        problems.append(f"system must be bulk or shear, got {system!r}")
    if system == "shear" and geometry == "spherical":
        problems.append("unsupported combination: shear system with spherical geometry")
    if integrator not in ("ssprk2", "ssprk3"):
        problems.append(f"integrator must be ssprk2 or ssprk3, got {integrator!r}")
    if not 0.0 < cfl <= 1.0:
        problems.append(f"cfl must lie in (0, 1], got {cfl}")
    known = default_tolerances()
    for name, value in tolerances.items():
        if name not in known:
            problems.append(f"unknown tolerance {name!r}")
        elif not (np.isfinite(value) and value > 0.0):
            problems.append(f"tolerance {name} must be positive, got {value}")
    return problems


def validate(cfg: ScenarioConfig) -> list[str]:
    """Constraint checks shared by the parser and programmatic construction."""
    errors: list[str] = []
    for keys in _SCHEMA.values():
        for key, kind in keys.items():
            value = getattr(cfg, key)
            if kind in (float, tuple) and value is not None and not np.all(np.isfinite(value)):
                errors.append(f"{key} must be finite, got {value}")
    errors += grid_problems(cfg.geometry, cfg.bc, cfg.n_cells, cfg.x_min, cfg.x_max)
    errors += run_problems(cfg.system, cfg.geometry, cfg.integrator, cfg.cfl, cfg.tolerances)
    if cfg.rho_bar + cfg.a <= 0.0:
        errors.append("density bump amplitude drives rho non-positive")
    if cfg.t_end < 0.0:
        errors.append(f"t_end must be non-negative, got {cfg.t_end}")
    if cfg.series_cadence < 1:
        errors.append("series_cadence must be at least 1")
    if any(t < 0.0 for t in cfg.snapshot_times):
        errors.append("snapshot_times must be non-negative")
    try:
        law = material_law(cfg)
    except ValueError as exc:
        errors.append(str(exc))
    try:
        ref = reference_state(cfg)
    except ValueError as exc:
        errors.append(str(exc))

    # the analyses and the solver evaluate the law and c_v at the reference state
    if not errors:
        try:
            if not np.isfinite(reference_signal_speed(law, cfg.system, ref)):
                raise OverflowError
        except ValueError as exc:
            errors.append(str(exc))
        except ArithmeticError:  # an OverflowError, or numpy's FloatingPointError
            errors.append(f"the material law overflows at the reference state rho_bar = "
                          f"{ref.rho_bar!r}, Pi_bar = {ref.Pi_bar!r}: its transport "
                          "coefficients and front speed c_v must be finite there")
    return errors


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(t)) for t in value)
    return str(value)


def format_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse_config(format_config(cfg)) == cfg."""
    out = []
    for section, keys in _SCHEMA.items():
        out.append(f"[{section}]")
        for key in keys:
            value = getattr(cfg, key)
            if value is None:
                continue
            out.append(f"{key} = {_fmt(value)}")
        out.append("")
    out.append("[tolerances]")
    for key, value in cfg.tolerances.items():
        out.append(f"{key} = {_fmt(value)}")
    out.append("")
    return "\n".join(out)


def apply_overrides(cfg: ScenarioConfig, overrides: list[str]) -> ScenarioConfig:
    """Apply `section.key=value` strings, then re-validate."""
    errors: list[tuple[int, str]] = []
    cfg = replace(cfg, tolerances=dict(cfg.tolerances))
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            errors.append((0, f"override must look like section.key=value, got {item!r}"))
            continue
        target, _, raw = item.partition("=")
        section, _, key = target.strip().partition(".")
        if section != "tolerances" and key not in _SCHEMA.get(section, {}):
            errors.append((0, f"unknown override target {target!r}"))
            continue
        problem = _assign(cfg, section, key, raw.strip())
        if problem:
            errors.append((0, problem))
    errors.extend((0, msg) for msg in validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg
