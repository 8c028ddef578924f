"""The benchmark's three workloads: inputs made from a seed, the program calls
of each operation, and the checks of their outputs.

An operation is one scenario together with its checks. The seed jitters
the blast momentum F(0), the shear bump amplitudes and the ring-down
wavenumbers by up to +-0.5%, and the ring-down amplitude by a factor 0.5 to 2
(still in the linear regime). So no two seeds give the same inputs, yet
every seed does nearly the same work.

viscoflow is imported by the caller (run.py puts the checkout's src/ first
on the path). The program is always reached through module attributes at
call time, so the span wrappers in tracing.py see every call.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
import viscoflow.cli
import viscoflow.config
import viscoflow.stability


@dataclass
class Operation:
    name: str
    call: Callable[[], Any]          # the program calls, the only timed part
    out_dir: Path | None = None      # emptied before the call, read by the check


def _quiet_main(argv: list[str]) -> int:
    """viscoflow.cli.main with its report lines kept off the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return viscoflow.cli.main(argv)


def _output(path: Path) -> dict[str, np.ndarray] | None:
    return checks.read_csv(path) if path.is_file() else None


class Blast:
    """README breakdown scenario: bulk, spherical, constant laws,
    F(0) = 1.1 x the certificate threshold, grad_factor 20, at 1024 and
    2048 cells. Each operation is `blowup-cert` then `simulate`, as in the
    README; both resolutions must exit 3."""

    name = "blast"
    cells = (1024, 2048)

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.params = dict(A=1.0, gamma=2.0, rho_bar=1.0, zeta=1.0, tau=1.0,
                           R=1.0, a=0.0, x_max=2.0)
        p = self.params
        c_v = checks.bulk_front_speed(p["A"], p["gamma"], p["rho_bar"], p["zeta"], p["tau"])
        factor = 1.1 * (1.0 + 0.01 * (float(rng.random()) - 0.5))
        self.f0 = factor * checks.blowup_threshold(c_v, p["R"], p["rho_bar"])
        self.work = work
        for n in self.cells:
            (work / f"blast_{n}.cfg").write_text(self._config(n), encoding="utf-8")

    def _config(self, n: int) -> str:
        p = self.params
        return (f"[scenario]\nsystem = bulk\ngeometry = spherical\n"
                f"[material]\nA = {p['A']!r}\ngamma = {p['gamma']!r}\n"
                f"zeta = {p['zeta']!r}\ntau = {p['tau']!r}\n"
                f"[reference]\nrho_bar = {p['rho_bar']!r}\nR = {p['R']!r}\n"
                f"[grid]\nn_cells = {n}\nx_max = {p['x_max']!r}\n"
                f"[run]\nt_end = 0.05\n"
                f"[profile]\na = {p['a']!r}\nb_from_f0 = {self.f0!r}\n"
                f"[tolerances]\ngrad_factor = 20\n")

    def operations(self) -> list[Operation]:
        ops = []
        for n in self.cells:
            cfg = str(self.work / f"blast_{n}.cfg")
            out = self.work / f"blast_{n}"

            def call(cfg=cfg, out=out):
                return (_quiet_main(["blowup-cert", "--config", cfg]),
                        _quiet_main(["simulate", "--config", cfg, "--out", str(out)]))
            ops.append(Operation(f"blast_{n}", call, out))
        return ops

    def check(self, results: dict[str, Any]) -> list[str]:
        runs = []
        for n in self.cells:
            if f"blast_{n}" not in results:
                continue
            cert_exit, exit_code = results[f"blast_{n}"]
            runs.append(dict(n_cells=n, cert_exit=cert_exit, exit=exit_code,
                             series=_output(self.work / f"blast_{n}" / "series.csv")))
        return checks.check_blast(runs, self.params)


class ShearWide:
    """10-field planar shear bump with power-law zeta and eta, fixed
    exterior, 16384 cells: the largest per-step working set. Runs to t_end
    (exit 0), samples the series every 10 steps and writes three snapshots."""

    name = "shear_wide"
    n_cells = 16384
    t_end = 0.003

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        jitter = 1.0 + 0.01 * (rng.random(3) - 0.5)
        self.params = dict(A=1.0, gamma=2.0, rho_bar=1.0, zeta=(1.0, 1.5), eta=(0.5, 1.0),
                           tau=1.0, R=1.0, a=0.2 * float(jitter[0]), b=0.3 * float(jitter[1]),
                           c=0.05 * float(jitter[2]), n_cells=self.n_cells, x_min=-2.0,
                           x_max=2.0, t_end=self.t_end)
        self.work = work
        (work / "shear_wide.cfg").write_text(self._config(), encoding="utf-8")

    def _config(self) -> str:
        p = self.params
        return (f"[scenario]\nsystem = shear\ngeometry = planar\nbc = fixed\n"
                f"[material]\nA = {p['A']!r}\ngamma = {p['gamma']!r}\n"
                f"zeta = powerlaw:{p['zeta'][0]!r},{p['zeta'][1]!r}\n"
                f"eta = powerlaw:{p['eta'][0]!r},{p['eta'][1]!r}\ntau = {p['tau']!r}\n"
                f"[reference]\nrho_bar = {p['rho_bar']!r}\nR = {p['R']!r}\n"
                f"[profile]\na = {p['a']!r}\nb = {p['b']!r}\nc = {p['c']!r}\n"
                f"[grid]\nn_cells = {p['n_cells']}\nx_min = {p['x_min']!r}\n"
                f"x_max = {p['x_max']!r}\n"
                f"[run]\nt_end = {p['t_end']!r}\nseries_cadence = 10\n"
                f"snapshot_times = 0.0, {p['t_end'] / 2!r}, {p['t_end']!r}\n")

    def operations(self) -> list[Operation]:
        cfg = str(self.work / "shear_wide.cfg")
        out = self.work / "shear_wide"
        return [Operation("shear_wide",
                          lambda: _quiet_main(["simulate", "--config", cfg, "--out", str(out)]),
                          out)]

    def check(self, results: dict[str, Any]) -> list[str]:
        if "shear_wide" not in results:
            return []
        final = self.work / "shear_wide" / "snapshot_002.csv"
        return checks.check_shear(results["shear_wide"], _output(final), self.params)


class Ringdown:
    """Periodic plane-wave ring-downs through
    stability.verify_against_simulation at 256 cells per wavelength: bulk at
    k = 1, 2, 4 and one shear_transverse case at k = 2, each set up from a
    parsed config. Many small, overhead-bound runs."""

    name = "ringdown"
    cases = (("bulk", 1.0), ("bulk", 2.0), ("bulk", 4.0), ("shear_transverse", 2.0))

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.params = dict(A=0.5, gamma=2.0, rho_bar=1.0, zeta=1.0, eta=1.0, tau=1.0)
        # (operation name, system, k, seeded relative amplitude)
        self.runs = []
        for system, k in self.cases:
            k *= 1.0 + 0.01 * (float(rng.random()) - 0.5)
            amplitude = 1e-6 * 2.0 ** (2.0 * float(rng.random()) - 1.0)
            self.runs.append((f"{system}_k{k:.4f}", system, k, amplitude))

    def _config(self, system: str) -> str:
        p = self.params
        return (f"[scenario]\nsystem = {'bulk' if system == 'bulk' else 'shear'}\n"
                f"geometry = planar\nbc = periodic\n"
                f"[material]\nA = {p['A']!r}\ngamma = {p['gamma']!r}\n"
                f"zeta = {p['zeta']!r}\neta = {p['eta']!r}\ntau = {p['tau']!r}\n"
                f"[reference]\nrho_bar = {p['rho_bar']!r}\n")

    def operations(self) -> list[Operation]:
        ops = []
        for name, system, k, amplitude in self.runs:
            def call(system=system, k=k, amplitude=amplitude, text=self._config(system)):
                cfg = viscoflow.config.parse_config(text)
                bg = viscoflow.stability.equilibrium_background(
                    viscoflow.config.material_law(cfg), viscoflow.config.reference_state(cfg))
                return viscoflow.stability.verify_against_simulation(
                    bg, k, system=system, cells_per_wavelength=256, amplitude_frac=amplitude)
            ops.append(Operation(name, call))
        return ops

    def check(self, results: dict[str, Any]) -> list[str]:
        p = self.params
        problems = []
        for name, system, k, _ in self.runs:
            if name not in results:
                continue
            if system == "bulk":
                cs2 = checks.sound_speed2(p["A"], p["gamma"], p["rho_bar"])
                poly = checks.bulk_poly(k, p["rho_bar"], cs2, p["zeta"], p["tau"])
            else:
                poly = checks.transverse_poly(k, p["rho_bar"], p["eta"], p["tau"])
            rec = results[name]
            problems += [f"{name}: {msg}" for msg in
                         checks.check_ringdown(rec.fitted_decay, rec.fitted_frequency, poly)]
        return problems


WORKLOADS = {w.name: w for w in (Blast, ShearWide, Ringdown)}
