import argparse
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from viscoflow import cli, solver, stability
from viscoflow.cli import main
from viscoflow.config import (ConfigError, ScenarioConfig, apply_overrides,
                              default_tolerances, format_config, material_law,
                              parse_config)
from viscoflow.materials import LAYOUTS

MINIMAL = """
[scenario]
system = bulk
geometry = spherical

[material]
A = 0.5

[grid]
n_cells = 128
x_max = 3.0

[run]
t_end = 0.2
"""
# `stability --k=1` on the default bulk and shear configs, as printed before the
# dispersion builders returned bare polynomials
STABILITY_K1 = {
    "bulk": """\
bulk dispersion cubic at |k| = 1.0: 1.0, 1.0, 3.0000000000000004, 2.0000000000000004
  Delta_1 = 2.0000000000000004
  Delta_2 = 1.0
  Delta_3 = 1.0
  root = -0.715225238435 +0i
  root = -0.142387380782 -1.66614757361i
  root = -0.142387380782 +1.66614757361i
  max real part = -0.142387380782 -> stable
  transverse branch (k orthogonal to dv): neutral, Omega = 0
""",
    "shear": """\
relaxation factor: 1.0, 1.0
  root = -1 +0i
  max real part = -1 -> stable
transverse factor: 1.0, 1.0, 1.0
  root = -0.5 -0.866025403784i
  root = -0.5 +0.866025403784i
  max real part = -0.5 -> stable
acoustic factor: 1.0, 1.0, 4.333333333333334, 2.0000000000000004
  root = -0.48978339843 +0i
  root = -0.255108300785 -2.00458411326i
  root = -0.255108300785 +2.00458411326i
  max real part = -0.255108300785 -> stable
overall verdict: stable
""",
}
# `speeds` on the default bulk and shear configs: the numeric table and the closed-form set
SPEEDS = {
    "bulk": """\
characteristic speeds, bulk system, direction x
  symmetric matrices : True
  a0 positive definite: True
  eigenvector condition: 1
  verdict            : FOSH
               speed  multiplicity
      -1.73205080757  1
                   0  3
       1.73205080757  1
  closed-form speed set: -1.73205080757, 0, 0, 0, 1.73205080757
""",
    "shear": """\
characteristic speeds, shear system, direction x
  symmetric matrices : False
  a0 positive definite: True
  eigenvector condition: 4.74475
  verdict            : strongly-hyperbolic
               speed  multiplicity
      -2.08166599947  1
                  -1  2
                   0  4
                   1  2
       2.08166599947  1
  closed-form speed set: -2.08166599947, -1, 0, 1, 2.08166599947
""",
}
# former [tolerances] keys: a config that still sets one must fail, not be ignored
DELETED_TOLERANCES = ["rho_floor_frac", "front_slack_cells", "check_front",
                      "eig_cond_cap", "marginal_band"]


class TestParse:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.system == "bulk"
        assert cfg.gamma == 2.0
        assert cfg.cfl == 0.4
        assert cfg.tolerances == default_tolerances()

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# leading comment\n" + MINIMAL + "\n# trailing\n")
        assert cfg.n_cells == 128

    def test_gamma_at_most_one_rejected(self):
        with pytest.raises(ConfigError, match="gamma must exceed 1"):
            parse_config(MINIMAL + "\n[material]\ngamma = 1.0\n".replace("[material]\n", "")
                         if False else MINIMAL.replace("A = 0.5", "A = 0.5\ngamma = 1.0"))

    def test_shear_spherical_rejected(self):
        with pytest.raises(ConfigError, match="unsupported combination"):
            parse_config(MINIMAL.replace("system = bulk", "system = shear"))

    def test_all_errors_reported_with_line_numbers(self):
        bad = "\n".join([
            "[scenario]",
            "system = plasma",          # line 2: bad value
            "mystery = 1",              # line 3: unknown key
            "[grid]",
            "n_cells = lots",           # line 5: bad type
            "[nonsense]",               # line 6: unknown section
        ])
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        messages = err.value.errors
        lines = [ln for ln, _ in messages]
        assert 3 in lines and 5 in lines and 6 in lines
        assert any("system must be" in msg for _, msg in messages)
        assert len(messages) >= 4

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "\n[grid]\nn_cells = 64\nn_cells = 32\n"
                         if False else MINIMAL.replace("n_cells = 128",
                                                       "n_cells = 128\nn_cells = 64"))

    def test_empty_config_parses(self):
        assert parse_config("") == ScenarioConfig()

    def test_round_trip(self):
        cfg = parse_config(MINIMAL)
        assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_with_custom_values(self):
        text = MINIMAL + "\n[profile]\nb_from_f0 = 31.5\n\n[tolerances]\ngrad_factor = 10.0\n"
        cfg = parse_config(text)
        assert cfg.b_from_f0 == 31.5
        assert cfg.tolerances["grad_factor"] == 10.0
        assert parse_config(format_config(cfg)) == cfg

    def test_snapshot_times_parsed(self):
        cfg = parse_config(MINIMAL + "\n[run]\nsnapshot_times = 0.0, 0.1\n"
                           if False else
                           MINIMAL.replace("t_end = 0.2",
                                           "t_end = 0.2\nsnapshot_times = 0.0, 0.1"))
        assert cfg.snapshot_times == (0.0, 0.1)

    @pytest.mark.parametrize("key", ["made_up", *DELETED_TOLERANCES])
    def test_unknown_tolerance_rejected(self, key):
        with pytest.raises(ConfigError, match=f"unknown tolerance '{key}'"):
            parse_config(MINIMAL + f"\n[tolerances]\n{key} = 3\n")

    def test_powerlaw_material(self):
        cfg = parse_config(MINIMAL.replace("A = 0.5", "A = 0.5\nzeta = powerlaw:2.0,1.0"))
        law = material_law(cfg)
        assert not law.has_constant_transport
        assert law.zeta(3.0) == pytest.approx(6.0)


class TestOverrides:
    def test_override_value(self):
        cfg = parse_config(MINIMAL)
        cfg2 = apply_overrides(cfg, ["grid.n_cells=256", "tolerances.grad_factor=10"])
        assert cfg2.n_cells == 256
        assert cfg2.tolerances["grad_factor"] == 10.0
        assert cfg.n_cells == 128  # original untouched

    def test_override_bad_target(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match="unknown override"):
            apply_overrides(cfg, ["grid.shape=round"])

    def test_override_revalidates(self):
        cfg = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match="gamma"):
            apply_overrides(cfg, ["material.gamma=0.5"])


class Completed(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys):
    """Run `main` in this process on the given arguments: its exit code, from
    its return value or from the SystemExit of argparse, and its output."""

    def run(*args):
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        return Completed(code, *capsys.readouterr())
    return run


@pytest.fixture
def config_path(tmp_path: Path) -> Path:
    path = tmp_path / "scenario.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    return path


class TestCli:
    def test_help(self, run_cli):
        cp = run_cli("--help")
        assert cp.returncode == 0
        assert "speeds" in cp.stdout and "blowup-cert" in cp.stdout

    def test_speeds_table(self, run_cli, config_path):
        cp = run_cli("speeds", "--config", str(config_path))
        assert cp.returncode == 0, cp.stderr
        assert "FOSH" in cp.stdout
        assert "1.41421356237" in cp.stdout  # +- sqrt(2) at unit coefficients

    def test_speeds_csv(self, run_cli, config_path, tmp_path):
        out = tmp_path / "out"
        cp = run_cli("speeds", "--config", str(config_path), "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        lines = (out / "speeds.csv").read_text().strip().splitlines()
        assert lines[0] == "speed,multiplicity"
        assert len(lines) == 4  # -c_v, 0 (x3), +c_v
        assert (out / "run_record.txt").exists()

    def test_stability_output(self, run_cli, config_path):
        cp = run_cli("stability", "--config", str(config_path), "--k", "1.0")
        assert cp.returncode == 0, cp.stderr
        assert "Delta_1 = 1.0" in cp.stdout
        assert "stable" in cp.stdout

    def test_dispersion_sweep(self, run_cli, config_path):
        cp = run_cli("dispersion", "--config", str(config_path), "--sweep", "0.5:2:4")
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.strip().splitlines()
        assert lines[0].startswith("k,re_omega_1,im_omega_1")
        assert len(lines) == 5

    @pytest.mark.parametrize("sweep", ["nope", "nan:1:3", "1:inf:2", "-inf:1:2", "1:nan:2"])
    def test_dispersion_bad_sweep_is_config_error(self, run_cli, config_path, sweep):
        cp = run_cli("dispersion", "--config", str(config_path), f"--sweep={sweep}")
        assert cp.returncode == 2
        assert f"--sweep must be kmin:kmax:n with 0 < kmin <= kmax < inf, got {sweep!r}" \
            in cp.stderr

    @pytest.mark.parametrize("system", ["bulk", "shear"])
    @pytest.mark.parametrize("k", ["inf", "-inf", "nan"])
    def test_stability_nonfinite_k_is_config_error(self, run_cli, config_path, system, k):
        cp = run_cli("stability", "--config", str(config_path), f"--k={k}", "--override",
                     f"scenario.system={system}", "--override", "scenario.geometry=planar")
        assert cp.returncode == 2 and cp.stdout == ""
        assert f"--k must be a finite wavenumber, got {float(k)!r}" in cp.stderr

    @pytest.mark.parametrize("args,message", [
        (["stability", "--k=1e200"], "wavenumber 1e+200 makes a dispersion coefficient overflow"),
        # k^2 is finite, tau k^2 (cs^2 + zeta/rho) is not
        (["stability", "--k=1.2e154"], "wavenumber 1.2e+154 makes"),
        (["stability", "--k=1e154", "--override", "scenario.system=shear"],
         "wavenumber 1e+154 makes"),
        (["dispersion", "--sweep=1:1e200:2"], "wavenumber 1e+200 makes"),
        (["dispersion", "--sweep=1:1e154:3", "--override", "scenario.system=shear"],
         "wavenumber 1e+154 makes"),
        (["dispersion", "--sweep", "1:2:1000000000000000"],
         "--sweep '1:2:1000000000000000' needs a table too large to allocate"),
        (["dispersion", "--sweep", f"1:2:{10**30}"], "needs a table too large to allocate")])
    def test_wavenumber_out_of_range_is_config_error(self, run_cli, tmp_path, args, message):
        # RuntimeWarnings are errors in this suite, so none may be raised on the way
        path = tmp_path / "planar.cfg"
        path.write_text("", encoding="utf-8")
        cp = run_cli(*args, "--config", str(path))
        assert cp.returncode == 2 and cp.stdout == ""
        assert message in cp.stderr

    @pytest.mark.parametrize("system", ["bulk", "shear"])
    def test_stability_report_on_the_default_config(self, run_cli, tmp_path, system):
        path = tmp_path / "default.cfg"
        path.write_text(f"[scenario]\nsystem = {system}\n", encoding="utf-8")
        cp = run_cli("stability", "--config", str(path), "--k=1")
        assert (cp.returncode, cp.stdout, cp.stderr) == (0, STABILITY_K1[system], "")

    def test_stability_refuses_a_verdict_its_roots_contradict(self, run_cli, tmp_path):
        # at tau = 1e-100 the roots span 100 decades: the companion matrix
        # loses the acoustic pair and its Newton step lands on +1, beside a
        # Hurwitz-stable cubic. A root finder that resolves them would make
        # this run print "stable" with the pair -0.5 +- 1.3229i.
        path = tmp_path / "tau.cfg"
        path.write_text("[scenario]\nsystem = bulk\n[material]\ntau = 1e-100\n",
                        encoding="utf-8")
        cp = run_cli("stability", "--config", str(path))
        assert (cp.returncode, cp.stdout) == (4, "")
        assert "the root +1 +0i lies in the right half plane" in cp.stderr

    def test_dispersion_refuses_the_roots_stability_refuses(self, run_cli, tmp_path):
        # the roots of the test above reach the sweep through the same check
        path = tmp_path / "tau.cfg"
        path.write_text("[scenario]\nsystem = bulk\n[material]\ntau = 1e-100\n",
                        encoding="utf-8")
        refused = run_cli("stability", "--config", str(path))
        for out in ([], ["--out", str(tmp_path / "run")]):
            cp = run_cli("dispersion", "--config", str(path), "--sweep=1:1:1", *out)
            assert (cp.returncode, cp.stdout, cp.stderr) == (4, "", refused.stderr)
        assert not (tmp_path / "run" / "dispersion.csv").exists()

    def test_large_wavenumbers_reach_the_asymptotic_roots(self, run_cli, tmp_path):
        # default bulk config (cs^2 = 2, zeta = tau = rho = 1): as k grows the
        # cubic's roots tend to -2/3 and -1/6 +- sqrt(3) k i, whose p(x) overflows
        path = tmp_path / "default.cfg"
        path.write_text("", encoding="utf-8")
        for k in (1e150, 1e153):
            cp = run_cli("stability", "--config", str(path), f"--k={k}")
            assert cp.returncode == 0, cp.stderr
            roots = [complex(float(re), float(im[:-1])) for re, im in
                     (line.split()[2:] for line in cp.stdout.splitlines() if "root =" in line)]
            expected = [-2 / 3, -1 / 6 - 3**0.5 * k * 1j, -1 / 6 + 3**0.5 * k * 1j]
            assert len(roots) == 3
            assert np.allclose([r.real for r in roots], [e.real for e in expected], atol=1e-6)
            assert np.allclose([r.imag for r in roots], [e.imag for e in expected], rtol=1e-9)
        cp = run_cli("dispersion", "--config", str(path), "--sweep", "1:1e153:3")
        assert cp.returncode == 0, cp.stderr
        for line in cp.stdout.splitlines()[2:]:
            k, *values = map(float, line.split(","))
            assert np.allclose(values[2:], [3**0.5 * k, -1 / 6, -(3**0.5) * k, -1 / 6])

    def test_shear_dispersion_table(self, run_cli, tmp_path):
        path = tmp_path / "shear.cfg"
        path.write_text("[scenario]\nsystem = shear\n[material]\ntau = 2.0\n", encoding="utf-8")
        cp = run_cli("dispersion", "--config", str(path), "--sweep=0.5:3:6")
        assert cp.returncode == 0, cp.stderr
        header, *rows = cp.stdout.splitlines()
        assert len(header.split(",")) == 17 and len(rows) == 6
        bg = cli._background(parse_config(path.read_text(encoding="utf-8")))
        for line in rows:
            k, *values = map(float, line.split(","))
            # columns (omega, growth) of x = -i omega at rest: x = growth - i omega
            x = np.array(values[1::2]) - 1j * np.array(values[0::2])
            relaxation = np.isclose(x, -1.0 / bg.tau, rtol=0.0, atol=1e-12)
            assert relaxation.sum() == 3
            factors = stability.shear_dispersion(bg, (k, 0.0, 0.0))
            expected = np.concatenate([stability.poly_roots(factors[name])
                                       for name in ("transverse", "acoustic")])
            assert np.allclose(np.sort_complex(x[~relaxation]), np.sort_complex(expected),
                               rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("command", ["speeds", "stability", "dispersion --sweep=1:2:3",
                                         "simulate", "blowup-cert"])
    @pytest.mark.parametrize("text,rho_bar", [
        ("[material]\nzeta = powerlaw:1,1000\n[reference]\nrho_bar = 10\n", 10.0),
        ("[material]\ngamma = 1000\n[reference]\nrho_bar = 10\n", 10.0),
        ("[material]\nA = 1e308\n", 1.0),
        ("[material]\ntau = 1e-320\n", 1.0)], ids=["zeta", "gamma", "A", "tau"])
    def test_overflowing_reference_state_is_config_error(self, run_cli, tmp_path, command,
                                                         text, rho_bar):
        # RuntimeWarnings are errors in this suite, so none may be raised on the way
        path = tmp_path / "overflow.cfg"
        path.write_text(text, encoding="utf-8")
        cp = run_cli(*command.split(), "--config", str(path))
        assert cp.returncode == 2 and cp.stdout == ""
        assert f"the material law overflows at the reference state rho_bar = {rho_bar!r}" \
            in cp.stderr

    @pytest.mark.parametrize("command,text,message", [
        ("blowup-cert", "[reference]\nR = 1e100\n",
         "certificate refused: the momentum threshold overflows at R = 1e+100"),
        *[(command, "[profile]\nb_from_f0 = 1e308\n",
           "the initial fields are not finite: bump amplitudes a, b, c = 0.0, inf, 0.0")
          for command in ("simulate", "blowup-cert")]],
        ids=["R-blowup-cert", "b_from_f0-simulate", "b_from_f0-blowup-cert"])
    def test_overflowing_threshold_or_initial_data_is_config_error(self, run_cli, tmp_path,
                                                                   command, text, message):
        path = tmp_path / "overflow.cfg"
        path.write_text(text, encoding="utf-8")
        cp = run_cli(command, "--config", str(path))
        assert cp.returncode == 2 and cp.stdout == ""
        assert message in cp.stderr

    def test_blowup_cert(self, run_cli, config_path):
        cp = run_cli("blowup-cert", "--config", str(config_path),
                     "--override", "profile.b_from_f0=30.0", "--override",
                     "grid.n_cells=256")
        assert cp.returncode == 0, cp.stderr
        assert "momentum threshold" in cp.stdout
        assert "certificate satisfied   = True" in cp.stdout

    @pytest.mark.parametrize("command", ["simulate", "blowup-cert"])
    def test_bump_on_no_cell_centre_is_config_error(self, run_cli, config_path, command):
        # R is below the first cell centre, dx / 2 = 0.0117: F(0) vanishes for any b
        cp = run_cli(command, "--config", str(config_path), "--override", "reference.R=0.001",
                     "--override", "profile.b_from_f0=30.0")
        assert cp.returncode == 2, cp.stderr
        assert "cannot scale the velocity bump: F(0) vanishes at unit amplitude" in cp.stderr

    def test_blowup_cert_refusal_is_config_error(self, run_cli, config_path):
        cp = run_cli("blowup-cert", "--config", str(config_path),
                     "--override", "material.zeta=powerlaw:1.0,1.0")
        assert cp.returncode == 2
        assert "refused" in cp.stderr

    def test_simulate_ok_and_outputs(self, run_cli, config_path, tmp_path):
        out = tmp_path / "run"
        cp = run_cli("simulate", "--config", str(config_path), "--out", str(out),
                     "--override", "run.snapshot_times=0.0,0.1")
        assert cp.returncode == 0, cp.stderr
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "t,dt,F,dM,G,max_grad_u,max_grad_rho"
        assert len(series) > 10
        snaps = sorted(out.glob("snapshot_*.csv"))
        assert len(snaps) == 2
        header = snaps[0].read_text().splitlines()[0]
        assert header == "t,cell_center,rho,u,Pi"
        record = (out / "run_record.txt").read_text()
        assert "status     = ok" in record
        assert "[scenario]" in record  # resolved config echo

    def test_shear_snapshot_keeps_the_transverse_columns(self, run_cli, tmp_path):
        # the run stores the four longitudinal rows; the snapshot writes all
        # ten shear fields, as `fields.get` answers them: 0.0 for the
        # transverse ones and Pi22's values for Pi33
        path = tmp_path / "shear.cfg"
        path.write_text("[scenario]\nsystem = shear\n[profile]\na = 0.01\nb = 0.02\n"
                        "c = 0.01\n[grid]\nn_cells = 64\nx_min = -4.0\n[run]\nt_end = 0.05\n"
                        "snapshot_times = 0.0, 0.05\n[tolerances]\nfront_tol = 1e-6\n",
                        encoding="utf-8")
        cp = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "run"))
        assert cp.returncode == 0, cp.stdout + cp.stderr
        transverse = ("v2", "v3", "Pi12", "Pi13", "Pi23")
        for snap in sorted((tmp_path / "run").glob("snapshot_*.csv")):
            header, *rows = snap.read_text(encoding="utf-8").splitlines()
            names = header.split(",")
            assert names == ["t", "cell_center", *LAYOUTS["shear"].names]
            assert len(rows) == 64
            columns = dict(zip(names, zip(*(row.split(",") for row in rows))))
            assert all(set(columns[n]) == {"0.0"} for n in transverse)
            assert set(columns["Pi11"]) != {"0.0"}
            assert columns["Pi33"] == columns["Pi22"] and set(columns["Pi22"]) != {"0.0"}
        sim = solver.init_scenario(parse_config(path.read_text(encoding="utf-8")))
        assert sim.system == "shear" and sim.fields.data.shape[0] == 4
        pi22 = sim.fields.get("Pi22")
        assert np.array_equal(sim.fields.get("Pi33").view(np.int64), pi22.view(np.int64))
        assert np.array_equal(sim.fields.get("v2").view(np.int64), np.zeros(64, dtype=np.int64))
        for name in ("v2", "Pi33"):
            with pytest.raises(KeyError):
                sim.fields.set(name, pi22)
            with pytest.raises(ValueError, match="read-only"):
                sim.fields.get(name)[0] = 1.0
        assert np.array_equal(pi22.view(np.int64), sim.fields.get("Pi22").view(np.int64))
        uniform = solver.Simulation(sim.grid, "shear", sim.law, sim.reference)
        assert uniform.fields.names == LAYOUTS["shear"].names
        assert uniform.fields.data.shape[0] == 10

    def test_simulate_diagnostics_streams_the_series(self, run_cli, config_path, tmp_path):
        out = tmp_path / "run"
        cp = run_cli("simulate", "--config", str(config_path), "--out", str(out),
                     "--diagnostics", "--override", "profile.a=0.001")
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.splitlines(keepends=True)
        assert lines[0].startswith("initial report:")
        assert lines[-1].startswith("final status: ok")
        assert "".join(lines[1:-1]) == (out / "series.csv").read_text(encoding="utf-8")

    def test_dispersion_out_writes_the_streamed_table(self, run_cli, config_path, tmp_path):
        out = tmp_path / "out"
        streamed = run_cli("dispersion", "--config", str(config_path), "--sweep", "0.5:2:4")
        cp = run_cli("dispersion", "--config", str(config_path), "--sweep", "0.5:2:4",
                     "--out", str(out))
        assert cp.returncode == 0 and cp.stdout == "", cp.stderr
        assert (out / "dispersion.csv").read_text(encoding="utf-8") == streamed.stdout
        assert "outputs    = dispersion.csv" in (out / "run_record.txt").read_text()

    def test_solver_error_exit_code(self, run_cli, config_path, monkeypatch):
        def fail(cfg):
            raise ValueError("no state")

        monkeypatch.setattr(solver, "init_scenario", fail)
        cp = run_cli("simulate", "--config", str(config_path))
        assert cp.returncode == 4
        assert "numerical failure: no state" in cp.stderr

    def test_simulate_deterministic_output(self, run_cli, config_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cp = run_cli("simulate", "--config", str(config_path), "--out", str(out),
                         "--override", "profile.a=0.001")
            assert cp.returncode == 0, cp.stderr
            outs.append((out / "series.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_run_record_is_independent_of_the_out_path(self, run_cli, config_path, tmp_path):
        # outputs are listed by file name, so only the wall_time line differs
        records = []
        for out in (tmp_path / "a", tmp_path / "a_much_longer_directory_name" / "b"):
            cp = run_cli("simulate", "--config", str(config_path), "--out", str(out),
                         "--override", "run.snapshot_times=0.1")
            assert cp.returncode == 0, cp.stderr
            lines = (out / "run_record.txt").read_bytes().split(b"\n")
            records.append([line for line in lines if not line.startswith(b"wall_time")])
        assert records[0] == records[1]
        assert b"outputs    = snapshot_000.csv, series.csv" in records[0]

    def test_simulate_breakdown_exit_code(self, run_cli, config_path, tmp_path):
        # small fast blast: certificate-satisfying data at low resolution
        cp = run_cli("simulate", "--config", str(config_path),
                     "--override", "material.A=1.0",
                     "--override", "grid.n_cells=256",
                     "--override", "grid.x_max=2.0",
                     "--override", "run.t_end=0.05",
                     "--override", "profile.b_from_f0=31.92",
                     "--override", "tolerances.grad_factor=10")
        assert cp.returncode == 3, cp.stdout + cp.stderr
        assert "breakdown" in cp.stdout

    def test_bad_config_exit_code(self, tmp_path):
        # the one run through the `python -m viscoflow` entry point
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nsystem = vortex\n", encoding="utf-8")
        cp = subprocess.run([sys.executable, "-m", "viscoflow", "speeds", "--config", str(path)],
                            capture_output=True, text=True)
        assert cp.returncode == 2
        assert "system must be" in cp.stderr

    @pytest.mark.parametrize("text,overrides,message", [
        *(pytest.param(MINIMAL + f"\n[{section}]\n{entry}\n", [],
                       f"{entry.split()[0]} must be finite", id=entry.split()[0])
          for section, entry in [("reference", "rho_bar = inf"), ("reference", "Pi_bar = inf"),
                                 ("reference", "v_bar = inf"), ("profile", "a = nan"),
                                 ("run", "snapshot_times = 0.1, nan")]),
        pytest.param("[material]\nzeta = powerlaw:1\n", [],
                     "powerlaw needs two parameters, got 'powerlaw:1'", id="powerlaw-arity"),
        pytest.param("[material]\nzeta = powerlaw:0,1\n", [],
                     "powerlaw coefficient must be positive", id="powerlaw-coefficient"),
        pytest.param("[grid]\nn_cells\n", [], "line 2: expected key = value, got 'n_cells'",
                     id="no-equals"),
        pytest.param("n_cells = 64\n[grid]\n", [], "line 1: key outside any [section]",
                     id="no-section"),
        pytest.param("[profile]\na = -1.5\n", [],
                     "density bump amplitude drives rho non-positive", id="a"),
        pytest.param("[run]\nt_end = -1\n", [], "t_end must be non-negative, got -1.0",
                     id="t_end"),
        pytest.param("[run]\nseries_cadence = 0\n", [], "series_cadence must be at least 1",
                     id="series_cadence"),
        pytest.param("[run]\nsnapshot_times = -0.1, 0.2\n", [],
                     "snapshot_times must be non-negative", id="snapshot_times"),
        pytest.param("", ["gridn_cells"],
                     "override must look like section.key=value, got 'gridn_cells'",
                     id="override-form"),
        pytest.param("", ["grid.n_cells=abc"], "'n_cells' must be of type int, got 'abc'",
                     id="override-type"),
        # the law is 10 rho^-400 = 0 at the reference density
        pytest.param("[material]\nzeta = powerlaw:1,-400\n[reference]\nrho_bar = 10\n", [],
                     "transport coefficient zeta = 0 is non-positive or non-finite "
                     "(rho=10, pi=0)", id="law-vanishes-at-reference"),
    ])
    def test_refused_config_exit_code(self, tmp_path, capsys, text, overrides, message):
        path = tmp_path / "refused.cfg"
        path.write_text(text, encoding="utf-8")
        argv = ["simulate", "--config", str(path)]
        for override in overrides:
            argv += ["--override", override]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_deleted_tolerance_override_exit_code(self, config_path, capsys):
        assert main(["simulate", "--config", str(config_path),
                     "--override", "tolerances.check_front=0"]) == 2
        assert "unknown tolerance 'check_front'" in capsys.readouterr().err

    def test_out_that_is_a_file_exit_code(self, config_path, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        assert main(["speeds", "--config", str(config_path), "--out", str(afile)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_simulate_fixed_exterior_with_pi_bar_exit_code(self, config_path, capsys):
        planar = ["--override", "scenario.geometry=planar", "--override", "grid.x_min=-3.0",
                  "--override", "reference.Pi_bar=0.05", "--override", "profile.a=0.01"]
        assert main(["simulate", "--config", str(config_path), *planar]) == 2
        assert "Pi_bar" in capsys.readouterr().err
        # the analyses and periodic runs keep a uniform background stress
        assert main(["speeds", "--config", str(config_path), *planar]) == 0
        assert main(["simulate", "--config", str(config_path), *planar,
                     "--override", "scenario.bc=periodic"]) == 0

    def test_simulate_spherical_with_v_bar_exit_code(self, config_path, capsys):
        moving = ["--override", "reference.v_bar=0.1", "--override", "profile.a=0.01"]
        assert main(["simulate", "--config", str(config_path), *moving]) == 2
        assert "v_bar" in capsys.readouterr().err
        assert main(["speeds", "--config", str(config_path), *moving]) == 0

    @pytest.mark.parametrize("system", ["bulk", "shear"])
    def test_speeds_on_an_empty_config(self, run_cli, tmp_path, system):
        path = tmp_path / "empty.cfg"
        path.write_text(f"[scenario]\nsystem = {system}\n", encoding="utf-8")
        cp = run_cli("speeds", "--config", str(path))
        assert (cp.returncode, cp.stdout, cp.stderr) == (0, SPEEDS[system], "")

    def test_simulate_refuses_a_front_that_reaches_the_wall(self, run_cli, config_path):
        cp = run_cli("simulate", "--config", str(config_path), "--override", "run.t_end=5.0")
        assert cp.returncode == 2 and cp.stdout == ""
        assert "front not contained" in cp.stderr

    def test_planar_front_is_measured_from_the_midpoint(self, run_cli, tmp_path):
        # the planar bump sits at the midpoint: on [0, 4] the wall is 2 from it
        path = tmp_path / "planar.cfg"
        path.write_text("[reference]\nR = 1.0\n[run]\nt_end = 0.7\n", encoding="utf-8")
        cp = run_cli("simulate", "--config", str(path))
        assert cp.returncode == 2 and "front not contained" in cp.stderr
        cp = run_cli("simulate", "--config", str(path), "--override", "grid.x_min=-4.0")
        assert cp.returncode == 0, cp.stderr

    def test_front_containment_is_a_simulate_rule(self, run_cli, tmp_path):
        # the default grid cannot contain the shear front, which only simulate evolves
        path = tmp_path / "shear.cfg"
        path.write_text("[scenario]\nsystem = shear\n", encoding="utf-8")
        for command in (["speeds"], ["stability"], ["dispersion", "--sweep=1:2:3"],
                        ["blowup-cert"]):
            cp = run_cli(*command, "--config", str(path))
            assert cp.returncode == 0, cp.stderr
        cp = run_cli("simulate", "--config", str(path))
        assert cp.returncode == 2 and cp.stdout == ""
        assert "front not contained: R + c_v t_end = 2.04083 must stay below the wall's " \
               "distance from the centre, 2.0" in cp.stderr

    def test_missing_config_exit_code(self, run_cli):
        cp = run_cli("speeds", "--config", "/nonexistent/nope.cfg")
        assert cp.returncode == 2

    def test_shear_stability_factors(self, run_cli, config_path):
        cp = run_cli("stability", "--config", str(config_path),
                     "--override", "scenario.system=shear",
                     "--override", "scenario.geometry=planar")
        assert cp.returncode == 0, cp.stderr
        assert "relaxation factor" in cp.stdout
        assert "acoustic factor" in cp.stdout
        assert "overall verdict: stable" in cp.stdout

    @pytest.mark.parametrize("k", ["0", "1e-9"])
    def test_shear_stability_with_marginal_factors_is_marginal(self, run_cli, config_path, k):
        # at k = 0 the transverse and acoustic factors have a root x = 0:
        # marginal, which is not unstable
        cp = run_cli("stability", "--config", str(config_path), "--k", k,
                     "--override", "scenario.system=shear",
                     "--override", "scenario.geometry=planar")
        assert cp.returncode == 0, cp.stderr
        labels = [line.rsplit(" ", 1)[1] for line in cp.stdout.splitlines()
                  if "max real part" in line]
        assert labels == ["stable", "marginal", "marginal"]
        assert cp.stdout.endswith("overall verdict: marginal\n")


def plain_lines(header, columns, *known):
    """One `repr` per value: the bytes `cli._csv_lines` writes."""
    yield ",".join(header) + "\n"
    for row in zip(*columns):
        yield ",".join(repr(float(v)) for v in row) + "\n"


class TestCsvBytes:
    def test_csv_lines_match_a_repr_per_value(self):
        first = np.array([1.5, -0.0, 0.0, np.nan, np.inf, -np.inf, 1.5, 0.1, -0.0])
        twin = first.copy()  # a separate array with the bits of `first`
        signs = first.copy()
        signs[-1] = 0.0  # equal to `first` as floats, not as bits
        # magnitudes formatted once: +- pairs, -0.0 beside 0.0, +-inf, NaNs
        # with the sign bit set (whose repr has no "-"), an all-negative column
        pairs = np.array([0.1, -0.1, 2.5, -2.5, 1e-300, -1e-300, 5e-324, -5e-324, -0.1])
        zeros = np.array([0.0, -0.0, -0.0, 0.0, 1.0, -1.0, -0.0, 0.0, 0.0])
        nans = np.array([-np.nan, np.nan, -np.nan, -1.0, 1.0, np.inf, -np.inf, -np.inf, 3.0])
        nans[3] = np.array([-2**63 | 0x7FF8000000000001]).view(float)[0]  # payload, sign set
        assert np.signbit(nans[[0, 2, 3]]).all() and not np.signbit(nans[1])
        columns = [first, np.full(9, 0.1), twin, signs, np.full(9, -0.0), np.zeros(9),
                   first[::-1], np.full(9, np.nan), np.full(9, -np.inf), twin, [3] * 9,
                   pairs, zeros, nans, -0.3 * np.arange(1, 10), np.full(9, -np.nan)]
        header = [f"c{i}" for i in range(len(columns))]
        plain = "".join(plain_lines(header, columns))
        assert "".join(cli._csv_lines(header, columns)) == plain
        # words made for an earlier file serve a column with their bits, and only it
        known = []
        for column in (signs, first[:4]):
            cli._words(column, known)
        assert "".join(cli._csv_lines(header, columns, known)) == plain
        assert "".join(cli._csv_lines(["a"], [[]])) == "a\n"

    def test_simulate_snapshots_match_a_repr_per_value(self, run_cli, tmp_path, monkeypatch):
        # three shear snapshots: the cell centres repeat in each, Pi33 repeats
        # Pi22, t and the transverse fields are constant
        path = tmp_path / "shear.cfg"
        path.write_text("[scenario]\nsystem = shear\n[material]\neta = powerlaw:0.5,1.0\n"
                        "[profile]\na = 0.2\nb = 0.3\nc = 0.05\n[grid]\nn_cells = 64\n"
                        "x_min = -4.0\n[run]\nt_end = 0.05\n"
                        "snapshot_times = 0.0, 0.025, 0.05\n[tolerances]\nfront_tol = 1e-3\n",
                        encoding="utf-8")
        runs = {}
        for name in ("words", "plain"):
            if name == "plain":
                monkeypatch.setattr(cli, "_csv_lines", plain_lines)
            cp = run_cli("simulate", "--config", str(path), "--out", str(tmp_path / name))
            assert cp.returncode == 0, cp.stderr
            runs[name] = {f.name: f.read_bytes() for f in (tmp_path / name).glob("*.csv")}
        assert len(runs["words"]) == 4 and runs["words"] == runs["plain"]
        final = runs["words"]["snapshot_002.csv"].decode().splitlines()
        pi22, pi33 = zip(*(row.split(",")[-3::2] for row in final[1:]))
        assert pi22 == pi33 and len(set(pi22)) > 10


def test_every_tolerance_has_a_reader():
    """A [tolerances] key that no module outside config.py quotes is a knob
    nothing reads."""
    package = Path(__file__).resolve().parents[1] / "src" / "viscoflow"
    sources = "\n".join(p.read_text(encoding="utf-8") for p in sorted(package.glob("*.py"))
                        if p.name != "config.py")
    unread = [key for key in default_tolerances()
              if f'"{key}"' not in sources and f"'{key}'" not in sources]
    assert unread == []


def test_readme_lists_every_tolerance_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration format", 1)[1].split("```ini", 1)[1]
    block = block.split("```", 1)[0].split("[tolerances]", 1)[1]
    listed = {}
    for line in block.splitlines()[1:]:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        listed[key.strip()] = float(value)
    assert listed == default_tolerances()


def test_readme_lists_every_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration format", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    # b_from_f0 has no default: its line shows where a value would go
    block = "\n".join(line for line in block.splitlines() if not line.startswith("b_from_f0"))
    assert format_config(parse_config(block)) == format_config(ScenarioConfig())


def test_numpy_linalg_errors_are_value_errors():
    # `cli.main` reports a LinAlgError as a numerical failure through `except ValueError`
    assert issubclass(np.linalg.LinAlgError, ValueError)


def _subcommands():
    parser = cli.build_parser()
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def test_readme_and_docstring_list_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\nSubcommands:\n\n", 1)[1].split("\n\n", 1)[0]
    bullets = [line[3:].split("`")[0].split()[0] for line in block.splitlines()
               if line.startswith("- `")]
    assert bullets == _subcommands()
    docstring = cli.__doc__.split("Subcommands: ", 1)[1].split(".", 1)[0]
    assert docstring.split(", ") == _subcommands()
