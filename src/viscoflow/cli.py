"""Command line interface: `viscoflow <subcommand> --config <path>`.

Subcommands: speeds, stability, dispersion, simulate, blowup-cert.
Exit codes: 0 success, 2 configuration error, 3 finite-time breakdown
detected by `simulate` (a successful detection, distinct from a crash),
4 internal numerical failure.

All CSV output uses the shortest round-trip decimal form of each value, so
identical configurations yield bit-identical files on one platform. Each
value is formatted once per distinct column per run: `repr` runs once per
distinct magnitude of a column (a negative value takes "-" before its
magnitude's word), once for a constant column, and not at all for a column
whose bits repeat those of an earlier column of the file (Pi33 beside Pi22
in a shear snapshot) or the cell centres of an earlier snapshot of the
same `simulate`, which takes the words already made. The
bytes are those of formatting every value, and no formatted word outlives
its command.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__, diagnostics, solver, stability
from .config import ConfigError, ScenarioConfig, apply_overrides, format_config, \
    material_law, parse_config, reference_state, symmetry_center
from .materials import LAYOUTS, BulkState, ShearState
from .quasilinear import assemble_bulk, assemble_shear, \
    characteristic_speeds_bulk_closed, characteristic_speeds_shear_closed, \
    characteristic_speeds_numeric, reference_signal_speed

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BREAKDOWN = 3
EXIT_NUMERICAL = 4
CSV_CHUNK_ROWS = 256


def _run_record(subcommand: str, exit_code: int, outputs: list[str], wall_time: float,
                cfg: ScenarioConfig) -> str:
    """The text of run_record.txt; its resolved configuration alone reproduces the run.
    `outputs` are file names inside the output directory, so the record does
    not depend on where that directory is."""
    status = {EXIT_OK: "ok", EXIT_BREAKDOWN: "breakdown", EXIT_CONFIG: "config-error",
              EXIT_NUMERICAL: "numerical-failure"}[exit_code]
    return "\n".join([
        f"subcommand = {subcommand}",
        f"status     = {status}",
        f"wall_time  = {wall_time:.3f} s",
        f"version    = viscoflow {__version__}",
        "outputs    = " + (", ".join(outputs) if outputs else "(none)"),
        "",
        "# resolved configuration",
        format_config(cfg),
    ])


def _fmt(value) -> str:
    return repr(float(value))


def _words(col, done: list) -> list[str]:
    """`repr` of each float of `col`, called once per distinct magnitude,
    and once for a constant column. `done` holds (int64 bits, words) pairs of
    the columns formatted before: a column with the bits of one of them takes
    its words, and any other adds its own pair.

    The groups are the int64 bits with the sign bit cleared, which keep each
    NaN payload apart, and `repr` of a float depends only on its bits; a
    value with the sign bit set, NaN excepted, takes "-" before its
    magnitude's word, as `repr` writes it. So the words are unchanged, and
    an odd field (a velocity, say) costs about half the `repr` calls. The
    groups come from a stable argsort rather than `np.unique`: on the sorted
    runs of a snapshot it is faster, and it pages in less sort code.
    """
    bits = np.asarray(col, dtype=float).view(np.int64)
    for seen, words in done:
        if np.array_equal(seen, bits):
            return words
    if bits.size and (bits == bits[0]).all():
        words = [repr(bits[:1].view(float).tolist()[0])] * len(bits)
    else:
        magnitude = bits & np.int64(0x7FFF_FFFF_FFFF_FFFF)  # the sign bit cleared
        order = np.argsort(magnitude, kind="stable")
        ordered = magnitude[order]
        first = np.ones(len(bits), dtype=bool)  # first of its magnitude in sorted order
        first[1:] = ordered[1:] != ordered[:-1]
        inverse = np.empty(len(bits), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        distinct = [repr(x) for x in ordered[first].view(float).tolist()]
        # repr(-x) is "-" + repr(x) for every float but NaN, whose repr drops its sign
        inverse[(bits < 0) & ~np.isnan(bits.view(float))] += len(distinct)
        table = distinct + ["-" + word for word in distinct]
        words = [table[i] for i in inverse.tolist()]
    done.append((bits, words))
    return words


def _csv_lines(header, columns, known=()):
    """CSV lines of `header` and equal-length `columns`, each value a float,
    yielded CSV_CHUNK_ROWS rows at a time (one write each, not one a row);
    a column takes the words of an earlier one, or of a `_words` pair in
    `known`, with its bits."""
    done = list(known)
    yield ",".join(header) + "\n"
    rows = map(",".join, zip(*(_words(col, done) for col in columns)))
    for chunk in iter(lambda: list(islice(rows, CSV_CHUNK_ROWS)), []):
        yield "\n".join(chunk) + "\n"


def _write_csv(path: Path, header, columns, known=()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_csv_lines(header, columns, known))


def _background(cfg: ScenarioConfig) -> stability.Background:
    return stability.equilibrium_background(material_law(cfg), reference_state(cfg))


def cmd_speeds(cfg: ScenarioConfig, out_dir: Path | None, args) -> tuple[int, list[str]]:
    law = material_law(cfg)
    ref = reference_state(cfg)
    direction = (1.0, 0.0, 0.0)
    if cfg.system == "bulk":
        state = BulkState(ref.rho_bar, ref.v_bar, ref.Pi_bar)
        system, closed_form = assemble_bulk(state, law), characteristic_speeds_bulk_closed
    else:
        state = ShearState(ref.rho_bar, ref.v_bar,
                           (ref.Pi_bar, 0.0, 0.0, ref.Pi_bar, 0.0, ref.Pi_bar))
        system, closed_form = assemble_shear(state, law), characteristic_speeds_shear_closed
    report = characteristic_speeds_numeric(system, direction)
    closed = closed_form(state, law, direction)

    print(f"characteristic speeds, {cfg.system} system, direction x")
    print(f"  symmetric matrices : {report.symmetric}")
    print(f"  a0 positive definite: {report.a0_posdef}")
    print(f"  eigenvector condition: {report.eigenvector_condition:.6g}")
    print(f"  verdict            : {report.hyperbolic_verdict}")
    print(f"  {'speed':>18}  multiplicity")
    mults = report.multiplicities
    distinct = report.speeds[np.cumsum([0, *mults])[:-1]]  # first of each cluster
    # zero the eigensolver's rounding alone: n eps cond max|speed|
    noise = len(report.speeds) * np.finfo(float).eps * report.eigenvector_condition
    distinct[np.abs(distinct) <= noise * float(np.max(np.abs(report.speeds), initial=0.0))] = 0.0
    for speed, mult in zip(distinct, mults):
        print(f"  {speed:>18.12g}  {mult}")
    print("  closed-form speed set: " + ", ".join(f"{s:.12g}" for s in closed))

    outputs = []
    if out_dir is not None:
        path = out_dir / "speeds.csv"
        _write_csv(path, ("speed", "multiplicity"), (distinct, mults))
        outputs.append(path.name)
    return EXIT_OK, outputs


def cmd_stability(cfg: ScenarioConfig, out_dir: Path | None, args) -> tuple[int, list[str]]:
    if not np.isfinite(args.k):
        raise ConfigError([(0, f"--k must be a finite wavenumber, got {args.k!r}")])
    polys = _dispersion(cfg.system, _background(cfg), args.k)
    verdicts = {name: stability.polynomial_verdict(poly) for name, poly in polys.items()}
    for name, poly in polys.items():
        head = f"bulk dispersion cubic at |k| = {args.k}" if name == "bulk" else f"{name} factor"
        print(f"{head}: " + ", ".join(_fmt(c) for c in poly))
        if name == "bulk":
            for i, d in enumerate(verdicts[name].deltas, start=1):
                print(f"  Delta_{i} = {_fmt(d)}")
        _print_roots(verdicts[name])
    if cfg.system == "bulk":
        print("  transverse branch (k orthogonal to dv): neutral, Omega = 0")
    else:
        # the worst factor's: unstable, else marginal, else stable
        overall = max(map(_label, verdicts.values()), key=("stable", "marginal", "unstable").index)
        print(f"overall verdict: {overall}")
    return EXIT_OK, []


def _print_roots(verdict: stability.StabilityVerdict) -> None:
    for r in verdict.roots:
        print(f"  root = {r.real:+.12g} {r.imag:+.12g}i")
    print(f"  max real part = {verdict.max_real_part:.12g} -> {_label(verdict)}")


def _label(verdict: stability.StabilityVerdict) -> str:
    return "marginal" if verdict.marginal else ("stable" if verdict.stable else "unstable")


def cmd_dispersion(cfg: ScenarioConfig, out_dir: Path | None, args) -> tuple[int, list[str]]:
    try:
        kmin, kmax, count = args.sweep.split(":")
        kmin, kmax, count = float(kmin), float(kmax), int(count)
        if count < 1 or not 0 < kmin <= kmax < np.inf:
            raise ValueError
    except ValueError:
        raise ConfigError([(0, f"--sweep must be kmin:kmax:n with 0 < kmin <= kmax < inf, "
                               f"got {args.sweep!r}")])
    bg = _background(cfg)
    # the largest coefficients and roots, before the table is made
    n_branches = len(_branch_roots(cfg.system, bg, kmax))
    header = ["k"] + [f"{p}_omega_{i}" for i in range(1, n_branches + 1) for p in ("re", "im")]
    try:
        table = np.empty((count, 1 + 2 * n_branches))
        table[:, 0] = np.linspace(kmin, kmax, count)
    except (MemoryError, ValueError):
        raise ConfigError([(0, f"--sweep {args.sweep!r} needs a table too large to allocate")])
    for row in table:
        x = _branch_roots(cfg.system, bg, float(row[0]))
        # x = -i Omega, omega = Omega + v0.k: lab frequency and growth rate
        row[1::2] = bg.v0[0] * row[0] - x.imag
        row[2::2] = x.real
    if out_dir is not None:
        path = out_dir / "dispersion.csv"
        _write_csv(path, header, table.T)
        return EXIT_OK, [path.name]
    sys.stdout.writelines(_csv_lines(header, table.T))
    return EXIT_OK, []


def _dispersion(system: str, bg: stability.Background, k: float) -> dict[str, np.ndarray]:
    """The dispersion polynomials at |k| = k by name: the bulk cubic under
    "bulk", or the three shear factors. A wavenumber at which a coefficient is
    not finite (k^2 or a product with it overflows) is a configuration error."""
    with np.errstate(over="ignore", invalid="ignore"):
        polys = ({"bulk": stability.bulk_dispersion(bg, (k, 0.0, 0.0))} if system == "bulk"
                 else stability.shear_dispersion(bg, (k, 0.0, 0.0)))
    if not all(np.isfinite(poly).all() for poly in polys.values()):
        raise ConfigError([(0, f"wavenumber {k!r} makes a dispersion coefficient overflow")])
    return polys


def _branch_roots(system: str, bg: stability.Background, k: float) -> np.ndarray:
    """Every branch's root at |k| = k, sorted: the relaxation root counts 3 times.
    Roots that contradict their factor's verdict raise ValueError, as in
    `stability` (see `stability.polynomial_verdict`)."""
    with np.errstate(over="ignore", invalid="ignore"):  # deltas of huge coefficients
        roots = np.concatenate([
            np.repeat(stability.polynomial_verdict(p).roots, 3 if name == "relaxation" else 1)
            for name, p in _dispersion(system, bg, k).items()])
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def _write_snapshot(path: Path, sim: solver.Simulation, centres: list) -> None:
    """Every field of the simulation's system (all 10 of a shear run, as
    `sim.fields.get` answers them) at sim.t, one row per cell. The cell
    centres are the same in every snapshot of a run: the first one formats
    them into `centres`, a list the run keeps, and the later ones take
    their words from it."""
    names = LAYOUTS[sim.system].names
    t = np.full(sim.grid.n_cells, sim.t)
    if not centres:
        _words(sim.grid.centers_interior, centres)
    _write_csv(path, ("t", "cell_center") + names,
               (t, sim.grid.centers_interior, *map(sim.fields.get, names)), centres)


def cmd_simulate(cfg: ScenarioConfig, out_dir: Path | None, args) -> tuple[int, list[str]]:
    # the finite-propagation check and the fixed boundary assume a steady
    # exterior, which the front must not leave before t_end
    problems = []
    if cfg.bc == "fixed" and cfg.Pi_bar != 0.0:
        problems.append((0, f"simulate with bc = fixed needs Pi_bar = 0, got {cfg.Pi_bar!r}: "
                            "a uniform stress relaxes toward 0, so the exterior is not steady"))
    if cfg.geometry == "spherical" and cfg.v_bar != 0.0:
        problems.append((0, f"simulate with geometry = spherical needs v_bar = 0, got "
                            f"{cfg.v_bar!r}: the origin mirror reverses a radial flow and its "
                            "flux has a divergence, so the exterior is not steady"))
    cv = reference_signal_speed(material_law(cfg), cfg.system, reference_state(cfg))
    front = cfg.R + cv * cfg.t_end
    wall = cfg.x_max - symmetry_center(cfg.geometry, cfg.x_min, cfg.x_max)
    if cfg.bc == "fixed" and front >= wall:
        problems.append((0, f"front not contained: R + c_v t_end = {front:.6g} must stay "
                            f"below the wall's distance from the centre, {wall}"))
    if problems:
        raise ConfigError(problems)
    sim = solver.init_scenario(cfg)
    outputs: list[str] = []
    snaps = {t for t in cfg.snapshot_times if t <= cfg.t_end}
    centres: list = []  # the cell centres' words, made by the first snapshot
    full_series = diagnostics.DiagnosticSeries()
    full_series.record(sim, 0.0)
    print(f"initial report: max_rho0={_fmt(np.max(sim.fields.get('rho')))} "
          f"dM0={_fmt(full_series.dM[0])} F0={_fmt(full_series.F[0])} G0={_fmt(full_series.G[0])}")

    outcome = solver.StepOutcome("ok", 0.0)
    for t_stop in sorted(snaps | {cfg.t_end}):
        if t_stop > sim.t:
            outcome, series = solver.run(sim, t_stop, series_cadence=cfg.series_cadence)
            full_series.extend(series)
            if outcome.status != "ok":
                break
        if out_dir is not None and t_stop in snaps:
            path = out_dir / f"snapshot_{len(outputs):03d}.csv"
            _write_snapshot(path, sim, centres)
            outputs.append(path.name)

    series_columns = [getattr(full_series, name) for name in full_series.COLUMNS]
    if args.diagnostics:
        sys.stdout.writelines(_csv_lines(full_series.COLUMNS, series_columns))
    if out_dir is not None:
        path = out_dir / "series.csv"
        _write_csv(path, full_series.COLUMNS, series_columns)
        outputs.append(path.name)

    print(f"final status: {outcome.status} at t={_fmt(sim.t)} "
          f"after {sim.step_count} steps"
          + (f" ({outcome.message})" if outcome.message else ""))
    exit_codes = {"ok": EXIT_OK, "breakdown": EXIT_BREAKDOWN, "invalid_state": EXIT_NUMERICAL}
    return exit_codes[outcome.status], outputs


def cmd_blowup_cert(cfg: ScenarioConfig, out_dir: Path | None, args) -> tuple[int, list[str]]:
    sim = solver.init_scenario(cfg)
    try:
        cert = diagnostics.certificate(sim)
    except diagnostics.CertificateError as exc:
        print(f"certificate refused: {exc}", file=sys.stderr)
        return EXIT_CONFIG, []
    print(cert.describe())
    return EXIT_OK, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viscoflow",
        description="Analyze and evolve bulk- and shear-viscous relaxation fluids.")
    parser.add_argument("--version", action="version", version=f"viscoflow {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, command, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(command=command)
        p.add_argument("--config", required=True, help="path to a scenario config file")
        p.add_argument("--out", default=None, help="directory for CSV outputs and run record")
        p.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config entry (repeatable)")
        return p

    add("speeds", cmd_speeds, "characteristic speeds and hyperbolicity report")
    p = add("stability", cmd_stability, "dispersion polynomial, determinants, roots, verdict")
    p.add_argument("--k", type=float, default=1.0, help="wavenumber magnitude (default 1)")
    p = add("dispersion", cmd_dispersion, "CSV sweep of dispersion roots over k")
    p.add_argument("--sweep", required=True, metavar="KMIN:KMAX:N")
    p = add("simulate", cmd_simulate, "evolve the configured scenario")
    p.add_argument("--diagnostics", action="store_true",
                   help="stream the diagnostic series CSV to stdout")
    add("blowup-cert", cmd_blowup_cert, "evaluate the finite-lifespan certificate")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = None if args.out is None else Path(args.out)
    try:
        cfg = parse_config(text)
        if args.override:
            cfg = apply_overrides(cfg, args.override)
        if out_dir is not None:
            try:
                out_dir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                print(f"cannot create output directory: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        start = time.perf_counter()
        exit_code, outputs = args.command(cfg, out_dir, args)
        wall_time = time.perf_counter() - start
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # np.linalg.LinAlgError included: it subclasses ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if out_dir is not None:
        (out_dir / "run_record.txt").write_text(
            _run_record(args.subcommand, exit_code, outputs, wall_time, cfg), encoding="utf-8")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
