"""Blow-up functionals, the finite-lifespan certificate, growth-inequality
monitoring, and loss-of-regularity detection.

The certificate encodes the sufficient condition for finite-time breakdown of
classical solutions: with constant-exterior data of support radius R, front
speed c_v, and nonnegative relative mass and stress integral, an initial
weighted radial momentum

    F(0) > (16 pi / 3) c_v R^4 max(rho0)

forces the C^1 lifespan to be finite. All integrals use the midpoint rule on
cell averages with the same volume weights as the finite-volume update, so
conserved discrete quantities are conserved here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CertificateError",
    "InsufficientDataError",
    "BlowupCertificate",
    "DiagnosticSeries",
    "GrowthCheck",
    "radial_momentum",
    "relative_mass",
    "stress_integral",
    "max_gradients",
    "monitor_c1",
    "certificate",
    "check_growth",
    "blowup_threshold",
]


class CertificateError(ValueError):
    """The certificate's hypotheses do not apply to this run."""


class InsufficientDataError(ValueError):
    """Too few series samples to evaluate the growth inequality."""


def blowup_threshold(c_v: float, R: float, max_rho0: float) -> float:
    """(16 pi / 3) c_v R^4 max_rho0."""
    return 16.0 * np.pi / 3.0 * c_v * R**4 * max_rho0


def radial_momentum(sim) -> float:
    """F = integral of x . rho v: 4 pi int r^3 rho u dr in spherical symmetry,
    int (x - center) rho u dx in planar geometry (test analog, not the
    theorem's geometry)."""
    w = sim.grid.quad_weights
    inner = sim.fields.interior()
    rho, u = inner[0], inner[sim.layout.velocity[0]]
    return float(np.sum(w * sim.grid.arms * rho * u))


def relative_mass(sim) -> float:
    """Delta M = integral of (rho - rho_bar); constant in time for the exact flow."""
    w = sim.grid.quad_weights
    return float(np.sum(w * (sim.fields.get("rho") - sim.reference.rho_bar)))


def stress_integral(sim) -> float:
    """G = integral of Pi (bulk) or of the stress trace Pi_ii (shear)."""
    w = sim.grid.quad_weights
    first, *rest = (sim.fields.interior()[f] for f in sim.layout.normal)
    return float(np.sum(w * sum(rest, first)))  # (Pi11 + Pi22) + Pi33 for shear


def max_gradients(sim, cells: slice | None = None) -> tuple[float, float]:
    """(max |du/dx|, max |drho/dx|) over adjacent interior cells; all velocity
    components participate for the 10-field system. The density and velocity
    rows are differenced as one block, in the step's workspace once there is
    one (a large grid's temporary page-faults on every call). `cells`, padded
    columns, limits the differences to those beside them, for a state that
    holds the uniform reference state elsewhere (the step's active window)."""
    inner = sim.grid.interior
    cells = inner if cells is None else cells
    lo, hi = max(cells.start - 1, inner.start), min(cells.stop + 1, inner.stop)
    top = sim.layout.velocity_rows.stop
    block = sim.fields.data[:top, lo:hi]
    work = vars(sim).get("work")
    d = np.subtract(block[:, 1:], block[:, :-1],
                    out=None if work is None else work.rows(top, hi - lo - 1))
    grho, *gu = np.abs(d, out=d).max(axis=1).tolist()
    return max(gu) / sim.grid.dx, grho / sim.grid.dx


def monitor_c1(sim, cells: slice | None = None) -> tuple[float, bool]:
    """Current max gradient and whether it crosses the breakdown threshold
    grad_factor * (initial max gradient + c_v / R); `cells` as for
    `max_gradients`."""
    gu, grho = max_gradients(sim, cells)
    max_grad = max(gu, grho)
    threshold = sim.tolerances["grad_factor"] * (sim.initial.max_grad0
                                                 + sim.cv_bar / sim.reference.R)
    return max_grad, bool(max_grad > threshold)


@dataclass(frozen=True)
class BlowupCertificate:
    R: float
    c_bar_v: float
    max_rho0: float
    threshold: float
    F0: float
    dM0: float
    G0: float
    satisfied: bool

    def describe(self) -> str:
        lines = [
            f"support radius R        = {self.R!r}",
            f"front speed c_v         = {self.c_bar_v!r}",
            f"max initial density     = {self.max_rho0!r}",
            f"momentum threshold      = {self.threshold!r}",
            f"F(0)                    = {self.F0!r}",
            f"relative mass dM(0)     = {self.dM0!r}",
            f"stress integral G(0)    = {self.G0!r}",
            f"certificate satisfied   = {self.satisfied}",
        ]
        return "\n".join(lines)


def certificate(sim) -> BlowupCertificate:
    """Evaluate the finite-lifespan certificate on initial data.

    Refused when the exterior is not at the reference state to 1e-12, when
    the transport coefficients are state dependent (the theorem assumes
    constants), or when the background is moving.
    """
    if not sim.law.has_constant_transport:
        raise CertificateError("certificate requires constant zeta, eta, tau")
    if any(c != 0.0 for c in sim.reference.v_bar) or sim.reference.Pi_bar != 0.0:
        raise CertificateError("certificate requires v_bar = 0 and Pi_bar = 0")

    ref = sim.reference
    outside = sim.grid.radii >= ref.R
    if np.any(outside):
        rho = sim.fields.get("rho")
        dev = np.abs(rho[outside] - ref.rho_bar) / ref.rho_bar
        for name in sim.fields.names[1:]:
            dev = np.maximum(dev, np.abs(sim.fields.get(name)[outside]))
        if float(np.max(dev)) > 1e-12:
            raise CertificateError("initial data is not constant outside radius R")

    max_rho0 = float(np.max(sim.fields.get("rho")))
    f0 = radial_momentum(sim)
    dm0 = relative_mass(sim)
    g0 = stress_integral(sim)
    thr = blowup_threshold(sim.cv_bar, ref.R, max_rho0)
    satisfied = bool(dm0 >= 0.0 and g0 >= 0.0 and f0 > thr)
    return BlowupCertificate(ref.R, sim.cv_bar, max_rho0, thr, f0, dm0, g0, satisfied)


class DiagnosticSeries:
    """Per-step functional series recorded during a run: one list attribute
    per name of COLUMNS, in that order."""

    COLUMNS = ("t", "dt", "F", "dM", "G", "max_grad_u", "max_grad_rho")

    def __init__(self):
        for name in self.COLUMNS:
            setattr(self, name, [])

    def record(self, sim, dt_used: float) -> None:
        row = sim.t, dt_used, radial_momentum(sim), relative_mass(sim), stress_integral(sim)
        for name, value in zip(self.COLUMNS, row + max_gradients(sim)):
            getattr(self, name).append(value)

    def extend(self, segment: "DiagnosticSeries") -> None:
        """Append a later run segment's samples after its first, which
        repeats this series' last."""
        for name in self.COLUMNS:
            getattr(self, name).extend(getattr(segment, name)[1:])


@dataclass
class GrowthCheck:
    margins: np.ndarray
    fraction_ok: float


def check_growth(series: DiagnosticSeries, cert: BlowupCertificate) -> GrowthCheck:
    """Forward-difference check of dF/dt >= F^2 / ((4 pi/3)(R + c_v t)^5 max rho0).

    margins[n] = dF/dt|_n - bound_n; the tolerance is 5% of the largest
    bound plus a small absolute floor, standing in for the quadrature and
    time-discretization error of the series.
    """
    t = np.asarray(series.t)
    f = np.asarray(series.F)
    if len(t) < 10:
        raise InsufficientDataError(f"need at least 10 series samples, have {len(t)}")
    dt = np.diff(t)
    if np.any(dt <= 0.0):
        raise ValueError("series timestamps must be strictly increasing")
    dfdt = np.diff(f) / dt
    vol = 4.0 * np.pi / 3.0 * (cert.R + cert.c_bar_v * t[:-1]) ** 5 * cert.max_rho0
    bounds = f[:-1] ** 2 / vol
    margins = dfdt - bounds
    tol = 0.05 * float(np.max(bounds)) + 1e-12
    fraction = float(np.mean(margins >= -tol))
    return GrowthCheck(margins=margins, fraction_ok=fraction)
