"""Non-Newtonian compressible flow toolkit: relaxation-type bulk and shear
viscosity, hyperbolicity and linear-stability analysis, finite-volume
evolution, and finite-time breakdown diagnostics."""

__version__ = "0.1.0"

from .materials import (BulkState, MaterialLaw, MaterialLawError, ReferenceState,
                        ShearState, eval_transport, pressure, sound_speed)
from .quasilinear import (CharacteristicReport, QuasilinearSystem, assemble_bulk,
                          assemble_shear, characteristic_speeds_bulk_closed,
                          characteristic_speeds_numeric,
                          characteristic_speeds_shear_closed, det_principal_symbol)
from .stability import (Background, StabilityVerdict, bulk_dispersion,
                        equilibrium_background, poly_roots, polynomial_verdict,
                        shear_dispersion, verify_against_simulation)
from .solver import (Grid1D, Simulation, StepOutcome, cfl_dt, init_scenario, run,
                     step)
from .diagnostics import (BlowupCertificate, DiagnosticSeries, certificate,
                          check_growth, monitor_c1, radial_momentum, relative_mass,
                          stress_integral)
from .config import ScenarioConfig, format_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
