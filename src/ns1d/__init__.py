"""1D compressible, viscous, heat-conducting gas in Lagrangian mass coordinates.

Transport coefficients are mu_tilde*h(v)*theta^alpha (same for the heat
conductivity up to its own scale), the gas is ideal polytropic with
normalized constants, and the far-field state is (v, u, theta) = (1, 0, 1).
The package provides a staggered-grid solver (explicit SSP-RK2 and an IMEX
variant with backward-Euler diffusion: one linear tridiagonal solve each for
the velocity and the temperature, coefficients frozen at the half state),
diagnostics for the exact energy-entropy balance and related functionals,
manufactured-solution verification, and a batch CLI.
"""

from .constitutive import (
    GasModel,
    HProfile,
    AdmissibilityReport,
    transport,
    phi,
    kanel_potential,
    validate_h,
)
from .grid import Grid, State, build_grid, apply_farfield
from .solver import (SolverConfig, StepStats, rhs, stable_dt, advective_dt,
                     step_explicit, step_imex, advance)
from .diagnostics import (
    DiagnosticsRecord,
    InitialDataReport,
    DiagnosticsCollector,
    conserved_totals,
    energy_identity_residual,
    dissipation_rate,
    kanel_bound_pair,
    theta_floor_fit,
    decay_metrics,
)
from .verification import ManufacturedCase, default_case, mms_sources, convergence_study, fine_grid_reference
from .harness import (RunConfig, RunSummary, load_config, default_config,
                      make_initial_data, make_model, run, sweep, validate_h_config)

__all__ = [
    "GasModel", "HProfile", "AdmissibilityReport",
    "transport", "phi", "kanel_potential", "validate_h",
    "Grid", "State", "build_grid", "apply_farfield",
    "SolverConfig", "StepStats", "rhs", "stable_dt", "advective_dt",
    "step_explicit", "step_imex", "advance",
    "DiagnosticsRecord", "InitialDataReport", "DiagnosticsCollector",
    "conserved_totals", "energy_identity_residual", "dissipation_rate",
    "kanel_bound_pair", "theta_floor_fit", "decay_metrics",
    "ManufacturedCase", "default_case", "mms_sources", "convergence_study", "fine_grid_reference",
    "RunConfig", "RunSummary", "load_config", "default_config",
    "make_initial_data", "make_model", "run", "sweep", "validate_h_config",
]

__version__ = "0.1.0"
