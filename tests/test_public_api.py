"""The public API, pinned name by name so that an addition or a deletion
shows up as a diff of this list rather than as a changed count."""
from __future__ import annotations

import mimkit

PUBLIC_NAMES = [
    "ButcherTableau",
    "ConfigError",
    "ConstructionError",
    "ConvergenceRow",
    "DRIFT_THRESHOLD",
    "ExperimentConfig",
    "HamiltonianSystem",
    "HarmonicOscillator",
    "MimeticOperatorSet",
    "NumericalFailure",
    "RunRecord",
    "SUPPORTED_ORDERS",
    "SchemeKind",
    "ShallowWaterState",
    "ShallowWaterSystem",
    "StaggeredGrid1D",
    "TABLEAU_IMPLICIT_MIDPOINT",
    "TABLEAU_RK4",
    "WaveState",
    "WaveSystem",
    "__version__",
    "build_grid",
    "build_operator_set",
    "cfl_dt",
    "dump_operator",
    "gaussian_ic",
    "integrate",
    "main",
    "mimetic_identity_residual",
    "normalize_scheme",
    "parse_config",
    "rrk_gamma_analytic",
    "rrk_gamma_bisection",
    "run_convergence_study",
    "run_energy_experiment",
    "run_timing_benchmark",
    "shallow_water_ic",
    "step",
    "symplecticity_residual",
    "wave_standing_exact",
]


def test_public_api_is_pinned():
    assert sorted(mimkit.__all__) == PUBLIC_NAMES
    assert all(hasattr(mimkit, name) for name in PUBLIC_NAMES)
