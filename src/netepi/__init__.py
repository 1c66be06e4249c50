"""Deterministic SI, SIS, and SIR epidemic models on weighted digraphs.

The package covers trajectory integration of the network models, spectral
threshold analysis (reproduction numbers from the dominant eigenvalue of the
contact matrix), and certified Newton–GMRES fixed points for the SIS endemic
state and the SIR asymptotic state, plus the scalar closed forms the network
results generalize.

Importing the package loads none of its modules: each public name is
imported from its module on first access (PEP 562), so a `netepi`
subcommand loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {
    "Graph": "graph",
    "load_graph": "graph",
    "graph_from_rows": "graph",
    "is_strongly_connected": "graph",
    "degree_vector": "graph",
    "SpectralTriple": "spectral",
    "dominant_eig": "spectral",
    "spectral_radius": "spectral",
    "effective_matrix": "spectral",
    "si_closed_form": "scalar",
    "sis_closed_form": "scalar",
    "sir_rinf": "scalar",
    "sir_xmax": "scalar",
    "ModelKind": "dynamics",
    "ModelParams": "dynamics",
    "EpidemicState": "dynamics",
    "Trajectory": "dynamics",
    "initial_state": "dynamics",
    "integrate": "dynamics",
    "rhs": "dynamics",
    "sir_fixed_point_map": "dynamics",
    "sir_defect": "dynamics",
    "initial_growth_approx": "dynamics",
    "late_time_decay_rates": "dynamics",
    "write_trajectory_csv": "dynamics",
    "read_trajectory_csv": "dynamics",
    "EndemicResult": "equilibria",
    "SirAsymptoticResult": "equilibria",
    "sis_endemic": "equilibria",
    "sis_endemic_expansion_threshold": "equilibria",
    "sis_endemic_expansion_high_rate": "equilibria",
    "sis_fixed_point_map": "equilibria",
    "sir_asymptotic": "equilibria",
    "ThresholdReport": "threshold",
    "reproduction_number": "threshold",
    "effective_r_series": "threshold",
    "time_to_subthreshold": "threshold",
    "NetEpiError": "errors",
    "GraphFormatError": "errors",
    "EmptyInputError": "errors",
    "InputError": "errors",
    "ReducibleMatrixError": "errors",
    "BelowThresholdError": "errors",
    "NonConvergenceError": "errors",
    "InvariantViolationError": "errors",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
