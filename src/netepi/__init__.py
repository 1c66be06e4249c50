"""Deterministic SI, SIS, and SIR epidemic models on weighted digraphs.

The package covers trajectory integration of the network models, spectral
threshold analysis (reproduction numbers from the dominant eigenvalue of the
contact matrix), and certified Newton–GMRES fixed points for the SIS endemic
state and the SIR asymptotic state, plus the scalar closed forms the network
results generalize.
"""

from .dynamics import (
    EpidemicState,
    ModelParams,
    Trajectory,
    initial_growth_approx,
    initial_state,
    integrate,
    late_time_decay_rates,
    read_trajectory_csv,
    rhs,
    write_trajectory_csv,
)
from .equilibria import (
    EndemicResult,
    SirAsymptoticResult,
    sir_asymptotic,
    sir_fixed_point_map,
    sis_endemic,
    sis_endemic_expansion_high_rate,
    sis_endemic_expansion_threshold,
    sis_fixed_point_map,
)
from .errors import (
    BelowThresholdError,
    EmptyInputError,
    GraphFormatError,
    InputError,
    InvariantViolationError,
    NetEpiError,
    NonConvergenceError,
    ReducibleMatrixError,
)
from .graph import (
    Graph,
    degree_vector,
    graph_from_rows,
    is_strongly_connected,
    load_graph,
)
from .scalar import (
    ModelKind,
    si_closed_form,
    sir_rinf,
    sir_xmax,
    sis_closed_form,
)
from .spectral import SpectralTriple, dominant_eig, effective_matrix, spectral_radius
from .threshold import (
    ThresholdReport,
    effective_r_series,
    reproduction_number,
    time_to_subthreshold,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "load_graph",
    "graph_from_rows",
    "is_strongly_connected",
    "degree_vector",
    "SpectralTriple",
    "dominant_eig",
    "spectral_radius",
    "effective_matrix",
    "ModelKind",
    "si_closed_form",
    "sis_closed_form",
    "sir_rinf",
    "sir_xmax",
    "ModelParams",
    "EpidemicState",
    "Trajectory",
    "initial_state",
    "integrate",
    "rhs",
    "initial_growth_approx",
    "late_time_decay_rates",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "EndemicResult",
    "SirAsymptoticResult",
    "sis_endemic",
    "sis_endemic_expansion_threshold",
    "sis_endemic_expansion_high_rate",
    "sis_fixed_point_map",
    "sir_asymptotic",
    "sir_fixed_point_map",
    "ThresholdReport",
    "reproduction_number",
    "effective_r_series",
    "time_to_subthreshold",
    "NetEpiError",
    "GraphFormatError",
    "EmptyInputError",
    "InputError",
    "ReducibleMatrixError",
    "BelowThresholdError",
    "NonConvergenceError",
    "InvariantViolationError",
]
