"""Every public function that takes a rate or a tolerance rejects a bad one with InputError."""

import math

import numpy as np
import pytest

from netepi import (
    Graph,
    InputError,
    ModelParams,
    effective_r_series,
    initial_state,
    integrate,
    reproduction_number,
    si_closed_form,
    sir_asymptotic,
    sir_fixed_point_map,
    sir_rinf,
    sir_xmax,
    sis_closed_form,
    sis_endemic,
    sis_endemic_expansion_high_rate,
    sis_endemic_expansion_threshold,
    sis_fixed_point_map,
    time_to_subthreshold,
)

PAIR = Graph([[0.0, 2.0], [8.0, 0.0]])
START = initial_state("SIR", [0.1, 0.1])
TRAJ = integrate(START, ModelParams("SIR", 1.0, 1.0), PAIR, t_end=0.1, dt=0.05)

# Each entry point as a function of (beta, gamma), and the rates it takes.
ENTRY_POINTS = {
    "ModelParams-SI": (lambda b, c: ModelParams("SI", b), ("beta",)),
    "ModelParams-SIS": (lambda b, c: ModelParams("SIS", b, c), ("beta", "gamma")),
    "ModelParams-SIR": (lambda b, c: ModelParams("SIR", b, c), ("beta", "gamma")),
    "sis_endemic": (lambda b, c: sis_endemic(PAIR, b, c), ("beta", "gamma")),
    "sis_endemic_expansion_threshold": (
        lambda b, c: sis_endemic_expansion_threshold(PAIR, b, c), ("beta", "gamma")
    ),
    "sis_endemic_expansion_high_rate": (
        lambda b, c: sis_endemic_expansion_high_rate(PAIR, b, c), ("beta", "gamma")
    ),
    "sis_fixed_point_map": (lambda b, c: sis_fixed_point_map(PAIR, b, c), ("beta", "gamma")),
    "sir_fixed_point_map": (lambda b, c: sir_fixed_point_map(PAIR, b, c, START), ("beta", "gamma")),
    "sir_asymptotic": (lambda b, c: sir_asymptotic(PAIR, b, c, START), ("beta", "gamma")),
    "reproduction_number": (lambda b, c: reproduction_number(PAIR, b, c), ("beta", "gamma")),
    "effective_r_series": (lambda b, c: effective_r_series(TRAJ, PAIR, b, c), ("beta", "gamma")),
    "time_to_subthreshold": (
        lambda b, c: time_to_subthreshold(TRAJ, PAIR, b, c), ("beta", "gamma")
    ),
    "si_closed_form": (lambda b, c: si_closed_form(0.1, b, np.linspace(0, 1, 3)), ("beta",)),
    "sis_closed_form": (
        lambda b, c: sis_closed_form(0.1, b, c, np.linspace(0, 1, 3)), ("beta", "gamma")
    ),
    "sir_rinf": (lambda b, c: sir_rinf(0.9, 0.0, b, c), ("beta", "gamma")),
    "sir_xmax": (lambda b, c: sir_xmax(0.9, 0.1, b, c), ("beta", "gamma")),
}

CASES = [
    pytest.param(entry, rate, bad, id=f"{entry}-{rate}={bad}")
    for entry, (_, rates) in ENTRY_POINTS.items()
    for rate in rates
    for bad in (0.0, -1.0, math.nan, math.inf)
]


@pytest.mark.parametrize("entry, rate, bad", CASES)
def test_bad_rates_raise_input_error(entry, rate, bad):
    call, _ = ENTRY_POINTS[entry]
    rates = {"beta": 1.0, "gamma": 1.0, rate: bad}
    with pytest.raises(InputError, match=f"^{rate} must be positive and finite$"):
        call(rates["beta"], rates["gamma"])


def test_sir_fixed_point_map_checks_every_rate_of_a_block():
    with pytest.raises(InputError, match="^gamma must be positive and finite$"):
        sir_fixed_point_map(PAIR, 1.0, [1.0, math.nan], START)


SOLVERS = {
    "sis_endemic": lambda tol: sis_endemic(PAIR, 1.0, 1.0, tol=tol),
    "sir_asymptotic": lambda tol: sir_asymptotic(PAIR, 1.0, 1.0, START, tol=tol),
}


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_bad_tol_raises_input_error(solver, bad):
    with pytest.raises(InputError, match="^tol must be positive and finite$"):
        SOLVERS[solver](bad)
