import math

import numpy as np
import pytest

from netepi import (
    BelowThresholdError,
    EpidemicState,
    Graph,
    InputError,
    ModelKind,
    ModelParams,
    initial_state,
    rhs,
    si_closed_form,
    sir_rinf,
    sir_xmax,
    sis_closed_form,
)

from conftest import rk4


def test_si_equilibria():
    for t in (0.0, 1.0, 50.0, 1e4):
        assert si_closed_form(0.0, 1.0, t) == 0.0
        assert si_closed_form(1.0, 1.0, t) == pytest.approx(1.0, abs=1e-15)


def test_si_against_rk4():
    beta, x0 = 1.0, 0.5
    times, vals = rk4(lambda x: beta * (1 - x) * x, [x0], 1.0, 1e-4)
    assert si_closed_form(x0, beta, 1.0) == pytest.approx(vals[-1, 0], abs=1e-8)


def test_si_no_overflow_at_large_t():
    assert si_closed_form(1e-6, 2.0, 1e4) == pytest.approx(1.0, abs=1e-12)


def test_sis_at_zero_and_limit():
    assert sis_closed_form(0.37, 1.0, 0.5, 0.0) == pytest.approx(0.37, abs=1e-15)
    # Above threshold the trajectory settles at x* = (beta - gamma) / beta.
    assert sis_closed_form(0.9, 1.0, 0.5, 80.0) == pytest.approx(0.5, abs=1e-12)
    # Below threshold the infection dies out, with no overflow at large t.
    assert sis_closed_form(0.9, 0.5, 1.0, 500.0) == pytest.approx(0.0, abs=1e-12)


def test_sis_equal_rates_closed_form():
    # beta = gamma: dx/dt = -beta x^2, so x(t) = x0 / (1 + beta x0 t).
    assert sis_closed_form(0.5, 1.0, 1.0, 1.0) == pytest.approx(1 / 3, abs=1e-15)
    times, vals = rk4(lambda x: -1.0 * x * x, [0.5], 1.0, 1e-4)
    assert vals[-1, 0] == pytest.approx(1 / 3, abs=1e-10)


def test_sir_rinf_defining_equation_and_uniqueness():
    for ratio in (0.25, 1.0, 2.5, 4.0):
        beta, gamma = ratio, 1.0
        r = sir_rinf(0.95, 0.0, beta, gamma)
        assert abs(1.0 - r - 0.95 * math.exp(-ratio * r)) <= 1e-10
        # sign analysis of g on [r0, 1]: exactly one sign change
        grid = np.linspace(0.0, 1.0, 2001)
        signs = np.sign(1.0 - grid - 0.95 * np.exp(-ratio * grid))
        changes = np.count_nonzero(np.diff(signs[signs != 0]))
        assert changes == 1


def test_sir_rinf_no_infection_returns_r0():
    assert sir_rinf(0.6, 0.4, 2.0, 1.0) == 0.4


def test_sir_rinf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sir_rinf(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sir_rinf(0.9, 0.2, 1.0, 1.0)


def test_sir_xmax_formula_and_boundary():
    # boundary s0 = gamma/beta: the peak is the initial state
    assert sir_xmax(0.5, 0.1, 2.0, 1.0) == pytest.approx(0.1, abs=1e-12)
    expected = 1.0 - 0.125 * (math.log(0.95) + 1.0 - math.log(0.125))
    assert sir_xmax(0.95, 0.05, 2.0, 0.25) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.6215, abs=1e-4)
    with pytest.raises(BelowThresholdError):
        sir_xmax(0.4, 0.1, 1.0, 1.0)


@pytest.mark.parametrize("s0, x0", [(0.0, 0.1), (0.5, 0.0), (0.6, 0.5), (math.nan, 0.1)])
def test_sir_xmax_needs_a_start_with_infection(s0, x0):
    with pytest.raises(InputError, match=r"^need s0 > 0, x0 > 0, s0 \+ x0 <= 1$"):
        sir_xmax(s0, x0, 2.0, 1.0)


@pytest.mark.parametrize(
    "s0,x0,beta,gamma",
    [(0.95, 0.05, 2.0, 0.25), (0.9, 0.1, 1.0, 0.5)],
)
def test_sir_xmax_matches_trajectory_peak(s0, x0, beta, gamma):
    def f(y):
        s, x = y
        return np.array([-beta * s * x, beta * s * x - gamma * x])

    _, vals = rk4(f, [s0, x0], 40.0, 1e-3)
    assert sir_xmax(s0, x0, beta, gamma) == pytest.approx(vals[:, 1].max(), abs=1e-4)


def test_scalar_sir_trajectory_invariants():
    # conservation and monotonicity along an integrated scalar SIR run
    beta, gamma = 2.0, 0.25

    def f(y):
        s, x, r = y
        return np.array([-beta * s * x, beta * s * x - gamma * x, gamma * x])

    _, vals = rk4(f, [0.95, 0.05, 0.0], 30.0, 1e-3)
    assert np.abs(vals.sum(axis=1) - 1.0).max() <= 1e-9
    assert np.all(np.diff(vals[:, 0]) <= 1e-15)  # s decreasing
    assert np.all(np.diff(vals[:, 2]) >= -1e-15)  # r increasing


def test_scalar_rhs_values():
    # The scalar models are the network models on one node with a unit self-loop.
    g = Graph([[1.0]])
    _, dx, _ = rhs(initial_state(ModelKind.SI, [0.0]), ModelParams(ModelKind.SI, 1.0), g)
    assert dx[0] == 0.0
    p = ModelParams(ModelKind.SIS, beta=1.5, gamma=0.5)
    x_star = (p.beta - p.gamma) / p.beta
    _, dx, _ = rhs(initial_state(ModelKind.SIS, [x_star]), p, g)
    assert dx[0] == pytest.approx(0.0, abs=1e-15)
    state = EpidemicState(s=[0.5], x=[0.2], r=[0.3])
    ds, dx, dr = rhs(state, ModelParams(ModelKind.SIR, 2.0, 0.25), g)
    assert (ds[0], dx[0], dr[0]) == pytest.approx((-0.2, 0.15, 0.05))


def test_fraction_validation():
    with pytest.raises(ValueError, match=r"^x0 must lie in \[0, 1\]$"):
        si_closed_form(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^x0 must lie in \[0, 1\]$"):
        sis_closed_form(1.1, 1.0, 1.0, 1.0)
