import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from netepi import (
    EpidemicState,
    InputError,
    InvariantViolationError,
    ModelKind,
    ModelParams,
    Trajectory,
    dominant_eig,
    initial_growth_approx,
    initial_state,
    integrate,
    late_time_decay_rates,
    read_trajectory_csv,
    rhs,
    si_closed_form,
    sir_defect,
    sir_fixed_point_map,
    sir_rinf,
    write_trajectory_csv,
)
from netepi.dynamics import default_step, step_count
from netepi.graph import Graph

from conftest import complete_graph, dense, random_sc_graph, rk4, symmetric_pair, two_node


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(kind="SI", beta=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        ModelParams(kind="SIS", beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(kind="SIR", beta=-1.0, gamma=0.5)


def test_state_validation():
    with pytest.raises(ValueError):
        EpidemicState(s=np.array([0.5]), x=np.array([0.2]), r=np.array([0.5]))
    with pytest.raises(ValueError):
        initial_state("SI", np.array([0.5]), r0=np.array([0.1]))


_THREE = initial_state("SIR", [0.1, 0.1, 0.1])  # one node more than two_node()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda g: sir_fixed_point_map(g, 1.0, 1.0, _THREE), "state and graph dimensions differ"),
        (lambda g: rhs(_THREE, ModelParams("SI", 1.0), g), "state and graph dimensions differ"),
        (lambda g: rhs(_THREE, ModelParams("SIS", 1.0, 1.0), g), "state and graph dimensions differ"),
        (lambda g: rhs(_THREE, ModelParams("SIR", 1.0, 1.0), g), "state and graph dimensions differ"),
        (lambda g: initial_state("SIR", [0.1, 0.1], [0.1, 0.1, 0.1]),
         "x0 and r0 must be equal-length vectors"),
        (lambda g: initial_growth_approx(g, ModelParams("SI", 1.0), [0.1, 0.1, 0.1], 1.0),
         "x0 and graph dimensions differ"),
        (lambda g: EpidemicState(0.5, 0.5, 0.0), "s, x, r must be equal-length vectors"),
    ],
    ids=["h-map", "rhs-SI", "rhs-SIS", "rhs-SIR", "initial_state", "initial_growth_approx",
         "0-d-state"],
)
def test_size_mismatches_raise_input_error(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call(two_node())


def test_state_copies_the_callers_vectors():
    x = np.array([0.1, 0.2])
    state = initial_state("SIS", x)
    assert state.x is not x and not state.x.flags.writeable
    x[0] = 0.3  # the caller's array stays writable
    np.testing.assert_array_equal(state.x, [0.1, 0.2])
    np.testing.assert_array_equal(state.s, [0.9, 0.8])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match=r"^s must lie in \[0, 1\]$"):
        initial_state("SIR", np.array([0.1, bad]))
    with pytest.raises(ValueError, match=r"^s must lie in \[0, 1\]$"):
        EpidemicState(s=np.array([0.5, bad]), x=np.array([0.5, 0.0]), r=np.zeros(2))


def test_rhs_equilibria():
    g = two_node()
    zero = initial_state("SI", np.zeros(2))
    for kind, params in [
        ("SI", ModelParams("SI", 1.0)),
        ("SIS", ModelParams("SIS", 1.0, 0.7)),
        ("SIR", ModelParams("SIR", 1.0, 0.7)),
    ]:
        state = initial_state(kind, np.zeros(2))
        for part in rhs(state, params, g):
            np.testing.assert_array_equal(part, 0.0)
    # full contagion is an SI equilibrium
    _, dx, _ = rhs(initial_state("SI", np.ones(2)), ModelParams("SI", 2.0), g)
    np.testing.assert_array_equal(dx, 0.0)


def test_rhs_sis_endemic_fixed_point():
    # derived by hand from the fixed-point equations: x1 = f+(2 x2), x2 = f+(8 x1)
    g = two_node()
    state = initial_state("SIS", np.array([5 / 8, 5 / 6]))
    _, dx, _ = rhs(state, ModelParams("SIS", 1.0, 1.0), g)
    np.testing.assert_allclose(dx, 0.0, atol=1e-15)


def test_rhs_sir_values():
    g = symmetric_pair()
    state = EpidemicState(
        s=np.array([0.5, 0.5]), x=np.array([0.2, 0.2]), r=np.array([0.3, 0.3])
    )
    ds, dx, dr = rhs(state, ModelParams("SIR", 2.0, 0.25), g)
    np.testing.assert_allclose(ds, [-0.2, -0.2])
    np.testing.assert_allclose(dx, [0.15, 0.15])
    np.testing.assert_allclose(dr, [0.05, 0.05])


def test_integrate_zero_stays_zero():
    g = symmetric_pair()
    traj = integrate(
        initial_state("SI", np.zeros(2)), ModelParams("SI", 1.0), g, t_end=1.0, dt=0.01
    )
    np.testing.assert_array_equal(traj.x, 0.0)


def test_symmetric_si_reduces_to_scalar():
    # both nodes identical => the 2-node system is the scalar SI model
    g = symmetric_pair()
    beta, c = 1.3, 0.05
    traj = integrate(
        initial_state("SI", np.full(2, c)),
        ModelParams("SI", beta),
        g,
        t_end=10.0,
        record_every=10,
    )
    expected = si_closed_form(c, beta, traj.times)
    for col in range(2):
        np.testing.assert_allclose(traj.x[:, col], expected, atol=1e-6)


def test_symmetric_sir_reaches_scalar_final_size():
    g = symmetric_pair()
    beta, gamma = 1.0, 0.5
    traj = integrate(
        initial_state("SIR", np.full(2, 0.05)),
        ModelParams("SIR", beta, gamma),
        g,
        t_end=60.0,
        dt=0.005,
        record_every=100,
    )
    r_expected = sir_rinf(0.95, 0.0, beta, gamma)
    np.testing.assert_allclose(traj.r[-1], r_expected, atol=1e-4)


def test_si_monotone_positive_and_box():
    rng = np.random.default_rng(11)
    g = random_sc_graph(rng, n=8)
    x0 = rng.uniform(0.0, 0.05, 8)
    x0[2] = 0.0  # a partially uninfected start must still turn positive
    x0[0] = 0.02
    traj = integrate(
        initial_state("SI", x0), ModelParams("SI", 1.0), g, t_end=5.0, dt=0.002
    )
    assert traj.x.min() >= 0.0 and traj.x.max() <= 1.0
    assert np.all(np.diff(traj.x, axis=0) >= -1e-12)  # monotone non-decreasing
    assert np.all(traj.x[1:] > 0.0)  # strictly positive from the first step on


def test_si_converges_to_full_contagion():
    g = random_sc_graph(np.random.default_rng(5), n=6, w_lo=0.5)
    traj = integrate(
        initial_state("SI", np.full(6, 0.01)),
        ModelParams("SI", 1.0),
        g,
        t_end=200.0,
        dt=0.01,
        record_every=100,
        stop_when_stationary=True,
    )
    assert np.abs(traj.x[-1] - 1.0).max() < 1e-3


def test_sis_below_threshold_weighted_average_decays():
    g = two_node()  # lambda_max = 4
    beta, gamma = 0.1, 1.0  # R0 = 0.4
    trip = dominant_eig(g)
    traj = integrate(
        initial_state("SIS", np.array([0.5, 0.3])),
        ModelParams("SIS", beta, gamma),
        g,
        t_end=8.0,
        dt=0.002,
    )
    y = traj.x @ trip.v_max
    assert np.all(np.diff(y) < 0)  # strictly decreasing
    envelope = y[0] * np.exp((beta * trip.lambda_max - gamma) * traj.times)
    assert np.all(y <= envelope * (1 + 1e-12) + 1e-15)


def test_sir_s_decreasing_and_infection_dies():
    g = complete_graph(5)
    traj = integrate(
        initial_state("SIR", np.full(5, 0.1)),
        ModelParams("SIR", 0.8, 0.6),
        g,
        t_end=80.0,
        dt=0.005,
        record_every=20,
        stop_when_stationary=True,
    )
    assert np.all(np.diff(traj.s, axis=0) < 0)
    assert traj.x[-1].max() < 1e-6
    # s = H(u), x = u - s and r = 1 - u conserve s + x + r = 1 up to rounding
    total = traj.s + traj.x + traj.r
    assert np.abs(total - 1.0).max() <= 4.5e-16


def test_nan_state_raises():
    # Overflowing products turn the field into inf - inf = NaN within the first step.
    g = Graph(np.array([[0.0, 1e308], [1e308, 0.0]]))
    with np.errstate(all="ignore"), pytest.raises(InvariantViolationError, match="NaN in state"):
        integrate(initial_state("SI", np.array([1.0, 0.5])), ModelParams("SI", 1.0), g, t_end=1.0, dt=1.0)


def test_large_step_raises():
    g = complete_graph(4)
    with pytest.raises(InvariantViolationError):
        integrate(
            initial_state("SIS", np.full(4, 0.9)),
            ModelParams("SIS", 50.0, 0.1),
            g,
            t_end=10.0,
            dt=1.0,
        )


@pytest.mark.parametrize("t_end", [10.0, 0.5])
def test_large_step_raises_on_negative_sir_x(t_end):
    # The first step overshoots to x = u - H(u) < 0 at t = 0.5; the field
    # evaluated after each step finds it, also after the last step.
    x0 = np.array([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(InvariantViolationError, match=r"x fell below 0 by .* at t = 0\.5; reduce dt"):
        integrate(initial_state("SIR", x0), ModelParams("SIR", 0.5, 5.0), complete_graph(4), t_end=t_end, dt=0.5)


def test_roundoff_excursions_are_clamped(clamps):
    # One SI step from (0.999, 0.5) at beta = 100 overshoots node 1 by about
    # 1e-9: just under STATE_TOL it is clamped back to exactly 1, just
    # over it the run fails.
    g, state0, params = symmetric_pair(), initial_state("SI", [0.999, 0.5]), ModelParams("SI", 100.0)
    dt = 0.021640957997914257
    traj = integrate(state0, params, g, t_end=dt, dt=dt)
    assert len(clamps) == 1 and traj.x[-1, 0] == 1.0
    with pytest.raises(InvariantViolationError, match=r"^state left \[0, 1\] by 3\.31e-09 at"):
        integrate(state0, params, g, t_end=0.021641, dt=0.021641)


def test_growth_approx_projection_at_t0():
    g = two_node()
    trip = dominant_eig(g)
    params = ModelParams("SI", 1.0)
    np.testing.assert_allclose(
        initial_growth_approx(g, params, 0.3 * trip.u_max, 0.0),
        0.3 * trip.u_max,
        atol=1e-12,
    )
    x0 = np.array([0.01, 0.002])
    coef = (trip.v_max @ x0) / (trip.v_max @ trip.u_max)
    np.testing.assert_allclose(
        initial_growth_approx(g, params, x0, 0.0), coef * trip.u_max, atol=1e-14
    )


def test_growth_approx_against_matrix_exponential():
    # The linearized SI flow is exp(beta A t) x0; the one-mode approximation
    # should deviate only at the scale of the subdominant mode exp(-2 lambda beta t).
    g = two_node()
    params = ModelParams("SI", 1.0)
    x0 = np.full(2, 1e-4)
    for t, bound in [(1.0, 1e-3), (2.0, 1e-6)]:
        exact = expm(params.beta * dense(g) * t) @ x0
        approx = initial_growth_approx(g, params, x0, t)
        rel = np.abs(approx - exact).max() / np.abs(exact).max()
        assert rel < bound


def test_growth_approx_sis_rate():
    # For SIS/SIR the exponent carries the recovery correction.
    g = symmetric_pair()
    x0 = np.full(2, 1e-3)
    si = initial_growth_approx(g, ModelParams("SI", 1.0), x0, 2.0)
    sis = initial_growth_approx(g, ModelParams("SIS", 1.0, 0.4), x0, 2.0)
    np.testing.assert_allclose(sis, si * np.exp(-0.4 * 2.0), rtol=1e-12)


def test_late_decay_single_node_self_loop():
    g = Graph(np.array([[1.5]]))
    traj = integrate(
        initial_state("SI", np.array([0.3])),
        ModelParams("SI", 0.8),
        g,
        t_end=20.0,
        dt=0.002,
    )
    slopes = late_time_decay_rates(traj, (12.0, 18.0))
    assert slopes[0] == pytest.approx(-0.8 * 1.5, rel=1e-4)


def test_late_decay_regular_graph():
    # weighted directed ring: every node has degree w, slopes ~ -beta w
    n, w, beta = 5, 1.3, 1.0
    a = np.zeros((n, n))
    for i in range(n):
        a[(i + 1) % n, i] = w
    traj = integrate(
        initial_state("SI", np.full(n, 0.2)),
        ModelParams("SI", beta),
        Graph(a),
        t_end=25.0,
        dt=0.002,
        record_every=5,
    )
    slopes = late_time_decay_rates(traj, (12.0, 20.0))
    np.testing.assert_allclose(slopes, -beta * w, rtol=0.05)


def test_late_decay_orders_by_degree():
    # distinct in-strengths: the decay slopes sort exactly like -beta d_i
    weights = [0.6, 0.9, 1.3, 1.8]
    n = len(weights)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i - 1) % n] = weights[i]
    g = Graph(a)
    traj = integrate(
        initial_state("SI", np.full(n, 0.2)),
        ModelParams("SI", 1.0),
        g,
        t_end=30.0,
        dt=0.002,
        record_every=5,
    )
    # window chosen while every s_i is still far above double-precision
    # quantization of 1 - x (the fastest node otherwise flattens out)
    slopes = late_time_decay_rates(traj, (10.0, 16.0))
    assert list(np.argsort(slopes)) == list(np.argsort([-w for w in weights]))
    np.testing.assert_allclose(slopes, [-w for w in weights], rtol=0.05)


def test_late_decay_window_errors():
    g = Graph(np.array([[1.0]]))
    traj = integrate(
        initial_state("SI", np.array([0.3])), ModelParams("SI", 1.0), g, t_end=20.0, dt=0.01
    )
    with pytest.raises(ValueError):
        late_time_decay_rates(traj, (15.0, 30.0))
    short = integrate(
        initial_state("SI", np.array([0.3])), ModelParams("SI", 1.0), g, t_end=1.0, dt=0.01
    )
    with pytest.raises(ValueError):  # nowhere near full contagion
        late_time_decay_rates(short, (0.0, 1.0))


_SELF_LOOP = Graph(np.array([[1.0]]))
_SI_START = initial_state("SI", [0.3])
_SI_RUN = integrate(_SI_START, ModelParams("SI", 1.0), _SELF_LOOP, t_end=20.0, dt=0.5)
# Fully infected at the end, with s = 0 inside the window [1, 2].
_S_ZERO_RUN = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([[0.5], [0.0], [0.0]]),
                         np.array([[0.5], [1.0], [1.0]]), np.zeros((3, 1)))
_SIS_PAIR = (initial_state("SIS", [0.1, 0.1]), ModelParams("SIS", 1.0, 1.0), symmetric_pair())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: step_count(1.0, 0.0), "dt must be positive"),
        (lambda: step_count(1.0, float("nan")), "dt must be positive"),
        (lambda: integrate(_SI_START, ModelParams("SI", 1.0), _SELF_LOOP, t_end=0.0), "t_end must be at least dt"),
        (lambda: integrate(_SI_START, ModelParams("SI", 1.0), _SELF_LOOP, t_end=1.0, dt=0.5, record_every=0),
         "record_every must be >= 1"),
        (lambda: late_time_decay_rates(_SI_RUN, (15.0, 30.0)), "window outside trajectory"),
        (lambda: late_time_decay_rates(_SI_RUN, (15.0, 15.4)), "window contains fewer than two samples"),
        (lambda: late_time_decay_rates(_S_ZERO_RUN, (1.0, 2.0)), "susceptible fraction hit zero inside the window"),
        (lambda: integrate(*_SIS_PAIR, t_end=float("nan"), dt=0.1), "t_end must be finite"),
        (lambda: integrate(*_SIS_PAIR, t_end=float("nan")), "t_end must be finite"),
    ],
    ids=["step_count-dt", "step_count-nan-dt", "integrate-zero-t_end", "integrate-record_every",
         "decay-window-outside", "decay-window-one-sample", "decay-s-zero", "integrate-nan-t_end",
         "integrate-nan-t_end-default-step"],
)
def test_bad_steps_and_windows_raise_input_error(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


def test_trajectory_csv_round_trip():
    g = two_node()
    traj = integrate(
        initial_state("SIR", np.array([0.3, 0.1])),
        ModelParams("SIR", 1.0, 0.5),
        g,
        t_end=2.0,
        dt=0.01,
        record_every=7,
    )
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    buf.seek(0)
    back = read_trajectory_csv(buf)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.s, traj.s)
    np.testing.assert_array_equal(back.x, traj.x)
    np.testing.assert_array_equal(back.r, traj.r)


@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    r0_target=st.floats(min_value=0.5, max_value=5.0),
    recovered=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_every_recorded_sir_row_is_on_the_h_map(n, seed, r0_target, recovered):
    # s = H(1 - r) row by row, H the H-map of the first row, in memory and read back.
    rng = np.random.default_rng(seed)
    g = random_sc_graph(rng, n=n)
    beta, gamma = r0_target / dominant_eig(g).lambda_max, 1.0
    x0 = rng.uniform(0.0, 0.5, n)
    r0 = rng.uniform(0.0, 0.3, n) if recovered else None
    traj = integrate(
        initial_state("SIR", x0, r0), ModelParams("SIR", beta, gamma), g,
        t_end=2.0, dt=0.01, record_every=10,
    )  # fmt: skip
    first = EpidemicState(traj.s[0], traj.x[0], traj.r[0])
    h = sir_fixed_point_map(g, beta, gamma, first)
    for s, r in zip(traj.s, traj.r):
        assert np.abs(s - h(1.0 - r)).max() <= 1e-12
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    buf.seek(0)
    assert sir_defect(read_trajectory_csv(buf), g, beta, gamma) <= 1e-12


def test_sir_defect_flags_other_models_and_rates():
    g = two_node()
    x0 = np.array([0.3, 0.1])
    sir = integrate(initial_state("SIR", x0), ModelParams("SIR", 1.0, 0.5), g, t_end=2.0, dt=0.01)
    sis = integrate(initial_state("SIS", x0), ModelParams("SIS", 1.0, 0.5), g, t_end=2.0, dt=0.01)
    assert sir_defect(sir, g, 1.0, 0.5) <= 1e-15
    assert sir_defect(sir, g, 1.001, 0.5) > 1e-6
    assert sir_defect(sis, g, 1.0, 0.5) > 1e-2


def test_batched_runs_equal_single_runs():
    g = random_sc_graph(np.random.default_rng(5), 12)
    x0 = np.linspace(0.0, 0.3, 12)
    for kind, gammas, dt in [("SIS", (0.3, 1.0, 4.0), 0.01), ("SIR", (0.5, 2.0), 0.02)]:
        state0 = initial_state(kind, x0)
        batch = [ModelParams(kind, 1.5, gv) for gv in gammas]
        runs = integrate(state0, batch, g, t_end=3.0, dt=dt, record_every=9)
        assert isinstance(runs, list) and len(runs) == len(batch)
        for params, run in zip(batch, runs):
            alone = integrate(state0, params, g, t_end=3.0, dt=dt, record_every=9)
            for name in ("times", "s", "x", "r"):
                assert np.array_equal(getattr(run, name), getattr(alone, name))


def _oracle(kind, beta, gamma, a, state0, t_end, dt):
    """rk4 on the dense field; returns times and the s, x, r rows.

    SI and SIS integrate x in the textbook form. SIR integrates
    u = s + x = 1 - r by u' = gamma (s0 exp((beta/gamma) A (u - u0)) - u),
    and s, x = u - s and r = 1 - u follow from u.
    """
    if kind != "SIR":
        times, x = rk4(lambda x: beta * (1.0 - x) * (a @ x) - (gamma or 0.0) * x, state0.x, t_end, dt)
        return times, 1.0 - x, x, np.zeros_like(x)
    u0 = 1.0 - state0.r

    def s_of(u):
        return state0.s * np.exp((beta / gamma) * ((u - u0) @ a.T))

    times, u = rk4(lambda u: gamma * (s_of(u) - u), u0, t_end, dt)
    return times, s_of(u), u - s_of(u), 1.0 - u


@pytest.fixture()
def clamps(monkeypatch) -> list:
    """Records every np.clip call, which integrate makes only to clamp the state."""
    calls = []
    clip = np.clip

    def counted(*args, **kwargs):
        calls.append(args)
        return clip(*args, **kwargs)

    monkeypatch.setattr(np, "clip", counted)
    return calls


@pytest.mark.parametrize("kind, gammas", [("SI", (None,)), ("SIS", (0.4, 1.5, 6.0)), ("SIR", (0.8,))])
def test_integrate_matches_rk4_oracle(kind, gammas, clamps):
    rng = np.random.default_rng(17)
    g = random_sc_graph(rng, 30)
    state0 = initial_state(kind, rng.uniform(0.0, 0.2, 30))
    beta, t_end, dt = 0.35, 2.0, 0.01
    batch = [ModelParams(kind, beta, gv) for gv in gammas]
    runs = integrate(state0, batch, g, t_end=t_end, dt=dt, record_every=1)
    assert not clamps
    for params, run in zip(batch, runs):
        times, s, x, r = _oracle(kind, beta, params.gamma, dense(g), state0, t_end, dt)
        np.testing.assert_array_equal(run.times, times)
        for got, want in ((run.s, s), (run.x, x), (run.r, r)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_sir_sweep_matches_solve_ivp_on_the_paper_field():
    # integrate solves u' = gamma (H(u) - u); the paper's model is the (s, x, r)
    # field below. DOP853 at tight tolerances stands in for the exact flow, so
    # the gap is RK4's own error: fourth order, about 1.5e-7 at dt = 0.01.
    rng = np.random.default_rng(29)
    n, beta, gammas, t_end = 30, 0.8, (0.5, 1.0, 2.0), 6.0
    g = random_sc_graph(rng, n)
    x0, r0 = np.zeros(n), np.zeros(n)
    x0[:3], r0[5:8] = rng.uniform(0.05, 0.2, 3), 0.1
    state0 = initial_state("SIR", x0, r0)
    batch = [ModelParams("SIR", beta, gv) for gv in gammas]
    errors = {}
    for dt in (0.01, 0.02):
        runs = integrate(state0, batch, g, t_end=t_end, dt=dt, record_every=round(0.5 / dt))
        for gamma, run in zip(gammas, runs):

            def paper(t, y, gamma=gamma):
                s, x = y[:n], y[n : 2 * n]
                flow = beta * s * (dense(g) @ x)
                return np.concatenate((-flow, flow - gamma * x, gamma * x))

            y0 = np.concatenate((state0.s, state0.x, state0.r))
            ref = solve_ivp(paper, (0.0, t_end), y0, method="DOP853", t_eval=run.times, rtol=1e-13, atol=1e-15).y.T
            got = np.hstack((run.s, run.x, run.r))
            errors[dt, gamma] = np.abs(got - ref).max()
    for gamma in gammas:
        assert errors[0.01, gamma] <= 4e-7
        assert 12 <= errors[0.02, gamma] / errors[0.01, gamma] <= 20  # 2^4 = 16


def test_stationary_stop_matches_rk4_oracle(clamps):
    g = random_sc_graph(np.random.default_rng(23), 30)
    state0 = initial_state("SIS", np.full(30, 0.1))
    beta, gamma, t_end, dt = 0.1, 3.0, 50.0, 0.01  # below threshold: x decays to 0
    traj = integrate(
        state0, ModelParams("SIS", beta, gamma), g, t_end=t_end, dt=dt, record_every=7, stop_when_stationary=True
    )
    assert not clamps
    assert traj.times[-1] < t_end and traj.x[-1].max() < 1e-9
    steps = round(traj.times[-1] / dt)
    assert traj.times[-1] == steps * dt and steps % 7 != 0  # the stop adds a row of its own
    times, _, x, _ = _oracle("SIS", beta, gamma, dense(g), state0, traj.times[-1], dt)
    assert times[-1] == traj.times[-1]
    np.testing.assert_allclose(traj.x, x[np.round(traj.times / dt).astype(int)], rtol=0, atol=1e-13)


def test_batch_must_share_kind_beta_and_step():
    g = two_node()
    state0 = initial_state("SIS", np.array([0.1, 0.2]))
    for batch, message in [
        ([], "at least one"),
        ([ModelParams("SIS", 1.0, 0.5), ModelParams("SIS", 2.0, 0.5)], "kind and beta"),
        ([ModelParams("SIS", 1.0, 0.5), ModelParams("SIR", 1.0, 0.5)], "kind and beta"),
    ]:
        with pytest.raises(ValueError, match=message):
            integrate(state0, batch, g, t_end=1.0)


def test_batch_without_dt_runs_at_its_fastest_rates_step():
    g = two_node()
    state0 = initial_state("SIS", np.array([0.1, 0.2]))
    batch = [ModelParams("SIS", 1.0, 0.5), ModelParams("SIS", 1.0, 2.0)]
    assert default_step(batch, 1.0) == 0.0005
    for params, run in zip(batch, integrate(state0, batch, g, t_end=1.0)):
        alone = integrate(state0, params, g, t_end=1.0, dt=0.0005)
        for name in ("times", "s", "x", "r"):
            assert np.array_equal(getattr(run, name), getattr(alone, name))


@pytest.mark.parametrize(
    "rates, t_end, steps",
    [
        ((1.0, 1.0), 1.0, 1000),
        ((0.5, 3.2), 0.5, 1600),  # a whole number of 1e-3 / 3.2 steps keeps its count
        ((1.2345678, 1.0), 20.0, 24692),  # 24691.4 steps of 1e-3 / 1.2345678 round up
        ((1.0, 1.0), 0.0005, 1),  # shorter than 1e-3: one step
        ((1.0, 1.0), 1.00005, 1001),
    ],
)
def test_default_step_is_a_whole_step_count_of_at_most_1e_3_over_the_rate(rates, t_end, steps):
    beta, gamma = rates
    dt = default_step([ModelParams("SIR", beta, gamma)], t_end)
    assert dt == t_end / steps and dt * max(rates) <= 1e-3
    assert step_count(t_end, dt) == steps


def test_trajectory_csv_matches_per_value_formatting():
    traj = integrate(
        initial_state("SIS", np.array([0.3, 1.0 / 3.0])), ModelParams("SIS", 1.0, 0.5), two_node(), t_end=0.5, dt=0.01
    )
    odd = np.array([[0.0, -0.0], [5e-324, 1.0 / 3.0], [np.nextafter(1.0, 0.0), 1.0]])
    edge_cases = Trajectory(
        times=np.array([0.0, 1e-300, 0.1]), s=odd, x=odd[::-1].copy(), r=np.zeros((3, 2))
    )
    for t in (traj, edge_cases):
        lines = ["t,s_1,s_2,x_1,x_2,r_1,r_2"]
        for k in range(len(t)):
            row = np.concatenate(([t.times[k]], t.s[k], t.x[k], t.r[k]))
            lines.append(",".join(f"{v:.17g}" for v in row))
        buf = io.StringIO()
        write_trajectory_csv(t, buf)
        assert buf.getvalue() == "\n".join(lines) + "\n"


def test_trajectory_csv_is_written_one_row_at_a_time(tmp_path):
    rng = np.random.default_rng(0)
    rows, n = 50, 500
    traj = Trajectory(
        times=np.arange(rows) * 0.1,
        s=rng.random((rows, n)),
        x=rng.random((rows, n)),
        r=rng.random((rows, n)),
    )
    path = tmp_path / "traj.csv"
    with open(path, "w") as fp:
        tracemalloc.start()
        try:
            write_trajectory_csv(traj, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # The whole table as a list of Python floats takes about as much as the
    # text it becomes; one row at a time stays near the size of one row.
    assert peak < path.stat().st_size / 2
