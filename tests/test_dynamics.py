import io
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from netepi import (
    EpidemicState,
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
    sir_rinf,
    write_trajectory_csv,
)
from netepi.graph import Graph

from conftest import complete_graph, random_sc_graph, rk4, symmetric_pair, two_node


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_state_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError):
        initial_state("SIR", np.array([0.1, bad]))
    with pytest.raises(ValueError):
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
    # conservation s + x + r = 1 within the integrator tolerance
    total = traj.s + traj.x + traj.r
    assert np.abs(total - 1.0).max() <= 1e-9


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
        exact = expm(params.beta * g.adjacency * t) @ x0
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
            assert run.params is params and run.step_size == alone.step_size
            for name in ("times", "s", "x", "r"):
                assert np.array_equal(getattr(run, name), getattr(alone, name))


def _dense_field(kind, beta, gamma, a):
    """The network field on the dense matrix, in the textbook form."""
    n = a.shape[0]
    if kind == "SI":
        return lambda x: beta * (1.0 - x) * (a @ x)
    if kind == "SIS":
        return lambda x: beta * (1.0 - x) * (a @ x) - gamma * x

    def f(y):
        s, x = y[:n], y[n : 2 * n]
        flow = beta * s * (a @ x)
        return np.concatenate((-flow, flow - gamma * x, gamma * x))

    return f


def _oracle(kind, beta, gamma, a, state0, t_end, dt):
    """rk4 on the dense field; returns times and the s, x, r rows."""
    n = a.shape[0]
    y0 = np.concatenate((state0.s, state0.x, state0.r)) if kind == "SIR" else state0.x
    times, values = rk4(_dense_field(kind, beta, gamma, a), y0, t_end, dt)
    if kind == "SIR":
        return times, values[:, :n], values[:, n : 2 * n], values[:, 2 * n :]
    return times, 1.0 - values, values, np.zeros_like(values)


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
        times, s, x, r = _oracle(kind, beta, params.gamma, g.adjacency, state0, t_end, dt)
        np.testing.assert_array_equal(run.times, times)
        for got, want in ((run.s, s), (run.x, x), (run.r, r)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


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
    times, _, x, _ = _oracle("SIS", beta, gamma, g.adjacency, state0, traj.times[-1], dt)
    assert times[-1] == traj.times[-1]
    np.testing.assert_allclose(traj.x, x[np.round(traj.times / dt).astype(int)], rtol=0, atol=1e-13)


def test_batch_must_share_kind_beta_and_step():
    g = two_node()
    state0 = initial_state("SIS", np.array([0.1, 0.2]))
    for batch, message in [
        ([], "at least one"),
        ([ModelParams("SIS", 1.0, 0.5), ModelParams("SIS", 2.0, 0.5)], "kind and beta"),
        ([ModelParams("SIS", 1.0, 0.5), ModelParams("SIR", 1.0, 0.5)], "kind and beta"),
        ([ModelParams("SIS", 1.0, 0.5), ModelParams("SIS", 1.0, 2.0)], "step size"),
    ]:
        with pytest.raises(ValueError, match=message):
            integrate(state0, batch, g, t_end=1.0)


def test_trajectory_csv_matches_per_value_formatting():
    traj = integrate(
        initial_state("SIS", np.array([0.3, 1.0 / 3.0])), ModelParams("SIS", 1.0, 0.5), two_node(), t_end=0.5, dt=0.01
    )
    odd = np.array([[0.0, -0.0], [5e-324, 1.0 / 3.0], [np.nextafter(1.0, 0.0), 1.0]])
    edge_cases = Trajectory(
        times=np.array([0.0, 1e-300, 0.1]), s=odd, x=odd[::-1].copy(), r=np.zeros((3, 2)), params=None, step_size=0.1
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
        params=None,
        step_size=0.1,
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
