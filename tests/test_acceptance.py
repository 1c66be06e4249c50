"""Acceptance suite.

One test per acceptance criterion, each runs at its stated tolerance and
prints a single "ACCEPTANCE <n>: PASS" line once its assertions hold. Run
with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import time

import numpy as np
import pytest

from netepi import (
    ModelParams,
    dominant_eig,
    effective_r_series,
    initial_state,
    integrate,
    si_closed_form,
    sir_asymptotic,
    sir_fixed_point_map,
    sir_rinf,
    sis_closed_form,
    sis_endemic,
    sis_endemic_expansion_high_rate,
    sis_endemic_expansion_threshold,
    time_to_subthreshold,
)

from conftest import complete_graph, directed_ring, graph20, random_sc_graph, rk4, two_node


def _pass(num, msg):
    print(f"ACCEPTANCE {num}: PASS ({msg})")


@pytest.fixture(scope="module")
def g20():
    return graph20()


@pytest.fixture(scope="module")
def seeded_sir_run(g20):
    """One above-threshold SIR run from a single seed node, shared by 8 and 9."""
    beta, gamma = 0.5, 0.4
    x0 = np.zeros(20)
    x0[0] = 1.0
    traj = integrate(
        initial_state("SIR", x0),
        ModelParams("SIR", beta, gamma),
        g20,
        t_end=80.0,
        dt=0.005,
        record_every=20,
    )
    return beta, gamma, traj


def test_criterion_1_scalar_closed_forms_match_rk4():
    t0 = time.perf_counter()
    t_end, dt = 20.0, 2e-3

    # SI over a 5 x 5 (x0, beta) grid
    x0s = np.array([0.0, 0.1, 0.35, 0.7, 1.0])
    betas = np.array([0.2, 0.5, 1.0, 1.5, 2.0])
    si_x0, si_beta = (m.ravel() for m in np.meshgrid(x0s, betas))
    # SIS over 5 x0 values x 5 (beta, gamma) pairs, including beta == gamma
    pairs = np.array([(1.0, 0.5), (0.5, 1.0), (1.0, 1.0), (2.0, 0.7), (1.0 / 3, 0.9)])
    sis_x0 = np.repeat(x0s, len(pairs))
    sis_beta = np.tile(pairs[:, 0], len(x0s))
    sis_gamma = np.tile(pairs[:, 1], len(x0s))

    # All 50 integrated as one vector ODE; gamma 0 makes an SI entry's
    # field beta (1 - x) x bit for bit.
    beta_grid = np.concatenate((si_beta, sis_beta))
    gamma_grid = np.concatenate((np.zeros(si_x0.size), sis_gamma))
    times, vals = rk4(
        lambda y: beta_grid * (1 - y) * y - gamma_grid * y,
        np.concatenate((si_x0, sis_x0)),
        t_end,
        dt,
    )
    si_vals, sis_vals = vals[:, : si_x0.size], vals[:, si_x0.size :]

    closed = np.stack(
        [si_closed_form(x0, b, times) for x0, b in zip(si_x0, si_beta)], axis=1
    )
    si_err = np.abs(si_vals - closed).max()
    assert si_err < 1e-8

    closed = np.stack(
        [
            sis_closed_form(x0, b, g, times)
            for x0, b, g in zip(sis_x0, sis_beta, sis_gamma)
        ],
        axis=1,
    )
    sis_err = np.abs(sis_vals - closed).max()
    assert sis_err < 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(1, f"SI sup err {si_err:.2e}, SIS sup err {sis_err:.2e}, {elapsed:.2f}s")


def test_criterion_2_sir_final_size_bounds():
    import math

    r_small = sir_rinf(0.95, 0.0, 0.25, 1.0)  # beta/gamma = 1/4
    assert 0.05 < r_small < 0.1
    assert abs(1.0 - r_small - 0.95 * math.exp(-0.25 * r_small)) <= 1e-10

    r_big = sir_rinf(0.95, 0.0, 4.0, 1.0)  # beta/gamma = 4
    assert r_big > 0.95
    assert abs(1.0 - r_big - 0.95 * math.exp(-4.0 * r_big)) <= 1e-10
    _pass(2, f"r_inf(1/4) = {r_small:.4f}, r_inf(4) = {r_big:.4f}")


def test_criterion_3_endemic_exactness_on_analytic_instances():
    t0 = time.perf_counter()
    # k-regular graphs: uniform endemic state 1 - gamma/(beta k)
    for g, k in [(complete_graph(4), 3.0), (directed_ring(6, weight=2.5), 2.5)]:
        for beta, gamma in [(1.0, 1.5), (0.8, 0.9)]:
            if beta * k / gamma <= 1:
                continue
            res = sis_endemic(g, beta, gamma, tol=1e-12)
            assert np.abs(res.x_star - (1.0 - gamma / (beta * k))).max() <= 1e-10

    # hand-solved 2-node instance at beta = gamma
    res = sis_endemic(two_node(), 1.0, 1.0, tol=1e-12)
    assert np.abs(res.x_star - np.array([5 / 8, 5 / 6])).max() <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(3, f"regular + 2-node instances exact to 1e-10, {elapsed:.2f}s")


def test_criterion_4_endemic_matches_ode_on_random_graphs():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    sizes = [5] * 7 + [10] * 7 + [30] * 6
    worst = 0.0
    for n in sizes:
        g = random_sc_graph(rng, n=n, density=0.3, w_lo=0.1, w_hi=2.0)
        lam = dominant_eig(g).lambda_max
        r0 = rng.uniform(1.2, 5.0)
        beta, gamma = r0 / lam, 1.0
        res = sis_endemic(g, beta, gamma)
        traj = integrate(
            initial_state("SIS", np.full(n, 0.5)),
            ModelParams("SIS", beta, gamma),
            g,
            t_end=400.0,
            dt=0.01,
            record_every=1_000_000,
            stop_when_stationary=True,
        )
        gap = np.abs(traj.x[-1] - res.x_star).max()
        worst = max(worst, gap)
        assert gap < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(4, f"20 graphs, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_taylor_expansion_orders():
    g = two_node()
    lam = 4.0

    near = []
    for delta in (0.08, 0.04, 0.02, 0.01):
        beta = (1.0 + delta) / lam
        x_star = sis_endemic(g, beta, 1.0, tol=1e-12).x_star
        approx = sis_endemic_expansion_threshold(g, beta, 1.0)
        near.append(np.abs(x_star - approx).max() / delta**2)
    assert max(near) / min(near) < 2.0

    high = []
    for eps in (0.2, 0.1, 0.05, 0.025):
        x_star = sis_endemic(g, 1.0, eps, tol=1e-12).x_star
        approx = sis_endemic_expansion_high_rate(g, 1.0, eps)
        high.append(np.abs(x_star - approx).max() / eps**2)
    assert max(high) / min(high) < 2.0
    _pass(
        5,
        f"near-threshold ratio {max(near) / min(near):.2f}, "
        f"high-rate ratio {max(high) / min(high):.2f}",
    )


def test_criterion_6_sir_fixed_point_correctness():
    t0 = time.perf_counter()
    n = 40
    g = random_sc_graph(np.random.default_rng(7), n=n, density=0.2)
    lam = dominant_eig(g).lambda_max
    beta, gamma = 5.0 / lam, 1.0
    x0 = np.full(n, 0.05)
    r0 = np.full(n, 0.02)
    s0 = 1.0 - x0 - r0
    tol = 1e-10

    res_zero = sir_asymptotic(g, beta, gamma, s0, x0, r0, tol=tol, start="zero")
    res_upper = sir_asymptotic(g, beta, gamma, s0, x0, r0, tol=tol, start="upper")
    agreement = np.abs(res_zero.s_inf - res_upper.s_inf).max()
    assert agreement <= 2 * tol
    assert res_zero.residual <= 1e-10 and res_upper.residual <= 1e-10

    # bracketing: p(k) non-decreasing, q(k) non-increasing, p <= q throughout
    h = sir_fixed_point_map(g, beta, gamma, s0, r0)
    p, q = np.zeros(n), 1.0 - r0
    while np.abs(q - p).max() > tol:
        p_next, q_next = h(p), h(q)
        assert np.all(p_next >= p - 1e-12)
        assert np.all(q_next <= q + 1e-12)
        assert np.all(p_next <= q_next + 1e-12)
        p, q = p_next, q_next

    traj = integrate(
        initial_state("SIR", x0, r0),
        ModelParams("SIR", beta, gamma),
        g,
        t_end=200.0,
        dt=0.01,
        record_every=1_000_000,
        stop_when_stationary=True,
    )
    ode_gap = np.abs(traj.s[-1] - res_zero.s_inf).max()
    assert ode_gap < 1e-4

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(
        6,
        f"start agreement {agreement:.1e}, ODE gap {ode_gap:.1e}, "
        f"residual {res_zero.residual:.1e}, {elapsed:.1f}s",
    )


def test_criterion_7_sir_conserved_quantities():
    g = random_sc_graph(np.random.default_rng(17), n=10)
    beta, gamma = 0.5, 0.4
    traj = integrate(
        initial_state("SIR", np.full(10, 0.08)),
        ModelParams("SIR", beta, gamma),
        g,
        t_end=25.0,
        record_every=10,  # dt left at its default
    )
    weights = (beta / gamma) * (traj.r @ g.adjacency.T)
    v = traj.s * np.exp(weights)
    drift = np.abs(v / v[0] - 1.0).max()
    assert drift <= 1e-6
    _pass(7, f"V_i relative drift {drift:.2e} at default dt")


def test_criterion_8_threshold_dynamics(g20, seeded_sir_run):
    # below threshold: the decay envelope from the left eigenvector average
    g = two_node()
    beta, gamma = 0.1, 1.0  # R0 = 0.4
    trip = dominant_eig(g)
    traj = integrate(
        initial_state("SIS", np.array([0.5, 0.3])),
        ModelParams("SIS", beta, gamma),
        g,
        t_end=10.0,
        dt=0.002,
    )
    weighted = traj.x @ trip.v_max
    envelope = weighted[0] * np.exp((beta * trip.lambda_max - gamma) * traj.times)
    assert np.all(weighted <= envelope * (1 + 1e-12) + 1e-15)

    # above threshold: finite crossing time and non-increasing lambda_max(t)
    beta, gamma, traj20 = seeded_sir_run
    tau = time_to_subthreshold(traj20, g20, beta, gamma)
    assert tau is not None and tau > 0
    _, values = effective_r_series(traj20, g20, beta, gamma)
    assert np.all(np.diff(values) <= 1e-10)
    _pass(8, f"envelope holds, tau = {tau:.2f}, R(t) non-increasing")


def test_criterion_9_single_seed_outbreak_profile(g20, seeded_sir_run):
    t0 = time.perf_counter()
    beta, gamma, traj = seeded_sir_run
    times, values = effective_r_series(traj, g20, beta, gamma)
    assert values[0] > 1.0  # starts above threshold
    tau = time_to_subthreshold(traj, g20, beta, gamma)
    assert tau is not None and 0.0 < tau < times[-1]  # crosses 1 in finite time
    assert values[-1] < 1.0  # settles below threshold

    mean_infected = traj.x.mean(axis=1)
    peak = int(np.argmax(mean_infected))
    assert 0 < peak < len(mean_infected) - 1
    assert np.all(np.diff(mean_infected[: peak + 1]) >= -1e-12)
    assert np.all(np.diff(mean_infected[peak:]) <= 1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(
        9,
        f"R(0) = {values[0]:.2f}, tau = {tau:.2f}, R(end) = {values[-1]:.2f}, "
        f"unimodal peak at t = {times[peak]:.2f}, {elapsed:.1f}s",
    )


def test_criterion_10_si_full_contagion():
    rng = np.random.default_rng(31)
    worst = 0.0
    for n in (4, 9, 16, 20):
        g = random_sc_graph(rng, n=n, w_lo=0.5, w_hi=2.0)
        x0 = rng.uniform(0.001, 0.05, n)
        traj = integrate(
            initial_state("SI", x0),
            ModelParams("SI", 1.0),
            g,
            t_end=300.0,
            dt=0.01,
            record_every=1_000_000,
            stop_when_stationary=True,
        )
        gap = np.abs(traj.x[-1] - 1.0).max()
        worst = max(worst, gap)
        assert gap < 1e-3
    _pass(10, f"full contagion reached, worst gap {worst:.1e}")
