import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netepi import (
    BelowThresholdError,
    EpidemicState,
    Graph,
    InputError,
    ModelParams,
    NonConvergenceError,
    dominant_eig,
    initial_state,
    integrate,
    sir_asymptotic,
    sir_fixed_point_map,
    sis_endemic,
    sis_endemic_expansion_high_rate,
    sis_endemic_expansion_threshold,
    sis_fixed_point_map,
)

from conftest import complete_graph, dense, directed_ring, random_sc_graph, symmetric_pair, two_node

SLACK = 1e-12
# Roundoff of the dense Newton references below, which the certified
# enclosures (width <= 1e-10) are checked against.
REFERENCE_SLACK = 1e-15


def _dense_newton(f, jacobian, y):
    """Newton's method for y = f(y) with dense LU solves, to roundoff."""
    for _ in range(200):
        step = np.linalg.solve(np.eye(y.shape[0]) - jacobian(y), y - f(y))
        y = y - step
        if np.abs(step).max() <= 64 * np.finfo(float).eps * np.abs(y).max():
            return y
    raise AssertionError("dense Newton reference did not converge")


def _sis_reference(g, beta, gamma):
    """From the all-ones vector, above the endemic state, so never to 0."""
    m = (beta / gamma) * dense(g)

    def f(y):
        z = m @ y
        return z / (1.0 + z)

    return _dense_newton(f, lambda y: (1.0 / (1.0 + m @ y) ** 2)[:, None] * m, np.ones(g.n))


def _sir_reference(g, beta, gamma, s0, r0):
    m = (beta / gamma) * dense(g)

    def h(y):
        return s0 * np.exp(m @ (y - 1.0 + r0))

    return _dense_newton(h, lambda y: h(y)[:, None] * m, np.zeros(g.n))


def test_regular_graph_endemic_is_uniform():
    # k-regular: the uniform vector 1 - gamma/(beta k) solves the fixed point
    g = complete_graph(4)  # k = 3
    beta, gamma = 1.0, 1.5  # R0 = 2
    res = sis_endemic(g, beta, gamma, tol=1e-12)
    np.testing.assert_allclose(res.x_star, 1.0 - gamma / (beta * 3.0), atol=1e-10)


def test_two_node_endemic_hand_solve():
    res = sis_endemic(two_node(), 1.0, 1.0, tol=1e-12)
    np.testing.assert_allclose(res.x_star, [5 / 8, 5 / 6], atol=1e-10)
    assert res.residual <= 1e-12


def test_endemic_rejects_an_unknown_bracket():
    with pytest.raises(InputError, match="^bracket must be 'lower' or 'upper', got 'middle'$"):
        sis_endemic(two_node(), 1.0, 1.0, bracket="middle")


def test_below_threshold_rejected():
    g = two_node()  # lambda_max = 4
    with pytest.raises(BelowThresholdError, match="R0"):
        sis_endemic(g, 0.9 / 4.0, 1.0)  # R0 = 0.9


def test_bracket_monotonicity_and_agreement():
    g = random_sc_graph(np.random.default_rng(2), n=7)
    trip = dominant_eig(g)
    gamma = 1.0
    beta = 2.5 / trip.lambda_max  # R0 = 2.5
    f = sis_fixed_point_map(g, beta, gamma)

    # The canonical starts (1 - 1/R0) u_max / max(u_max) and / min(u_max).
    scale = 1.0 - 1.0 / 2.5
    lower = scale * trip.u_max / trip.u_max.max()
    upper = scale * trip.u_max / trip.u_max.min()
    y_lo, y_up = lower, upper
    for _ in range(300):
        y_lo_next, y_up_next = f(y_lo), f(y_up)
        assert np.all(y_lo_next >= y_lo - SLACK)
        assert np.all(y_up_next <= y_up + SLACK)
        assert np.all(y_lo_next <= y_up_next + SLACK)
        y_lo, y_up = y_lo_next, y_up_next

    tol = 1e-10
    res_lo = sis_endemic(g, beta, gamma, tol=tol, bracket="lower")
    res_up = sis_endemic(g, beta, gamma, tol=tol, bracket="upper")
    assert np.abs(res_lo.x_star - res_up.x_star).max() <= 2 * tol
    assert res_lo.x_star.min() > 0 and res_lo.x_star.max() < 1


@pytest.mark.parametrize("r0", [1.001, 1.01, 2.0, 10.0])
def test_endemic_enclosure_holds_the_dense_newton_state(r0):
    g = random_sc_graph(np.random.default_rng(21), n=30)
    beta, gamma, tol = r0 / dominant_eig(g).lambda_max, 1.0, 1e-10
    lower = sis_endemic(g, beta, gamma, tol=tol, bracket="lower")
    upper = sis_endemic(g, beta, gamma, tol=tol, bracket="upper")
    reference = _sis_reference(g, beta, gamma)
    assert np.all(lower.x_star <= reference + REFERENCE_SLACK)
    assert np.all(reference <= upper.x_star + REFERENCE_SLACK)
    assert lower.width == upper.width <= tol
    assert np.abs(upper.x_star - lower.x_star).max() == lower.width
    assert lower.x_star.min() > 0  # never the disease-free state
    assert lower.residual <= tol and upper.residual <= tol


def _path60() -> Graph:
    """A 60-node path, weight 1 forward and 0.1 back: u_max spans 3.2e29."""
    n = 60
    a = np.zeros((n, n))
    a[np.arange(1, n), np.arange(n - 1)] = 1.0
    a[np.arange(n - 1), np.arange(1, n)] = 0.1
    return Graph(a)


def test_endemic_certifies_when_the_perron_vector_spans_many_decades():
    # The upper bracket start exceeds 1 at all but a few nodes.
    g = _path60()
    u = dominant_eig(g).u_max
    assert u.max() / u.min() > 1e29
    beta, gamma, tol = 1.5 / dominant_eig(g).lambda_max, 1.0, 1e-10
    upper = sis_endemic(g, beta, gamma, tol=tol, bracket="upper")
    reference = _sis_reference(g, beta, gamma)
    assert upper.width <= tol and upper.residual <= tol
    assert np.all(reference <= upper.x_star + REFERENCE_SLACK)
    assert np.all(upper.x_star - upper.width <= reference + REFERENCE_SLACK)


@pytest.mark.xfail(
    strict=True,
    raises=NonConvergenceError,
    reason="Newton-GMRES certifies no enclosure on this path at R0 = 1.01 in 50 steps",
)
def test_endemic_certifies_near_threshold_when_the_perron_vector_spans_many_decades():
    g = _path60()
    result = sis_endemic(g, 1.01 / dominant_eig(g).lambda_max, 1.0)
    assert result.x_star.min() > 0


@given(
    n=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    r0=st.floats(min_value=1.01, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_lower_results_stay_below_upper_results(n, seed, r0):
    g = random_sc_graph(np.random.default_rng(seed), n=n)
    beta, gamma, tol = r0 / dominant_eig(g).lambda_max, 1.0, 1e-10
    lower = sis_endemic(g, beta, gamma, tol=tol, bracket="lower")
    upper = sis_endemic(g, beta, gamma, tol=tol, bracket="upper")
    assert np.all(0 < lower.x_star) and np.all(lower.x_star <= upper.x_star)
    assert np.all(upper.x_star - lower.x_star <= tol)
    x0 = np.zeros(n)
    x0[seed % n] = 0.5
    state0 = initial_state("SIR", x0)
    zero = sir_asymptotic(g, beta, gamma, state0, tol=tol, start="zero")
    top = sir_asymptotic(g, beta, gamma, state0, tol=tol, start="upper")
    assert np.all(zero.s_inf <= top.s_inf) and np.all(top.s_inf - zero.s_inf <= tol)


def test_uncertifiable_tol_raises_non_convergence():
    with pytest.raises(NonConvergenceError, match="width"):
        sis_endemic(two_node(), 1.0, 1.0, tol=1e-300)
    g, beta, gamma, state0 = _sir_setup()
    with pytest.raises(NonConvergenceError, match="width"):
        sir_asymptotic(g, beta, gamma, state0, tol=1e-300)


def test_endemic_matches_long_sis_integration():
    rng = np.random.default_rng(42)
    for n in (5, 12):
        g = random_sc_graph(rng, n=n)
        lam = dominant_eig(g).lambda_max
        beta, gamma = 2.0 / lam, 1.0
        res = sis_endemic(g, beta, gamma)
        traj = integrate(
            initial_state("SIS", np.full(n, 0.5)),
            ModelParams("SIS", beta, gamma),
            g,
            t_end=400.0,
            dt=0.01,
            record_every=10_000,
            stop_when_stationary=True,
        )
        assert np.abs(traj.x[-1] - res.x_star).max() < 1e-5


def test_near_threshold_endemic_is_certified():
    g = symmetric_pair()  # regular of degree 1: x* = 1 - gamma / beta at every node
    res = sis_endemic(g, 1.0 + 5e-4, 1.0, tol=1e-8)
    assert res.width <= 1e-8 and (res.x_star > 0).all()
    np.testing.assert_allclose(res.x_star, 1.0 - 1.0 / 1.0005, rtol=0, atol=1e-8)


def test_expansion_threshold_zero_delta():
    g = symmetric_pair()  # lambda_max = 1 exactly, so delta = 0 is exact
    np.testing.assert_array_equal(sis_endemic_expansion_threshold(g, 1.0, 1.0), 0.0)
    with pytest.raises(BelowThresholdError):
        sis_endemic_expansion_threshold(g, 0.8, 1.0)


def test_expansion_threshold_below_threshold_names_r0():
    g = two_node()  # lambda_max = 4
    with pytest.raises(BelowThresholdError, match=r"^R0 = 0.9 < 1: expansion does not apply$"):
        sis_endemic_expansion_threshold(g, 0.9 / 4.0, 1.0)


def test_expansion_threshold_regular_graph():
    # k-regular: a = n so the expansion is delta * 1, exact state (delta/(1+delta)) 1
    g = complete_graph(5)  # k = 4
    delta = 0.05
    beta, gamma = (1 + delta) / 4.0, 1.0
    approx = sis_endemic_expansion_threshold(g, beta, gamma)
    np.testing.assert_allclose(approx, delta, atol=1e-11)
    exact = sis_endemic(g, beta, gamma, tol=1e-12).x_star
    assert np.abs(exact - approx).max() <= delta**2


def test_expansion_high_rate_regular_graph_exact():
    g = directed_ring(6, weight=2.0)
    beta, gamma = 1.0, 0.4
    approx = sis_endemic_expansion_high_rate(g, beta, gamma)
    np.testing.assert_allclose(approx, 1.0 - 0.4 / 2.0, atol=1e-12)
    exact = sis_endemic(g, beta, gamma, tol=1e-12).x_star
    np.testing.assert_allclose(exact, approx, atol=1e-10)


@pytest.mark.parametrize("adjacency", [[[0.0, 1.0], [0.0, 0.0]], [[0.0]]], ids=["sink", "no-edges"])
def test_expansion_high_rate_needs_positive_row_sums(adjacency):
    with pytest.raises(InputError, match=r"^every node needs positive out-strength \(row sum\)$"):
        sis_endemic_expansion_high_rate(Graph(np.array(adjacency)), 1.0, 0.5)


def test_expansion_high_rate_limit():
    g = two_node()
    np.testing.assert_allclose(
        sis_endemic_expansion_high_rate(g, 1.0, 1e-12), 1.0, atol=1e-11
    )


# --- SIR asymptotics --------------------------------------------------------


def _sir_setup(n=6, seed=0, r0_frac=0.0, x0_frac=0.05, target_r0=4.0):
    g = random_sc_graph(np.random.default_rng(seed), n=n)
    lam = dominant_eig(g).lambda_max
    beta, gamma = target_r0 / lam, 1.0
    state0 = initial_state("SIR", np.full(n, x0_frac), np.full(n, r0_frac))
    return g, beta, gamma, state0


def test_sir_both_starts_agree():
    g, beta, gamma, state0 = _sir_setup()
    tol = 1e-10
    res_zero = sir_asymptotic(g, beta, gamma, state0, tol=tol, start="zero")
    res_upper = sir_asymptotic(g, beta, gamma, state0, tol=tol, start="upper")
    assert np.abs(res_zero.s_inf - res_upper.s_inf).max() <= 2 * tol
    np.testing.assert_allclose(res_zero.r_inf, 1.0 - res_zero.s_inf)
    assert res_zero.residual <= tol


@pytest.mark.parametrize("target_r0", [1.001, 3.0])
@pytest.mark.parametrize("seeded", [False, True])
def test_sir_enclosure_holds_the_dense_newton_state(target_r0, seeded):
    g, beta, gamma, state0 = _sir_setup(n=30, seed=4, target_r0=target_r0)
    if seeded:  # as --seed-node 1: node 1 has s0 = 0, so its s(inf) is exactly 0
        x0 = np.zeros(30)
        x0[0] = 1.0
        state0 = initial_state("SIR", x0)
    tol = 1e-10
    zero = sir_asymptotic(g, beta, gamma, state0, tol=tol, start="zero")
    upper = sir_asymptotic(g, beta, gamma, state0, tol=tol, start="upper")
    reference = _sir_reference(g, beta, gamma, state0.s, state0.r)
    assert np.all(zero.s_inf <= reference + REFERENCE_SLACK)
    assert np.all(reference <= upper.s_inf + REFERENCE_SLACK)
    assert zero.width == upper.width <= tol
    assert zero.residual <= tol and upper.residual <= tol
    if seeded:
        assert zero.s_inf[0] == 0.0


def test_sir_bracket_sequences():
    g, beta, gamma, state0 = _sir_setup(seed=3)
    h = sir_fixed_point_map(g, beta, gamma, state0)
    p, q = np.zeros(g.n), 1.0 - state0.r
    for _ in range(200):
        p_next, q_next = h(p), h(q)
        assert np.all(p_next >= p - SLACK)  # p(k) non-decreasing
        assert np.all(q_next <= q + SLACK)  # q(k) non-increasing
        assert np.all(p_next <= q_next + SLACK)
        p, q = p_next, q_next
    assert np.abs(p - q).max() < 1e-8


def test_sir_fixed_point_satisfies_conserved_equation():
    g, beta, gamma, state0 = _sir_setup(seed=5, r0_frac=0.1)
    s0, r0 = state0.s, state0.r
    res = sir_asymptotic(g, beta, gamma, state0)
    a = dense(g)
    rebuilt = s0 * np.exp(-(beta / gamma) * (a @ (1.0 - r0))) * np.exp(
        (beta / gamma) * (a @ res.s_inf)
    )
    assert np.abs(rebuilt - res.s_inf).max() <= 1e-10


def test_sir_matches_long_integration():
    g, beta, gamma, state0 = _sir_setup(seed=8)
    res = sir_asymptotic(g, beta, gamma, state0)
    traj = integrate(
        state0,
        ModelParams("SIR", beta, gamma),
        g,
        t_end=200.0,
        dt=0.01,
        record_every=10_000,
        stop_when_stationary=True,
    )
    assert np.abs(traj.s[-1] - res.s_inf).max() < 1e-4


def test_sir_random_starts_converge_to_same_point():
    # The H-map converges from any start in [0, 1 - r0], not only the brackets.
    g, beta, gamma, state0 = _sir_setup(seed=13, r0_frac=0.05)
    reference = sir_asymptotic(g, beta, gamma, state0).s_inf
    h = sir_fixed_point_map(g, beta, gamma, state0)
    rng = np.random.default_rng(99)
    for _ in range(5):
        y = rng.uniform(0.0, 1.0, g.n) * (1.0 - state0.r)
        for _ in range(100_000):
            y_next = h(y)
            if np.abs(y_next - y).max() <= 1e-10:
                break
            y = y_next
        else:
            pytest.fail("H-map iteration did not settle")
        assert np.abs(y_next - reference).max() < 5e-9


def test_sir_vanishing_infection_below_threshold():
    # With the system below threshold, s_inf -> s0 as the seed infection shrinks.
    g = symmetric_pair()  # lambda_max = 1
    beta, gamma = 0.4, 1.0
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        state0 = initial_state("SIR", np.full(2, eps))
        res = sir_asymptotic(g, beta, gamma, state0)
        gaps.append(np.abs(res.s_inf - state0.s).max())
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 2e-4  # O(eps) with a modest constant


def test_sir_validates_inputs():
    g, beta, gamma, state0 = _sir_setup()
    s0, x0, r0 = state0.s, state0.x, state0.r
    with pytest.raises(ValueError):
        sir_asymptotic(g, beta, gamma, initial_state("SIR", np.zeros_like(x0), r0))
    with pytest.raises(ValueError):
        sir_asymptotic(g, beta, gamma, EpidemicState(s0 + 0.1, x0, r0))
    with pytest.raises(ValueError):
        sir_asymptotic(g, beta, gamma, state0, start="sideways")


def test_sir_start_needs_what_the_enclosure_box_needs():
    g = two_node()
    # EpidemicState admits s down to -1e-9; the box [0, 1 - r0] needs s0 >= 0.
    below = EpidemicState([-5e-10, 0.9], [1.0 + 5e-10, 0.1], [0.0, 0.0])
    with pytest.raises(InputError, match="^s0 must be nonnegative$"):
        sir_asymptotic(g, 1.0, 1.0, below)
    with pytest.raises(InputError, match="^state and graph dimensions differ$"):
        sir_asymptotic(g, 1.0, 1.0, initial_state("SIR", [0.1, 0.1, 0.1]))
    # x0 and r0 entries down to -1e-9 pass, as they do for integrate.
    res = sir_asymptotic(g, 1.0, 1.0, initial_state("SIR", [0.1, -4e-10], [0.0, -4e-10]))
    assert res.width <= 1e-10 and res.residual <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sir_rejects_non_finite_inputs(bad):
    g, beta, gamma, state0 = _sir_setup()
    x0, s0, r0 = state0.x.copy(), state0.s.copy(), state0.r
    x0[-1] = s0[-1] = bad
    with pytest.raises(ValueError):
        sir_asymptotic(g, beta, gamma, EpidemicState(s0, x0, r0))
    with pytest.raises(ValueError):
        sir_asymptotic(g, beta, gamma, initial_state("SIR", x0, r0))
