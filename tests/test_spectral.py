import numpy as np
import pytest

from netepi import (
    Graph,
    ReducibleMatrixError,
    dominant_eig,
    effective_matrix,
    spectral_radius,
)

from conftest import complete_graph, random_sc_graph, symmetric_pair, two_node

TOL = 1e-12


def test_symmetric_pair():
    trip = dominant_eig(symmetric_pair().adjacency)
    assert trip.lambda_max == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(trip.u_max, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(trip.v_max, [0.5, 0.5], atol=1e-12)


def test_complete_graph_regular():
    trip = dominant_eig(complete_graph(4).adjacency)
    assert trip.lambda_max == pytest.approx(3.0, abs=1e-11)
    np.testing.assert_allclose(trip.u_max, [0.25] * 4, atol=1e-11)
    np.testing.assert_allclose(trip.v_max, [0.25] * 4, atol=1e-11)


def test_two_node_hand_solve():
    # Hand eigen-solve: A u = 4 u for u = (1/3, 2/3), v'A = 4 v' for v = (2/3, 1/3).
    a = two_node().adjacency
    np.testing.assert_allclose(a @ [1 / 3, 2 / 3], 4.0 * np.array([1 / 3, 2 / 3]))
    np.testing.assert_allclose(np.array([2 / 3, 1 / 3]) @ a, 4.0 * np.array([2 / 3, 1 / 3]))
    trip = dominant_eig(a)
    assert trip.lambda_max == pytest.approx(4.0, rel=1e-11)
    np.testing.assert_allclose(trip.u_max, [1 / 3, 2 / 3], atol=1e-11)
    np.testing.assert_allclose(trip.v_max, [2 / 3, 1 / 3], atol=1e-11)


def test_residual_invariants_and_normalization():
    for seed in range(5):
        g = random_sc_graph(np.random.default_rng(seed), n=8)
        a = g.adjacency
        trip = dominant_eig(a)
        lam = trip.lambda_max
        assert np.abs(a @ trip.u_max - lam * trip.u_max).max() <= TOL * lam
        assert np.abs(trip.v_max @ a - lam * trip.v_max).max() <= TOL * lam
        assert trip.u_max.sum() == pytest.approx(1.0, abs=1e-12)
        assert trip.v_max.sum() == pytest.approx(1.0, abs=1e-12)
        assert trip.u_max.min() > 0 and trip.v_max.min() > 0


def test_agrees_with_dense_eigensolver():
    for seed in range(10):
        g = random_sc_graph(np.random.default_rng(100 + seed), n=6)
        lam = dominant_eig(g.adjacency).lambda_max
        rho = np.abs(np.linalg.eigvals(g.adjacency)).max()
        assert abs(lam - rho) <= 10 * TOL * rho


def test_monotone_in_state_scaling():
    # s' <= s entrywise implies lambda_max(diag(s') A) <= lambda_max(diag(s) A).
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 11)
        g = random_sc_graph(rng, n=int(n))
        s = rng.uniform(0.2, 1.0, int(n))
        s_smaller = s * rng.uniform(0.2, 1.0, int(n))
        lam_big, _ = spectral_radius(effective_matrix(s, g))
        lam_small, _ = spectral_radius(effective_matrix(s_smaller, g))
        assert lam_small <= lam_big * (1 + 1e-10)


def test_reducible_rejected_but_radius_still_works():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ReducibleMatrixError):
        dominant_eig(a)
    lam, _ = spectral_radius(a)  # nilpotent: falls back past power iteration
    assert lam == pytest.approx(0.0, abs=1e-9)


def test_radius_boundary_states():
    g = two_node()
    lam, _ = spectral_radius(effective_matrix(np.zeros(2), g))
    assert lam == pytest.approx(0.0, abs=1e-12)
    # Zeroing one row keeps a well-defined spectral radius.
    lam, _ = spectral_radius(effective_matrix(np.array([1.0, 0.0]), g))
    assert lam == pytest.approx(0.0, abs=1e-9)


def test_effective_matrix():
    g = two_node()
    np.testing.assert_array_equal(effective_matrix(np.ones(2), g).adjacency, g.adjacency)
    np.testing.assert_array_equal(effective_matrix(np.zeros(2), g).adjacency, np.zeros((2, 2)))
    np.testing.assert_array_equal(
        effective_matrix(np.array([0.5, 1.0]), g).adjacency, [[0.0, 1.0], [8.0, 0.0]]
    )
    with pytest.raises(ValueError):
        effective_matrix(np.array([0.5, 1.5]), g)
    with pytest.raises(ValueError):
        effective_matrix(np.ones(3), g)


def test_warm_start_matches_cold_start():
    g = random_sc_graph(np.random.default_rng(3), n=10)
    s = np.random.default_rng(4).uniform(0.3, 1.0, 10)
    m = effective_matrix(s, g)
    lam_cold, vec = spectral_radius(m)
    lam_warm, _ = spectral_radius(m.adjacency * 0.999, start=vec)
    assert lam_warm == pytest.approx(0.999 * lam_cold, rel=1e-10)
