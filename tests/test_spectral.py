import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigs

from netepi import (
    Graph,
    InputError,
    NonConvergenceError,
    ReducibleMatrixError,
    dominant_eig,
    effective_matrix,
    reproduction_number,
    sis_endemic,
    spectral_radius,
)
from netepi import spectral
from netepi.spectral import DEFAULT_TOL

from conftest import complete_graph, dense, directed_ring, random_sc_graph, symmetric_pair, two_node

TOL = 1e-12


def _dense_radius(a) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(a))).max())


def _radius(g):
    """Radius of g's matrix alone: spectral_radius on a one-row block of ones."""
    return spectral_radius(g, np.ones((1, g.n)))[0]


def test_symmetric_pair():
    trip = dominant_eig(symmetric_pair())
    assert trip.lambda_max == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(trip.u_max, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(trip.v_max, [0.5, 0.5], atol=1e-12)


def test_complete_graph_regular():
    trip = dominant_eig(complete_graph(4))
    assert trip.lambda_max == pytest.approx(3.0, abs=1e-11)
    np.testing.assert_allclose(trip.u_max, [0.25] * 4, atol=1e-11)
    np.testing.assert_allclose(trip.v_max, [0.25] * 4, atol=1e-11)


def test_two_node_hand_solve():
    # Hand eigen-solve: A u = 4 u for u = (1/3, 2/3), v'A = 4 v' for v = (2/3, 1/3).
    g = two_node()
    a = dense(g)
    np.testing.assert_allclose(a @ [1 / 3, 2 / 3], 4.0 * np.array([1 / 3, 2 / 3]))
    np.testing.assert_allclose(np.array([2 / 3, 1 / 3]) @ a, 4.0 * np.array([2 / 3, 1 / 3]))
    trip = dominant_eig(g)
    assert trip.lambda_max == pytest.approx(4.0, rel=1e-11)
    np.testing.assert_allclose(trip.u_max, [1 / 3, 2 / 3], atol=1e-11)
    np.testing.assert_allclose(trip.v_max, [2 / 3, 1 / 3], atol=1e-11)


def test_weights_near_the_float_limit_certify_without_a_warning():
    # A ratio (A u)_i / u_i of the uniform start overflows; the run still
    # certifies, and RuntimeWarning is an error under this suite's filters.
    a = np.zeros((3, 3))
    a[0, 1] = a[0, 2] = a[1, 0] = a[2, 0] = 1e308
    trip = dominant_eig(Graph(a))
    assert trip.lambda_max == pytest.approx(np.sqrt(2) * 1e308, rel=1e-11)
    assert trip.width <= DEFAULT_TOL * trip.lambda_max
    np.testing.assert_allclose(trip.v_max, trip.u_max, rtol=1e-11)  # A is symmetric


def test_residual_invariants_and_normalization():
    for seed in range(5):
        g = random_sc_graph(np.random.default_rng(seed), n=8)
        a = dense(g)
        trip = dominant_eig(g)
        lam = trip.lambda_max
        assert np.abs(a @ trip.u_max - lam * trip.u_max).max() <= TOL * lam
        assert np.abs(trip.v_max @ a - lam * trip.v_max).max() <= TOL * lam
        assert trip.u_max.sum() == pytest.approx(1.0, abs=1e-12)
        assert trip.v_max.sum() == pytest.approx(1.0, abs=1e-12)
        assert trip.u_max.min() > 0 and trip.v_max.min() > 0


def test_agrees_with_dense_eigensolver():
    for seed in range(10):
        g = random_sc_graph(np.random.default_rng(100 + seed), n=6)
        lam = dominant_eig(g).lambda_max
        rho = np.abs(np.linalg.eigvals(dense(g))).max()
        assert abs(lam - rho) <= 10 * TOL * rho


@pytest.mark.parametrize("n", [6, 40, 200])
def test_width_certifies_the_eigenvalue(n):
    for seed in range(5):
        g = random_sc_graph(np.random.default_rng(200 + seed), n=n, density=min(0.3, 5 / n))
        trip = dominant_eig(g)
        rho = _dense_radius(dense(g))
        assert 0 <= trip.width <= 2 * DEFAULT_TOL * trip.lambda_max
        # eigvals itself is off by a few ulps of rho
        assert abs(trip.lambda_max - rho) <= trip.width + 1e-14 * rho


def _star(rng, n):
    a = np.zeros((n, n))
    a[0, 1:], a[1:, 0] = rng.uniform(0.1, 2.0, (2, n - 1))
    return a


def _bipartite(rng, n):
    """A ring of even length plus random edges, every edge between odd and even nodes."""
    i = np.arange(n)
    a = np.zeros((n, n))
    a[(i + 1) % n, i] = rng.uniform(0.1, 2.0, n)
    extra = (rng.random((n, n)) < 10 / n) & (a == 0) & ((i[:, None] + i) % 2 == 1)
    a[extra] = rng.uniform(0.1, 2.0, extra.sum())
    return a


def _heavy_tailed(rng, n):
    """A ring plus about 5n random edges, every weight lognormal(0, 3)."""
    i = np.arange(n)
    a = np.zeros((n, n))
    a[(i + 1) % n, i] = 1.0
    extra = rng.random((n, n)) < 5 / n
    np.fill_diagonal(extra, False)
    a[extra] = 1.0
    a[a > 0] = rng.lognormal(0.0, 3.0, np.count_nonzero(a))
    return a


def _lattice(rng, side):
    """A side x side grid, neighbours joined both ways, each edge its own U(0.1, 2) weight."""
    a = np.zeros((side * side, side * side))
    k = np.arange(side * side).reshape(side, side)
    for p, q in ((k[:, :-1], k[:, 1:]), (k[:-1], k[1:])):
        a[p, q] = rng.uniform(0.1, 2.0, p.shape)
        a[q, p] = rng.uniform(0.1, 2.0, p.shape)
    return a


def _scipy_perron(a) -> tuple[float, np.ndarray]:
    """scipy's eigenvalue of largest real part and its 1-normalized eigenvector."""
    w, x = eigs(csr_matrix(a), k=1, which="LR", tol=0)
    x = np.abs(x[:, 0].real)
    return float(w[0].real), x / x.sum()


# Products for both vectors: 148 on the star and 622 on the heavy-tailed
# graph, where a shift of 0.1 times the largest row sum took 320 and 17,954;
# 8,533 on the lattice, whose u_max spans 1.2e7.
@pytest.mark.parametrize(
    "make, n, seed, budget",
    [(_star, 2000, 0, 160), (_bipartite, 1000, 0, None), (_heavy_tailed, 1000, 5, 1800),
     (_lattice, 30, 0, 9000)],
)
def test_agrees_with_scipy_on_hubs_bipartite_and_heavy_tailed_graphs(
    monkeypatch, make, n, seed, budget
):
    products = []
    block_product = Graph.block_product

    def counted(g, b, scale=1.0):
        product = block_product(g, b, scale)

        def step(x):
            products.append(1)
            return product(x)

        return step

    monkeypatch.setattr(Graph, "block_product", counted)
    a = make(np.random.default_rng(seed), n)
    trip = dominant_eig(Graph(a))
    rho, u = _scipy_perron(a)
    _, v = _scipy_perron(a.T)
    assert abs(trip.lambda_max - rho) <= trip.width
    np.testing.assert_allclose(trip.u_max, u, rtol=0, atol=1e-11 * u.max())
    np.testing.assert_allclose(trip.v_max, v, rtol=0, atol=1e-11 * v.max())
    if budget is not None:
        assert len(products) <= budget


def test_left_vector_is_computed_only_when_read(monkeypatch):
    calls = []
    transpose = Graph.transpose

    def counted(g):
        calls.append(1)
        return transpose(g)

    monkeypatch.setattr(Graph, "transpose", counted)
    g = random_sc_graph(np.random.default_rng(5), n=30)
    sis_endemic(g, 2.0 / dominant_eig(g).lambda_max, 1.0)
    reproduction_number(g, 1.0, 1.0)
    assert calls == []
    trip = dominant_eig(g)
    v = trip.v_max
    assert calls == [1] and trip.v_max is v


def test_monotone_in_state_scaling():
    # s' <= s entrywise implies lambda_max(diag(s') A) <= lambda_max(diag(s) A).
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 11)
        g = random_sc_graph(rng, n=int(n))
        s = rng.uniform(0.2, 1.0, int(n))
        s_smaller = s * rng.uniform(0.2, 1.0, int(n))
        lam_big = _radius(effective_matrix(s, g))
        lam_small = _radius(effective_matrix(s_smaller, g))
        assert lam_small <= lam_big * (1 + 1e-10)


def test_reducible_rejected_but_radius_still_works():
    g = Graph(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ReducibleMatrixError):
        dominant_eig(g)
    lam = _radius(g)  # nilpotent: two single-node components
    assert lam == pytest.approx(0.0, abs=1e-9)


def _block_triangular(rng, sizes):
    """Random irreducible diagonal blocks joined by random edges below them."""
    n = sum(sizes)
    a = np.tril(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.3), -1)
    start = 0
    for size in sizes:
        block = slice(start, start + size)
        a[block, block] = dense(random_sc_graph(rng, n=size)) if size > 1 else 0.0
        start += size
    if rng.random() < 0.5:
        a[0, 0] = rng.uniform(0.1, 2.0)  # a single node with a self-loop counts too
    return a


@pytest.mark.parametrize("seed", range(10))
def test_radius_of_block_triangular_matrices(seed):
    rng = np.random.default_rng(300 + seed)
    a = _block_triangular(rng, rng.integers(1, 6, size=rng.integers(2, 5)).tolist())
    perm = rng.permutation(a.shape[0])
    a = a[np.ix_(perm, perm)]
    rho = _dense_radius(a)
    lam = _radius(Graph(a))
    assert abs(lam - rho) <= 2 * DEFAULT_TOL * rho


def test_radius_of_disjoint_cycles_with_equal_radius():
    a = np.zeros((7, 7))
    a[:3, :3] = dense(directed_ring(3, weight=2.0))
    a[3:, 3:] = dense(directed_ring(4, weight=2.0))
    a[3, 0] = 5.0  # a one-way edge between the cycles keeps them separate
    lam = _radius(Graph(a))
    assert abs(lam - 2.0) <= 2 * DEFAULT_TOL * 2.0


@pytest.mark.parametrize("seed", range(5))
def test_radius_with_zeros_in_the_state(seed):
    rng = np.random.default_rng(400 + seed)
    g = random_sc_graph(rng, n=30, density=0.1)
    s = rng.uniform(0.0, 1.0, 30)
    s[rng.choice(30, size=1 + seed * 3, replace=False)] = 0.0
    rho = _dense_radius(s[:, None] * dense(g))
    lam = _radius(effective_matrix(s, g))
    assert abs(lam - rho) <= 2 * DEFAULT_TOL * rho


def test_radius_of_a_state_block_matches_single_states():
    rng = np.random.default_rng(450)
    g = random_sc_graph(rng, n=25, density=0.1)
    s = rng.uniform(0.0, 1.0, (6, 25))
    s[:, [3, 11, 12]] = 0.0
    lam = spectral_radius(g, s=s)
    assert lam.shape == (6,)
    for k in range(6):
        rho = _dense_radius(s[k][:, None] * dense(g))
        assert abs(lam[k] - rho) <= 2 * DEFAULT_TOL * rho
    for bad in (s[:, :24], s[:0], s.ravel()):
        with pytest.raises(InputError):
            spectral_radius(g, s=bad)
    for bad in (np.where(s > 0.5, np.nan, s), s + 0.5):
        with pytest.raises(InputError, match=r"^state block must lie in \[0, 1\]$"):
            spectral_radius(g, s=bad)
    mixed = s.copy()
    mixed[2, 0] = 0.0  # a second zero set
    lam = spectral_radius(g, s=mixed)
    for k in range(6):
        rho = _dense_radius(mixed[k][:, None] * dense(g))
        assert abs(lam[k] - rho) <= 2 * DEFAULT_TOL * rho
    # Each run of one zero set starts afresh: its radii are those of the run alone.
    runs = [spectral_radius(g, s=mixed[lo:hi]) for lo, hi in ((0, 2), (2, 3), (3, 6))]
    assert np.array_equal(lam, np.concatenate(runs))


@pytest.mark.parametrize("n", [2, 5, 12])
def test_radius_of_nilpotent_dags_is_exactly_zero(n):
    rng = np.random.default_rng(n)
    a = np.triu(rng.uniform(0.5, 2.0, (n, n)), 1)  # every node reaches only higher ones
    perm = rng.permutation(n)
    assert _radius(Graph(a[np.ix_(perm, perm)])) == 0.0


def test_radius_boundary_states():
    g = two_node()
    lam = _radius(effective_matrix(np.zeros(2), g))
    assert lam == pytest.approx(0.0, abs=1e-12)
    # Zeroing one row keeps a well-defined spectral radius.
    lam = _radius(effective_matrix(np.array([1.0, 0.0]), g))
    assert lam == pytest.approx(0.0, abs=1e-9)


def test_effective_matrix():
    g = two_node()
    np.testing.assert_array_equal(dense(effective_matrix(np.ones(2), g)), dense(g))
    np.testing.assert_array_equal(dense(effective_matrix(np.zeros(2), g)), np.zeros((2, 2)))
    np.testing.assert_array_equal(
        dense(effective_matrix(np.array([0.5, 1.0]), g)), [[0.0, 1.0], [8.0, 0.0]]
    )
    with pytest.raises(ValueError, match=r"state vector must lie in \[0, 1\]"):
        effective_matrix(np.array([0.5, 1.5]), g)
    with pytest.raises(InputError, match=r"state vector must lie in \[0, 1\]"):
        effective_matrix(np.array([np.nan, 1.0]), g)
    with pytest.raises(ValueError):
        effective_matrix(np.ones(3), g)


def test_power_iteration_gives_up_after_max_iter(monkeypatch):
    # Unequal ring weights keep the uniform start off the eigenvector.
    a = np.zeros((10, 10))
    for i in range(10):
        a[(i + 1) % 10, i] = 1.0 + 0.1 * i
    monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 5)
    with pytest.raises(NonConvergenceError, match=r"^power iteration did not reach tol=2\.5e-13 within 5 iterations$"):
        dominant_eig(Graph(a))
