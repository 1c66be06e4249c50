"""Shared graph builders and the independent RK4 oracle used across tests."""

import numpy as np
import pytest

from netepi import Graph, graph


def rk4(f, y0, t_end, dt):
    """Plain fixed-step RK4, independent of the package integrator.

    Returns (times, values) with values[k] the state at times[k]. Used as
    the brute-force oracle against which closed forms and the library
    integrator are checked; deliberately does no clamping or monitoring.
    """
    steps = int(round(t_end / dt))
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    times = np.empty(steps + 1)
    out = np.empty((steps + 1,) + y.shape)
    times[0], out[0] = 0.0, y
    for k in range(1, steps + 1):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times[k], out[k] = k * dt, y
    return times, out


def dense(g: Graph) -> np.ndarray:
    """The dense n x n adjacency matrix of g, a[i, j] = weight of edge j -> i."""
    a = np.zeros((g.n, g.n))
    a[g.rows, g.cols] = g.weights
    return a


def reweighted(g: Graph, weights) -> Graph:
    """g's edges with new weights, zero weights kept as edges, as diag(s) A keeps them."""
    return graph._edge_graph(g.n, g.rows, g.cols, np.asarray(weights, dtype=float))


def dump_graph(g: Graph) -> str:
    """Serialize a Graph back to edge-list text (exact round trip).

    Weights are written with repr so load_graph(dump_graph(g)) reproduces
    the adjacency matrix bit for bit. Zero-weight edges are not edges and
    are left out.
    """
    lines = [f"n {g.n}"]
    keep = g.weights > 0
    for i, j, w in zip(g.rows[keep].tolist(), g.cols[keep].tolist(), g.weights[keep].tolist()):
        lines.append(f"{i + 1} {j + 1} {w!r}")
    return "\n".join(lines) + "\n"


def two_node() -> Graph:
    """The asymmetric 2-node instance with lambda_max = 4, u = (1/3, 2/3)."""
    return Graph(np.array([[0.0, 2.0], [8.0, 0.0]]))


def symmetric_pair() -> Graph:
    return Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))


def complete_graph(n: int) -> Graph:
    return Graph(np.ones((n, n)) - np.eye(n))


def directed_ring(n: int, weight: float = 1.0) -> Graph:
    a = np.zeros((n, n))
    for i in range(n):
        a[(i + 1) % n, i] = weight  # node i infects node i+1
    return Graph(a)


def random_sc_graph(rng, n, density=0.3, w_lo=0.1, w_hi=2.0) -> Graph:
    """Random weighted digraph, strongly connected by a ring backbone."""
    a = np.zeros((n, n))
    for i in range(n):
        a[(i + 1) % n, i] = rng.uniform(w_lo, w_hi)
    extra = (rng.random((n, n)) < density) & (a == 0)
    np.fill_diagonal(extra, False)
    a[extra] = rng.uniform(w_lo, w_hi, extra.sum())
    return Graph(a)


# Fixed 20-node undirected unweighted connected graph: a ring with ten
# chords, one per node, which also makes it 3-regular.
GRAPH20_EDGES = [
    *[(i, i + 1) for i in range(1, 20)],
    (20, 1),
    (1, 5),
    (2, 8),
    (3, 12),
    (4, 15),
    (6, 11),
    (7, 17),
    (9, 14),
    (10, 19),
    (13, 18),
    (16, 20),
]


def graph20() -> Graph:
    a = np.zeros((20, 20))
    for i, j in GRAPH20_EDGES:
        a[i - 1, j - 1] = 1.0
        a[j - 1, i - 1] = 1.0
    return Graph(a)


def graph20_edge_list() -> str:
    lines = ["n 20"]
    for i, j in GRAPH20_EDGES:
        lines.append(f"{i} {j} 1.0")
        lines.append(f"{j} {i} 1.0")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def g20() -> Graph:
    return graph20()


class SccPasses(list):
    """Node counts of the passes made at irreducible_parts cache misses.

    answers[k] names the search that answered pass k: 'frontier' when the
    frontier search of graph._spanning_part did, 'tarjan' when it fell back.
    """

    def __init__(self):
        super().__init__()
        self.answers = []


@pytest.fixture()
def scc_passes(monkeypatch) -> SccPasses:
    """Records every strongly-connected-component pass, frontier or Tarjan."""
    passes = SccPasses()
    frontier, tarjan = graph._spanning_part, graph._component_parts

    def counted_frontier(g, support, live):
        passes.append(g.n)
        passes.answers.append("frontier")
        return frontier(g, support, live)

    def counted_tarjan(g, support):
        passes.answers[-1] = "tarjan"
        return tarjan(g, support)

    monkeypatch.setattr(graph, "_spanning_part", counted_frontier)
    monkeypatch.setattr(graph, "_component_parts", counted_tarjan)
    return passes
