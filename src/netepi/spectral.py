"""Dominant eigenvalue and eigenvectors of nonnegative matrices.

Everything here is one shifted power iteration with one stopping test. For
a positive vector x the Collatz-Wielandt bounds

    min_i (M x)_i / x_i  <=  rho(M)  <=  max_i (M x)_i / x_i

hold for any nonnegative M (Horn & Johnson, Matrix Analysis, ch. 8); the
iteration stops once every ratio lies within tol * lambda of the estimate
lambda, so the reported width (largest ratio minus smallest) certifies
|lambda - rho(M)| <= width <= 2 tol lambda. Plain power iteration can
oscillate between the periodic classes of an irreducible matrix (bipartite
contact graphs), so it runs on M + cI with c a fixed fraction of the
largest row sum.

The bounds close only where x converges to a positive eigenvector, which an
irreducible matrix guarantees. A reducible matrix is iterated one strongly
connected component of its positive-weight support at a time; its spectral
radius is the largest component radius, and a single node without a
self-loop contributes 0. Matrices are Graphs, so each iteration costs one
O(n + nnz) product; a dense matrix argument is converted to a Graph once.

The tolerances are fixed: ratios are tested against DEFAULT_TOL, and an
iteration gives up after DEFAULT_MAX_ITER steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError, NonConvergenceError
from .graph import Graph, _edge_graph, degree_vector, require_strongly_connected

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
# The shift c as a fraction of the largest row sum. It only has to make the
# iterated matrix aperiodic, and smaller shifts converge faster on random
# contact graphs: an R(t) series of 26 samples at n = 1000 takes 3,933
# iterations at 1/2, 2,800 at 1/4 and 2,116 at 1/10. Periodic graphs (rings,
# bipartite graphs) converge more slowly as the shift shrinks.
SHIFT_FRACTION = 0.1


@dataclass(frozen=True)
class SpectralTriple:
    """Dominant eigenvalue with 1-normalized positive right and left eigenvectors.

    width certifies the eigenvalue: |lambda_max - rho(A)| <= width. v_max
    costs a second power iteration, run on its first read.
    """

    lambda_max: float
    u_max: np.ndarray  # right: A u  = lambda u
    width: float
    graph: Graph = field(repr=False)

    @cached_property
    def v_max(self) -> np.ndarray:
        """left: v' A = lambda v'."""
        g = self.graph
        _, v, _ = _power_iteration(g.rmatvec, _shift_for(g), DEFAULT_TOL / 4, _uniform(g.n))
        return v


def _as_graph(m) -> Graph:
    """A Graph passes through; a dense nonnegative matrix is converted once."""
    if isinstance(m, Graph):
        return m
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise InputError("matrix must be nonnegative")
    return Graph(m)


def _shift_for(g: Graph) -> float:
    """SHIFT_FRACTION of the largest row sum.

    Proportional to the matrix scale, so late SIR states, whose diag(s) A
    is close to zero, keep the relative spectral gap and the iteration
    count of the original matrix.
    """
    return SHIFT_FRACTION * float(degree_vector(g).max())


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def _power_iteration(product, shift, tol, x):
    """Iterate x -> (M x + shift x) / ||.||_1 until the Collatz-Wielandt bounds close.

    product is x -> M x for an irreducible nonnegative n x n matrix M, and
    x is a positive start with unit 1-norm. Returns (lambda, x, width):
    lambda = sum(M x) lies with rho(M) between the smallest and largest
    ratio (M x)_i / x_i, and each ratio lies within tol * lambda of lambda.
    """
    for _ in range(DEFAULT_MAX_ITER):
        mx = product(x)
        lam = mx.sum()
        ratios = mx / x
        lo, hi = ratios.min(), ratios.max()
        if hi - lam <= tol * lam and lam - lo <= tol * lam:
            return float(lam), x, float(hi - lo)
        y = mx + shift * x
        x = y / y.sum()
    raise NonConvergenceError(
        f"power iteration did not reach tol={tol} within {DEFAULT_MAX_ITER} iterations"
    )


def dominant_eig(m: Graph | np.ndarray) -> SpectralTriple:
    """Dominant eigenvalue and eigenvectors of an irreducible matrix.

    m is a Graph or a dense nonnegative matrix. Runs shifted power iteration
    on m from the uniform start until every ratio (m u)_i / u_i lies within
    DEFAULT_TOL / 4 of lambda_max; the reported width bounds the distance to
    the spectral radius. The left vector v_max is computed the same way on
    the transpose when first read. Raises ReducibleMatrixError if m is
    reducible and NonConvergenceError if DEFAULT_MAX_ITER iterations do not
    get there.
    """
    g = _as_graph(m)
    require_strongly_connected(g)
    # A quarter of DEFAULT_TOL, so both eigen-residuals also hold against
    # the single reported eigenvalue.
    lam, u, width = _power_iteration(g.matvec, _shift_for(g), DEFAULT_TOL / 4, _uniform(g.n))
    return SpectralTriple(lambda_max=lam, u_max=u, width=width, graph=g)


def spectral_radius(m: Graph | np.ndarray, start=None) -> tuple[float, np.ndarray]:
    """Spectral radius of a nonnegative (possibly reducible) matrix.

    The largest radius over the strongly connected components of m's
    positive-weight support, each certified to DEFAULT_TOL relative by the
    power iteration of dominant_eig; 0 when every component is a single node
    without a self-loop. start (default uniform), a nonnegative length-n
    vector, warm-starts each component from its entries. Returns (lambda,
    vector): the vector holds each nontrivial component's eigenvector,
    1-normalized, and zeros elsewhere; it is mainly useful for warm-starting
    the next call.
    """
    g = _as_graph(m)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (g.n,) or not np.all(start >= 0):
            raise InputError("start vector must be nonnegative and of length n")
    labels = g.components
    row_labels = labels[g.rows]
    inner = (g.weights > 0) & (row_labels == labels[g.cols])  # edges within a component
    radius, vec = 0.0, np.zeros(g.n)
    for c in np.flatnonzero(np.bincount(row_labels[inner])):  # components with an edge
        nodes = np.flatnonzero(labels == c)
        if nodes.size == g.n:
            sub = g
        else:
            local = np.empty(g.n, dtype=np.intp)
            local[nodes] = np.arange(nodes.size)
            edges = inner & (row_labels == c)
            sub = _edge_graph(
                nodes.size, local[g.rows[edges]], local[g.cols[edges]], g.weights[edges]
            )
        x = _component_start(start, nodes)
        lam, x, _ = _power_iteration(sub.matvec, _shift_for(sub), DEFAULT_TOL, x)
        radius = max(radius, lam)
        vec[nodes] = x
    return radius, vec


def _component_start(start, nodes: np.ndarray) -> np.ndarray:
    """Positive unit-1-norm start on nodes, taken from start where it has weight there."""
    x = _uniform(nodes.size) if start is None else start[nodes]
    if not x.sum() > 0:
        return _uniform(nodes.size)
    x = x / x.sum()
    if np.any(x == 0):
        # Keep every entry positive: the certificate divides by x.
        x = 0.99 * x + 0.01 / nodes.size
    return x


def effective_matrix(s: np.ndarray, g: Graph) -> Graph:
    """diag(s) A: the contact matrix as seen by the currently susceptible.

    The result shares g's cache of component labels, so an R(t) series pays
    one SCC pass per distinct zero set of s.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (g.n,):
        raise InputError(f"state vector has shape {s.shape}, expected ({g.n},)")
    if not np.all((s >= 0) & (s <= 1)):  # NaN fails too
        raise InputError("state vector entries must lie in [0, 1]")
    return g.with_weights(s[g.rows] * g.weights)


__all__ = [
    "SpectralTriple",
    "dominant_eig",
    "spectral_radius",
    "effective_matrix",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
]
