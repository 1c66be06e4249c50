"""Dominant eigenvalue and eigenvectors of nonnegative matrices.

Everything here is powered by shifted power iteration: for an irreducible
matrix with an all-zero diagonal (e.g. bipartite contact graphs) plain power
iteration can oscillate between periodic classes, so we iterate on m + cI
and subtract the shift c from the reported eigenvalue. The shift is skipped
when the diagonal already has a positive entry (the matrix is then
aperiodic). Matrices are Graphs, so each iteration costs one O(n + nnz)
product; a dense matrix argument is converted to a Graph once.

The tolerances are fixed: residuals are tested against DEFAULT_TOL, and an
iteration gives up after DEFAULT_MAX_ITER steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .graph import Graph, degree_vector, require_strongly_connected

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class SpectralTriple:
    """Dominant eigenvalue with 1-normalized positive left/right eigenvectors."""

    lambda_max: float
    v_max: np.ndarray  # left:  v' A = lambda v'
    u_max: np.ndarray  # right: A u  = lambda u


def _as_graph(m) -> Graph:
    """A Graph passes through; a dense nonnegative matrix is converted once."""
    if isinstance(m, Graph):
        return m
    m = np.asarray(m, dtype=float)
    if np.any(m < 0):
        raise ValueError("matrix must be nonnegative")
    return Graph(m)


def _shift_for(g: Graph) -> float:
    """Shift proportional to the matrix scale; zero if the diagonal is positive.

    A positive diagonal entry already breaks periodicity. Otherwise a fixed
    unit shift would swamp matrices with tiny spectral radius (late SIR
    states give diag(s) A close to zero) and collapse the relative spectral
    gap of the shifted matrix; half the largest row sum keeps the gap, and
    therefore the iteration count, scale-invariant.
    """
    if np.any(g.weights[g.rows == g.cols] > 0):
        return 0.0
    return float(degree_vector(g).max()) / 2.0


def _prepare_start(n: int, start) -> np.ndarray:
    if start is None:
        return np.full(n, 1.0 / n)
    x = np.asarray(start, dtype=float)
    if x.shape != (n,) or np.any(x < 0) or x.sum() <= 0:
        raise ValueError("start vector must be nonnegative, nonzero, length n")
    x = x / x.sum()
    if np.any(x == 0):
        # Keep every entry positive so no invariant class is missed.
        x = 0.99 * x + 0.01 / n
    return x


def _power_iteration(product, n, shift, tol, start=None, entrywise=False):
    """Iterate x -> (product(x) + shift x) / ||.||_1 until the eigen-residual passes tol.

    product is x -> M x for a nonnegative n x n matrix M. Returns
    (lambda_of_M, x, iterations). The residual r = M x - lambda x must
    satisfy ||r||_inf <= tol * (lambda + shift), relative to the eigenvalue
    of the shifted matrix, which stays well-defined when the spectral radius
    of M is zero. With entrywise set (M irreducible, so x > 0) the test is
    |r_i| <= tol * lambda * x_i at every entry instead: it bounds the
    relative error of the smallest entries too.
    """
    x = _prepare_start(n, start)
    for it in range(1, DEFAULT_MAX_ITER + 1):
        y = product(x) + shift * x
        lam_shifted = y.sum()  # equals ||y||_1 for nonnegative y, unit-1-norm x
        lam = lam_shifted - shift
        residual = np.abs(y - lam_shifted * x)
        if entrywise:
            converged = lam > 0 and np.all(residual <= (tol * lam) * x)
        else:
            converged = lam_shifted > 0 and residual.max() <= tol * lam_shifted
        if converged:
            return lam, x / x.sum(), it
        if lam_shifted <= 0:  # M annihilates x entirely: spectral radius 0
            return 0.0, x, it
        x = y / lam_shifted
    raise NonConvergenceError(
        f"power iteration did not reach tol={tol} within {DEFAULT_MAX_ITER} iterations"
    )


def dominant_eig(m: Graph | np.ndarray) -> SpectralTriple:
    """Dominant eigenvalue and left/right eigenvectors of an irreducible matrix.

    m is a Graph or a dense nonnegative matrix. Runs shifted power iteration
    on m (for u_max) and on its transpose (for v_max), both from the uniform
    start vector, until each eigen-residual entry is within DEFAULT_TOL of
    lambda_max times that eigenvector entry. Raises ReducibleMatrixError if m
    is reducible and NonConvergenceError if DEFAULT_MAX_ITER iterations do not
    get there.
    """
    g = _as_graph(m)
    require_strongly_connected(g)
    shift = _shift_for(g)
    # Converge tighter than DEFAULT_TOL so both residuals hold against the
    # single reported eigenvalue.
    tol = DEFAULT_TOL / 4
    lam_u, u, _ = _power_iteration(g.matvec, g.n, shift, tol, entrywise=True)
    _, v, _ = _power_iteration(g.rmatvec, g.n, shift, tol, entrywise=True)
    return SpectralTriple(lambda_max=lam_u, v_max=v, u_max=u)


def spectral_radius(m: Graph | np.ndarray, start=None) -> tuple[float, np.ndarray]:
    """Spectral radius of a nonnegative (possibly reducible) matrix.

    Same shifted power iteration as dominant_eig but without the
    irreducibility pre-check, with the DEFAULT_TOL test taken relative to the
    shifted eigenvalue so that matrices with tiny or zero spectral radius are
    handled; start (default uniform) warm-starts the iteration. Returns (lambda, right_vector); the vector is nonnegative but not
    necessarily unique and is mainly useful for warm-starting the next call.
    """
    g = _as_graph(m)
    try:
        lam, x, _ = _power_iteration(g.matvec, g.n, _shift_for(g), DEFAULT_TOL, start=start)
    except NonConvergenceError:
        # Reducible matrices whose dominant block structure is defective
        # (e.g. diag(s) A with a zeroed row) make power iteration crawl;
        # fall back to a dense solve so boundary states never fail.
        lam = float(np.abs(np.linalg.eigvals(g.adjacency)).max())
        x = np.full(g.n, 1.0 / g.n)
    return lam, x


def effective_matrix(s: np.ndarray, g: Graph) -> Graph:
    """diag(s) A: the contact matrix as seen by the currently susceptible."""
    s = np.asarray(s, dtype=float)
    if s.shape != (g.n,):
        raise ValueError(f"state vector has shape {s.shape}, expected ({g.n},)")
    if np.any(s < 0) or np.any(s > 1):
        raise ValueError("state vector entries must lie in [0, 1]")
    return g.with_weights(s[g.rows] * g.weights)


__all__ = [
    "SpectralTriple",
    "dominant_eig",
    "spectral_radius",
    "effective_matrix",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
]
