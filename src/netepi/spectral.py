"""Dominant eigenvalue and eigenvectors of nonnegative matrices.

Everything here is one shifted power iteration with one stopping test. For
a positive vector x the Collatz-Wielandt bounds

    min_i (M x)_i / x_i  <=  rho(M)  <=  max_i (M x)_i / x_i

hold for any nonnegative M (Horn & Johnson, Matrix Analysis, ch. 8); the
iteration stops once every ratio lies within tol * lambda of the estimate
lambda, so the reported width (largest ratio minus smallest) certifies
|lambda - rho(M)| <= width <= 2 tol lambda. Plain power iteration can
oscillate between the periodic classes of an irreducible matrix (bipartite
contact graphs), so it runs on M + cI, with c a fixed fraction of the
current estimate lambda, re-set at every step. The bounds read only M x / x,
so a shift that changes between steps leaves them valid.

The bounds close only where x converges to a positive eigenvector, which an
irreducible matrix guarantees. A reducible matrix is iterated one strongly
connected component of its positive-weight support at a time; its spectral
radius is the largest component radius, and a single node without a
self-loop contributes 0. Every function takes a Graph, so each iteration
costs one O(n + nnz) product.

The iteration is lane-major: it moves a (B, n) block of vectors, one row
per matrix, with one product bound by Graph.block_product per step, and
each row stops on its own test. dominant_eig runs it with B = 1; the left
Perron vector of A is the right one of A', dominant_eig(g.transpose()).u_max.
spectral_radius takes a whole series of states s, such as the rows of an
SIR trajectory, and runs it on blocks of the matrices diag(s[k]) A, so an
R(t) series pays the per-step overhead once per block of samples instead
of once per sample.

The tolerances are fixed: ratios are tested against DEFAULT_TOL, and an
iteration gives up after DEFAULT_MAX_ITER steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonConvergenceError, require_fraction
from .graph import Graph, _edge_graph, require_strongly_connected

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
# The shift of a row as a fraction f of its estimate lambda = sum(M x). It
# only has to break periodicity: on a bipartite graph the eigenvalue -lambda
# decays by (1 - f) / (1 + f) per product, and a larger f narrows the gap
# to the second eigenvalue. Products for u from dominant_eig, the earlier
# shift of 0.1 times the largest row sum -> 0.2 lambda: seed-21 benchmark
# graphs (n = 1000, 500, 20) 55, 52, 37 -> 49, 49, 37, and their R(t)
# series 550, 87, 44 -> 528, 81, 42; a 10,000-node star 335 -> 74; a
# 10,000-node ring plus 5n random edges, lognormal(0, 3) weights, no
# certificate in 100,000 -> 923, U(0.1, 2) weights 59 -> 50; 30 x 30 and
# 100 x 100 lattices +4% and +3%; directed 80- and 90-node rings 71,716 and
# 91,036 -> 62,390 and 78,671; a random 1,000-node bipartite graph 53 -> 63,
# where 0.1 times the largest row sum exceeds 0.2 lambda. At f = 0.1 both
# rings exhaust DEFAULT_MAX_ITER; at 0.25 the 30 x 30 lattice takes 8% more
# and the n = 1000 R(t) series 553.
SHIFT_FRACTION = 0.2
# Rows per block of spectral_radius: a block's product touches about
# BLOCK_ENTRIES edge entries. A wide block pays numpy's per-call overhead
# once for many samples, which is most of the cost at small n; at large n a
# block row costs as much as a single product, and the samples of a block
# all start from the same vector, which costs extra iterations. In-process
# series times on the benchmark inputs (seed 21; 2-core VM, numpy 2.4, one
# BLAS thread; median of 25) for BLOCK_ENTRIES = 2048 / 8192 / 16384 /
# 32768 / unbounded:
#   n = 20,   101 samples:  3.9 / 2.4 / 2.0 / 2.0 / 2.0 ms
#   n = 500,   11 samples:  7.7 / 6.5 / 5.4 / 5.4 / 5.1 ms
#   n = 1000,  26 samples:  53.2 / 53.2 / 47.6 / 45.9 / 66.1 ms
# against 33.7, 7.7 and 53.4 ms for one row per block. Two later rounds
# of 16384 against 32768 (same setup) gave 46.9 / 46.9 against 45.4 / 45.3
# ms at n = 1000, 5.57 / 5.41 against 5.50 / 5.35 ms at n = 500 and
# 2.06 / 2.04 against 2.04 / 2.03 ms at n = 20.
BLOCK_ENTRIES = 32768


@dataclass(frozen=True)
class SpectralTriple:
    """Dominant eigenvalue with its 1-normalized positive right eigenvector.

    width certifies the eigenvalue: |lambda_max - rho(A)| <= width. The left
    vector, v' A = lambda v', is u_max of the transpose's triple.
    """

    lambda_max: float
    u_max: np.ndarray  # right: A u = lambda u
    width: float


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


@np.errstate(over="ignore")  # an overflowed ratio only keeps the certificate open
def _power_iteration(product, tol, x):
    """Iterate each row x -> (M x + c x) / ||.||_1 until its Collatz-Wielandt bounds close.

    x is a (B, n) block of positive starts with unit 1-norm rows, and
    product maps it to the block of products M_k x_k of B irreducible
    nonnegative n x n matrices. Row k's estimate is lambda_k = sum(M_k x),
    and its shift c_k = SHIFT_FRACTION * lambda_k follows the estimate, so
    it scales with the row's own matrix, such as a late SIR state's
    diag(s) A. Row k stops at the first step its ratios (M_k x)_i / x_i all
    lie within tol * lambda_k of lambda_k; a stopped row stays in the
    block, so every product has one shape, until the last row stops.
    Returns (lambda, block, width): the length-B array lambda, the (B, n)
    block of rows as each stopped, and the length-B array width (largest
    ratio minus smallest); rho(M_k) lies within width_k of lambda_k. For
    B = 1 this is the arithmetic of a single-vector iteration.
    """
    lam, width, out = np.empty(len(x)), np.empty(len(x)), np.empty_like(x)
    pending = np.ones(len(x), dtype=bool)
    for _ in range(DEFAULT_MAX_ITER):
        mx = product(x)
        sums = mx.sum(axis=1)
        ratios = mx / x
        lo, hi = ratios.min(axis=1), ratios.max(axis=1)
        done = np.maximum(hi - sums, sums - lo) <= tol * sums
        if np.count_nonzero(done):
            new = done & pending
            lam[new], width[new], out[new] = sums[new], hi[new] - lo[new], x[new]
            pending &= ~done
            if not np.count_nonzero(pending):
                return lam, out, width
        y = mx + SHIFT_FRACTION * sums[:, None] * x
        x = y / y.sum(axis=1, keepdims=True)
    raise NonConvergenceError(
        f"power iteration did not reach tol={tol} within {DEFAULT_MAX_ITER} iterations"
    )


def dominant_eig(g: Graph) -> SpectralTriple:
    """Dominant eigenvalue and right eigenvector of the irreducible matrix of g.

    Runs shifted power iteration on A from the uniform start until every
    ratio (A u)_i / u_i lies within DEFAULT_TOL / 4 of lambda_max; the
    reported width bounds the distance to the spectral radius. The left
    vector is dominant_eig(g.transpose()).u_max, the same iteration on A'.
    Raises ReducibleMatrixError if g is not strongly connected and
    NonConvergenceError if DEFAULT_MAX_ITER iterations do not get there.
    """
    require_strongly_connected(g)
    # A quarter of DEFAULT_TOL, so both eigen-residuals (u from g, v from
    # g.transpose()) also hold against the single reported eigenvalue.
    lam, u, width = _power_iteration(g.block_product(1), DEFAULT_TOL / 4, _uniform(g.n)[None])
    return SpectralTriple(lambda_max=float(lam[0]), u_max=u[0], width=float(width[0]))


def spectral_radius(g: Graph, s) -> np.ndarray:
    """Spectral radii of the B matrices diag(s[k]) A, the effective matrices of B states.

    s is a (B, n) block whose entries lie in [0, 1], such as the states of
    an SIR trajectory; a row of ones asks for the radius of A itself, which
    may be reducible. Consecutive rows with one zero set share A's strongly
    connected components restricted to the nodes where s > 0, and so one
    SCC pass. Each such run is cut into blocks of max(1, BLOCK_ENTRIES //
    nnz) rows, and each block is one block power iteration per component in
    which every row stops on its own certificate, DEFAULT_TOL relative as in
    dominant_eig. Each run's first block starts uniform, and every row of a
    later block starts from the last row's eigenvector on its component in
    the block before, so the radii of a series are those of its runs taken
    one at a time, bit for bit. Warm starts do not make a row cheap: on the
    benchmark inputs a sample warm-started from the one before took 31 to
    113 products, only 14-23% fewer than from a uniform start. A block
    saves the per-product overhead instead: the 101 samples at n = 20 take
    44 block products where one iteration per sample took 3,547 products,
    and at n = 1000 (5,966 edges) a block holds 5 samples. A radius is the
    largest over the components, and 0 when every component is a single
    node without a self-loop. Returns the length-B array of radii.
    """
    block = require_fraction(s, "state block")
    if block.ndim != 2 or block.shape[0] < 1 or block.shape[1] != g.n:
        raise InputError(f"state block has shape {block.shape}, expected (B, {g.n})")
    width = max(1, BLOCK_ENTRIES // max(g.nnz, 1))
    live = block > 0
    changes = np.flatnonzero(np.any(live[1:] != live[:-1], axis=1)) + 1
    edges = [0, *changes.tolist(), len(block)]
    radius = np.zeros(len(block))
    for first, end in zip(edges, edges[1:]):
        parts = g.irreducible_parts(live[first])
        starts = [_uniform(nodes.size) for nodes, _ in parts]
        for lo in range(first, end, width):
            hi = min(lo + width, end)
            out = radius[lo:hi]
            for k, (nodes, sub) in enumerate(parts):
                scale = block[lo:hi, nodes]
                x = np.tile(starts[k] / starts[k].sum(), (hi - lo, 1))
                product = sub.block_product(hi - lo)
                lam, x, _ = _power_iteration(lambda y: scale * product(y), DEFAULT_TOL, x)
                np.maximum(out, lam, out=out)
                starts[k] = x[-1]
    return radius


def effective_matrix(s: np.ndarray, g: Graph) -> Graph:
    """diag(s) A: the contact matrix as seen by the currently susceptible.

    Each result is a new graph that pays its own SCC pass when its
    irreducible_parts are read. spectral_radius(g, s) gives the radii of a
    whole series of these matrices without building them, on g's parts,
    one SCC pass per zero set of the series.
    """
    s = require_fraction(s, "state vector")
    if s.shape != (g.n,):
        raise InputError(f"state vector has shape {s.shape}, expected ({g.n},)")
    return _edge_graph(g.n, g.rows, g.cols, s[g.rows] * g.weights)


__all__ = [
    "SpectralTriple",
    "dominant_eig",
    "spectral_radius",
    "effective_matrix",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
]
