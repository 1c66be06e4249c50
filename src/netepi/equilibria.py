"""Fixed-point computation of the SIS endemic state and the SIR final state.

Both solvers run a monotone iteration whose convergence is guaranteed from
canonical bracket initializations: iterates approach the fixed point from
below (non-decreasing) or from above (non-increasing), so the lower and
upper runs sandwich it and their agreement witnesses uniqueness. The
monotonicity of each step is asserted at runtime with a small slack for
roundoff and for the tolerance of the computed eigenvector entering the
start vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BelowThresholdError,
    InvariantViolationError,
    NonConvergenceError,
)
from .graph import Graph, degree_vector, require_strongly_connected
from .spectral import dominant_eig

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1_000_000
MONOTONE_SLACK = 1e-12
NEAR_THRESHOLD_DELTA = 1e-3


@dataclass(frozen=True)
class EndemicResult:
    """SIS endemic state from one bracketed run of the monotone iteration."""

    x_star: np.ndarray
    iterations: int
    residual: float
    bracket: str
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class SirAsymptoticResult:
    """Asymptotic (s, r) of the network SIR model from the H-map iteration."""

    s_inf: np.ndarray
    r_inf: np.ndarray
    iterations: int
    residual: float
    start: str
    warnings: tuple[str, ...] = ()


def _iterate(f, y0, tol, direction):
    """Run y <- f(y) until successive iterates agree within tol (sup norm).

    direction +1/-1 asserts entrywise non-decreasing/non-increasing steps.
    Returns (fixed_point, applications, residual) where residual is the
    verified sup-norm of f(fixed_point) - fixed_point; raises
    NonConvergenceError after DEFAULT_MAX_ITER applications.
    """
    y = np.asarray(y0, dtype=float)
    for it in range(1, DEFAULT_MAX_ITER + 1):
        y_next = f(y)
        if direction > 0 and np.any(y_next < y - MONOTONE_SLACK):
            raise InvariantViolationError("iterates failed to be non-decreasing")
        if direction < 0 and np.any(y_next > y + MONOTONE_SLACK):
            raise InvariantViolationError("iterates failed to be non-increasing")
        diff = float(np.abs(y_next - y).max())
        if diff <= tol:
            residual = float(np.abs(f(y_next) - y_next).max())
            if residual <= tol:
                return y_next, it, residual
        y = y_next
    raise NonConvergenceError(
        f"fixed-point iteration did not reach tol={tol} in {DEFAULT_MAX_ITER} iterations"
    )


# --- SIS endemic state ------------------------------------------------------


def sis_fixed_point_map(g: Graph, beta: float, gamma: float):
    """The map y -> F_+((beta/gamma) A y) with f_+(z) = z / (1 + z) entrywise.

    Its fixed points in [0, 1]^n are exactly the SIS equilibria.
    """
    scaled = g.with_weights((beta / gamma) * g.weights)

    def f(y):
        z = scaled.matvec(y)
        return z / (1.0 + z)

    return f


def sis_bracket_start(u_max: np.ndarray, r0: float, bracket: str) -> np.ndarray:
    """Canonical start vector for the endemic iteration given R0 > 1."""
    scale = 1.0 - 1.0 / r0
    if bracket == "lower":
        return scale * u_max / u_max.max()
    if bracket == "upper":
        return scale * u_max / u_max.min()
    raise ValueError(f"bracket must be 'lower' or 'upper', got {bracket!r}")


def sis_endemic(
    g: Graph,
    beta: float,
    gamma: float,
    tol: float = DEFAULT_TOL,
    bracket: str = "lower",
) -> EndemicResult:
    """Endemic state of the network SIS model above threshold.

    Iterates y -> F_+((beta/gamma) A y) from the canonical bracket start:
    'lower' produces a non-decreasing sequence, 'upper' a non-increasing one,
    both converging to the unique strictly positive equilibrium. These are
    the only starts for which monotone convergence is guaranteed. Stops once
    successive iterates and the residual are within tol (default
    DEFAULT_TOL); raises NonConvergenceError after DEFAULT_MAX_ITER steps.
    """
    trip = dominant_eig(g)
    r0 = beta * trip.lambda_max / gamma
    if r0 <= 1.0:
        raise BelowThresholdError(
            f"R0 = beta*lambda_max/gamma = {r0:.6g} <= 1: no endemic state exists"
        )
    delta = r0 - 1.0
    warnings = ()
    if delta < NEAR_THRESHOLD_DELTA:
        warnings = (
            f"near threshold (delta = {delta:.3g}): convergence may be slow",
        )

    y0 = sis_bracket_start(trip.u_max, r0, bracket)
    direction = +1 if bracket == "lower" else -1
    f = sis_fixed_point_map(g, beta, gamma)
    x_star, iterations, residual = _iterate(f, y0, tol, direction)
    return EndemicResult(
        x_star=x_star,
        iterations=iterations,
        residual=residual,
        bracket=bracket,
        warnings=warnings,
    )


def sis_endemic_expansion_threshold(g: Graph, beta: float, gamma: float) -> np.ndarray:
    """First-order endemic state just above threshold: delta * a * u_max.

    The error of this expansion is O(delta^2) with delta = R0 - 1.
    """
    trip = dominant_eig(g)
    delta = beta * trip.lambda_max / gamma - 1.0
    if delta < 0:
        raise BelowThresholdError(f"R0 = {delta + 1.0:.6g} < 1: expansion does not apply")
    u, v = trip.u_max, trip.v_max
    a = float(v @ u) / float(v @ (u * u))
    return delta * a * u


def sis_endemic_expansion_high_rate(g: Graph, beta: float, gamma: float) -> np.ndarray:
    """Endemic state in the high-infection-rate limit: 1 - (gamma/beta)/d.

    Error is O((gamma/beta)^2) at fixed graph; exact on regular graphs.
    """
    d = degree_vector(g)
    if np.any(d <= 0):
        raise ValueError("every node needs positive out-strength (row sum)")
    return 1.0 - (gamma / beta) / d


# --- SIR asymptotic state ---------------------------------------------------


def sir_fixed_point_map(g: Graph, beta: float, gamma: float, s0, r0):
    """The map H(y)_i = s_i(0) exp((beta/gamma) sum_j a_ij (y_j - 1 + r_j(0))).

    Its unique fixed point in [0, 1 - r0] is the limit s(inf) of the network
    SIR model started at (s0, x0, r0).
    """
    s0 = np.asarray(s0, dtype=float)
    r0 = np.asarray(r0, dtype=float)
    scaled = g.with_weights((beta / gamma) * g.weights)
    offset = scaled.matvec(r0 - 1.0)

    def h(y):
        return s0 * np.exp(scaled.matvec(y) + offset)

    return h


def sir_asymptotic(
    g: Graph,
    beta: float,
    gamma: float,
    s0,
    x0,
    r0,
    tol: float = DEFAULT_TOL,
    start: str = "zero",
) -> SirAsymptoticResult:
    """Asymptotic state of the network SIR model via the H-map iteration.

    start='zero' iterates from the zero vector (non-decreasing sequence),
    start='upper' from 1 - r0 (non-increasing); both converge to the same
    fixed point. Stops once successive iterates and the residual are within
    tol (default DEFAULT_TOL); raises NonConvergenceError after
    DEFAULT_MAX_ITER steps.
    """
    require_strongly_connected(g)
    s0 = np.asarray(s0, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    r0 = np.asarray(r0, dtype=float)
    # Written so that a NaN entry fails each test.
    if not (np.all(s0 >= 0) and np.all(x0 >= 0) and np.all(r0 >= 0)):
        raise ValueError("s0, x0, r0 must be nonnegative")
    if not np.any(x0 > 0):
        raise ValueError("x0 must have at least one infected node")
    if not np.abs(s0 + x0 + r0 - 1.0).max() <= 1e-9:
        raise ValueError("s0 + x0 + r0 must equal 1 at every node")

    if start == "zero":
        y0, direction = np.zeros_like(s0), +1
    elif start == "upper":
        y0, direction = 1.0 - r0, -1
    else:
        raise ValueError(f"start must be 'zero' or 'upper', got {start!r}")

    h = sir_fixed_point_map(g, beta, gamma, s0, r0)
    s_inf, iterations, residual = _iterate(h, y0, tol, direction)
    return SirAsymptoticResult(
        s_inf=s_inf,
        r_inf=1.0 - s_inf,
        iterations=iterations,
        residual=residual,
        start=start,
        warnings=(),
    )
