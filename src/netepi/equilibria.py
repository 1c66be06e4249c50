"""Fixed-point computation of the SIS endemic state and the SIR final state.

Both states are fixed points of a monotone map f on a box [0, hi]: the SIS
map y -> F_+((beta/gamma) A y) on [0, 1] and the SIR H-map on [0, 1 - r0].
One solver serves both. Newton's method solves y = f(y); each step solves
(I - diag(c) A) d = y - f(y), where diag(c) A is the Jacobian of f, by a
matrix-free restarted GMRES. The start is fixed by the model: SIS starts
above the endemic state, where the concave map keeps the Newton iterates
from falling to the disease-free state 0, and SIR starts from 0, below its
fixed point, where the convex H-map keeps them inside the box.

The solver stops on a certificate, not on a step size. Around the Newton
iterate y it builds the box l = max(y - eps w, 0), u = min(y + eps w, hi)
with w = (I - diag(c) A)^{-1} 1, doubling eps until f(l) >= l and
f(u) <= u hold entrywise. A monotone f then maps [l, u] into itself, so the
box holds a fixed point, and it is the one sought: the H-map has only one
in [0, 1 - r0], and for SIS l > 0 is required as well, which leaves out the
disease-free state. A result reports one end of the box, l (a certified
under-estimate) or u (an over-estimate), and its width max(u - l) <= tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import BelowThresholdError, InputError, NonConvergenceError, require_positive
from .graph import Graph, degree_vector, require_strongly_connected
from .spectral import dominant_eig

if TYPE_CHECKING:
    from .dynamics import EpidemicState

DEFAULT_TOL = 1e-10
MAX_NEWTON_STEPS = 50
GMRES_RESTART = 50  # Krylov vectors per GMRES cycle
GMRES_CYCLES = 20  # restarts before GMRES returns its best iterate
# Relative GMRES residual for w = J^{-1} 1: J w is then within
# W_RTOL sqrt(n) of 1 entrywise, positive for n < 1e6, so w stays positive
# where J^{-1} >= 0, as it is near the fixed point.
W_RTOL = 1e-3


@dataclass(frozen=True)
class EndemicResult:
    """SIS endemic state: one end of a certified enclosure of width <= tol."""

    x_star: np.ndarray
    iterations: int  # Newton steps
    residual: float  # max |F(x_star) - x_star|
    width: float  # max(u - l) of the enclosure l <= x* <= u
    bracket: str  # 'lower': x_star = l, 'upper': x_star = u


@dataclass(frozen=True)
class SirAsymptoticResult:
    """Asymptotic (s, r) of the network SIR model: one end of a certified enclosure."""

    s_inf: np.ndarray
    r_inf: np.ndarray
    iterations: int  # Newton steps
    residual: float  # max |H(s_inf) - s_inf|
    width: float  # max(u - l) of the enclosure l <= s(inf) <= u
    start: str  # 'zero': s_inf = l, 'upper': s_inf = u


def _gmres(apply, b, rtol):
    """Solve apply(x) = b from x = 0 by restarted GMRES with Givens rotations.

    Each cycle builds at most GMRES_RESTART orthonormal Krylov vectors
    (Gram-Schmidt, applied twice) and stops once the residual estimate is at
    most rtol ||b||_2. Returns the last iterate, also when GMRES_CYCLES
    cycles do not reach rtol: an inexact Newton step is still a step, and
    the certificate decides whether the result holds.
    """
    n = b.shape[0]
    m = min(GMRES_RESTART, n)
    x = np.zeros(n)
    r = b
    target = rtol * np.linalg.norm(b)
    for _ in range(GMRES_CYCLES):
        norm_r = np.linalg.norm(r)
        if not norm_r > target:
            break
        basis = np.empty((m + 1, n))
        basis[0] = r / norm_r
        tri = np.zeros((m, m))  # the rotated Hessenberg matrix, upper triangular
        cos, sin = [], []
        rhs = [norm_r]  # rotated right-hand side; |rhs[-1]| is the residual norm
        for k in range(m):
            v = apply(basis[k])
            h = basis[: k + 1] @ v
            v = v - h @ basis[: k + 1]
            h2 = basis[: k + 1] @ v
            v = v - h2 @ basis[: k + 1]
            col = (h + h2).tolist()
            below = float(np.linalg.norm(v))
            for j in range(k):
                col[j], col[j + 1] = (
                    cos[j] * col[j] + sin[j] * col[j + 1],
                    cos[j] * col[j + 1] - sin[j] * col[j],
                )
            diag = math.hypot(col[k], below)
            cos.append(col[k] / diag)
            sin.append(below / diag)
            col[k] = diag
            tri[: k + 1, k] = col
            rhs.append(-sin[k] * rhs[k])
            rhs[k] *= cos[k]
            if abs(rhs[k + 1]) <= target or below == 0.0:
                break
            basis[k + 1] = v / below
        x = x + np.linalg.solve(tri[: k + 1, : k + 1], rhs[: k + 1]) @ basis[: k + 1]
        r = b - apply(x)
    return x


def _enclosure(f, jac, y, r_norm, hi, tol, positive):
    """Bounds (l, u) with l <= x* <= u and max(u - l) <= tol, or None.

    l = max(y - eps w, 0) and u = min(y + eps w, hi) for w = jac^{-1} 1,
    which is positive near the fixed point; eps doubles from
    2 ||y - f(y)|| / min w until f(l) >= l and f(u) <= u, and l > 0 if
    `positive`. None once the box is wider than tol or fills [0, hi].
    """
    w = _gmres(jac, np.ones_like(y), W_RTOL)
    w_min = w.min()
    if not w_min > 0:
        return None
    floor = np.finfo(float).eps * np.abs(y).max()
    eps = 2.0 * max(r_norm, floor) / w_min
    while eps * w_min <= np.max(hi):
        lower = np.maximum(y - eps * w, 0.0)
        upper = np.minimum(y + eps * w, hi)
        if not (upper - lower).max() <= tol or (positive and not lower.min() > 0):
            return None
        if np.all(f(lower) >= lower) and np.all(f(upper) <= upper):
            return lower, upper
        eps *= 2.0
    return None


def _certified_fixed_point(f, slope, g, y, hi, tol, upper, positive=False):
    """Fixed point of the monotone map f on [0, hi], certified to width tol.

    The Jacobian of f at y is diag(slope(f(y))) A, with A the adjacency of
    g. Newton steps run from y. An iterate is offered to _enclosure once the
    next step, estimated as ||y - f(y)|| times the last step's ratio
    ||d|| / ||y - f(y)||, is at most tol. Returns (x, steps, max|f(x) - x|,
    max(u - l)), x = u if `upper` else l; raises NonConvergenceError if
    MAX_NEWTON_STEPS steps certify none, as when tol is too small for doubles.
    """
    product = g.block_product(1)
    gain = None  # ||d|| / ||y - f(y)|| of the last step
    for steps in range(MAX_NEWTON_STEPS + 1):
        fy = f(y)
        c = slope(fy)
        r = y - fy
        r_norm = np.abs(r).max()

        def jac(v):
            return v - c * product(v)

        if gain is not None and r_norm * gain <= tol:
            bounds = _enclosure(f, jac, y, r_norm, hi, tol, positive)
            if bounds is not None:
                lo, up = bounds
                x = up if upper else lo
                return x, steps, float(np.abs(f(x) - x).max()), float((up - lo).max())
        if steps == MAX_NEWTON_STEPS:
            break
        # Forcing term ||r||, for inexact steps that still converge quadratically;
        # floored where the residual of J d would be roundoff.
        d = _gmres(jac, r, min(0.1, max(r_norm, 1e-12)))
        y = np.clip(y - d, 0.0, hi)
        gain = np.abs(d).max() / r_norm if r_norm > 0 else 0.0
    raise NonConvergenceError(
        f"Newton-GMRES certified no enclosure of width <= {tol} "
        f"in {MAX_NEWTON_STEPS} steps"
    )


# --- SIS endemic state ------------------------------------------------------


def sis_fixed_point_map(g: Graph, beta: float, gamma: float):
    """The map y -> F_+((beta/gamma) A y) with f_+(z) = z / (1 + z) entrywise.

    Its fixed points in [0, 1]^n are exactly the SIS equilibria.
    """
    require_positive(beta, "beta")
    require_positive(gamma, "gamma")
    product = g.block_product(1, beta / gamma)

    def f(y):
        z = product(y)
        return z / (1.0 + z)

    return f


def sis_endemic(
    g: Graph,
    beta: float,
    gamma: float,
    tol: float = DEFAULT_TOL,
    bracket: str = "lower",
) -> EndemicResult:
    """Endemic state of the network SIS model above threshold.

    Newton-GMRES on y = F_+((beta/gamma) A y) from min((1 - 1/R0) u_max /
    min(u_max), 1), above x* <= 1, stopped on a certified enclosure
    l <= x* <= u with l > 0 and max(u - l) <= tol (default DEFAULT_TOL).
    bracket='lower' returns l, 'upper' returns u. Raises InputError unless
    tol is positive and finite, BelowThresholdError if R0 <= 1 and
    NonConvergenceError if no enclosure is certified.
    """
    f = sis_fixed_point_map(g, beta, gamma)
    require_positive(tol, "tol")
    if bracket not in ("lower", "upper"):
        raise InputError(f"bracket must be 'lower' or 'upper', got {bracket!r}")
    trip = dominant_eig(g)
    r0 = beta * trip.lambda_max / gamma
    if r0 <= 1.0:
        raise BelowThresholdError(
            f"R0 = beta*lambda_max/gamma = {r0:.6g} <= 1: no endemic state exists"
        )

    k = beta / gamma
    y0 = np.minimum((1.0 - 1.0 / r0) * trip.u_max / trip.u_max.min(), 1.0)
    # The slope: f_+'(z) = 1/(1+z)^2 = (1 - f_+(z))^2.
    x_star, steps, residual, width = _certified_fixed_point(
        f, lambda fy: k * (1.0 - fy) ** 2, g, y0, 1.0, tol, upper=bracket == "upper", positive=True
    )
    return EndemicResult(
        x_star=x_star,
        iterations=steps,
        residual=residual,
        width=width,
        bracket=bracket,
    )


def sis_endemic_expansion_threshold(g: Graph, beta: float, gamma: float) -> np.ndarray:
    """First-order endemic state just above threshold: delta * a * u_max.

    The error of this expansion is O(delta^2) with delta = R0 - 1.
    """
    require_positive(beta, "beta")
    require_positive(gamma, "gamma")
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
    require_positive(beta, "beta")
    require_positive(gamma, "gamma")
    d = degree_vector(g)
    if np.any(d <= 0):
        raise InputError("every node needs positive out-strength (row sum)")
    return 1.0 - (gamma / beta) / d


# --- SIR asymptotic state ---------------------------------------------------


def sir_asymptotic(
    g: Graph,
    beta: float,
    gamma: float,
    state0: EpidemicState,
    tol: float = DEFAULT_TOL,
    start: str = "zero",
) -> SirAsymptoticResult:
    """Asymptotic state of the network SIR model from state0: the fixed point of the H-map.

    Newton-GMRES from 0, stopped on a certified enclosure l <= s(inf) <= u
    in [0, 1 - r0] with max(u - l) <= tol (default DEFAULT_TOL).
    start='zero' returns l, 'upper' returns u. Raises InputError unless tol
    is positive and finite, and NonConvergenceError if no enclosure is
    certified.
    """
    from .dynamics import sir_fixed_point_map  # here, so that endemic loads no dynamics code

    h = sir_fixed_point_map(g, beta, gamma, state0)
    require_positive(tol, "tol")
    require_strongly_connected(g)
    # EpidemicState admits s down to -STATE_TOL; the box [0, 1 - r0] needs s0 >= 0.
    if not np.all(state0.s >= 0):
        raise InputError("s0 must be nonnegative")
    if not np.any(state0.x > 0):
        raise InputError("x0 must have at least one infected node")
    if start not in ("zero", "upper"):
        raise InputError(f"start must be 'zero' or 'upper', got {start!r}")

    k = beta / gamma
    s_inf, steps, residual, width = _certified_fixed_point(
        h, lambda hy: k * hy, g, np.zeros(g.n), 1.0 - state0.r, tol, upper=start == "upper"
    )
    return SirAsymptoticResult(
        s_inf=s_inf,
        r_inf=1.0 - s_inf,
        iterations=steps,
        residual=residual,
        width=width,
        start=start,
    )
