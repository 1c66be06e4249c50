"""Closed forms of the scalar (well-mixed population) SI, SIS, and SIR models.

Closed forms only: the SI and SIS solutions, the SIR peak, and a bisection
solve for the SIR final size. On a symmetric graph from a symmetric state
every node of a network model follows them. The scalar fields are the
network ones on the one-node graph with a unit self-loop: dynamics.rhs,
with SIR's (ds, dx, dr) derived from u' through s = H(u).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BelowThresholdError, InputError, require_fraction, require_positive

RINF_BRACKET_WIDTH = 1e-12


def si_closed_form(x0: float, beta: float, t):
    """Infected fraction of the scalar SI model at time(s) t.

    Evaluates x0 e^{bt} / (1 - x0 + x0 e^{bt}) in the equivalent form
    x0 / ((1 - x0) e^{-bt} + x0) so large t cannot overflow.
    """
    require_positive(beta, "beta")
    require_fraction(x0, "x0")
    t = np.asarray(t, dtype=float)
    if x0 == 0.0:
        out = np.zeros_like(t)
    else:
        out = x0 / ((1.0 - x0) * np.exp(-beta * t) + x0)
    return float(out) if out.ndim == 0 else out


def sis_closed_form(x0: float, beta: float, gamma: float, t):
    """Infected fraction of the scalar SIS model at time(s) t.

    The beta == gamma case is the analytic limit x0 / (1 + beta x0 t); for
    beta != gamma the closed form is rearranged so the exponential always
    decays, whichever of the two rates is larger.
    """
    require_positive(beta, "beta")
    require_positive(gamma, "gamma")
    require_fraction(x0, "x0")
    t = np.asarray(t, dtype=float)
    if beta == gamma:
        out = x0 / (1.0 + beta * x0 * t)
    elif beta > gamma:
        decay = np.exp(-(beta - gamma) * t)
        out = (beta - gamma) * x0 / (beta * x0 - decay * (gamma - beta * (1.0 - x0)))
    else:
        decay = np.exp((beta - gamma) * t)  # beta < gamma: exponent negative
        out = (beta - gamma) * x0 * decay / (beta * x0 * decay - (gamma - beta * (1.0 - x0)))
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def sir_rinf(s0: float, r0: float, beta: float, gamma: float) -> float:
    """Final recovered fraction of the scalar SIR model.

    Solves 1 - r = s0 e^{-(beta/gamma)(r - r0)} for r in [r0, 1] by bisection
    down to a bracket of width RINF_BRACKET_WIDTH; the bracket always
    contains exactly one root under the preconditions.
    """
    require_positive(beta, "beta")
    require_positive(gamma, "gamma")
    if not (s0 > 0 and r0 >= 0 and s0 + r0 <= 1):
        raise InputError("need s0 > 0, r0 >= 0, s0 + r0 <= 1")
    x0 = 1.0 - s0 - r0
    if x0 == 0.0:
        return r0

    ratio = beta / gamma

    def g(r):
        return 1.0 - r - s0 * math.exp(-ratio * (r - r0))

    lo, hi = r0, 1.0  # g(lo) = x0 > 0, g(hi) = -s0 e^{...} < 0
    while hi - lo > RINF_BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sir_xmax(s0: float, x0: float, beta: float, gamma: float) -> float:
    """Peak infected fraction of an above-threshold scalar SIR epidemic.

    Only valid for beta s0 / gamma >= 1 (at equality the peak is at t = 0 and
    the formula collapses to x0).
    """
    require_positive(beta, "beta")
    require_positive(gamma, "gamma")
    if not (s0 > 0 and x0 > 0 and s0 + x0 <= 1):
        raise InputError("need s0 > 0, x0 > 0, s0 + x0 <= 1")
    rho = gamma / beta
    if s0 < rho:
        raise BelowThresholdError(
            f"beta*s0/gamma = {s0 / rho:.6g} < 1: infections only decay, no interior peak"
        )
    return x0 + s0 - rho * (math.log(s0) + 1.0 - math.log(rho))
