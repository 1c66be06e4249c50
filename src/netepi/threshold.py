"""Reproduction numbers, threshold classification, and crossing times.

The basic reproduction number of the network models is beta*lambda_max/gamma
with lambda_max the dominant eigenvalue of the adjacency matrix; along an
SIR trajectory the effective reproduction number R(t) uses the shrinking
matrix diag(s(t)) A instead and is non-increasing in time. lambda_max comes
with a certified width, |lambda_max - rho(A)| <= width, and R0 is classified
as below or above threshold only when beta*(lambda_max -/+ width)/gamma
leaves out 1; otherwise it is "critical": undecided at this precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .errors import InputError
from .graph import Graph
from .spectral import dominant_eig, spectral_radius


@dataclass(frozen=True)
class ThresholdReport:
    """R0 = beta*lambda_max/gamma and its side of the threshold.

    classification is "below" or "above" when the whole certified enclosure
    beta*(lambda_max +/- width)/gamma lies on that side of 1, and "critical"
    when it holds 1. crossing_time is the first time R(t) drops below 1, if
    a trajectory was given and it does. It interpolates the certified R(t)
    samples linearly, so a sample error of about spectral.DEFAULT_TOL
    relative moves it by that error over the slope of R(t). Near threshold,
    where R(t) falls by only about R0 - 1 before it crosses, that leaves
    about 9 of its 17 printed digits certified (1e-9 relative at R0 = 1.001).
    """

    r0: float
    classification: str  # below | above | critical
    lambda_max: float
    crossing_time: float | None = None


def reproduction_number(g: Graph, beta: float, gamma: float) -> ThresholdReport:
    """Basic reproduction number R0 = beta * lambda_max(A) / gamma, classified."""
    if not (beta > 0 and gamma > 0):
        raise InputError("rates must be positive")
    trip = dominant_eig(g)
    lam = trip.lambda_max
    if beta * (lam - trip.width) / gamma > 1.0:
        classification = "above"
    elif beta * (lam + trip.width) / gamma < 1.0:
        classification = "below"
    else:
        classification = "critical"
    return ThresholdReport(r0=beta * lam / gamma, classification=classification, lambda_max=lam)


def effective_r_series(
    traj: Trajectory, g: Graph, beta: float, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """R(t) = beta * lambda_max(diag(s(t)) A) / gamma at each recorded time.

    One call of spectral_radius on the whole series of states, which
    batches the samples and certifies each to spectral.DEFAULT_TOL relative.
    """
    return traj.times.copy(), beta * spectral_radius(g, traj.s) / gamma


def time_to_subthreshold(
    traj: Trajectory, g: Graph, beta: float, gamma: float
) -> float | None:
    """First time the trajectory's R(t) drops below 1 (see subthreshold_crossing).

    None if the whole recorded trajectory stays at or above threshold
    (extend t_end and rerun).
    """
    return subthreshold_crossing(*effective_r_series(traj, g, beta, gamma))


def subthreshold_crossing(times: np.ndarray, values: np.ndarray) -> float | None:
    """First time a sampled R(t) series drops below 1.

    Linearly interpolated between the samples bracketing the crossing; 0 if
    the series starts below 1; None if it never drops below 1.
    """
    below = np.nonzero(values < 1.0)[0]
    if below.size == 0:
        return None
    k = int(below[0])
    if k == 0:
        return 0.0
    r_prev, r_next = values[k - 1], values[k]
    frac = (r_prev - 1.0) / (r_prev - r_next)
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))

