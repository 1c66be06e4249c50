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

# Samples per block of the R(t) series: a block's product touches about
# BLOCK_ENTRIES edge entries. A wide block pays numpy's per-call overhead
# once for many samples, which is most of the cost at small n; at large n a
# block row costs as much as a single product, and the samples of a block
# all start from the same vector, which costs extra iterations. In-process
# series times on the benchmark inputs (seed 21; 2-core VM, numpy 2.4, one
# BLAS thread) for BLOCK_ENTRIES = 2048 / 8192 / 16384 / 32768 / unbounded:
#   n = 20,   101 samples:  10.3 / 6.3 / 5.0 / 4.7 / 4.9 ms
#   n = 500,   11 samples:  21.1 / 17.6 / 15.9 / 25.2 / 13.8 ms
#   n = 1000,  26 samples:  138 / 135 / 119 / 116 / 159 ms
# against 75, 22 and 142 ms for one power iteration per sample.
BLOCK_ENTRIES = 16384


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

    Consecutive samples that share a zero set of s share the components of
    their effective matrices, and so one SCC pass. Each such run is cut into
    blocks of max(1, BLOCK_ENTRIES // nnz) samples, and each block is one
    call of spectral_radius: one block power iteration in which every
    sample stops on its own certificate. Every sample of a block starts
    from the last eigenvector of the block before. Warm starts do not make
    a sample cheap: on the benchmark inputs a sample warm-started from the
    one before took 31 to 113 products, only 14-23% fewer than from a
    uniform start. A block saves the per-product overhead instead: the 101
    samples at n = 20 take 44 block products where one iteration per
    sample took 3,547 products.
    """
    width = max(1, BLOCK_ENTRIES // max(g.nnz, 1))
    live = traj.s > 0
    changes = np.flatnonzero(np.any(live[1:] != live[:-1], axis=1)) + 1
    edges = [0, *changes.tolist(), len(traj)]
    values = np.empty(len(traj))
    vec = None
    for first, end in zip(edges, edges[1:]):
        for lo in range(first, end, width):
            hi = min(lo + width, end)
            lam, vecs = spectral_radius(g, start=vec, s=traj.s[lo:hi])
            values[lo:hi] = beta * lam / gamma
            vec = vecs[-1]
    return traj.times.copy(), values


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


def write_r_series_csv(times: np.ndarray, values: np.ndarray, fp) -> None:
    fp.write("t,R_t\n")
    for t, v in zip(times, values):
        fp.write(f"{t:.17g},{v:.17g}\n")
