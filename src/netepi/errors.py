"""The package's exception hierarchy, its one rate check and its one fraction check.

The CLI maps these onto distinct exit codes, so analysis code should raise
the most specific class that applies.
"""

import math

import numpy as np


class NetEpiError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NetEpiError, ValueError):
    """An argument outside the documented domain (the CLI exits 2 on it).

    Also a ValueError, so code that catches ValueError still catches it; a
    plain ValueError from inside the package is a bug, not bad input.
    """


def require_positive(value, name: str) -> float:
    """value as a float; InputError naming it unless it is positive and finite.

    Every public function that takes a rate beta or gamma checks it here,
    and the CLI checks its number flags here: NaN, inf, 0 and negatives all
    fail.
    """
    if value is None or not (math.isfinite(value) and value > 0):
        raise InputError(f"{name} must be positive and finite")
    return float(value)


def require_fraction(value, name: str, slack: float = 0.0) -> np.ndarray:
    """value as a float array; InputError naming it unless every entry lies in [0, 1].

    Entries may stray slack outside the interval; NaN fails.
    """
    v = np.asarray(value, dtype=float)
    if not np.all((v >= -slack) & (v <= 1 + slack)):
        raise InputError(f"{name} must lie in [0, 1]")
    return v


class GraphFormatError(NetEpiError):
    """Malformed graph input: bad edge line, bad weight, bad index, duplicate edge."""


class EmptyInputError(GraphFormatError):
    """Graph input contained no edges."""


class ReducibleMatrixError(NetEpiError):
    """The graph is not strongly connected / the matrix is reducible."""


class BelowThresholdError(NetEpiError):
    """An above-threshold precondition (reproduction number > 1) does not hold."""


class NonConvergenceError(NetEpiError):
    """An iterative method exhausted its iteration budget."""


class InvariantViolationError(NetEpiError):
    """An integrated state left its invariant set by more than roundoff allows."""
