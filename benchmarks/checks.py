"""Checks on the files `netepi` writes, recomputed with numpy.

Each check takes the work dir and raises CheckFailed with a reason; the
runner counts a raised check as one failed operation.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LAMBDA_RTOL = 1e-9  # reported lambda_max against numpy.linalg.eigvals
CONSERVATION_TOL = 1e-9  # |s + x + r - 1| per node
RESIDUAL_FACTOR = 10  # recomputed fixed-point residual <= RESIDUAL_FACTOR * tol
# R(t) may rise between samples by no more than this share of its value: the
# power iteration behind each sample stops at a 1e-12 relative residual.
RT_RISE_RTOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise CheckFailed(f"{path.name}: {e}") from None


def _load_csv(path: Path) -> tuple[list[str], np.ndarray]:
    try:
        with open(path) as fp:
            header = fp.readline().strip().split(",")
            data = np.loadtxt(fp, delimiter=",", ndmin=2)
    except (OSError, ValueError) as e:
        raise CheckFailed(f"{path.name}: {e}") from None
    return header, data


def trajectory(name: str, n: int, rows: int, workdir: Path) -> None:
    """Row count, every s/x/r entry in [0, 1], and s + x + r = 1 per node."""
    header, data = _load_csv(workdir / name)
    _require(len(header) == 1 + 3 * n and header[0] == "t", f"{name}: bad header")
    _require(data.shape == (rows, 1 + 3 * n), f"{name}: shape {data.shape}, expected ({rows}, {1 + 3 * n})")
    states = data[:, 1:]
    _require(states.min() >= 0.0 and states.max() <= 1.0, f"{name}: state outside [0, 1]")
    total = states[:, :n] + states[:, n : 2 * n] + states[:, 2 * n :]
    drift = float(np.abs(total - 1.0).max())
    _require(drift <= CONSERVATION_TOL, f"{name}: |s+x+r-1| = {drift:.3g}")


def threshold_report(name: str, lambda_max: float, beta: float, gamma: float, workdir: Path) -> None:
    """lambda_max within LAMBDA_RTOL of the oracle; r0 = beta*lambda_max/gamma."""
    report = _load_json(workdir / name)
    lam = report.get("lambda_max")
    _require(isinstance(lam, float), f"{name}: no lambda_max")
    err = abs(lam - lambda_max) / lambda_max
    _require(err <= LAMBDA_RTOL, f"{name}: lambda_max off the oracle by {err:.3g} relative")
    r0 = beta * lambda_max / gamma
    _require(abs(report.get("r0", 0.0) - r0) <= LAMBDA_RTOL * r0, f"{name}: r0 {report.get('r0')} vs {r0}")


def r_series(name: str, report_name: str, rows: int, workdir: Path) -> None:
    """R(t) has one sample per trajectory row, is non-increasing, and the
    reported crossing time is the interpolated first drop below 1."""
    header, data = _load_csv(workdir / name)
    _require(header == ["t", "R_t"], f"{name}: bad header")
    _require(data.shape == (rows, 2), f"{name}: shape {data.shape}, expected ({rows}, 2)")
    t, r = data[:, 0], data[:, 1]
    rise = float(np.max(np.diff(r) / r[:-1], initial=0.0))
    _require(rise <= RT_RISE_RTOL, f"{name}: R(t) rises by {rise:.3g} relative")

    below = np.nonzero(r < 1.0)[0]
    if below.size == 0:
        expected = None
    elif below[0] == 0:
        expected = 0.0
    else:
        k = below[0]
        expected = t[k - 1] + (r[k - 1] - 1.0) / (r[k - 1] - r[k]) * (t[k] - t[k - 1])
    got = _load_json(workdir / report_name).get("crossing_time")
    same = got is None if expected is None else got is not None and abs(got - expected) <= 1e-9 * max(1.0, t[-1])
    _require(same, f"{report_name}: crossing_time {got}, R(t) series gives {expected}")


def endemic(name: str, a: np.ndarray, beta: float, gamma: float, tol: float, workdir: Path) -> None:
    """x_star is positive, in [0, 1], and |F(x*) - x*| <= RESIDUAL_FACTOR * tol."""
    x = np.asarray(_load_json(workdir / name).get("x_star"), dtype=float)
    _require(x.shape == (a.shape[0],), f"{name}: x_star has shape {x.shape}")
    _require(x.min() > 0.0 and x.max() <= 1.0, f"{name}: x_star outside (0, 1]")
    z = (beta / gamma) * (a @ x)
    residual = float(np.abs(z / (1.0 + z) - x).max())
    _require(residual <= RESIDUAL_FACTOR * tol, f"{name}: recomputed residual {residual:.3g}")


def asymptotic(name, a, beta, gamma, x0, tol, workdir: Path) -> None:
    """s_inf in [0, 1], r_inf = 1 - s_inf, and the H-map residual is small."""
    result = _load_json(workdir / name)
    s = np.asarray(result.get("s_inf"), dtype=float)
    r = np.asarray(result.get("r_inf"), dtype=float)
    n = a.shape[0]
    _require(s.shape == (n,) and r.shape == (n,), f"{name}: vectors of the wrong length")
    _require(s.min() >= 0.0 and s.max() <= 1.0, f"{name}: s_inf outside [0, 1]")
    _require(np.abs(s + r - 1.0).max() <= 1e-12, f"{name}: s_inf + r_inf != 1")
    h = (1.0 - x0) * np.exp((beta / gamma) * (a @ (s - 1.0)))  # r(0) = 0
    residual = float(np.abs(h - s).max())
    _require(residual <= RESIDUAL_FACTOR * tol, f"{name}: recomputed residual {residual:.3g}")
