"""Network SI/SIS/SIR vector fields and fixed-step trajectory integration.

States live in the per-node box [0, 1]^n with s + x + r = 1 at every node
(r identically zero for SI and SIS). The integrator is classic fourth-order
Runge-Kutta with a fixed step: the systems are smooth and non-stiff at the
scales this package targets, and a fixed step keeps invariant monitoring
deterministic. Roundoff-sized excursions from the box are clamped; anything
larger than EXCURSION_TOL is treated as an integration failure, not noise.
Several parameter sets integrate together as the rows of one state block,
so a recovery-rate sweep pays for one sparse product per RK4 stage (SIR as
a (3, B, n) block of s, x and r planes). A step reuses preallocated buffers
and evaluates fields reassociated around the product with beta folded in.
Every CSV of the package, trajectories and series alike, goes through one
row writer, write_csv, which formats and writes one row at a time.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantViolationError
from .graph import Graph
from .scalar import ModelKind
from .spectral import dominant_eig

EXCURSION_TOL = 1e-9
STATE_TOL = 1e-9
STATIONARY_TOL = 1e-10
MAX_STEPS = 10**9
# t_end / dt may differ from a whole number by this share of it: the rounding
# of decimal inputs and of the division, not a shortened or lengthened run.
STEP_COUNT_RTOL = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Model kind plus rates; gamma is absent for SI and required otherwise."""

    kind: ModelKind
    beta: float
    gamma: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        if self.beta <= 0:
            raise InputError("beta must be positive")
        if self.kind is ModelKind.SI:
            if self.gamma is not None:
                raise InputError("SI has no recovery rate")
        else:
            if self.gamma is None or self.gamma <= 0:
                raise InputError(f"{self.kind.value} requires gamma > 0")


@dataclass(frozen=True)
class EpidemicState:
    """Per-node susceptible/infected/recovered fractions."""

    s: np.ndarray
    x: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        s, x, r = (np.asarray(v, dtype=float) for v in (self.s, self.x, self.r))
        n = s.shape[0]
        if s.shape != (n,) or x.shape != (n,) or r.shape != (n,):
            raise InputError("s, x, r must be equal-length vectors")
        # Written so that a NaN entry fails each test.
        for name, v in (("s", s), ("x", x), ("r", r)):
            if not np.all((v >= -STATE_TOL) & (v <= 1 + STATE_TOL)):
                raise InputError(f"{name} has entries outside [0, 1]")
        if not np.abs(s + x + r - 1.0).max() <= STATE_TOL:
            raise InputError("s + x + r must equal 1 at every node")
        for v in (s, x, r):
            v.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "r", r)

    @property
    def n(self) -> int:
        return self.s.shape[0]


def initial_state(kind: ModelKind, x0, r0=None) -> EpidemicState:
    """Build a consistent starting state from infected (and recovered) fractions."""
    kind = ModelKind(kind)
    x0 = np.asarray(x0, dtype=float)
    if kind is ModelKind.SIR:
        r0 = np.zeros_like(x0) if r0 is None else np.asarray(r0, dtype=float)
    else:
        if r0 is not None and np.any(np.asarray(r0) != 0):
            raise InputError(f"{kind.value} has no recovered compartment")
        r0 = np.zeros_like(x0)
    return EpidemicState(s=1.0 - x0 - r0, x=x0, r=r0)


@dataclass(frozen=True)
class Trajectory:
    """Recorded times and states of one integration run."""

    times: np.ndarray
    s: np.ndarray  # shape (len(times), n)
    x: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        for arr in (self.times, self.s, self.x, self.r):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def n(self) -> int:
        return self.s.shape[1]


def rhs(state: EpidemicState, params: ModelParams, g: Graph):
    """Time derivatives (ds, dx, dr) of the network model at a state."""
    y = _pack(params.kind, state, 1)
    dy = np.empty_like(y)
    _field(params.kind, params.beta, [params.gamma or 0.0], g, 1)(y, dy)
    if params.kind is ModelKind.SIR:
        return dy[0, 0], dy[1, 0], dy[2, 0]
    return -dy[0], dy[0], np.zeros_like(dy[0])


def _pack(kind: ModelKind, state: EpidemicState, b: int) -> np.ndarray:
    """A new block of b copies of a state: (b, n) of x for SI/SIS, (3, b, n) of s, x, r for SIR."""
    if kind is ModelKind.SIR:
        return np.array((state.s, state.x, state.r))[:, None].repeat(b, axis=1)
    return state.x[None].repeat(b, axis=0)


def _field(kind: ModelKind, beta: float, gamma: Sequence[float], g: Graph, b: int):
    """Vector field f(y, out) on a working block of b runs (see _pack), written into out.

    out must not overlap y. Row j recovers at gamma[j]. SI is SIS at
    gamma = 0: P + 0.0 is P bit for bit, since bincount never returns -0.0.
    The pressure P = beta A x comes from one product bound with beta in its
    weights, and each field is reassociated around it to save operations:
    SIS is P - x (P + gamma), and SIR is ds = -s P, dr = gamma x,
    dx = s P - gamma x.
    """
    pressure = g.block_product(b, beta)
    # One rate per entry: same-shape operands take numpy's fast loops.
    gamma = np.array(gamma, dtype=float).repeat(g.n).reshape(b, g.n)
    if kind is ModelKind.SIR:
        def f(y, out):
            x, ds, dr = y[1], out[0], out[2]
            np.multiply(y[0], pressure(x), ds)
            np.multiply(gamma, x, dr)
            np.subtract(ds, dr, out[1])
            np.negative(ds, ds)
    else:
        def f(x, out):
            p = pressure(x)
            np.add(p, gamma, out)
            np.multiply(x, out, out)
            np.subtract(p, out, out)

    return f


def default_step(params: ModelParams) -> float:
    rates = [params.beta] + ([params.gamma] if params.gamma is not None else [])
    return 1e-3 / max(rates)


def step_count(t_end: float, dt: float, names=("t_end", "dt")) -> int:
    """Steps dt in t_end; InputError unless whole within STEP_COUNT_RTOL and at most MAX_STEPS.

    The messages call t_end and dt by names, such as the flags that gave them.
    """
    t, d = names
    if dt <= 0:
        raise InputError(f"{d} must be positive")
    if t_end < dt:
        raise InputError(f"{t} must be at least {d}")
    steps = t_end / dt
    if not steps <= MAX_STEPS:
        raise InputError(f"{t} / {d} = {steps:.3g} steps exceeds the limit of {MAX_STEPS}")
    n_steps = round(steps)
    if abs(steps - n_steps) > STEP_COUNT_RTOL * n_steps:
        raise InputError(f"{t} = {t_end:g} is not a whole number of steps {d} = {dt:g}")
    return n_steps


def integrate(
    state0: EpidemicState,
    params: ModelParams | Sequence[ModelParams],
    g: Graph,
    t_end: float,
    dt: float | None = None,
    record_every: int = 1,
    stop_when_stationary: bool = False,
) -> Trajectory | list[Trajectory]:
    """Integrate the network model with fixed-step RK4.

    One ModelParams gives one Trajectory. A sequence of B parameter sets
    sharing kind, beta and step size gives a list of B trajectories, in
    order, all started from state0: they are integrated together as the
    rows of one working block (see _pack), so each RK4 stage costs one
    sparse product, and row j is bit-identical to integrating params[j] on
    its own. SI runs as SIS at gamma = 0 (see _field). The RK4 stages reuse
    buffers allocated once per run, the state is updated in place, and
    recording copies it into a block of records sized from n_steps and
    record_every, shrunk on a stationary stop.

    Records the initial state, every record_every-th step, and the final
    state. With stop_when_stationary the run ends early once the sup-norm of
    the right-hand side over the block drops below STATIONARY_TOL (the
    standard surrogate for the t -> infinity limits).

    Raises InputError unless t_end is a whole number of steps dt (see
    step_count). Raises InvariantViolationError if a step leaves [0, 1]^n
    by more than EXCURSION_TOL (meaning dt is too large) or produces NaN,
    in any row.
    """
    batch = [params] if isinstance(params, ModelParams) else list(params)
    if not batch:
        raise InputError("need at least one parameter set")
    kind, beta = batch[0].kind, batch[0].beta
    if any(p.kind is not kind or p.beta != beta for p in batch):
        raise InputError("batched runs must share model kind and beta")
    if dt is None:
        steps = {default_step(p) for p in batch}
        if len(steps) > 1:
            raise InputError("batched runs must share one step size; pass dt")
        dt = steps.pop()
    n_steps = step_count(t_end, dt)
    if record_every < 1:
        raise InputError("record_every must be >= 1")

    if state0.n != g.n:
        raise InputError("state and graph dimensions differ")
    f = _field(kind, beta, [p.gamma or 0.0 for p in batch], g, len(batch))
    y = _pack(kind, state0, len(batch))
    k1, k2, k3, k4, stage = (np.empty_like(y) for _ in range(5))
    stages = ((0.5 * dt, k1, k2), (0.5 * dt, k2, k3), (dt, k3, k4))  # stage = y + c k_in -> k_out

    # Rows for t = 0, every record_every-th step and the last step.
    rows = 1 + -(-n_steps // record_every)
    times = np.empty(rows)
    records = np.empty((rows, *y.shape))
    times[0], records[0] = 0.0, y
    count = 1

    for k in range(1, n_steps + 1):
        f(y, k1)
        if stop_when_stationary and np.abs(k1).max() < STATIONARY_TOL:
            # y is the state after step k - 1; record it unless that
            # instant is already recorded.
            if times[count - 1] != (k - 1) * dt:
                times[count], records[count] = (k - 1) * dt, y
                count += 1
            # Shrink the block to the rows written, in place, with no copy.
            records.resize((count, *y.shape), refcheck=False)
            times = times[:count]
            break
        for c, k_in, k_out in stages:
            np.multiply(k_in, c, stage)
            np.add(y, stage, stage)
            f(stage, k_out)
        # y += dt/6 (k1 + 2 (k2 + k3) + k4)
        np.add(k2, k3, k2)
        np.add(k2, k2, k2)
        np.add(k1, k4, k1)
        np.add(k1, k2, k1)
        np.multiply(k1, dt / 6.0, k1)
        np.add(y, k1, y)

        # Inside the box clip is a no-op; a NaN fails both comparisons.
        lo, hi = y.min(), y.max()
        if not (lo >= 0.0 and hi <= 1.0):
            if np.any(np.isnan(y)):
                raise InvariantViolationError(f"NaN in state at t = {k * dt:.6g}")
            excursion = max(hi - 1.0, -lo, 0.0)
            if excursion >= EXCURSION_TOL:
                raise InvariantViolationError(
                    f"state left [0, 1] by {excursion:.3g} at t = {k * dt:.6g}; reduce dt"
                )
            np.clip(y, 0.0, 1.0, out=y)

        if k % record_every == 0 or k == n_steps:
            times[count], records[count] = k * dt, y
            count += 1

    trajectories = _build_trajectories(kind, times, records)
    return trajectories[0] if isinstance(params, ModelParams) else trajectories


def _build_trajectories(kind: ModelKind, times, block) -> list[Trajectory]:
    # block is (rows, B, n), or (rows, 3, B, n) for SIR
    if kind is ModelKind.SIR:
        s, x, r = block.transpose(1, 2, 0, 3)  # each (B, rows, n)
        return [Trajectory(times, *run) for run in zip(s, x, r)]
    return [Trajectory(times, 1.0 - x, x, np.zeros_like(x)) for x in block.transpose(1, 0, 2)]


def initial_growth_approx(g: Graph, params: ModelParams, x0, t: float) -> np.ndarray:
    """Dominant-eigenvector approximation of the early outbreak profile.

    For a small initial infection the linearized dynamics give
    x(t) ~ e^{rate t} (v'x0 / v'u) u, with rate beta*lambda_max for SI and
    beta*lambda_max - gamma for SIS/SIR (near the disease-free state).
    """
    x0 = np.asarray(x0, dtype=float)
    trip = dominant_eig(g)
    rate = params.beta * trip.lambda_max
    if params.kind is not ModelKind.SI:
        rate -= params.gamma
    coef = float(trip.v_max @ x0) / float(trip.v_max @ trip.u_max)
    return np.exp(rate * t) * coef * trip.u_max


def late_time_decay_rates(traj: Trajectory, window: tuple[float, float]) -> np.ndarray:
    """Per-node decay slopes of log s_i(t) over a late-time window of an SI run.

    Near full contagion each susceptible fraction decays like
    s_i(t) ~ eps_i e^{-beta d_i (t - T)}, so the returned slopes approximate
    -beta * d_i with d the degree vector.
    """
    if traj.x[-1].min() <= 1.0 - 1e-2:
        raise InputError("trajectory has not reached near full contagion")
    t_lo, t_hi = window
    if t_lo < traj.times[0] or t_hi > traj.times[-1] or t_lo >= t_hi:
        raise InputError("window outside trajectory")
    mask = (traj.times >= t_lo) & (traj.times <= t_hi)
    if mask.sum() < 2:
        raise InputError("window contains fewer than two samples")
    sw = traj.s[mask]
    if np.any(sw <= 0):
        raise InputError("susceptible fraction hit zero inside the window")
    coeffs = np.polyfit(traj.times[mask], np.log(sw), 1)
    return coeffs[0]


# --- CSV output ---------------------------------------------------------------


def write_csv(fp, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write a header line, then each row of the columns, 17 significant digits a value.

    A column is an array of one value per row, or a 2-D array of several.
    Rows are formatted and written one at a time: no copy of the whole
    table and no string of the whole file is made.
    """
    blocks = [np.reshape(c, (len(c), -1)) for c in columns]
    fp.write(",".join(header) + "\n")
    # '%.17g' % v formats a float exactly as f"{v:.17g}" does.
    template = ",".join(["%.17g"] * len(header)) + "\n"
    for k in range(len(blocks[0])):
        fp.write(template % tuple(np.concatenate([b[k] for b in blocks]).tolist()))


def write_trajectory_csv(traj: Trajectory, fp) -> None:
    """Write the trajectory as CSV: columns t, s_1..s_n, x_1..x_n, r_1..r_n."""
    header = ["t", *(f"{c}_{i}" for c in "sxr" for i in range(1, traj.n + 1))]
    write_csv(fp, header, (traj.times, traj.s, traj.x, traj.r))


def read_trajectory_csv(fp) -> Trajectory:
    """Read a trajectory written by write_trajectory_csv.

    Raises InputError unless the file holds at least one row, every value
    is finite, the times increase strictly and every row is a state:
    entries in [0, 1] (integrate writes no other) and s + x + r within
    STATE_TOL of 1 at each node. The message names the first bad row.
    """
    try:
        header = fp.readline()  # UnicodeDecodeError is a ValueError
        with warnings.catch_warnings():
            # An empty body is reported below as an InputError, not a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(fp, delimiter=",", ndmin=2)
    except ValueError as e:
        raise InputError(f"not a trajectory CSV: {e}") from e
    cols = header.strip().split(",")
    if not cols or cols[0] != "t" or (len(cols) - 1) % 3 != 0:
        raise InputError("not a trajectory CSV: bad header")
    n = (len(cols) - 1) // 3
    if data.size == 0:
        raise InputError("trajectory CSV has a header but no rows")
    if data.shape[1] != 1 + 3 * n:
        raise InputError("trajectory CSV rows do not match the header")
    if not np.all(np.isfinite(data)):
        raise InputError("trajectory CSV holds a non-finite value")
    times = data[:, 0]
    if len(times) > 1 and np.any(np.diff(times) <= 0):
        raise InputError("trajectory times must be strictly increasing")
    s, x, r = data[:, 1 : n + 1], data[:, n + 1 : 2 * n + 1], data[:, 2 * n + 1 :]
    for bad, what in (
        (np.any((data[:, 1:] < 0) | (data[:, 1:] > 1), axis=1), "an entry outside [0, 1]"),
        (np.any(np.abs(s + x + r - 1.0) > STATE_TOL, axis=1), "s + x + r away from 1"),
    ):
        if bad.any():
            k = int(np.argmax(bad))
            raise InputError(f"trajectory CSV row {k + 1} (t = {times[k]:g}) has {what}")
    return Trajectory(times=times, s=s, x=x, r=r)
