"""Network SI/SIS/SIR vector fields and fixed-step trajectory integration.

States live in the per-node box [0, 1]^n with s + x + r = 1 at every node
(r identically zero for SI and SIS). A run integrates x for SI and SIS, and
u = s + x = 1 - r for SIR, with s = H(u) (see sir_fixed_point_map), so that
s + x + r = 1 holds by construction. The integrator is classic fourth-order
Runge-Kutta with a fixed step: the systems are smooth and non-stiff at the
scales this package targets, and a fixed step keeps invariant monitoring
deterministic. Roundoff-sized excursions from the box are clamped; anything
larger than STATE_TOL is treated as an integration failure, not noise.
Several parameter sets integrate together at one step, by default the
fastest rate's (default_step), as the rows of one (B, n) block, so a
recovery-rate sweep pays for one sparse product per RK4 stage.
Every numeric CSV of the package, trajectories and series alike, goes
through one row writer, write_csv, which formats and writes one row at a
time; only `scalar --model SIR`'s quantity,value rows, which name each
value, are written by cli._cmd_scalar itself, with the same %.17g.
"""

from __future__ import annotations

import enum
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantViolationError, require_fraction, require_positive
from .graph import Graph

STATE_TOL = 1e-9
STATIONARY_TOL = 1e-10
MAX_STEPS = 10**9
# t_end / dt may differ from a whole number by this share of it: the rounding
# of decimal inputs and of the division, not a shortened or lengthened run.
STEP_COUNT_RTOL = 1e-12


class ModelKind(str, enum.Enum):
    SI = "SI"
    SIS = "SIS"
    SIR = "SIR"


@dataclass(frozen=True)
class ModelParams:
    """Model kind plus rates; gamma is absent for SI and required otherwise."""

    kind: ModelKind
    beta: float
    gamma: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        require_positive(self.beta, "beta")
        if self.kind is ModelKind.SI:
            if self.gamma is not None:
                raise InputError("SI has no recovery rate")
        else:
            require_positive(self.gamma, "gamma")


@dataclass(frozen=True)
class EpidemicState:
    """Per-node susceptible/infected/recovered fractions."""

    s: np.ndarray
    x: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        # Copies, frozen below, so the state never shares memory with the caller.
        s, x, r = (np.array(v, dtype=float) for v in (self.s, self.x, self.r))
        if s.ndim != 1 or x.shape != s.shape or r.shape != s.shape:
            raise InputError("s, x, r must be equal-length vectors")
        for name, v in (("s", s), ("x", x), ("r", r)):
            require_fraction(v, name, slack=STATE_TOL)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        if not np.abs(s + x + r - 1.0).max() <= STATE_TOL:
            raise InputError("s + x + r must equal 1 at every node")

    @property
    def n(self) -> int:
        return self.s.shape[0]


def initial_state(kind: ModelKind, x0, r0=None) -> EpidemicState:
    """Build a consistent starting state from infected (and recovered) fractions."""
    kind = ModelKind(kind)
    x0 = np.asarray(x0, dtype=float)
    if kind is not ModelKind.SIR and r0 is not None and np.any(np.asarray(r0) != 0):
        raise InputError(f"{kind.value} has no recovered compartment")
    r0 = np.zeros_like(x0) if r0 is None or kind is not ModelKind.SIR else np.asarray(r0, float)
    if r0.shape != x0.shape:
        raise InputError("x0 and r0 must be equal-length vectors")
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


def sir_fixed_point_map(g: Graph, beta: float, gamma, state0: EpidemicState):
    """The H-map H(u)_i = s0_i exp((beta/gamma) sum_j a_ij (u_j - 1 + r0_j)).

    The conserved s_i exp((beta/gamma) (A r)_i) of a network SIR run from
    state0 = (s0, x0, r0) gives s = H(u), u = s + x = 1 - r, so
    u' = gamma (H(u) - u); its limit s(inf) is the unique fixed point of H
    in [0, 1 - r0]. For B rates gamma, h(u, out=None) maps (B, n) blocks,
    row j bit for bit as the map of gamma[j] maps n-vectors.
    """
    require_positive(beta, "beta")
    for gv in np.ravel(gamma):
        require_positive(gv, "gamma")
    if state0.n != g.n:
        raise InputError("state and graph dimensions differ")
    scale = beta / np.asarray(gamma, dtype=float)
    product = g.block_product(scale.size, scale)
    offset = product(np.broadcast_to(state0.r - 1.0, (*scale.shape, g.n)))
    s0 = state0.s

    def h(u, out=None):
        z = np.add(product(u), offset, out)
        np.exp(z, z)
        return np.multiply(s0, z, z)

    return h


@np.errstate(over="ignore", invalid="ignore")  # an overflow or NaN reads as a large defect
def sir_defect(traj: Trajectory, g: Graph, beta: float, gamma: float) -> float:
    """D = max over the recorded rows of |s - H(1 - r)|, H the H-map of the first row.

    Each SIR row that integrate records has s = H(u), u = 1 - r, by
    construction, so D is roundoff on an SIR run at these rates, and large
    on an SI or SIS run or one read at other rates. An error indicator, not
    a bound: it tests the rows against the rates, not against the true
    solution.
    """
    h = sir_fixed_point_map(g, beta, gamma, EpidemicState(traj.s[0], traj.x[0], traj.r[0]))
    return float(np.max([np.abs(h(1.0 - r) - s).max() for s, r in zip(traj.s, traj.r)]))


def rhs(state: EpidemicState, params: ModelParams, g: Graph):
    """Time derivatives (ds, dx, dr) of the network model at a state.

    SIR takes u' = -gamma x from the field integrate solves, then the chain
    rule through s = H(u): ds = s (beta/gamma) A u', dx = u' - ds, dr = -u'.
    """
    y, f, _, _ = _model(params.kind, params.beta, [params.gamma or 0.0], g, state)
    du = f(y, np.empty_like(y))[0]
    if params.kind is ModelKind.SIR:
        ds = state.s * g.block_product(1, params.beta / params.gamma)(du)
        return ds, du - ds, -du
    return -du, du, np.zeros_like(du)


def _model(kind: ModelKind, beta: float, gamma: Sequence[float], g: Graph, state0: EpidemicState):
    """(y, f, limit, planes) of b = len(gamma) runs from state0, one (b, n) block.

    y holds b copies of x (SI, SIS) or u = 1 - r (SIR). f(y, out) writes the
    field into out, which must not overlap y, and returns it; row j recovers
    at gamma[j]. A field value above limit (if not None) means a derived
    x < -STATE_TOL. planes(records) turns recorded rows (rows, b, n),
    which it may overwrite, into s, x and r. SI is SIS at gamma = 0 (P + 0.0
    is P bit for bit: bincount never returns -0.0); SIS is P - x (P + gamma)
    with P = beta A x, SIR is gamma (H(u) - u), each one product a call.
    """
    if state0.n != g.n:
        raise InputError("state and graph dimensions differ")
    y = (1.0 - state0.r if kind is ModelKind.SIR else state0.x)[None].repeat(len(gamma), axis=0)
    # One rate per entry: same-shape operands take numpy's fast loops.
    rates = np.array(gamma, dtype=float).repeat(g.n).reshape(y.shape)
    if kind is ModelKind.SIR:
        h = sir_fixed_point_map(g, beta, gamma, state0)

        def f(u, out):
            h(u, out)
            np.subtract(out, u, out)
            return np.multiply(rates, out, out)

        def planes(u):
            s = np.array([h(row) for row in u])
            # f has checked every x against the margin; inside it, x is clamped to 0.
            return s, np.maximum(u - s, 0.0), np.subtract(1.0, u, u)

        return y, f, STATE_TOL * rates, planes

    pressure = g.block_product(len(gamma), beta)

    def f(x, out):
        p = pressure(x)
        np.add(p, rates, out)
        np.multiply(x, out, out)
        return np.subtract(p, out, out)

    return y, f, None, lambda x: (1.0 - x, x, np.zeros_like(x))


def default_step(batch: Sequence[ModelParams], t_end: float) -> float:
    """The step of a batch given no dt: t_end over the fewest whole steps of at most 1e-3 / rate.

    rate is the batch's largest beta or gamma. A t_end within STEP_COUNT_RTOL of a whole number
    of 1e-3 / rate steps keeps that count; outside (0, MAX_STEPS] steps the step is 1e-3 / rate.
    """
    step = 1e-3 / max(max(p.beta, p.gamma or 0.0) for p in batch)
    steps = t_end / step
    if not 0 < steps <= MAX_STEPS:
        return step
    n_steps = round(steps)
    return t_end / (n_steps if abs(steps - n_steps) <= STEP_COUNT_RTOL * n_steps else math.ceil(steps))


def step_count(t_end: float, dt: float, names=("t_end", "dt")) -> int:
    """Steps dt in t_end; InputError unless whole within STEP_COUNT_RTOL and at most MAX_STEPS.

    A t_end that is not finite fails before the count is taken. The messages
    call t_end and dt by names, such as the flags that gave them.
    """
    t, d = names
    if not dt > 0:
        raise InputError(f"{d} must be positive")
    if not math.isfinite(t_end):
        raise InputError(f"{t} must be finite")
    if t_end < dt:
        raise InputError(f"{t} must be at least {d}")
    steps = t_end / dt
    if not steps <= MAX_STEPS:
        raise InputError(f"{t} / {d} = {steps:.3g} steps exceeds the limit of {MAX_STEPS}")
    n_steps = round(steps)
    if abs(steps - n_steps) > STEP_COUNT_RTOL * n_steps:
        raise InputError(f"{t} = {t_end:g} is not a whole number of steps {d} = {dt:g}")
    return n_steps


@np.errstate(over="ignore", invalid="ignore")  # an overflow or NaN fails the box check
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
    sharing kind and beta gives a list of B trajectories, in order, all
    started from state0 and stepped by one dt, default_step(batch, t_end)
    if none is given: they are integrated together as the rows of one
    (B, n) working block (see _model), so each RK4 stage costs one sparse
    product, and row j is bit-identical to integrating params[j] on its own
    at that dt. The RK4 stages reuse buffers allocated once per run, the
    state is updated in place, and recording copies it into a block of
    records sized from n_steps and record_every, shrunk on a stationary stop.

    Records the initial state, every record_every-th step, and the final
    state. With stop_when_stationary the run ends early once the sup-norm of
    the field over the block drops below STATIONARY_TOL (the standard
    surrogate for the t -> infinity limits): max |x'| for SI and SIS, and
    max |u'| = gamma max x for SIR.

    Raises InputError unless t_end is a whole number of steps dt (see
    step_count). Raises InvariantViolationError if a step leaves [0, 1]^n
    (for SIR: u, or the derived x) by more than STATE_TOL (meaning dt
    is too large) or produces NaN, in any row.
    """
    batch = [params] if isinstance(params, ModelParams) else list(params)
    if not batch:
        raise InputError("need at least one parameter set")
    kind, beta = batch[0].kind, batch[0].beta
    if any(p.kind is not kind or p.beta != beta for p in batch):
        raise InputError("batched runs must share model kind and beta")
    dt = default_step(batch, t_end) if dt is None else dt
    n_steps = step_count(t_end, dt)
    if record_every < 1:
        raise InputError("record_every must be >= 1")

    y, f, limit, planes = _model(kind, beta, [p.gamma or 0.0 for p in batch], g, state0)
    k1, k2, k3, k4, stage = (np.empty_like(y) for _ in range(5))
    stages = ((0.5 * dt, k1, k2), (0.5 * dt, k2, k3), (dt, k3, k4))  # stage = y + c k_in -> k_out

    # Rows for t = 0, every record_every-th step and the last step.
    rows = 1 + -(-n_steps // record_every)
    times = np.empty(rows)
    records = np.empty((rows, *y.shape))
    times[0], records[0] = 0.0, y
    count = 1

    f(y, k1)
    for k in range(1, n_steps + 1):
        if stop_when_stationary and np.abs(k1).max() < STATIONARY_TOL:
            # Record y, the state after step k - 1, unless already recorded.
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
                raise InvariantViolationError(f"NaN in state at t = {k * dt:.6g}; reduce dt")
            excursion = max(hi - 1.0, -lo, 0.0)
            if excursion >= STATE_TOL:
                raise InvariantViolationError(
                    f"state left [0, 1] by {excursion:.3g} at t = {k * dt:.6g}; reduce dt"
                )
            np.clip(y, 0.0, 1.0, out=y)
        f(y, k1)  # the next step's first stage
        if limit is not None and (k1 > limit).any():
            excursion = STATE_TOL * (k1 / limit).max()
            raise InvariantViolationError(
                f"x fell below 0 by {excursion:.3g} at t = {k * dt:.6g}; reduce dt"
            )

        if k % record_every == 0 or k == n_steps:
            times[count], records[count] = k * dt, y
            count += 1

    s, x, r = (plane.transpose(1, 0, 2) for plane in planes(records))  # each (B, rows, n)
    trajectories = [Trajectory(times, *run) for run in zip(s, x, r)]
    return trajectories[0] if isinstance(params, ModelParams) else trajectories


def initial_growth_approx(g: Graph, params: ModelParams, x0, t: float) -> np.ndarray:
    """Dominant-eigenvector approximation of the early outbreak profile.

    For a small initial infection the linearized dynamics give
    x(t) ~ e^{rate t} (v'x0 / v'u) u, with rate beta*lambda_max for SI and
    beta*lambda_max - gamma for SIS/SIR (near the disease-free state).
    """
    from .spectral import dominant_eig  # here, so that integrating loads no spectral code

    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (g.n,):
        raise InputError("x0 and graph dimensions differ")
    trip = dominant_eig(g)
    rate = params.beta * trip.lambda_max - (params.gamma or 0.0)
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
    return np.polyfit(traj.times[mask], np.log(sw), 1)[0]


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


def _trajectory_header(n: int) -> list[str]:
    """The columns of an n-node trajectory CSV: t, s_1..s_n, x_1..x_n, r_1..r_n."""
    return ["t", *(f"{c}_{i}" for c in "sxr" for i in range(1, n + 1))]


def write_trajectory_csv(traj: Trajectory, fp) -> None:
    """Write the trajectory as CSV: columns t, s_1..s_n, x_1..x_n, r_1..r_n."""
    write_csv(fp, _trajectory_header(traj.n), (traj.times, traj.s, traj.x, traj.r))


def read_trajectory_csv(fp) -> Trajectory:
    """Read a trajectory written by write_trajectory_csv.

    Raises InputError unless the header is exactly the one
    write_trajectory_csv writes for some n (the message names the first
    column that differs), the file holds at least one row, every value
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
    for k, (got, want) in enumerate(zip(cols, _trajectory_header(n)), start=1):
        if got != want:
            raise InputError(f"not a trajectory CSV: column {k} is {got!r}, expected {want!r}")
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
