"""Seeded inputs and the subcommand pipelines of the benchmark workloads.

Every workload is one closed-loop client running `netepi` subcommands one at
a time, the way users chain them: simulate -> threshold --trajectory ->
asymptotic -> endemic. The workloads differ in graph size and in which stage
carries the work:

    outbreak-n1000           dense n=1000 work in RK4 and the R(t) series
    sweep-n20                per-step Python overhead of RK4 at tiny n
    endemic-near-threshold   fixed-point iteration counts near R0 = 1

Passes are kept to a few seconds so that a run holds several of them: on a
shared machine the speed of a core changes for seconds at a time, and a
median over several short passes follows it less than one long pass does.

The program under test receives only the files written here. The oracles
(dense adjacency, lambda_max from numpy.linalg.eigvals, Newton references)
stay in the benchmark process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

NAMES = ("outbreak-n1000", "sweep-n20", "endemic-near-threshold")

# Per-layer tags: endemic runs by target R0 (default lower bracket) and SIR
# asymptotic runs by start. Every traced run reports all of them.
ENDEMIC_TAGS = {"r0-1.01": 1.01, "r0-1.001": 1.001}
ASYMPTOTIC_STARTS = ("zero", "upper")

FIXED_POINT_TOL = 1e-10  # the CLI default for endemic and asymptotic
GAMMA = 1.0


@dataclass(frozen=True)
class Inputs:
    """Generated input files plus the benchmark-side oracle of the graph."""

    n: int
    adjacency: np.ndarray  # a[i, j] = weight of the contact j -> i
    lambda_max: float  # oracle, numpy.linalg.eigvals
    x0: np.ndarray  # initial infection written to x0.txt

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.adjacency))

    def beta(self, r0: float, gamma: float = GAMMA) -> float:
        """Infection rate that puts the graph at the target R0."""
        return r0 * gamma / self.lambda_max


@dataclass(frozen=True)
class Call:
    """One `netepi` subprocess and the checks on what it writes."""

    subcommand: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]  # files written, relative to the work dir
    checks: tuple[Callable[[Path], None], ...]
    steps: int = 0  # RK4 steps integrated, round(t_end/dt) per run (computed)
    tag: str | None = None  # per-layer tag: an ENDEMIC_TAGS key or a start

    @property
    def argv(self) -> list[str]:
        return [self.subcommand, *self.args]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Plan:
    inputs: Inputs
    setup: Call  # the fixed cost every subcommand pays: threshold on the graph
    calls: tuple[Call, ...]  # the workload's pipeline
    trace_calls: tuple[Call, ...]  # pipeline plus calls filling missing tags


# --- inputs -------------------------------------------------------------------


def random_graph(rng: np.random.Generator, n: int, degree: float = 5.0) -> np.ndarray:
    """Ring backbone plus about `degree` random weighted out-edges per node.

    Same construction as tests/conftest.py::random_sc_graph with density
    degree/n; the ring makes the graph strongly connected.
    """
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[(idx + 1) % n, idx] = rng.uniform(0.1, 2.0, n)
    extra = (rng.random((n, n)) < degree / n) & (a == 0)
    np.fill_diagonal(extra, False)
    a[extra] = rng.uniform(0.1, 2.0, int(extra.sum()))
    return a


def write_inputs(seed: int, workload: str, n: int, workdir: Path) -> Inputs:
    """Write graph.txt and x0.txt into workdir; each workload gets its own graph."""
    rng = np.random.default_rng([seed, NAMES.index(workload)])
    a = random_graph(rng, n)
    rows, cols = np.nonzero(a)
    lines = [f"n {n}"] + [f"{i + 1} {j + 1} {float(a[i, j])!r}" for i, j in zip(rows, cols)]
    (workdir / "graph.txt").write_text("\n".join(lines) + "\n")

    # The seed picks which 1% of nodes start infected, not how much: near
    # threshold the SIR final state's iteration count follows the total.
    x0 = np.zeros(n)
    x0[rng.choice(n, size=max(1, n // 100), replace=False)] = 0.05
    (workdir / "x0.txt").write_text("".join(f"{float(v)!r}\n" for v in x0))

    lam = float(np.abs(np.linalg.eigvals(a)).max())
    return Inputs(n=n, adjacency=a, lambda_max=lam, x0=x0)


def sis_endemic_reference(a: np.ndarray, beta: float, gamma: float) -> np.ndarray:
    """Dense Newton solve of x = F(x), F(x) = z/(1+z), z = (beta/gamma) A x.

    Started from the all-ones vector, above the endemic state: F is monotone
    and concave, so Newton decreases to the positive fixed point and never to
    the disease-free one.
    """
    m = (beta / gamma) * a
    x = np.ones(a.shape[0])
    for _ in range(100):
        z = m @ x
        jac = np.eye(a.shape[0]) - (1.0 / (1.0 + z) ** 2)[:, None] * m
        step = np.linalg.solve(jac, x - z / (1.0 + z))
        x = x - step
        if np.abs(step).max() <= 64 * np.finfo(float).eps * np.abs(x).max():
            return x
    raise RuntimeError("Newton reference did not converge")


# --- calls --------------------------------------------------------------------


def _rate_args(beta: float, gamma) -> tuple[str, ...]:
    return ("--graph", "graph.txt", "--beta", repr(beta), "--gamma", str(gamma))


def trajectory_rows(steps: int, every: int) -> int:
    """Rows integrate records: the start, every `every`-th step and the last."""
    return 1 + steps // every + (1 if steps % every else 0)


def simulate(inp, model, r0, start, t_end, dt, every, out, gammas=(GAMMA,)) -> Call:
    beta = inp.beta(r0)
    steps = max(1, round(t_end / dt))
    gamma_arg = ",".join(f"{g:g}" for g in gammas)
    if len(gammas) == 1:
        outputs = (out,)
    else:
        stem = out.removesuffix(".csv")
        outputs = tuple(f"{stem}_gamma{g:g}.csv" for g in gammas)
    rows = trajectory_rows(steps, every)
    return Call(
        "simulate",
        (
            "--model", model, *_rate_args(beta, gamma_arg), *start,
            "--t-end", repr(t_end), "--dt", repr(dt), "--record-every", str(every), "--out", out,
        ),  # fmt: skip
        outputs,
        tuple(functools.partial(checks.trajectory, path, inp.n, rows) for path in outputs),
        steps=steps * len(gammas),
    )


def threshold(inp, r0, trajectory=None, rows=0, out="threshold.json") -> Call:
    beta = inp.beta(r0)
    report = functools.partial(checks.threshold_report, out, inp.lambda_max, beta, GAMMA)
    if trajectory is None:
        return Call("threshold", (*_rate_args(beta, GAMMA), "--out", out), (out,), (report,))
    series = functools.partial(checks.r_series, "rt.csv", out, rows)
    return Call(
        "threshold",
        (*_rate_args(beta, GAMMA), "--trajectory", trajectory, "--rt-out", "rt.csv", "--out", out),
        (out, "rt.csv"),
        (report, series),
    )


def asymptotic(inp, r0, start_args, x0, start) -> Call:
    beta = inp.beta(r0)
    out = f"asymptotic_{start}.json"
    return Call(
        "asymptotic",
        (*_rate_args(beta, GAMMA), *start_args, "--start", start, "--out", out),
        (out,),
        (functools.partial(checks.asymptotic, out, inp.adjacency, beta, GAMMA, x0, FIXED_POINT_TOL),),
        tag=start,
    )


def endemic(inp, r0, bracket="lower") -> Call:
    beta = inp.beta(r0)
    out = f"endemic_{r0:g}_{bracket}.json"
    tags = [t for t, v in ENDEMIC_TAGS.items() if v == r0 and bracket == "lower"]
    return Call(
        "endemic",
        (*_rate_args(beta, GAMMA), "--bracket", bracket, "--out", out),
        (out,),
        (functools.partial(checks.endemic, out, inp.adjacency, beta, GAMMA, FIXED_POINT_TOL),),
        tag=tags[0] if tags else None,
    )


# --- workloads ----------------------------------------------------------------


SEED_NODE = ("--seed-node", "1")


def _first_node(n: int) -> np.ndarray:
    x0 = np.zeros(n)
    x0[0] = 1.0
    return x0


def _outbreak(inp: Inputs, smoke: bool) -> list[Call]:
    """SIR at R0=3 from one seed node: dense matvecs in RK4 and in R(t)."""
    t_end, dt, every = (2.0, 0.04, 5) if smoke else (20.0, 0.04, 20)
    sim = simulate(inp, "SIR", 3.0, SEED_NODE, t_end, dt, every, "traj.csv")
    return [
        sim,
        threshold(inp, 3.0, "traj.csv", trajectory_rows(sim.steps, every)),
        *(asymptotic(inp, 3.0, SEED_NODE, _first_node(inp.n), s) for s in ASYMPTOTIC_STARTS),
        endemic(inp, 1.01),
    ]


def _sweep(inp: Inputs, smoke: bool) -> list[Call]:
    """An 8-value SIS --gamma sweep and one SIR run, 4k RK4 steps each."""
    t_end, dt, every = (0.5, 0.001, 40) if smoke else (4.0, 0.001, 40)
    gammas = (0.5, 0.8, 1.0, 1.25, 1.6, 2.5, 3.2, 4.0)  # R0 from 4 down to 0.5
    sir = simulate(inp, "SIR", 2.0, SEED_NODE, t_end, dt, every, "sir.csv")
    return [
        simulate(inp, "SIS", 2.0, ("--x0-uniform", "0.05"), t_end, dt, every, "sis.csv", gammas),
        sir,
        threshold(inp, 2.0, "sir.csv", trajectory_rows(sir.steps, every)),
        *(asymptotic(inp, 2.0, SEED_NODE, _first_node(inp.n), s) for s in ASYMPTOTIC_STARTS),
        *(endemic(inp, r0) for r0 in ENDEMIC_TAGS.values()),
    ]


def _near_threshold(inp: Inputs, smoke: bool) -> list[Call]:
    """Endemic and SIR final state just above threshold: iteration-bound."""
    t_end, dt, every = (0.5, 0.01, 20) if smoke else (2.0, 0.01, 20)
    from_file = ("--x0-file", "x0.txt")
    sim = simulate(inp, "SIR", 1.001, from_file, t_end, dt, every, "traj.csv")
    return [
        sim,
        threshold(inp, 1.001, "traj.csv", trajectory_rows(sim.steps, every)),
        *(asymptotic(inp, 1.001, from_file, inp.x0, s) for s in ASYMPTOTIC_STARTS),
        *(endemic(inp, r0) for r0 in ENDEMIC_TAGS.values()),
        endemic(inp, 1.001, "upper"),
    ]


_WORKLOADS = {
    "outbreak-n1000": (_outbreak, 1000, 40),
    "sweep-n20": (_sweep, 20, 8),
    "endemic-near-threshold": (_near_threshold, 500, 40),
}


def build(name: str, seed: int, smoke: bool, workdir: Path) -> Plan:
    """Write the workload's inputs for `seed` and return its calls."""
    make_calls, n_full, n_smoke = _WORKLOADS[name]
    inp = write_inputs(seed, name, n_smoke if smoke else n_full, workdir)
    calls = make_calls(inp, smoke)
    have = {c.tag for c in calls}
    fill = [endemic(inp, r0) for tag, r0 in ENDEMIC_TAGS.items() if tag not in have]
    return Plan(
        inputs=inp,
        setup=threshold(inp, 2.0, out="setup.json"),
        calls=tuple(calls),
        trace_calls=tuple(calls + fill),
    )
