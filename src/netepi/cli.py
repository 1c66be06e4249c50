"""Command-line front end.

Subcommands: simulate, endemic, asymptotic, threshold, scalar. Options can
also come from a JSON config file (--config); explicit flags win. Exit codes
distinguish failure classes so pipelines can branch on them:

    2  bad configuration / malformed options
    3  graph errors (parse failures, not strongly connected)
    4  threshold precondition failures (e.g. endemic below threshold)
    5  numerical failures (non-convergence, integrator invariant violation)

The NETEPI_LOG environment variable (debug|info|warning|error) controls
diagnostic verbosity on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import dynamics, equilibria, scalar, threshold
from .errors import (
    BelowThresholdError,
    GraphFormatError,
    InvariantViolationError,
    NonConvergenceError,
    ReducibleMatrixError,
)
from .graph import Graph, graph_from_rows, load_graph
from .scalar import ModelKind

logger = logging.getLogger("netepi")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GRAPH = 3
EXIT_THRESHOLD = 4
EXIT_NUMERICAL = 5


@dataclass
class RunConfig:
    command: str
    graph_path: str | None = None
    model: str | None = None
    beta: float | None = None
    gamma: str | None = None  # possibly a comma list (simulate sweeps)
    x0_uniform: float | None = None
    seed_node: int | None = None
    x0_file: str | None = None
    r0_file: str | None = None
    t_end: float | None = None
    dt: float | None = None
    tol: float | None = None
    bracket: str = "lower"
    start: str = "zero"
    record_every: int = 1
    trajectory: str | None = None
    rt_out: str | None = None
    out: str | None = None
    format: str | None = None

    # scalar-command initial fractions
    x0: float | None = None
    s0: float | None = None
    r0: float | None = None


class ConfigError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netepi",
        description="Deterministic SI/SIS/SIR epidemic models on weighted digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True):
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        if graph:
            p.add_argument("--graph", dest="graph_path", help="edge-list or matrix-JSON file")
        p.add_argument("--beta", type=float)
        p.add_argument("--gamma")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"])

    p = sub.add_parser("simulate", help="integrate a network trajectory to CSV")
    add_common(p)
    p.add_argument("--model", choices=["SI", "SIS", "SIR"])
    p.add_argument("--x0-uniform", dest="x0_uniform", type=float)
    p.add_argument("--seed-node", dest="seed_node", type=int)
    p.add_argument("--x0-file", dest="x0_file")
    p.add_argument("--r0-file", dest="r0_file")
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--record-every", dest="record_every", type=int)

    p = sub.add_parser("endemic", help="SIS endemic state (above threshold) to JSON")
    add_common(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--bracket", choices=["lower", "upper"])

    p = sub.add_parser("asymptotic", help="SIR asymptotic state to JSON")
    add_common(p)
    p.add_argument("--x0-uniform", dest="x0_uniform", type=float)
    p.add_argument("--seed-node", dest="seed_node", type=int)
    p.add_argument("--x0-file", dest="x0_file")
    p.add_argument("--r0-file", dest="r0_file")
    p.add_argument("--tol", type=float)
    p.add_argument("--start", choices=["zero", "upper"])

    p = sub.add_parser("threshold", help="reproduction number report, optional R(t) CSV")
    add_common(p)
    p.add_argument("--trajectory", help="trajectory CSV to compute R(t) over")
    p.add_argument("--rt-out", dest="rt_out", help="output CSV for the R(t) series")

    p = sub.add_parser("scalar", help="scalar-model closed forms to CSV")
    add_common(p, graph=False)
    p.add_argument("--model", choices=["SI", "SIS", "SIR"])
    p.add_argument("--x0", type=float)
    p.add_argument("--s0", type=float)
    p.add_argument("--r0", type=float)
    p.add_argument("--t-end", dest="t_end", type=float)
    p.add_argument("--dt", type=float)

    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    values = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fp:
                file_values = json.load(fp)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
        aliases = {"graph": "graph_path"}
        for key, val in file_values.items():
            attr = key.replace("-", "_")
            attr = aliases.get(attr, attr)
            if attr not in values:
                values[attr] = val
    known = {f.name for f in fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**values)


def _require(cfg: RunConfig, *names):
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"--{name.replace('_', '-')} is required for {cfg.command}")


def _positive(value, name):
    if value is None or value <= 0:
        raise ConfigError(f"{name} must be positive")
    return float(value)


def _parse_gammas(cfg: RunConfig) -> list[float]:
    if cfg.gamma is None:
        raise ConfigError("--gamma is required")
    parts = str(cfg.gamma).split(",")
    try:
        gammas = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"bad --gamma value {cfg.gamma!r}") from None
    for gv in gammas:
        _positive(gv, "gamma")
    return gammas


def _single_gamma(cfg: RunConfig) -> float:
    """The one --gamma value of a subcommand that takes no sweep."""
    gammas = _parse_gammas(cfg)
    if len(gammas) != 1:
        raise ConfigError(f"{cfg.command} takes one --gamma value, got {cfg.gamma!r}")
    return gammas[0]


def _read_graph(path: str) -> Graph:
    try:
        with open(path) as fp:
            text = fp.read()
    except OSError as e:
        raise ConfigError(f"cannot read graph file: {e}") from e
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("["):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as e:
            raise GraphFormatError(f"bad matrix JSON: {e}") from e
        return graph_from_rows(rows)
    return load_graph(text)


def _read_vector(path: str, n: int, name: str) -> np.ndarray:
    try:
        vec = np.loadtxt(path, comments="#", ndmin=1)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read {name} file: {e}") from e
    if vec.shape != (n,):
        raise ConfigError(f"{name} file holds {vec.shape[0]} values, graph has {n} nodes")
    return vec


def _initial_vectors(cfg: RunConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the initial infection (uniform | seed node | file) and optional r0 file."""
    given = [
        flag
        for flag in (cfg.x0_uniform is not None, cfg.seed_node is not None, cfg.x0_file)
        if flag
    ]
    if len(given) != 1:
        raise ConfigError("give exactly one of --x0-uniform, --seed-node, --x0-file")
    if cfg.x0_uniform is not None:
        if not 0 <= cfg.x0_uniform <= 1:
            raise ConfigError("--x0-uniform must lie in [0, 1]")
        x0 = np.full(n, float(cfg.x0_uniform))
    elif cfg.seed_node is not None:
        if not 1 <= cfg.seed_node <= n:
            raise ConfigError(f"--seed-node must lie in 1..{n}")
        x0 = np.zeros(n)
        x0[cfg.seed_node - 1] = 1.0
    else:
        x0 = _read_vector(cfg.x0_file, n, "x0")
    r0 = np.zeros(n) if cfg.r0_file is None else _read_vector(cfg.r0_file, n, "r0")
    return x0, r0


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fp:
            fp.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# --- subcommands ------------------------------------------------------------


def _cmd_simulate(cfg: RunConfig) -> int:
    _require(cfg, "graph_path", "model", "beta", "t_end")
    kind = ModelKind(cfg.model)
    beta = _positive(cfg.beta, "beta")
    g = _read_graph(cfg.graph_path)
    x0, r0 = _initial_vectors(cfg, g.n)
    if kind is not ModelKind.SIR and cfg.r0_file is not None:
        raise ConfigError(f"--r0-file only applies to SIR, not {kind.value}")

    if kind is ModelKind.SI:
        if cfg.gamma is not None:
            raise ConfigError("SI has no --gamma")
        gammas = [None]
    else:
        gammas = _parse_gammas(cfg)
    if len(gammas) == 1:
        paths = [cfg.out]
    else:
        if cfg.out is None:
            raise ConfigError("a --gamma sweep needs --out (one file per value)")
        paths = [_sweep_path(cfg.out, gv) for gv in gammas]
        if len(set(paths)) != len(paths):
            raise ConfigError(f"--gamma {cfg.gamma} would write one file twice: {paths}")

    state0 = dynamics.initial_state(kind, x0, r0 if kind is ModelKind.SIR else None)
    params = [dynamics.ModelParams(kind=kind, beta=beta, gamma=gv) for gv in gammas]
    steps = [cfg.dt if cfg.dt is not None else dynamics.default_step(p) for p in params]
    t_end = _positive(cfg.t_end, "t_end")
    trajectories = {}
    # The runs that share a step size integrate together, one column each.
    for dt in dict.fromkeys(steps):
        members = [i for i, step in enumerate(steps) if step == dt]
        runs = dynamics.integrate(
            state0,
            [params[i] for i in members],
            g,
            t_end=t_end,
            dt=dt,
            record_every=cfg.record_every,
        )
        trajectories.update(zip(members, runs))
    for i, path in enumerate(paths):
        _write_output(dynamics.trajectory_csv_text(trajectories[i]), path)
        if len(paths) > 1:
            logger.info("wrote %s", path)
    return EXIT_OK


def _sweep_path(out: str, gamma: float) -> str:
    if "{gamma}" in out:
        return out.replace("{gamma}", f"{gamma:g}")
    root, ext = os.path.splitext(out)
    return f"{root}_gamma{gamma:g}{ext or '.csv'}"


def _cmd_endemic(cfg: RunConfig) -> int:
    _require(cfg, "graph_path", "beta", "gamma")
    g = _read_graph(cfg.graph_path)
    result = equilibria.sis_endemic(
        g,
        _positive(cfg.beta, "beta"),
        _single_gamma(cfg),
        tol=cfg.tol if cfg.tol is not None else equilibria.DEFAULT_TOL,
        bracket=cfg.bracket,
    )
    _write_output(_json_text(result.as_dict()), cfg.out)
    return EXIT_OK


def _cmd_asymptotic(cfg: RunConfig) -> int:
    _require(cfg, "graph_path", "beta", "gamma")
    g = _read_graph(cfg.graph_path)
    x0, r0 = _initial_vectors(cfg, g.n)
    s0 = 1.0 - x0 - r0
    if np.any(s0 < 0):
        raise ConfigError("x0 + r0 exceeds 1 at some node")
    result = equilibria.sir_asymptotic(
        g,
        _positive(cfg.beta, "beta"),
        _single_gamma(cfg),
        s0=s0,
        x0=x0,
        r0=r0,
        tol=cfg.tol if cfg.tol is not None else equilibria.DEFAULT_TOL,
        start=cfg.start,
    )
    _write_output(_json_text(result.as_dict()), cfg.out)
    return EXIT_OK


def _cmd_threshold(cfg: RunConfig) -> int:
    _require(cfg, "graph_path", "beta", "gamma")
    g = _read_graph(cfg.graph_path)
    beta = _positive(cfg.beta, "beta")
    gamma = _single_gamma(cfg)
    report = threshold.reproduction_number(g, beta, gamma)

    if cfg.trajectory is not None:
        if cfg.rt_out is None:
            raise ConfigError("--trajectory needs --rt-out for the R(t) CSV")
        with open(cfg.trajectory) as fp:
            traj = dynamics.read_trajectory_csv(fp)
        if traj.n != g.n:
            raise ConfigError("trajectory and graph node counts differ")
        times, values = threshold.effective_r_series(traj, g, beta, gamma)
        buf = io.StringIO()
        threshold.write_r_series_csv(times, values, buf)
        _write_output(buf.getvalue(), cfg.rt_out)
        tau = threshold.subthreshold_crossing(times, values)
        report = threshold.ThresholdReport(
            r0=report.r0,
            classification=report.classification,
            lambda_max=report.lambda_max,
            crossing_time=tau,
        )

    _write_output(_json_text(report.as_dict()), cfg.out)
    return EXIT_OK


def _cmd_scalar(cfg: RunConfig) -> int:
    _require(cfg, "model", "beta")
    kind = ModelKind(cfg.model)
    beta = _positive(cfg.beta, "beta")
    gamma = None if kind is ModelKind.SI else _single_gamma(cfg)

    if kind is ModelKind.SIR:
        if cfg.s0 is None:
            raise ConfigError("--s0 is required for scalar SIR")
        s0 = cfg.s0
        r0 = cfg.r0 if cfg.r0 is not None else 0.0
        rows = [("r_inf", scalar.sir_rinf(s0, r0, beta, gamma))]
        x0 = 1.0 - s0 - r0
        if x0 > 0 and beta * s0 / gamma >= 1.0:
            rows.append(("x_max", scalar.sir_xmax(s0, x0, beta, gamma)))
        text = "quantity,value\n" + "".join(f"{k},{v:.17g}\n" for k, v in rows)
        _write_output(text, cfg.out)
        return EXIT_OK

    _require(cfg, "x0", "t_end")
    t_end = _positive(cfg.t_end, "t_end")
    dt = _positive(cfg.dt, "dt") if cfg.dt is not None else t_end / 200.0
    grid = np.arange(0.0, t_end + 0.5 * dt, dt)
    if kind is ModelKind.SI:
        values = scalar.si_closed_form(cfg.x0, beta, grid)
    else:
        values = scalar.sis_closed_form(cfg.x0, beta, gamma, grid)
    text = "t,x\n" + "".join(f"{t:.17g},{v:.17g}\n" for t, v in zip(grid, values))
    _write_output(text, cfg.out)
    return EXIT_OK


# Each subcommand and the one format its --out document is written in.
_COMMANDS = {
    "simulate": (_cmd_simulate, "csv"),
    "endemic": (_cmd_endemic, "json"),
    "asymptotic": (_cmd_asymptotic, "json"),
    "threshold": (_cmd_threshold, "json"),
    "scalar": (_cmd_scalar, "csv"),
}


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    command, output_format = _COMMANDS[cfg.command]
    try:
        if cfg.format not in (None, output_format):
            raise ConfigError(
                f"{cfg.command} writes {output_format.upper()}; use --format {output_format}"
            )
        return command(cfg)
    except (GraphFormatError, ReducibleMatrixError) as e:
        print(f"netepi: graph error: {e}", file=sys.stderr)
        return EXIT_GRAPH
    except BelowThresholdError as e:
        print(f"netepi: threshold precondition failed: {e}", file=sys.stderr)
        return EXIT_THRESHOLD
    except (NonConvergenceError, InvariantViolationError) as e:
        print(f"netepi: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError, OSError) as e:
        print(f"netepi: bad configuration: {e}", file=sys.stderr)
        return EXIT_CONFIG


def _setup_logging() -> None:
    level_name = os.environ.get("NETEPI_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
    except ConfigError as e:
        print(f"netepi: bad configuration: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
