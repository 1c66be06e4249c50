"""Command-line front end.

Subcommands: simulate, endemic, asymptotic, threshold, scalar. Options can
also come from a JSON config file (--config): an object whose keys are the
subcommand's own flag names (t_end or t-end for --t-end). Its entries are
read as those flags, written before the command line's own, so they are
checked like flags and explicit flags win; a key the subcommand does not
take, or a bad value, exits 2. Exit codes distinguish failure classes so
pipelines can branch on them:

    2  bad configuration / malformed options, or input too large to allocate
    3  graph errors (parse failures, not strongly connected)
    4  threshold precondition failures (e.g. endemic below threshold)
    5  numerical failures (non-convergence, integrator invariant violation)
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import sys
import warnings

import numpy as np

from .errors import (
    BelowThresholdError,
    GraphFormatError,
    InputError,
    InvariantViolationError,
    NonConvergenceError,
    ReducibleMatrixError,
    require_fraction,
    require_positive,
)
from .graph import Graph, graph_from_rows, load_graph, require_strongly_connected

# Each _cmd_* function imports the modules it runs, so that one call loads
# only those: `endemic` loads no integrator, `simulate` no spectral code.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GRAPH = 3
EXIT_THRESHOLD = 4
EXIT_NUMERICAL = 5


def build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    """The netepi parser; with exit_on_error=False bad values raise ArgumentError."""
    parser = argparse.ArgumentParser(
        prog="netepi",
        description="Deterministic SI/SIS/SIR epidemic models on weighted digraphs",
        allow_abbrev=False,
        exit_on_error=exit_on_error,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help, graph=True):
        p = sub.add_parser(name, help=help, allow_abbrev=False, exit_on_error=exit_on_error)
        p.add_argument("--config", help="JSON object of this command's flags; explicit flags win")
        if graph:
            p.add_argument("--graph", help="edge-list or matrix-JSON file")
        p.add_argument("--beta", type=float)
        p.add_argument("--gamma")
        p.add_argument("--out", help="output file (default: stdout)")
        return p

    def add_initial_state(p):
        p.add_argument("--x0-uniform", type=float)
        p.add_argument("--seed-node", type=int)
        p.add_argument("--x0-file")
        p.add_argument("--r0-file")

    p = add_command("simulate", "integrate a network trajectory to CSV")
    p.add_argument("--model", choices=["SI", "SIS", "SIR"])
    add_initial_state(p)
    p.add_argument("--t-end", type=float)
    dt_help = "RK4 step; default: --t-end over the fewest whole steps of at most 1e-3 / max(beta, gamma)"
    p.add_argument("--dt", type=float, help=dt_help + ", one step for a whole --gamma sweep")
    p.add_argument("--record-every", type=int, default=1)

    width_help = "largest width of the certified enclosure"

    p = add_command("endemic", "SIS endemic state (above threshold) to JSON")
    p.add_argument("--tol", type=float, help=width_help)
    p.add_argument(
        "--bracket", choices=["lower", "upper"], default="lower", help="end of the enclosure written"
    )

    p = add_command("asymptotic", "SIR asymptotic state to JSON")
    add_initial_state(p)
    p.add_argument("--tol", type=float, help=width_help)
    p.add_argument(
        "--start", choices=["zero", "upper"], default="zero", help="end of the enclosure written"
    )

    p = add_command("threshold", "reproduction number report, optional R(t) CSV")
    p.add_argument("--trajectory", help="trajectory CSV to compute R(t) over")
    p.add_argument("--rt-out", help="output CSV for the R(t) series")

    p = add_command("scalar", "scalar-model closed forms to CSV", graph=False)
    p.add_argument("--model", choices=["SI", "SIS", "SIR"])
    p.add_argument("--x0", type=float)
    p.add_argument("--s0", type=float)
    p.add_argument("--r0", type=float)
    p.add_argument("--t-end", type=float)
    p.add_argument("--dt", type=float)

    return parser


def _parse_with_config(command: str, path: str, flags: list[str]) -> argparse.Namespace:
    """Parse a --config file's entries as the command's flags, written before `flags`."""
    try:
        with open(path) as fp:
            file_values = json.load(fp)
    except (OSError, ValueError) as e:  # JSONDecodeError and UnicodeDecodeError
        raise InputError(f"cannot read config file: {e}") from e
    if not isinstance(file_values, dict):
        raise InputError("config file must hold a JSON object")
    tokens = {}
    for key, val in file_values.items():
        if val is None or isinstance(val, (bool, list, dict)):
            raise InputError(
                f"config key {key!r} must be a number or a string, not {json.dumps(val)}"
            )
        # One --flag=value token each, so a value starting with "-" stays a value.
        tokens[key] = f"--{key.replace('_', '-')}={val}"
    try:
        args, extras = build_parser(exit_on_error=False).parse_known_args(
            [command, *tokens.values(), *flags]
        )
    except argparse.ArgumentError as e:
        raise InputError(f"config file: {e}") from None
    # A "config" key would be overridden by the command line's own --config.
    unknown = [key for key, token in tokens.items() if token in extras or key == "config"]
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    return args


def _flag(name: str) -> str:
    return f"--{name.replace('_', '-')}"


def _require(args: argparse.Namespace, *names):
    for name in names:
        if getattr(args, name) is None:
            raise InputError(f"{_flag(name)} is required for {args.command}")


def _check_outputs(args: argparse.Namespace, outputs: list[tuple[str, str | None]]) -> None:
    """InputError unless each output names a file no other output and no input names.

    outputs are (flag, path) pairs, path None for stdout. Paths compare by
    _file_key. Call this before reading any input, so a refused run changes
    no file.
    """
    inputs = {}
    for name in ("config", "graph", "x0_file", "r0_file", "trajectory"):
        path = getattr(args, name, None)
        if path is not None:
            inputs.setdefault(_file_key(path), (_flag(name), path))
    written = {}
    for flag, path in outputs:
        if path is None:
            continue
        key = _file_key(path)
        if key in inputs:
            source, given = inputs[key]
            raise InputError(f"{flag} would overwrite the {source} input: {given}")
        if key in written:
            names = flag if written[key] == flag else f"{written[key]} and {flag}"
            raise InputError(f"{names} would write one file twice: {path}")
        written[key] = flag


def _file_key(path: str):
    """The identity of the file at path: device and inode if it exists, else its realpath.

    Hard links of one file share the first, as in os.path.samefile; the
    second makes ./a.csv and a.csv one file before either exists.
    """
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _parse_gammas(args: argparse.Namespace) -> list[float]:
    if args.gamma is None:
        raise InputError("--gamma is required")
    try:
        gammas = [float(p) for p in args.gamma.split(",")]
    except ValueError:
        raise InputError(f"bad --gamma value {args.gamma!r}") from None
    for gv in gammas:
        require_positive(gv, "--gamma")
    return gammas


def _single_gamma(args: argparse.Namespace) -> float:
    """The one --gamma value of a subcommand that takes no sweep."""
    gammas = _parse_gammas(args)
    if len(gammas) != 1:
        raise InputError(f"{args.command} takes one --gamma value, got {args.gamma!r}")
    return gammas[0]


def _read_graph(path: str) -> Graph:
    try:
        with open(path) as fp:
            text = fp.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read graph file: {e}") from e
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
        with warnings.catch_warnings():
            # An empty file is reported below as an InputError, not a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            vec = np.loadtxt(path, comments="#", ndmin=2)
    except (OSError, ValueError) as e:
        raise InputError(f"cannot read {name} file: {e}") from e
    if vec.shape[1] != 1:
        raise InputError(f"{name} file holds an array of shape {vec.shape}, not one value per line")
    if vec.shape != (n, 1):
        raise InputError(f"{name} file holds {vec.shape[0]} values, graph has {n} nodes")
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{name} file holds a non-finite value")
    return vec[:, 0]


def _check_initial(args: argparse.Namespace) -> None:
    """InputError unless exactly one initial infection is given, a uniform one in [0, 1]."""
    if sum(v is not None for v in (args.x0_uniform, args.seed_node, args.x0_file)) != 1:
        raise InputError("give exactly one of --x0-uniform, --seed-node, --x0-file")
    if args.x0_uniform is not None:
        require_fraction(args.x0_uniform, "--x0-uniform")


def _initial_state(args: argparse.Namespace, kind, n: int):
    """The run's start state: the initial infection (uniform | seed node | file), and the r0 file.

    Call _check_initial first. Errors name the flags that gave the bad
    fractions; one for x0 + r0 above 1 also names the first such node.
    """
    from .dynamics import STATE_TOL, initial_state

    if args.x0_uniform is not None:
        x0, source = np.full(n, args.x0_uniform), "--x0-uniform"
    elif args.seed_node is not None:
        if not 1 <= args.seed_node <= n:
            raise InputError(f"--seed-node must lie in 1..{n}")
        x0, source = np.zeros(n), "--seed-node"
        x0[args.seed_node - 1] = 1.0
    else:
        source = "--x0-file"
        x0 = require_fraction(_read_vector(args.x0_file, n, "x0"), source, slack=STATE_TOL)
    r0 = None
    if args.r0_file is not None:
        r0 = require_fraction(_read_vector(args.r0_file, n, "r0"), "--r0-file", slack=STATE_TOL)
        over = np.flatnonzero(x0 + r0 > 1 + STATE_TOL)
        if over.size:
            raise InputError(f"{source} plus --r0-file exceeds 1 at node {over[0] + 1}")
    return initial_state(kind, x0, r0)


def _output(path: str | None):
    """A context giving the destination: the file at path, closed on exit, or stdout, left open."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w")


def _json_text(result) -> str:
    """A result dataclass as a JSON object, one key per field in field order."""
    payload = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    return json.dumps(payload, indent=2, default=np.ndarray.tolist) + "\n"


# --- subcommands ------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import dynamics
    from .dynamics import ModelKind

    _require(args, "graph", "model", "beta", "t_end")
    kind = ModelKind(args.model)
    beta = require_positive(args.beta, "--beta")
    if kind is ModelKind.SI:
        if args.gamma is not None:
            raise InputError("SI has no --gamma")
        gammas = [None]
    else:
        gammas = _parse_gammas(args)
    if kind is not ModelKind.SIR and args.r0_file is not None:
        raise InputError(f"--r0-file only applies to SIR, not {kind.value}")
    params = [dynamics.ModelParams(kind=kind, beta=beta, gamma=gv) for gv in gammas]
    t_end = require_positive(args.t_end, "--t-end")
    dt = dynamics.default_step(params, t_end) if args.dt is None else require_positive(args.dt, "--dt")
    dynamics.step_count(t_end, dt, ("--t-end", "--dt" if args.dt is not None else "the default step"))
    if args.record_every < 1:
        raise InputError("--record-every must be >= 1")
    _check_initial(args)
    paths = _output_paths(args.out, gammas)
    flag = "--out" if len(paths) == 1 else f"--out for --gamma {args.gamma}"
    _check_outputs(args, [(flag, path) for path in paths])
    g = _read_graph(args.graph)
    state0 = _initial_state(args, kind, g.n)

    runs = dynamics.integrate(state0, params, g, t_end=t_end, dt=dt, record_every=args.record_every)
    for run, path in zip(runs, paths):
        with _output(path) as fp:
            dynamics.write_trajectory_csv(run, fp)
    return EXIT_OK


def _output_paths(out: str | None, gammas: list) -> list:
    """One --out path per gamma; {gamma} in --out is replaced by the value's label.

    Without the placeholder a single run writes --out itself and a sweep
    writes <root>_gamma<label><ext>. The label is {gamma:g}, or the repr
    of values whose {gamma:g} would name one file twice.
    """
    if out is not None and "{gamma}" in out:
        if gammas == [None]:
            raise InputError("SI has no gamma to fill {gamma} in --out")
        return [out.replace("{gamma}", label) for label in _gamma_labels(gammas)]
    if len(gammas) == 1:
        return [out]
    if out is None:
        raise InputError("a --gamma sweep needs --out (one file per value)")
    root, ext = os.path.splitext(out)
    return [f"{root}_gamma{label}{ext or '.csv'}" for label in _gamma_labels(gammas)]


def _gamma_labels(gammas: list[float]) -> list[str]:
    """Each value as {gamma:g}, or as its round-tripping repr where those collide."""
    short = [f"{gv:g}" for gv in gammas]
    return [repr(gv) if short.count(label) > 1 else label for gv, label in zip(gammas, short)]


def _cmd_endemic(args: argparse.Namespace) -> int:
    from . import equilibria

    _require(args, "graph", "beta", "gamma")
    beta = require_positive(args.beta, "--beta")
    gamma = _single_gamma(args)
    tol = require_positive(equilibria.DEFAULT_TOL if args.tol is None else args.tol, "--tol")
    _check_outputs(args, [("--out", args.out)])
    g = _read_graph(args.graph)
    result = equilibria.sis_endemic(g, beta, gamma, tol=tol, bracket=args.bracket)
    with _output(args.out) as fp:
        fp.write(_json_text(result))
    return EXIT_OK


def _cmd_asymptotic(args: argparse.Namespace) -> int:
    from . import equilibria

    _require(args, "graph", "beta", "gamma")
    beta = require_positive(args.beta, "--beta")
    gamma = _single_gamma(args)
    tol = require_positive(equilibria.DEFAULT_TOL if args.tol is None else args.tol, "--tol")
    _check_initial(args)
    _check_outputs(args, [("--out", args.out)])
    g = _read_graph(args.graph)
    # Before the length-n start vectors, so a reducible graph of huge n exits 3.
    require_strongly_connected(g)
    state0 = _initial_state(args, "SIR", g.n)
    result = equilibria.sir_asymptotic(g, beta, gamma, state0, tol=tol, start=args.start)
    with _output(args.out) as fp:
        fp.write(_json_text(result))
    return EXIT_OK


def _cmd_threshold(args: argparse.Namespace) -> int:
    from . import threshold

    _require(args, "graph", "beta", "gamma")
    if args.rt_out is not None and args.trajectory is None:
        raise InputError("--rt-out needs --trajectory")
    if args.trajectory is not None and args.rt_out is None:
        raise InputError("--trajectory needs --rt-out for the R(t) CSV")
    beta = require_positive(args.beta, "--beta")
    gamma = _single_gamma(args)
    _check_outputs(args, [("--rt-out", args.rt_out), ("--out", args.out)])
    g = _read_graph(args.graph)
    report = threshold.reproduction_number(g, beta, gamma)

    if args.trajectory is not None:
        from . import dynamics

        with open(args.trajectory) as fp:
            traj = dynamics.read_trajectory_csv(fp)
        if traj.n != g.n:
            raise InputError("trajectory and graph node counts differ")
        defect = dynamics.sir_defect(traj, g, beta, gamma)
        if not defect <= dynamics.STATE_TOL:
            raise InputError(
                f"trajectory is no SIR run at these rates: max |s - H(1 - r)| = {defect:.3g} "
                f"exceeds {dynamics.STATE_TOL:g}"
            )
        times, values = threshold.effective_r_series(traj, g, beta, gamma)
        with _output(args.rt_out) as fp:
            dynamics.write_csv(fp, ("t", "R_t"), (times, values))
        tau = threshold.subthreshold_crossing(times, values)
        report = dataclasses.replace(report, sir_defect=defect, crossing_time=tau)

    with _output(args.out) as fp:
        fp.write(_json_text(report))
    return EXIT_OK


# The flags of `scalar` that each model does not read.
_SCALAR_UNUSED = {
    "SI": ("gamma", "s0", "r0"),
    "SIS": ("s0", "r0"),
    "SIR": ("x0", "t_end", "dt"),
}


def _cmd_scalar(args: argparse.Namespace) -> int:
    from . import dynamics, scalar
    from .dynamics import ModelKind

    _require(args, "model", "beta")
    kind = ModelKind(args.model)
    unused = [_flag(name) for name in _SCALAR_UNUSED[args.model] if getattr(args, name) is not None]
    if unused:
        raise InputError(f"scalar {kind.value} does not use {', '.join(unused)}")
    _check_outputs(args, [("--out", args.out)])
    beta = require_positive(args.beta, "--beta")
    gamma = None if kind is ModelKind.SI else _single_gamma(args)

    if kind is ModelKind.SIR:
        if args.s0 is None:
            raise InputError("--s0 is required for scalar SIR")
        s0 = args.s0
        r0 = args.r0 if args.r0 is not None else 0.0
        if not 0 < s0 <= 1:
            raise InputError("--s0 must lie in (0, 1]")
        require_fraction(r0, "--r0")
        if s0 + r0 > 1:
            raise InputError("--s0 plus --r0 exceeds 1")
        rows = [("r_inf", scalar.sir_rinf(s0, r0, beta, gamma))]
        x0 = 1.0 - s0 - r0
        if x0 > 0 and beta * s0 / gamma >= 1.0:
            rows.append(("x_max", scalar.sir_xmax(s0, x0, beta, gamma)))
        with _output(args.out) as fp:
            fp.writelines(["quantity,value\n", *(f"{k},{v:.17g}\n" for k, v in rows)])
        return EXIT_OK

    _require(args, "x0", "t_end")
    require_fraction(args.x0, "--x0")
    t_end = require_positive(args.t_end, "--t-end")
    dt = require_positive(args.dt, "--dt") if args.dt is not None else t_end / 200.0
    grid = np.arange(dynamics.step_count(t_end, dt, ("--t-end", "--dt")) + 1) * dt
    if kind is ModelKind.SI:
        values = scalar.si_closed_form(args.x0, beta, grid)
    else:
        values = scalar.sis_closed_form(args.x0, beta, gamma, grid)
    with _output(args.out) as fp:
        dynamics.write_csv(fp, ("t", "x"), (grid, values))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "endemic": _cmd_endemic,
    "asymptotic": _cmd_asymptotic,
    "threshold": _cmd_threshold,
    "scalar": _cmd_scalar,
}


def run(args: argparse.Namespace, flags: list[str]) -> int:
    """Execute one parsed command line; returns the process exit code.

    flags are the command line's tokens after the subcommand, parsed again
    after the entries of a --config file.
    """
    try:
        if args.config is not None:
            args = _parse_with_config(args.command, args.config, flags)
        return _COMMANDS[args.command](args)
    except (GraphFormatError, ReducibleMatrixError) as e:
        print(f"netepi: graph error: {e}", file=sys.stderr)
        return EXIT_GRAPH
    except BelowThresholdError as e:
        print(f"netepi: threshold precondition failed: {e}", file=sys.stderr)
        return EXIT_THRESHOLD
    except (NonConvergenceError, InvariantViolationError) as e:
        print(f"netepi: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (InputError, OSError, MemoryError) as e:
        print(f"netepi: bad configuration: {e}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    return run(args, argv[argv.index(args.command) + 1 :])


def script() -> int:
    """main() for a process that ends when it returns: python -m netepi.cli and `netepi`.

    gc.freeze() moves every live object out of the collector's reach, so
    interpreter shutdown skips its full collection over the objects numpy
    made at import (8 ms a process on a 2-core VM with numpy 2.4). main()
    itself leaves the collector alone, because tests and
    benchmarks/tracing.py call it in a process that goes on.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(script())
