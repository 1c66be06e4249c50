"""Span tracing of netepi's public functions, run as a child process.

    python benchmarks/tracing.py cli SPANS.json RUN_ID SUBCOMMAND [ARGS...]
    python benchmarks/tracing.py probe OUT.json GRAPH BETA GAMMA

`cli` replaces the public functions of each netepi module, wherever a
module holds a reference to them, by wrappers that record a span, then runs
netepi.cli.main in this process. Spans stay in memory and are written once,
at exit, as rows [name, start_s, end_s, parent_index, run_id].

`probe` times single calls that no subcommand makes on its own: one `rhs`
evaluation and one application of the SIS fixed-point map.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

TRACED = {
    "graph": ("load_graph", "is_strongly_connected"),
    "spectral": ("dominant_eig", "spectral_radius", "effective_matrix"),
    "dynamics": ("integrate", "write_trajectory_csv", "read_trajectory_csv"),
    "threshold": ("effective_r_series", "time_to_subthreshold"),
    "equilibria": ("sis_endemic", "sir_asymptotic"),
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = [name, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def install(tracer: Tracer) -> None:
    """Swap every reference to a TRACED function inside netepi for a wrapper."""
    modules = [importlib.import_module("netepi")] + [
        importlib.import_module(f"netepi.{m}") for m in (*TRACED, "cli")
    ]
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"netepi.{module_name}")
        for name in names:
            original = getattr(module, name)
            traced = tracer.wrap(f"{module_name}.{name}", original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    setattr(m, attr, traced)


def run_cli(spans_path: str, run_id: str, argv: list[str]) -> int:
    tracer = Tracer(run_id)
    install(tracer)
    from netepi import cli

    try:
        return tracer.call("cli.main", cli.main, argv)
    finally:
        with open(spans_path, "w") as fp:
            json.dump(tracer.spans, fp)


def median_call_s(fn, budget_s: float = 0.2) -> float:
    """Median per-call time over batches sized to about 5 ms each."""
    start = time.perf_counter()
    fn()
    per_call = max(time.perf_counter() - start, 1e-7)
    batch = max(1, int(0.005 / per_call))
    samples = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < 5 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples)


def probe(out_path: str, graph_path: str, beta: float, gamma: float) -> int:
    import numpy as np

    from netepi import dynamics, equilibria, load_graph

    with open(graph_path) as fp:
        g = load_graph(fp.read())
    x = np.full(g.n, 0.01)
    state = dynamics.initial_state("SIR", x)
    params = dynamics.ModelParams("SIR", beta, gamma)
    sis_map = equilibria.sis_fixed_point_map(g, beta, gamma)
    result = {
        "rhs_s": median_call_s(lambda: dynamics.rhs(state, params, g)),
        "sis_map_s": median_call_s(lambda: sis_map(x)),
    }
    with open(out_path, "w") as fp:
        json.dump(result, fp)
    return 0


def main(argv: list[str]) -> int:
    mode, out_path, *rest = argv
    if mode == "cli":
        return run_cli(out_path, rest[0], rest[1:])
    if mode == "probe":
        return probe(out_path, rest[0], float(rest[1]), float(rest[2]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
