"""End-to-end benchmark of the netepi command line, with per-layer timings.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root; it measures the working tree (src/ on
PYTHONPATH), writes its inputs under .bench_work/ and removes them, and
leaves a results file with provenance (and spans, when traced) in
.bench_out/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Metric names and units are those of BENCHMARK.json.

--trace 0 runs the workload's subcommands as subprocesses, one at a time, in
passes while another pass still fits in S seconds (at least two, so every
invocation is also checked for byte-identical output), and reports end-to-end
metrics:
the median over passes of each pass's wall time, per-subcommand wall time
and RK4 throughput, the peak RSS of any subprocess, and setup_s, the median
of five `threshold` calls on the graph alone.

--trace 1 runs every call twice, plainly and through benchmarks/tracing.py,
which records spans around the public functions of each netepi module, and
reports per-layer metrics: self times (threshold.* times include their
spectral children), work counts and the tracing overhead. Counts the library
does not expose carry the unit computed-*.

Every output is checked (benchmarks/checks.py); a failed call or check
counts as one failed operation, never as a crash. --smoke shrinks every
workload to run in seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
MIN_PASSES = 2
CALL_TIMEOUT_S = 150.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Proc:
    wall_s: float
    returncode: int
    maxrss_kb: int


class Executor:
    """Runs subprocesses in the work dir and tallies failed calls and checks."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "NETEPI_LOG"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env.update({k: "1" for k in PINNED_THREADS})
        self.cli = [sys.executable, "-m", "netepi.cli"]
        self.attempted = 0
        self.failures: list[str] = []
        self._digests: dict[str, str] = {}

    def spawn(self, argv: list[str]) -> Proc:
        with open(self.workdir / "stdout", "wb") as out, open(self.workdir / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], CALL_TIMEOUT_S)[0]:
                    proc.kill()
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, proc.returncode, usage.ru_maxrss)

    def check(self, what: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except checks.CheckFailed as e:
            self.failures.append(f"{what}: {e}")
        except Exception as e:  # a broken check is a failed check, not a crash
            self.failures.append(f"{what}: {type(e).__name__}: {e}")

    def run(self, label: str, argv: list[str]) -> Proc:
        """Spawn argv and count a non-zero exit as a failure."""
        proc = self.spawn(argv)

        def exited_ok():
            if proc.returncode != 0:
                stderr = (self.workdir / "stderr").read_text(errors="replace").strip()
                raise checks.CheckFailed(f"exit {proc.returncode}: {stderr[-300:]}")

        self.check(label, exited_ok)
        return proc

    def execute(self, call: workloads.Call, prefix: list[str] | None = None) -> Proc:
        """Run one call, check its outputs, and compare them with earlier runs."""
        for name in call.outputs:
            (self.workdir / name).unlink(missing_ok=True)
        proc = self.run(call.label, (prefix or self.cli) + call.argv)
        for fn in call.checks:
            self.check(call.label, lambda: fn(self.workdir))

        digest = hashlib.sha256((self.workdir / "stdout").read_bytes())
        for name in call.outputs:
            path = self.workdir / name
            digest.update(path.read_bytes() if path.exists() else b"\0missing")
        if call.label in self._digests:
            first = self._digests[call.label]
            self.check(call.label, lambda: _require_same_bytes(first, digest.hexdigest()))
        else:
            self._digests[call.label] = digest.hexdigest()
        return proc


def _require_same_bytes(first: str, now: str) -> None:
    if first != now:
        raise checks.CheckFailed("stdout or output files differ from an identical earlier invocation")


def _time_for_another(start: float, done: int, seconds: float) -> bool:
    """True if one more pass, as long as the mean pass so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# --- trace 0: end to end --------------------------------------------------------


def measure_end_to_end(plan: workloads.Plan, seconds: float, ex: Executor) -> tuple[dict, dict]:
    """Untraced passes; returns the metrics and the samples behind them."""
    ex.run("warm-up", ex.cli + ["--help"])  # byte-compiles src/ before any timing
    setup = [ex.execute(plan.setup) for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or _time_for_another(start, len(passes), seconds):
        passes.append([ex.execute(call) for call in plan.calls])

    def per_pass(procs) -> dict:
        by_cmd = defaultdict(float)
        for call, proc in zip(plan.calls, procs):
            by_cmd[call.subcommand] += proc.wall_s
        steps = sum(call.steps for call in plan.calls)
        return {
            "wall_s": sum(p.wall_s for p in procs),
            "threshold_s": by_cmd["threshold"],
            "endemic_s": by_cmd["endemic"],
            "asymptotic_s": by_cmd["asymptotic"],
            "rk4_steps_per_s": steps / by_cmd["simulate"],
        }

    rows = [per_pass(procs) for procs in passes]
    metrics = {name: _median(row[name] for row in rows) for name in rows[0]}
    metrics["setup_s"] = _median(p.wall_s for p in setup)
    metrics["peak_rss_mb"] = max(p.maxrss_kb for p in setup + sum(passes, [])) / 1024.0
    return metrics, {"setup_s": [p.wall_s for p in setup], "passes": rows}


# --- trace 1: per layer ---------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


@dataclass
class TracedCall:
    call: workloads.Call
    plain: Proc
    traced: Proc
    spans: list[list]
    result: dict  # the JSON the call wrote, for iteration counts
    csv_bytes: int


def traced_pass(plan: workloads.Plan, ex: Executor, run_id: str) -> list[TracedCall]:
    tracer = [sys.executable, str(ROOT / "benchmarks" / "tracing.py"), "cli"]
    spans_path = ex.workdir / "spans.json"
    records = []
    for call in plan.trace_calls:
        plain = ex.execute(call)
        spans_path.unlink(missing_ok=True)
        traced = ex.execute(call, tracer + [str(spans_path), run_id])
        spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
        result = {}
        if call.subcommand in ("endemic", "asymptotic") and (ex.workdir / call.outputs[0]).exists():
            result = json.loads((ex.workdir / call.outputs[0]).read_text())
        csv_bytes = 0
        if call.subcommand == "simulate":
            csv_bytes = sum((ex.workdir / name).stat().st_size for name in call.outputs if (ex.workdir / name).exists())
        records.append(TracedCall(call, plain, traced, spans, result, csv_bytes))
    return records


_SOLVER = {"endemic": "equilibria.sis_endemic", "asymptotic": "equilibria.sir_asymptotic"}


def pass_layers(records: list[TracedCall], refs: dict[str, np.ndarray]) -> dict:
    """Per-layer numbers of one traced pass."""
    own = defaultdict(list)  # span name -> self times
    inclusive = defaultdict(float)  # span name -> summed durations
    warm_radius = []  # spectral_radius calls started from the previous R(t) sample
    r_samples = 0
    m = {}
    for rec in records:
        selfs = self_times(rec.spans)
        series_started = set()
        for (name, start, end, parent, _), s in zip(rec.spans, selfs):
            own[name].append(s)
            inclusive[name] += end - start
            if name == "spectral.spectral_radius" and parent is not None:
                if rec.spans[parent][0] == "threshold.effective_r_series":
                    r_samples += 1
                    if parent in series_started:
                        warm_radius.append(s)
                    series_started.add(parent)
        call, tag = rec.call, rec.call.tag
        solver = _SOLVER.get(call.subcommand)
        span_self = sum(s for span, s in zip(rec.spans, selfs) if span[0] == solver)
        iterations = rec.result.get("iterations", 0)
        if call.subcommand == "endemic" and tag in workloads.ENDEMIC_TAGS:
            x = rec.result.get("x_star")
            m[f"equilibria.sis_endemic_s.{tag}"] = span_self
            m[f"equilibria.sis_endemic_iterations.{tag}"] = iterations
            # With no answer, report the largest error a vector of fractions can have.
            m[f"equilibria.sis_endemic_err.{tag}"] = 1.0 if x is None else float(np.abs(np.asarray(x) - refs[tag]).max())
        elif call.subcommand == "asymptotic":
            m[f"equilibria.sir_asymptotic_s.{tag}"] = span_self
            m[f"equilibria.sir_asymptotic_iterations.{tag}"] = iterations

    steps = sum(rec.call.steps for rec in records)
    integrate_s = sum(own["dynamics.integrate"])
    m.update(
        {
            "graph.load_graph_s": _median(own["graph.load_graph"]),
            "graph.is_strongly_connected_s": _median(own["graph.is_strongly_connected"]),
            "spectral.dominant_eig_s": _median(own["spectral.dominant_eig"]),
            "spectral.effective_matrix_s": sum(own["spectral.effective_matrix"]),
            "spectral.spectral_radius_warm_ms": 1e3 * _median(warm_radius),
            "dynamics.integrate_s": integrate_s,
            "dynamics.step_us": 1e6 * integrate_s / steps,
            "dynamics.rk4_steps": steps,
            "dynamics.matvecs": 4 * steps,
            "dynamics.write_trajectory_csv_s": sum(own["dynamics.write_trajectory_csv"]),
            "dynamics.read_trajectory_csv_s": sum(own["dynamics.read_trajectory_csv"]),
            "dynamics.csv_bytes": sum(rec.csv_bytes for rec in records),
            "threshold.effective_r_series_s": inclusive["threshold.effective_r_series"],
            "threshold.time_to_subthreshold_s": inclusive["threshold.time_to_subthreshold"],
            "threshold.r_samples": r_samples,
            "cli.overhead_s": sum(r.traced.wall_s - cli_main_s(r.spans) for r in records),
            "trace.overhead_frac": sum(r.traced.wall_s for r in records)
            / sum(r.plain.wall_s for r in records)
            - 1.0,
        }
    )
    return m


def cli_main_s(spans: list[list]) -> float:
    """Duration of the cli.main span: the part of a call spent inside netepi."""
    return sum(end - start for _, start, end, parent, _ in spans if parent is None)


def measure_layers(plan: workloads.Plan, seconds: float, ex: Executor, run_id: str) -> tuple[dict, dict]:
    """Traced passes, single-call probes and the Newton references (untimed)."""
    inp = plan.inputs
    ex.run("warm-up", ex.cli + ["--help"])
    startup = [ex.run("netepi --help", ex.cli + ["--help"]).wall_s for _ in range(STARTUP_REPEATS)]
    probe_path = ex.workdir / "probe.json"
    tracing = str(ROOT / "benchmarks" / "tracing.py")
    beta = inp.beta(2.0)
    ex.run("layer probe", [sys.executable, tracing, "probe", str(probe_path), "graph.txt", repr(beta), "1.0"])
    probe = json.loads(probe_path.read_text()) if probe_path.exists() else {}
    refs = {
        tag: workloads.sis_endemic_reference(inp.adjacency, inp.beta(r0), workloads.GAMMA)
        for tag, r0 in workloads.ENDEMIC_TAGS.items()
    }

    passes, spans = [], []
    start = time.perf_counter()
    while not passes or _time_for_another(start, len(passes), seconds):
        records = traced_pass(plan, ex, f"{run_id}-pass{len(passes)}")
        passes.append(pass_layers(records, refs))
        spans += [{"call": r.call.label, "run_id": r.spans[0][4], "spans": r.spans} for r in records if r.spans]

    metrics = {name: _median(p[name] for p in passes) for name in passes[0]}
    metrics.update(
        {
            "graph.nnz": inp.nnz,
            "graph.dense_bytes": inp.n * inp.n * 8,
            "dynamics.rhs_us": 1e6 * probe.get("rhs_s", 0.0),
            "equilibria.sis_map_us": 1e6 * probe.get("sis_map_s", 0.0),
            "cli.startup_s": _median(startup),
        }
    )
    return metrics, {"passes": passes, "spans": spans}


# --- entry point ----------------------------------------------------------------


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit or "unknown",
        "child_env": {k: "1" for k in PINNED_THREADS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "netepi" / "cli.py").is_file() or not spec_path.is_file():
        print("run.py: needs src/netepi and BENCHMARK.json; run it from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        plan = workloads.build(args.workload, args.seed, args.smoke, workdir)
        ex = Executor(workdir)
        if args.trace:
            measured, samples = measure_layers(plan, args.seconds, ex, run_id)
        else:
            measured, samples = measure_end_to_end(plan, args.seconds, ex)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    if set(measured) != set(declared):
        print(f"run.py: metrics {sorted(set(measured) ^ set(declared))} differ from BENCHMARK.json", file=sys.stderr)
        return 3
    result = {
        "correct": not ex.failures,
        "attempted": ex.attempted,
        "failed": len(ex.failures),
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"provenance": provenance(), "failures": ex.failures, "result": result, **samples}
    (out_dir / f"{run_id}.json").write_text(json.dumps(record) + "\n")

    print(f"# provenance {json.dumps(record['provenance'])}")

    for failure in ex.failures:
        print(f"FAILED {failure}")
    print(f"# {run_id}: failed_frac {len(ex.failures) / ex.attempted:.6g} ({len(ex.failures)}/{ex.attempted})")
    for name, metric in result["metrics"].items():
        print(f"# {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
