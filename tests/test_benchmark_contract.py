"""What the benchmark under benchmarks/ needs from the package, checked fast.

The benchmark traces public functions by name, runs `netepi` command
lines and reads keys of their JSON output; a removed name, flag or key
would otherwise show only in its own, much slower, smoke test
(python -m pytest benchmarks).
"""

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

from netepi import EndemicResult, SirAsymptoticResult, ThresholdReport
from netepi.cli import build_parser

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_traced_names_resolve():
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"netepi.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"netepi.{module_name}.{name}"


@pytest.mark.parametrize(
    "result, keys",
    [
        (ThresholdReport, {"lambda_max", "r0", "crossing_time"}),
        (EndemicResult, {"x_star", "iterations"}),
        (SirAsymptoticResult, {"s_inf", "r_inf", "iterations"}),
    ],
)
def test_json_keys_the_benchmark_reads(result, keys):
    # The CLI writes one JSON key per field; checks.py and run.py read these.
    assert keys <= {f.name for f in dataclasses.fields(result)}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_command_lines_parse(workload, tmp_path):
    plan = workloads.build(workload, 3, True, tmp_path)
    parser = build_parser(exit_on_error=False)
    for call in (plan.setup, *plan.trace_calls):
        args, extras = parser.parse_known_args(call.argv)
        assert args.command == call.subcommand
        assert extras == [], call.label


def test_probe_times_the_rhs_and_the_sis_map(tmp_path):
    graph = tmp_path / "pair.txt"
    graph.write_text("1 2 1.0\n2 1 2.0\n")
    out = tmp_path / "probe.json"
    assert tracing.probe(str(out), str(graph), 0.5, 1.0) == 0
    result = json.loads(out.read_text())
    assert result["rhs_s"] > 0 and result["sis_map_s"] > 0
