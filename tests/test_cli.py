import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from netepi import read_trajectory_csv
from netepi.cli import main

from conftest import graph20_edge_list

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def pair_graph(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("1 2 1.0\n2 1 1.0\n")
    return str(path)


@pytest.fixture()
def g20_file(tmp_path):
    path = tmp_path / "g20.txt"
    path.write_text(graph20_edge_list())
    return str(path)


def test_endemic_below_threshold_exits_4(pair_graph, capsys):
    # lambda_max = 1, so beta/gamma = 0.5 is below threshold
    code = main(
        ["endemic", "--graph", pair_graph, "--beta", "0.5", "--gamma", "1.0"]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "R0" in err and "0.5" in err


def test_endemic_json_document(pair_graph, tmp_path, capsys):
    out = tmp_path / "endemic.json"
    code = main(
        [
            "endemic",
            "--graph",
            pair_graph,
            "--beta",
            "2.0",
            "--gamma",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"x_star", "iterations", "residual", "width", "bracket", "warnings"}
    np.testing.assert_allclose(doc["x_star"], 0.5, atol=1e-9)  # 1 - gamma/(beta*1)
    assert doc["bracket"] == "lower"
    assert doc["residual"] <= 1e-10


def test_simulate_round_trip_and_determinism(pair_graph, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "simulate",
        "--graph",
        pair_graph,
        "--model",
        "SI",
        "--beta",
        "1.0",
        "--x0-uniform",
        "0.1",
        "--t-end",
        "2.0",
        "--dt",
        "0.01",
        "--record-every",
        "5",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical rerun
    with open(out1) as fp:
        traj = read_trajectory_csv(fp)
    assert len(traj) == 1 + 200 // 5  # initial state + every 5th of 200 steps
    assert np.all(np.diff(traj.times) > 0)
    np.testing.assert_allclose(traj.s + traj.x + traj.r, 1.0, atol=1e-12)


def test_simulate_rejects_conflicting_seeds(pair_graph, capsys):
    code = main(
        [
            "simulate",
            "--graph",
            pair_graph,
            "--model",
            "SI",
            "--beta",
            "1.0",
            "--x0-uniform",
            "0.1",
            "--seed-node",
            "1",
            "--t-end",
            "1.0",
        ]
    )
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_simulate_gamma_sweep(g20_file, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "simulate",
            "--graph",
            g20_file,
            "--model",
            "SIS",
            "--beta",
            "0.5",
            "--gamma",
            "0.4,0.8",
            "--x0-uniform",
            "0.1",
            "--t-end",
            "1.0",
            "--dt",
            "0.01",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    for suffix in ("0.4", "0.8"):
        path = tmp_path / f"sweep_gamma{suffix}.csv"
        assert path.exists()
        with open(path) as fp:
            traj = read_trajectory_csv(fp)
        assert traj.n == 20


def _simulate(graph, model, gamma, out, *extra):
    return main(
        ["simulate", "--graph", graph, "--model", model, "--beta", "0.5", "--gamma", gamma,
         "--x0-uniform", "0.1", "--t-end", "0.5", "--record-every", "7", "--out", str(out), *extra]
    )


@pytest.mark.parametrize(
    "model, gammas, extra",
    [
        ("SIS", ["0.4", "0.8", "3"], ["--dt", "0.01"]),
        ("SIR", ["0.4", "0.8", "3"], ["--dt", "0.01"]),
        # Without --dt the step is 1e-3 / max(beta, gamma): two runs share
        # 0.002, the others get 0.00125 and 0.0003125.
        ("SIS", ["0.2", "0.4", "0.8", "3.2"], []),
    ],
)
def test_sweep_files_equal_single_runs(g20_file, tmp_path, model, gammas, extra):
    assert _simulate(g20_file, model, ",".join(gammas), tmp_path / "sweep.csv", *extra) == 0
    for gv in gammas:
        single = tmp_path / f"single{gv}.csv"
        assert _simulate(g20_file, model, gv, single, *extra) == 0
        assert (tmp_path / f"sweep_gamma{gv}.csv").read_bytes() == single.read_bytes()


def test_sweep_excursion_in_one_column_exits_5(g20_file, tmp_path, capsys):
    # gamma * dt = 4 makes RK4 overshoot the box for that column only.
    code = _simulate(g20_file, "SIS", "0.4,400", tmp_path / "sweep.csv", "--dt", "0.01")
    assert code == 5
    assert "numerical failure" in capsys.readouterr().err
    assert not list(tmp_path.glob("sweep*"))


@pytest.mark.parametrize(
    "model, gammas, code", [("SIS", ["0.4"], 0), ("SIS", ["0.4", "0.8"], 0), ("SI", [], 2)]
)
def test_out_template_names_each_run(g20_file, tmp_path, model, gammas, code):
    gamma = ["--gamma", ",".join(gammas)] if gammas else []  # SI has no gamma
    argv = ["simulate", "--graph", g20_file, "--model", model, "--beta", "0.5", *gamma,
            "--x0-uniform", "0.1", "--t-end", "0.5", "--dt", "0.01",
            "--out", str(tmp_path / "traj_{gamma}.csv")]  # fmt: skip
    assert main(argv) == code
    assert sorted(p.name for p in tmp_path.glob("traj_*")) == [f"traj_{gv}.csv" for gv in gammas]


@pytest.mark.parametrize("gammas", ["1,1", "1,1.0"])
def test_sweep_rejects_colliding_output_files(g20_file, tmp_path, capsys, gammas):
    assert _simulate(g20_file, "SIS", gammas, tmp_path / "sweep.csv", "--dt", "0.01") == 2
    assert "would write one file twice" in capsys.readouterr().err
    assert not list(tmp_path.glob("sweep*"))


@pytest.mark.parametrize("out, stem", [("sweep.csv", "sweep_gamma"), ("traj_{gamma}.csv", "traj_")])
def test_close_gammas_are_named_by_repr(g20_file, tmp_path, out, stem):
    # {gamma:g} reads 0.123457 for both close values; 2 and 0.5 keep their short names.
    assert _simulate(g20_file, "SIS", "2,0.1234567,0.1234568,0.5", tmp_path / out, "--dt", "0.01") == 0
    labels = ["0.1234567", "0.1234568", "0.5", "2"]
    assert sorted(p.name for p in tmp_path.glob(f"{stem}*")) == [f"{stem}{v}.csv" for v in labels]
    single = tmp_path / "single.csv"
    assert _simulate(g20_file, "SIS", "0.1234568", single, "--dt", "0.01") == 0
    assert (tmp_path / f"{stem}0.1234568.csv").read_bytes() == single.read_bytes()


@pytest.mark.parametrize(
    "t_end, dt, message",
    [
        ("0.0105", "0.001", "not a whole number of steps"),
        ("0.5", "0.3", "not a whole number of steps"),
        ("1e300", "1e-300", "exceeds the limit"),
        ("1e6", "1e-6", "exceeds the limit"),
    ],
)
def test_simulate_needs_a_whole_bounded_step_count(pair_graph, tmp_path, capsys, t_end, dt, message):
    out = tmp_path / "traj.csv"
    code = main(
        ["simulate", "--graph", pair_graph, "--model", "SIS", "--beta", "1", "--gamma", "1",
         "--x0-uniform", "0.1", "--t-end", t_end, "--dt", dt, "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "bad configuration" in captured.err and message in captured.err
    assert not out.exists()


def test_jobs_is_rejected(g20_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _simulate(g20_file, "SIS", "0.4,0.8", tmp_path / "sweep.csv", "--jobs", "2")
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    code = _simulate(g20_file, "SIS", "0.4,0.8", tmp_path / "sweep.csv", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys: ['jobs']" in capsys.readouterr().err
    assert not list(tmp_path.glob("sweep*"))


@pytest.mark.parametrize(
    "command, argv",
    [
        ("simulate", ["--model", "SI", "--beta", "1", "--x0-uniform", "0.1", "--t-end", "1"]),
        ("endemic", ["--beta", "2", "--gamma", "1"]),
        ("asymptotic", ["--beta", "2", "--gamma", "1", "--x0-uniform", "0.1"]),
        ("threshold", ["--beta", "2", "--gamma", "1"]),
        ("scalar", ["--model", "SI", "--beta", "1", "--x0", "0.1", "--t-end", "1"]),
    ],
)
def test_format_mismatch_exits_2(pair_graph, tmp_path, capsys, command, argv):
    # No subcommand takes --format, not even naming the format it writes.
    graph = [] if command == "scalar" else ["--graph", pair_graph]
    output_format = "csv" if command in ("simulate", "scalar") else "json"
    with pytest.raises(SystemExit) as exc:
        main([command, *graph, *argv, "--format", output_format])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --format" in captured.err
    assert captured.out == ""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": output_format}))
    assert main([command, *graph, *argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "unknown config keys: ['format']" in captured.err
    assert captured.out == ""


def test_threshold_with_trajectory(g20_file, tmp_path):
    traj_path = tmp_path / "traj.csv"
    assert (
        main(
            [
                "simulate",
                "--graph",
                g20_file,
                "--model",
                "SIR",
                "--beta",
                "0.5",
                "--gamma",
                "0.4",
                "--seed-node",
                "1",
                "--t-end",
                "40.0",
                "--dt",
                "0.01",
                "--record-every",
                "25",
                "--out",
                str(traj_path),
            ]
        )
        == 0
    )
    report_path = tmp_path / "report.json"
    rt_path = tmp_path / "rt.csv"
    code = main(
        [
            "threshold",
            "--graph",
            g20_file,
            "--beta",
            "0.5",
            "--gamma",
            "0.4",
            "--trajectory",
            str(traj_path),
            "--rt-out",
            str(rt_path),
            "--out",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["classification"] == "above"
    assert report["crossing_time"] is not None and report["crossing_time"] > 0
    rows = rt_path.read_text().strip().splitlines()
    assert rows[0] == "t,R_t"
    values = np.array([float(line.split(",")[1]) for line in rows[1:]])
    assert values[0] > 1.0 and values[-1] < 1.0
    assert np.all(np.diff(values) <= 1e-9)

    # the simulated CSV's mean infected fraction is unimodal in time
    with open(traj_path) as fp:
        traj = read_trajectory_csv(fp)
    mean_x = traj.x.mean(axis=1)
    peak = int(np.argmax(mean_x))
    assert 0 < peak < len(mean_x) - 1
    assert np.all(np.diff(mean_x[: peak + 1]) >= -1e-12)
    assert np.all(np.diff(mean_x[peak:]) <= 1e-12)


def test_scalar_sir_final_size_rows(tmp_path, capsys):
    # beta/gamma = 1/4: final size lands in (0.05, 0.1) and there is no peak row
    code = main(
        ["scalar", "--model", "SIR", "--beta", "0.25", "--gamma", "1.0", "--s0", "0.95", "--r0", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,value"
    values = dict(line.split(",") for line in lines[1:])
    assert 0.05 < float(values["r_inf"]) < 0.1
    assert "x_max" not in values

    # beta/gamma = 4: nearly everyone ends up recovered and a peak row appears
    code = main(
        ["scalar", "--model", "SIR", "--beta", "2.0", "--gamma", "0.5", "--s0", "0.95", "--r0", "0"]
    )
    assert code == 0
    values = dict(
        line.split(",")
        for line in capsys.readouterr().out.strip().splitlines()[1:]
    )
    assert float(values["r_inf"]) > 0.95
    assert "x_max" in values


def test_scalar_si_grid(capsys):
    code = main(
        ["scalar", "--model", "SI", "--beta", "1.0", "--x0", "0.5", "--t-end", "1.0", "--dt", "0.5"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == 4  # t = 0, 0.5, 1.0
    assert float(lines[1].split(",")[1]) == 0.5


@pytest.mark.parametrize(
    "dt, message", [("0.6", "not a whole number of steps"), ("5", "--t-end must be at least --dt")]
)
def test_scalar_needs_a_whole_step_count(tmp_path, capsys, dt, message):
    out = tmp_path / "scalar.csv"
    code = main(
        ["scalar", "--model", "SIS", "--beta", "1", "--gamma", "0.5", "--x0", "0.1",
         "--t-end", "1", "--dt", dt, "--out", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "bad configuration" in captured.err and message in captured.err
    assert captured.out == "" and not out.exists()


def test_matrix_json_graph(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text("[[0, 2.0], [8.0, 0]]")
    out = tmp_path / "report.json"
    code = main(
        ["threshold", "--graph", str(path), "--beta", "0.1", "--gamma", "1.0", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["r0"] == pytest.approx(0.4, rel=1e-10)
    assert report["classification"] == "below"


def test_config_file_with_flag_override(pair_graph, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": pair_graph, "beta": 2.0, "gamma": "1.0"}))
    code = main(["endemic", "--config", str(cfg), "--beta", "4.0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["x_star"], 0.75, atol=1e-9)  # beta=4 wins


_ENDEMIC = {"beta": 2.0, "gamma": "1.0"}
_SIMULATE = {"model": "SI", "beta": 1.0, "t_end": 0.1, "dt": 0.01}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("endemic", {**_ENDEMIC, "beta": "abc"}, "argument --beta: invalid float value: 'abc'"),
        ("simulate", {**_SIMULATE, "seed_node": 1.0}, "argument --seed-node: invalid int value"),
        ("simulate", {**_SIMULATE, "seed_node": True}, "'seed_node' must be a number or a string"),
        ("simulate", {**_SIMULATE, "x0_uniform": 0.1, "record_every": "x"}, "invalid int value"),
        ("endemic", {**_ENDEMIC, "bracket": "middle"}, "argument --bracket: invalid choice"),
        ("endemic", {**_ENDEMIC, "tol": None}, "'tol' must be a number or a string"),
        ("endemic", {**_ENDEMIC, "tol": [1e-8]}, "'tol' must be a number or a string"),
        ("endemic", {**_ENDEMIC, "tol": {"value": 1e-8}}, "'tol' must be a number or a string"),
        # keys that only other subcommands take
        ("endemic", {**_ENDEMIC, "t_end": 5}, "unknown config keys: ['t_end']"),
        ("threshold", {**_ENDEMIC, "s0": 0.9}, "unknown config keys: ['s0']"),
        ("asymptotic", {**_ENDEMIC, "x0_uniform": 0.1, "bracket": "upper"},
         "unknown config keys: ['bracket']"),
        ("threshold", {**_ENDEMIC, "graph_path": "g.txt"}, "unknown config keys: ['graph_path']"),
        ("threshold", {**_ENDEMIC, "config": "other.json"}, "unknown config keys: ['config']"),
    ],
)
def test_config_values_are_checked_like_flags(
    pair_graph, tmp_path, capsys, command, config, message
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": pair_graph, **config}))
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("netepi: bad configuration: ")
    assert message in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("endemic", {**_ENDEMIC, "tol": "1e-8", "bracket": "upper"},
         ["--beta", "2.0", "--gamma", "1.0", "--tol", "1e-8", "--bracket", "upper"]),
        ("simulate", {**_SIMULATE, "seed-node": 2, "record_every": "5"},
         ["--model", "SI", "--beta", "1.0", "--t-end", "0.1", "--dt", "0.01", "--seed-node", "2",
          "--record-every", "5"]),
        ("asymptotic", {**_ENDEMIC, "x0_uniform": 0.05, "start": "upper", "tol": 1e-12},
         ["--beta", "2.0", "--gamma", "1.0", "--x0-uniform", "0.05", "--start", "upper",
          "--tol", "1e-12"]),
        ("threshold", {"beta": 0.25, "gamma": 0.5}, ["--beta", "0.25", "--gamma", "0.5"]),
    ],
)
def test_config_file_equals_flags(pair_graph, tmp_path, command, config, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": pair_graph, **config}))
    from_file, from_flags = tmp_path / "file.out", tmp_path / "flags.out"
    assert main([command, "--config", str(cfg), "--out", str(from_file)]) == 0
    assert main([command, "--graph", pair_graph, *flags, "--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, extra", [("simulate", ["--model", "SIR", "--t-end", "1"]), ("asymptotic", [])]
)
def test_non_finite_x0_file_exits_2(tmp_path, capsys, command, extra, value):
    ring = tmp_path / "ring.txt"
    ring.write_text("1 2 1.0\n2 3 1.0\n3 1 1.0\n")
    x0 = tmp_path / "x0.txt"
    x0.write_text(f"0.1\n{value}\n0.1\n")
    start = time.perf_counter()
    code = main(
        [command, "--graph", str(ring), "--beta", "1", "--gamma", "0.5", "--x0-file", str(x0),
         *extra]
    )
    assert code == 2 and time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert "x0 file holds a non-finite value" in captured.err
    assert captured.out == ""


def test_bad_graph_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 -5\n")
    code = main(["threshold", "--graph", str(path), "--beta", "1", "--gamma", "1"])
    assert code == 3
    assert "graph error" in capsys.readouterr().err

    ring = tmp_path / "reducible.txt"
    ring.write_text("1 2 1.0\n")
    code = main(["threshold", "--graph", str(ring), "--beta", "1", "--gamma", "1"])
    assert code == 3

    matrix = tmp_path / "mat.json"
    matrix.write_text('[[0, true], ["3", 0]]')  # JSON that numpy would read as 1 and 3
    code = main(["threshold", "--graph", str(matrix), "--beta", "1", "--gamma", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert "row 1, column 2: entry True is not a number" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, line",
    [("n 99999999999999999999\n1 2 1.0\n", 1), ("1 2 1.0\n99999999999999999999 1 1.0\n", 2)],
)
def test_graph_beyond_the_index_bound_exits_3(tmp_path, capsys, text, line):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    code = main(["threshold", "--graph", str(path), "--beta", "1", "--gamma", "1"])
    assert code == 3
    captured = capsys.readouterr()
    assert "graph error" in captured.err and f"line {line}:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "text", ["3037000499 1 1\n1 3037000499 1\n", "n 2000000\n1 2 1.0\n2 1 1.0\n"]
)
def test_fewer_edges_than_nodes_exit_3_without_an_scc_pass(tmp_path, capsys, scc_passes, text):
    path = tmp_path / "sparse.txt"
    path.write_text(text)
    code = main(["threshold", "--graph", str(path), "--beta", "1", "--gamma", "1"])
    assert code == 3
    assert "not strongly connected" in capsys.readouterr().err
    assert scc_passes == []


def test_asymptotic_checks_the_graph_before_building_start_vectors(
    tmp_path, capsys, monkeypatch
):
    def fail(args, n):
        raise AssertionError(f"start vectors of length {n} built before the graph check")

    monkeypatch.setattr("netepi.cli._initial_vectors", fail)
    path = tmp_path / "sparse.txt"
    path.write_text("3037000499 1 1\n1 3037000499 1\n")
    argv = ["--graph", str(path), "--beta", "1", "--gamma", "1", "--seed-node", "1"]
    assert main(["asymptotic", *argv]) == 3
    assert "not strongly connected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra", [("endemic", []), ("asymptotic", ["--x0-uniform", "0.05"])]
)
def test_equilibrium_commands_make_one_scc_pass(g20_file, capsys, scc_passes, command, extra):
    code = main([command, "--graph", g20_file, "--beta", "1.0", "--gamma", "1.0", *extra])
    assert code == 0
    assert scc_passes == [20]


def test_missing_required_flag_exits_2(pair_graph, capsys):
    code = main(["endemic", "--graph", pair_graph, "--beta", "1.0"])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


def test_unknown_flag_exits_2(pair_graph):
    with pytest.raises(SystemExit) as exc:
        main(["endemic", "--graph", pair_graph, "--frobnicate"])
    assert exc.value.code == 2


def test_asymptotic_json(pair_graph, capsys):
    code = main(
        [
            "asymptotic",
            "--graph",
            pair_graph,
            "--beta",
            "2.0",
            "--gamma",
            "0.5",
            "--x0-uniform",
            "0.05",
            "--start",
            "upper",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["start"] == "upper"
    s_inf = np.array(doc["s_inf"])
    np.testing.assert_allclose(np.array(doc["r_inf"]), 1.0 - s_inf)
    assert doc["residual"] <= 1e-10
    assert s_inf.max() < 0.05  # beta/gamma = 4 outbreak burns nearly everyone


@pytest.mark.parametrize(
    "command, extra",
    [("endemic", []), ("asymptotic", ["--x0-uniform", "0.1"]), ("threshold", [])],
)
def test_single_gamma_commands_reject_a_list(pair_graph, capsys, command, extra):
    code = main([command, "--graph", pair_graph, "--beta", "2.0", "--gamma", "0.5,5", *extra])
    assert code == 2
    captured = capsys.readouterr()
    assert "takes one --gamma value" in captured.err
    assert captured.out == ""


# A run that each number flag would otherwise complete, minus that flag.
NUMBER_FLAG_RUNS = {
    "--beta": ["threshold", "--gamma", "1"],
    "--gamma": ["threshold", "--beta", "1"],
    "--t-end": ["simulate", "--model", "SIS", "--beta", "1", "--gamma", "1", "--x0-uniform", "0.1"],
    "--dt": ["simulate", "--model", "SIS", "--beta", "1", "--gamma", "1", "--x0-uniform", "0.1",
             "--t-end", "1"],
    "--tol": ["endemic", "--beta", "2", "--gamma", "1"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("flag", list(NUMBER_FLAG_RUNS))
def test_number_flags_must_be_positive_and_finite(pair_graph, capsys, flag, value):
    command, *argv = NUMBER_FLAG_RUNS[flag]
    start = time.perf_counter()
    code = main([command, "--graph", pair_graph, *argv, f"{flag}={value}"])
    elapsed = time.perf_counter() - start
    assert code == 2
    captured = capsys.readouterr()
    assert "bad configuration" in captured.err and "must be positive and finite" in captured.err
    assert captured.out == ""
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "SI", "--beta", "1", "--x0", "nan", "--t-end", "1"],
        ["--model", "SIS", "--beta", "1", "--gamma", "0.5", "--x0", "nan", "--t-end", "1"],
        ["--model", "SIR", "--beta", "1", "--gamma", "1", "--s0", "nan"],
        ["--model", "SIR", "--beta", "2", "--gamma", "1", "--s0", "0.9", "--r0", "nan"],
    ],
)
def test_scalar_rejects_nan_fractions(capsys, argv):
    assert main(["scalar", *argv]) == 2
    captured = capsys.readouterr()
    assert "bad configuration" in captured.err
    assert captured.out == ""


def test_uncertifiable_tol_exits_5(pair_graph, capsys):
    code = main(["endemic", "--graph", pair_graph, "--beta", "2", "--gamma", "1", "--tol", "1e-300"])
    assert code == 5
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err and captured.out == ""


@pytest.mark.parametrize("dt", ["-0.1", "0"])
def test_scalar_rejects_nonpositive_dt(capsys, dt):
    code = main(
        ["scalar", "--model", "SIS", "--beta", "1", "--gamma", "0.5", "--x0", "0.1",
         "--t-end", "1", "--dt", dt]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == "netepi: bad configuration: --dt must be positive and finite\n"
    assert captured.out == ""


def test_internal_value_error_is_not_bad_configuration(pair_graph, monkeypatch):
    # An internal bug such as a numpy broadcast error must not exit 2.
    from netepi import threshold

    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(threshold, "reproduction_number", broken)
    with pytest.raises(ValueError, match="broadcast"):
        main(["threshold", "--graph", pair_graph, "--beta", "1", "--gamma", "1"])


@pytest.mark.parametrize("flag", ["--graph", "--config", "--trajectory"])
def test_undecodable_input_file_exits_2(pair_graph, tmp_path, capsys, flag):
    binary = tmp_path / "binary"
    binary.write_bytes(b"t,s_1\xff\xfe\n")
    argv = {"--graph": pair_graph, "--beta": "1", "--gamma": "1"}
    if flag == "--trajectory":
        argv["--rt-out"] = str(tmp_path / "rt")
    argv[flag] = str(binary)
    code = main(["threshold", *[token for item in argv.items() for token in item]])
    assert code == 2
    unreadable = {
        "--graph": "cannot read graph file",
        "--config": "cannot read config file",
        "--trajectory": "not a trajectory CSV",
    }
    assert f"bad configuration: {unreadable[flag]}" in capsys.readouterr().err


def test_rt_out_without_trajectory_exits_2(pair_graph, tmp_path, capsys):
    rt = tmp_path / "rt.csv"
    argv = ["--graph", pair_graph, "--beta", "1", "--gamma", "1", "--rt-out", str(rt)]
    code = main(["threshold", *argv])
    assert code == 2
    assert "--rt-out needs --trajectory" in capsys.readouterr().err
    assert not rt.exists()


def test_trajectory_without_rt_out_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    argv = ["--graph", missing, "--beta", "1", "--gamma", "1", "--trajectory", missing]
    code = main(["threshold", *argv])
    assert code == 2
    assert "--trajectory needs --rt-out" in capsys.readouterr().err


def test_rt_out_and_out_naming_one_file_exit_2(pair_graph, tmp_path, capsys):
    same = tmp_path / "same.txt"
    argv = ["--graph", pair_graph, "--beta", "1", "--gamma", "1",
            "--trajectory", str(tmp_path / "missing.csv"), "--rt-out", str(same), "--out", str(same)]
    code = main(["threshold", *argv])
    assert code == 2
    assert "--rt-out and --out would write one file twice" in capsys.readouterr().err
    assert not same.exists()


@pytest.mark.parametrize("flag", ["--out", "--rt-out"])
def test_output_naming_the_trajectory_input_exits_2(pair_graph, tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    simulate = ["--graph", pair_graph, "--model", "SIR", "--beta", "1", "--gamma", "0.5",
                "--seed-node", "1", "--t-end", "1", "--dt", "0.1", "--out", "tr.csv"]
    assert main(["simulate", *simulate]) == 0
    digest = hashlib.sha256(Path("tr.csv").read_bytes()).hexdigest()
    outputs = {"--rt-out": "rt.csv", "--out": "report.json", flag: "./tr.csv"}
    argv = ["--graph", pair_graph, "--beta", "1", "--gamma", "0.5", "--trajectory", "tr.csv",
            *[token for item in outputs.items() for token in item]]
    assert main(["threshold", *argv]) == 2
    assert "would overwrite the --trajectory input: tr.csv" in capsys.readouterr().err
    assert hashlib.sha256(Path("tr.csv").read_bytes()).hexdigest() == digest
    assert sorted(os.listdir()) == ["pair.txt", "tr.csv"]



@pytest.mark.parametrize(
    "argv, flag, target",
    [
        (["endemic", "--graph", "g.txt", "--beta", "2", "--gamma", "1", "--out", "g.txt"],
         "--graph", "g.txt"),
        (["simulate", "--graph", "g.txt", "--model", "SIS", "--beta", "1", "--gamma", "1",
          "--x0-file", "x0.txt", "--t-end", "1", "--dt", "0.1", "--out", "x0.txt"],
         "--x0-file", "x0.txt"),
        (["endemic", "--config", "c.json", "--beta", "2", "--gamma", "1", "--out", "./c.json"],
         "--config", "c.json"),
        (["simulate", "--graph", "g.txt", "--model", "SIS", "--beta", "1", "--gamma", "1,2",
          "--x0-file", "x0_gamma2.txt", "--t-end", "1", "--dt", "0.1", "--out", "x0.txt"],
         "--x0-file", "x0_gamma2.txt"),
    ],
    ids=["endemic-graph", "simulate-x0-file", "endemic-config", "sweep-file-x0-file"],
)
def test_output_naming_an_input_exits_2(tmp_path, monkeypatch, capsys, argv, flag, target):
    monkeypatch.chdir(tmp_path)
    Path("g.txt").write_text("1 2 1.0\n2 1 1.0\n")
    Path(target).write_text('{"graph": "g.txt"}\n' if flag == "--config" else "0.1\n0.1\n")
    digests = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in os.listdir()}
    assert main(argv) == 2
    assert f"would overwrite the {flag} input: {target}" in capsys.readouterr().err
    assert {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in os.listdir()} == digests


@pytest.mark.parametrize(
    "linked, argv, message",
    [
        ("g.txt", ["endemic", "--graph", "g.txt", "--beta", "2", "--gamma", "1", "--out", "h.txt"],
         "--out would overwrite the --graph input: g.txt"),
        ("rt.csv", ["threshold", "--graph", "g.txt", "--beta", "1", "--gamma", "1",
                    "--trajectory", "tr.csv", "--rt-out", "rt.csv", "--out", "h.txt"],
         "--rt-out and --out would write one file twice: h.txt"),
    ],
    ids=["output-links-input", "output-links-output"],
)
def test_output_hard_linked_to_another_file_exits_2(
    tmp_path, monkeypatch, capsys, linked, argv, message
):
    monkeypatch.chdir(tmp_path)
    Path("g.txt").write_text("1 2 1.0\n2 1 1.0\n")
    Path("rt.csv").write_text("t,R_t\n")
    os.link(linked, "h.txt")
    digests = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in os.listdir()}
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in os.listdir()} == digests


SIMULATE_SIS = ["simulate", "--graph", "missing.txt", "--model", "SIS", "--beta", "1",
                "--gamma", "1", "--x0-uniform", "0.1", "--t-end", "1", "--dt", "0.1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["endemic", "--graph", "missing.txt", "--beta", "-1", "--gamma", "1"],
         "--beta must be positive and finite"),
        (["threshold", "--graph", "missing.txt", "--beta", "1", "--gamma", "0"],
         "--gamma must be positive and finite"),
        (["asymptotic", "--graph", "missing.txt", "--beta", "1", "--gamma", "1",
          "--x0-uniform", "0.1", "--tol", "0"], "--tol must be positive and finite"),
        (["asymptotic", "--graph", "missing.txt", "--beta", "1", "--gamma", "1"],
         "give exactly one of --x0-uniform, --seed-node, --x0-file"),
        ([*SIMULATE_SIS, "--dt", "0"], "--dt must be positive and finite"),
        ([*SIMULATE_SIS, "--t-end", "1.05"],
         "--t-end = 1.05 is not a whole number of steps --dt = 0.1"),
        ([*SIMULATE_SIS, "--record-every", "0"], "--record-every must be >= 1"),
        ([*SIMULATE_SIS, "--x0-uniform", "1.5"], "--x0-uniform must lie in [0, 1]"),
        ([*SIMULATE_SIS, "--r0-file", "missing.txt"], "--r0-file only applies to SIR, not SIS"),
    ],
    ids=["endemic-beta", "threshold-gamma", "asymptotic-tol", "asymptotic-x0", "simulate-dt",
         "simulate-t-end", "simulate-record-every", "simulate-x0-uniform", "simulate-r0-file"],
)
def test_flags_are_checked_before_any_file_is_read(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"netepi: bad configuration: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["--model", "SI", "--x0", "0.1", "--t-end", "1", "--gamma", "5"], "--gamma"),
        (["--model", "SIS", "--gamma", "0.5", "--x0", "0.1", "--t-end", "1",
          "--s0", "0.3", "--r0", "0.2"], "--s0, --r0"),
        (["--model", "SIR", "--gamma", "0.5", "--s0", "0.4", "--x0", "0.5", "--t-end", "3"],
         "--x0, --t-end"),
    ],
    ids=["SI", "SIS", "SIR"],
)
def test_scalar_rejects_flags_its_model_does_not_use(capsys, argv, unused):
    assert main(["scalar", "--beta", "2", *argv]) == 2
    captured = capsys.readouterr()
    model = argv[1]
    assert f"bad configuration: scalar {model} does not use {unused}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("0.1 0.2\n0.3 0.4\n", "x0 file holds an array of shape (2, 2), not one value per line"),
        ("", "x0 file holds 0 values, graph has 2 nodes"),
        ("# no values\n", "x0 file holds 0 values, graph has 2 nodes"),
    ],
    ids=["matrix", "empty", "comment-only"],
)
def test_bad_vector_file_gives_one_error_line(pair_graph, tmp_path, text, message):
    x0 = tmp_path / "x0.txt"
    x0.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "netepi.cli", "simulate", "--graph", pair_graph, "--model", "SI",
         "--beta", "1", "--x0-file", str(x0), "--t-end", "1", "--dt", "0.1"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 2
    assert proc.stderr == f"netepi: bad configuration: {message}\n"
    assert proc.stdout == ""

def _limit_address_space():
    # 3 GB: enough for Python and numpy, too little for the arrays asked for
    # below. Without a limit an overcommitted allocation can succeed and
    # then page in gigabytes.
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


@pytest.mark.parametrize(
    "graph, argv",
    [
        ("3037000499 1 1\n1 3037000499 1\n", ["--model", "SIR", "--beta", "1", "--gamma", "0.5",
                                                "--seed-node", "1", "--t-end", "1", "--dt", "0.1"]),
        ("3037000499 1 1\n1 3037000499 1\n", ["--model", "SI", "--beta", "1",
                                                "--x0-uniform", "0.1", "--t-end", "1", "--dt", "0.1"]),
        ("1 2 1.0\n2 1 1.0\n", ["--model", "SIR", "--beta", "1", "--gamma", "0.5",
                                 "--seed-node", "1", "--t-end", "1000000", "--dt", "0.001"]),
    ],
    ids=["huge-n-SIR", "huge-n-SI", "1e9-steps"],
)
def test_allocation_failure_exits_2(tmp_path, graph, argv):
    path = tmp_path / "g.txt"
    path.write_text(graph)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from netepi.cli import main; sys.exit(main(sys.argv[1:]))",
         "simulate", "--graph", str(path), *argv, "--out", str(tmp_path / "tr.csv")],
        capture_output=True, text=True, timeout=120, preexec_fn=_limit_address_space,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("netepi: bad configuration: Unable to allocate")
    assert not (tmp_path / "tr.csv").exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,0.9,0.9,0.1,0.1,0,0\nnan,0.8,0.8,0.1,0.1,0.1,0.1\n2,0.7,0.7,0.1,0.1,0.2,0.2\n", "non-finite"),
        ("0,0.9,0.9,0.1,0.1,0,0\ninf,0.8,0.8,0.1,0.1,0.1,0.1\n", "non-finite"),
        ("0,0.9,0.9,0.1,0.1,0,0\n1,0.8,nan,0.1,0.1,0.1,0.1\n", "non-finite"),
        ("", "has a header but no rows"),
        ("0,0.9,0.9,0.1,0.1,0,0\n1,0.9,0.9,5,0.1,-3,0\n",
         "row 2 (t = 1) has an entry outside [0, 1]"),
        ("1.5,1.5,0.9,-0.5,0.1,0,0\n", "row 1 (t = 1.5) has an entry outside [0, 1]"),
        ("0,0.9,0.9,0.1,0.1,0,0\n1,0.5,0.9,0.1,0.1,0,0\n",
         "row 2 (t = 1) has s + x + r away from 1"),
    ],
    ids=["nan-time", "inf-time", "nan-state", "header-only",
         "x-and-r-outside", "s-outside", "sum-off-one"],
)
def test_non_finite_or_empty_trajectory_exits_2(pair_graph, tmp_path, capsys, rows, message):
    traj = tmp_path / "traj.csv"
    traj.write_text("t,s_1,s_2,x_1,x_2,r_1,r_2\n" + rows)
    rt, out = tmp_path / "rt.csv", tmp_path / "report.json"
    argv = ["--graph", pair_graph, "--beta", "2", "--gamma", "1",
            "--trajectory", str(traj), "--rt-out", str(rt), "--out", str(out)]
    code = main(["threshold", *argv])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("netepi: bad configuration") and message in err
    assert not rt.exists() and not out.exists()


@pytest.mark.parametrize(
    "command, argv",
    [
        ("simulate", ["--model", "SIR", "--beta", "1", "--gamma", "0.5", "--seed-node", "1",
                      "--t-end", "1", "--dt", "0.1"]),
        ("endemic", ["--beta", "2", "--gamma", "1"]),
        ("asymptotic", ["--beta", "2", "--gamma", "1", "--x0-uniform", "0.1"]),
        ("threshold", ["--beta", "2", "--gamma", "1"]),
        ("scalar", ["--model", "SI", "--beta", "1", "--x0", "0.1", "--t-end", "1"]),
        ("scalar", ["--model", "SIR", "--beta", "2", "--gamma", "0.5", "--s0", "0.95"]),
    ],
)
def test_stdout_equals_the_out_file(pair_graph, tmp_path, capsys, command, argv):
    argv = argv if command == "scalar" else ["--graph", pair_graph, *argv]
    assert main([command, *argv]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    assert main([command, *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_runtime_imports_only_numpy_and_the_standard_library():
    probe = (
        "import sys, json; before = set(sys.modules); {imports}; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )

    def loaded(imports):
        out = subprocess.run(
            [sys.executable, "-c", probe.format(imports=imports)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        ).stdout
        return set(json.loads(out))

    cli = loaded("import netepi.cli")
    assert "logging" not in cli
    extra = cli - loaded("import numpy")
    foreign = [
        m for m in extra
        if m.split(".")[0] != "netepi" and m.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_successful_sweep_writes_nothing_to_stderr(g20_file, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "netepi.cli", "simulate", "--graph", g20_file, "--model", "SIS",
         "--beta", "1", "--gamma", "0.5,1", "--x0-uniform", "0.1", "--t-end", "1", "--dt", "0.1",
         "--out", "sweep.csv"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC), "NETEPI_LOG": "info"},
    )
    assert proc.returncode == 0
    assert proc.stderr == "" and proc.stdout == ""
    assert sorted(p.name for p in tmp_path.glob("sweep_*")) == [
        "sweep_gamma0.5.csv", "sweep_gamma1.csv"
    ]
