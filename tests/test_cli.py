import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wallflock
from wallflock import (
    ConfigError,
    check_settlement,
    initial_state_from_config,
    integrate,
    model_from_config,
    parse_config,
    read_diagnostics_csv,
)
from wallflock.cli import build_parser, main, parse_sweep

FREE_ALIGNING = """
kernel: {family: constant, H: 1.0}
ic: {n_agents: 4, x_low: 2.0, x_high: 4.0, v_low: 0.1, v_high: 0.9, seed: 1}
integrator: {t_end: 10.0, sample_every: 0.1}
"""

NO_WALL_CONTROL = """
potential: {theta: 0.0}
ic: {n_agents: 4, x_low: 0.5, x_high: 3.0, v_low: -1.0, v_high: -0.5, seed: 42}
integrator: {t_end: 10.0, sample_every: 0.1}
"""

STIFF = """
kernel: {family: constant, H: 1.0}
ic: {n_agents: 2, x_low: 5.0, x_high: 6.0, v_low: -2.0, v_high: 2.0, seed: 3}
integrator: {t_end: 1.0, sample_every: 1.0, dt_init: 0.2, dt_min: 0.2, dt_max: 0.2,
             abs_tol: 1.0e-13, rel_tol: 1.0e-13}
"""

SWEEP = """
base:
  kernel: {family: constant, H: 1.0}
  ic: {n_agents: 4, x_low: 2.0, x_high: 4.0, v_low: 0.1, v_high: 0.9, seed: 1}
  integrator: {t_end: 10.0, sample_every: 0.1}
sweep:
  axes:
    - {key: kernel.H, values: [1.2, 0.8]}
  seeds: [2, 1]
  parallelism: %d
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    args = build_parser().parse_args(["simulate", "--seed", "7", "--quiet"])
    assert args.command == "simulate"
    assert args.seed == 7
    assert args.quiet


def test_simulate_writes_artifacts(tmp_path, capsys):
    cfg = write(tmp_path, "run.yaml", FREE_ALIGNING)
    out = tmp_path / "run1"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "config.yaml").read_text() == FREE_ALIGNING
    table = read_diagnostics_csv(out / "diagnostics.csv")
    assert table.shape == (101, 16)
    final = (out / "final_state.csv").read_text().splitlines()
    assert final[0] == "i,x,v"
    assert len(final) == 5
    assert "min_wall_distance" in capsys.readouterr().out


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write(tmp_path, "run.yaml", FREE_ALIGNING)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    for fname in ("config.yaml", "diagnostics.csv", "final_state.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_seed_override_changes_the_run(tmp_path):
    cfg = write(tmp_path, "run.yaml", FREE_ALIGNING)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a), "--quiet"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "99", "--quiet"]) == 0
    ta = read_diagnostics_csv(a / "diagnostics.csv")
    tb = read_diagnostics_csv(b / "diagnostics.csv")
    assert not np.array_equal(ta, tb)
    with pytest.raises(SystemExit):
        main(["simulate", "--seed", "not-a-number"])
    assert main(["simulate", "--config", str(cfg), "--out", str(a), "--seed", "-1"]) == 2


def test_verify_pass_fail_and_report(tmp_path, capsys):
    cfg = write(tmp_path, "ok.yaml", FREE_ALIGNING)
    out = tmp_path / "ok"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "report.json").read_text()
    assert '"passed": true' in text
    stdout = capsys.readouterr().out
    assert "PASS velocity_alignment" in stdout
    assert "report: PASS" in stdout

    bad = write(tmp_path, "control.yaml", NO_WALL_CONTROL)
    out2 = tmp_path / "control"
    assert main(["verify", "--config", str(bad), "--out", str(out2), "--quiet"]) == 1
    report = (out2 / "report.json").read_text()
    assert '"name": "no_wall_collision"' in report


HALF_LINE_CLAIMS = [
    "integration_completed", "no_wall_collision", "velocity_alignment",
    "strong_flocking", "positions_settle", "outside_wall_range", "exponential_rate",
    "energy_nonincreasing", "velocity_bound", "diameter_growth", "lyapunov_budget",
    "momentum_force_identity", "momentum_nondecreasing",
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_single_agent(tmp_path, seed):
    # a flock of one has no alignment to do; the run must still finish and report.
    # Exit 1 is allowed: it comes from tolerance FAILs, not from the paper's claims.
    cfg = write(tmp_path, "one.yaml", "ic: {n_agents: 1}\nintegrator: {t_end: 5}\n")
    out = tmp_path / "one"
    args = ["verify", "--config", str(cfg), "--out", str(out), "--seed", str(seed), "--quiet"]
    assert main(args) in (0, 1)
    claims = json.loads((out / "report.json").read_text())["claims"]
    assert [c["name"] for c in claims] == HALF_LINE_CLAIMS


INTERVAL = """
geometry: {variant: interval, a: 0.0, b: 6.0}
ic: {n_agents: 4, x_low: 2.0, x_high: 4.0, v_low: -0.5, v_high: 0.5, seed: 1}
integrator: {t_end: 10.0, sample_every: 0.1}
"""


def test_verify_writes_pairwise_limits_npy(tmp_path):
    cfg = write(tmp_path, "ok.yaml", FREE_ALIGNING)
    out = tmp_path / "ok"
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    npy = out / "pairwise_limits.npy"
    first = npy.read_bytes()
    assert "pairwise_limits" not in json.loads((out / "report.json").read_text())

    run = parse_config(FREE_ALIGNING)
    m, s0 = model_from_config(run), initial_state_from_config(run)
    traj = integrate(m, s0, run.t_end, run.control, run.sample_every)
    limits = check_settlement(traj, m.wall, run.thresholds).pairwise_limits
    assert np.array_equal(np.load(npy).view(np.int64), limits.view(np.int64))

    assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert npy.read_bytes() == first  # a rerun is byte-identical


def test_verify_without_matrix_leaves_no_npy(tmp_path):
    ok = write(tmp_path, "ok.yaml", FREE_ALIGNING)
    box = write(tmp_path, "box.yaml", INTERVAL)
    stiff = write(tmp_path, "stiff.yaml", STIFF)
    fresh = tmp_path / "fresh"
    assert main(["verify", "--config", str(box), "--out", str(fresh), "--quiet"]) in (0, 1)
    assert not (fresh / "pairwise_limits.npy").exists()
    # an interval report or a failed integration removes the matrix of an earlier run
    reused = tmp_path / "reused"
    for cfg, codes in ((box, (0, 1)), (stiff, (3,))):
        assert main(["verify", "--config", str(ok), "--out", str(reused), "--quiet"]) == 0
        assert (reused / "pairwise_limits.npy").exists()
        assert main(["verify", "--config", str(cfg), "--out", str(reused), "--quiet"]) in codes
        assert not (reused / "pairwise_limits.npy").exists()


def test_verify_integration_failure_exit_code(tmp_path):
    cfg = write(tmp_path, "stiff.yaml", STIFF)
    out = tmp_path / "stiff"
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert '"passed": false' in (out / "report.json").read_text()
    # the failure names the agent nearest a wall, its distance, the wall and its speed
    detail = json.loads((out / "report.json").read_text())["claims"][0]["detail"]
    assert re.search(r"agent 0 is [0-9.]+ from the wall at x=0, speed [0-9.]+$", detail)


def test_simulate_integration_failure_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "stiff.yaml", STIFF)
    out = tmp_path / "stiff"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert not (out / "diagnostics.csv").exists()
    assert "integration failed" in capsys.readouterr().err


def test_config_errors_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.yaml", "kernel: {gamma: 1.0}")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    capsys.readouterr()
    for command in ("simulate", "verify", "sweep"):
        assert main([command, "--config", str(tmp_path / "missing.yaml")]) == 2
        assert "cannot read config" in capsys.readouterr().err
    assert main(["sweep"]) == 2  # sweep requires --config


def test_parse_sweep_validation():
    base, base_cfg, axes, seeds, par = parse_sweep(SWEEP % 2)
    assert base_cfg.kernel.family == "constant"
    assert base_cfg.output.directory == "."  # the default, from config.OutputConfig
    assert axes == [("kernel.H", [1.2, 0.8])]
    assert seeds == [2, 1]
    assert par == 2
    with pytest.raises(ConfigError, match="top-level 'sweep'"):
        parse_sweep("base: {}")
    with pytest.raises(ConfigError, match="exactly the keys"):
        parse_sweep("sweep:\n  axes:\n    - {key: kernel.H}")
    with pytest.raises(ConfigError, match="nonempty"):
        parse_sweep("sweep:\n  axes:\n    - {key: kernel.H, values: []}")
    with pytest.raises(ConfigError, match="not a config key"):
        parse_sweep("sweep:\n  axes:\n    - {key: kernel.bogus, values: [1]}")
    # an axis value that is not a number, string or boolean names its axis
    with pytest.raises(ConfigError, match="'kernel.H': values must be.*None"):
        parse_sweep("sweep:\n  axes:\n    - {key: kernel.H, values: [1.0, null]}")
    with pytest.raises(ConfigError, match="'kernel.H': values must be.*\\[1.0\\]"):
        parse_sweep("sweep:\n  axes:\n    - {key: kernel.H, values: [[1.0]]}")
    with pytest.raises(ConfigError, match="'kernel.H': values must be"):
        parse_sweep("sweep:\n  axes:\n    - {key: kernel.H, values: [{a: 1}]}")
    with pytest.raises(ConfigError, match="seeds"):
        parse_sweep("sweep:\n  seeds: [1, true]")
    with pytest.raises(ConfigError, match="parallelism"):
        parse_sweep("sweep:\n  parallelism: 0")
    with pytest.raises(ConfigError, match="exceeds"):
        parse_sweep("sweep:\n  seeds: [%s]" % ", ".join(str(i) for i in range(10_001)))


def test_sweep_axis_null_value_exits_2_before_writing(tmp_path, capsys):
    text = "sweep:\n  axes:\n    - {key: kernel.H, values: [1.0, null]}\n"
    cfg = write(tmp_path, "sweep.yaml", text)
    out = tmp_path / "null_axis"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "sweep axis 'kernel.H'" in capsys.readouterr().err
    assert not out.exists()


TINY_SWEEP = """
base:
  ic: {n_agents: 2, x_low: 1.0, x_high: 2.0, v_low: -0.5, v_high: 0.5, seed: 1}
  integrator: {t_end: 0.5, sample_every: 0.05}
sweep:
  axes:
    - {key: kernel.H, values: %s}
    - {key: kernel.beta, values: %s}
  seeds: %s
  parallelism: 2
"""


def _tiny_sweep_csv(tmp_dir, H, beta, seeds) -> bytes:
    cfg = write(tmp_dir, "sweep.yaml", TINY_SWEEP % (list(H), list(beta), list(seeds)))
    main(["sweep", "--config", str(cfg), "--out", str(tmp_dir), "--quiet"])
    return (tmp_dir / "sweep.csv").read_bytes()


@pytest.fixture(scope="module")
def sorted_tiny_sweep(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("sorted")
    return _tiny_sweep_csv(tmp_dir, [0.5, 1.0, 2.0], [0.0, 0.25, 0.4], [1, 2, 3])


@settings(max_examples=10, deadline=None)
@given(
    st.permutations([0.5, 2.0, 1.0]),
    st.permutations([0.4, 0.0, 0.25]),
    st.permutations([3, 1, 2]),
)
def test_sweep_csv_is_independent_of_input_order(
    tmp_path_factory, sorted_tiny_sweep, H, beta, seeds
):
    # each example permutes both axes' values and the seeds
    shuffled = _tiny_sweep_csv(tmp_path_factory.mktemp("shuffled"), H, beta, seeds)
    assert shuffled == sorted_tiny_sweep


def test_sweep_csv_places_nan_after_every_number(tmp_path):
    # H = nan is a config-error row; its place must not follow the input order
    csvs = set()
    for i, H in enumerate(itertools.permutations([".nan", "1.0", "0.5"])):
        cfg = write(tmp_path, f"nan{i}.yaml", TINY_SWEEP % (f"[{', '.join(H)}]", [0.25], [1]))
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / f"nan{i}"), "--quiet"])
        csvs.add((tmp_path / f"nan{i}" / "sweep.csv").read_bytes())
    assert len(csvs) == 1
    rows = csvs.pop().decode().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0.5", "1", "nan"]


def test_sweep_runs_sorted_and_parallelism_independent(tmp_path):
    rows = {}
    for par, name in ((1, "p1"), (4, "p4")):
        cfg = write(tmp_path, f"sweep_{name}.yaml", SWEEP % par)
        out = tmp_path / name
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        rows[name] = (out / "sweep.csv").read_text()
    lines = rows["p1"].splitlines()
    assert lines[0] == "kernel.H,seed,variant,final_A,delta,min_wall_distance,passed,status"
    assert len(lines) == 5
    # rows ordered by axis value then seed, regardless of list or completion order
    assert [l.split(",")[:2] for l in lines[1:]] == [
        ["0.80000000000000004", "1"],
        ["0.80000000000000004", "2"],
        ["1.2", "1"],
        ["1.2", "2"],
    ]
    assert rows["p1"].split("\n") == rows["p4"].split("\n")
    # byte-identical across parallelism
    assert (tmp_path / "p1" / "sweep.csv").read_bytes() == (tmp_path / "p4" / "sweep.csv").read_bytes()


def test_sweep_without_out_writes_to_base_output_directory(tmp_path, monkeypatch):
    target = tmp_path / "from_base"
    text = (SWEEP % 1).replace("base:\n", f"base:\n  output: {{directory: '{target}'}}\n", 1)
    cfg = write(tmp_path, "sweep.yaml", text)
    assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
    assert (target / "sweep.csv").is_file()
    assert (target / "sweep_config.yaml").read_text() == text
    # no output section: the default directory "." is the working directory
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "plain.yaml", SWEEP % 1)
    assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == (target / "sweep.csv").read_bytes()


def test_sweep_failing_row_exits_1(tmp_path):
    text = """
base:
  kernel: {family: constant, H: 1.0}
  ic: {n_agents: 4, x_low: 2.0, x_high: 4.0, v_low: 0.1, v_high: 0.9, seed: 1}
  integrator: {t_end: 10.0, sample_every: 0.1}
sweep:
  axes:
    - {key: kernel.H, values: [0.05]}
"""
    cfg = write(tmp_path, "sweep.yaml", text)
    out = tmp_path / "fail"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    body = (out / "sweep.csv").read_text()
    assert "False" in body


def test_sweep_config_error_row_exits_1(tmp_path):
    text = """
base:
  kernel: {family: powerlaw, H: 1.0, beta: 0.25}
  potential:
  ic: {n_agents: 4, x_low: 2.0, x_high: 4.0, v_low: 0.1, v_high: 0.9, seed: 1}
  integrator: {t_end: 2.0, sample_every: 0.1}
sweep:
  axes:
    - {key: kernel.beta, values: [-1.0, 0.25]}
    - {key: potential.theta, values: [1.0]}  # into a base section left empty
"""
    cfg = write(tmp_path, "sweep.yaml", text)
    out = tmp_path / "bad_beta"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    rows = list(csv.DictReader(io.StringIO((out / "sweep.csv").read_text())))
    assert [row["kernel.beta"] for row in rows] == ["-1", "0.25"]
    assert rows[0]["status"] == "config-error: kernel exponent beta must be nonnegative and finite"
    assert rows[0]["passed"] == "False"
    assert rows[1]["status"] == "ok"


def test_plot_data_outputs(tmp_path, capsys):
    cfg = write(tmp_path, "run.yaml", FREE_ALIGNING)
    out = tmp_path / "plots"
    assert main(["plot-data", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    lines = (out / "plot.dat").read_text().splitlines()
    assert lines[0] == "# t A E K p D F_max"
    assert len(lines) == 102
    pos = (out / "plot_positions.dat").read_text().splitlines()
    assert pos[0] == "# t x0 x1 x2 x3"
    assert len(pos) == 102
    assert capsys.readouterr().out == ""


def test_verify_without_json_removes_an_earlier_report(tmp_path):
    cfg = write(tmp_path, "ok.yaml", FREE_ALIGNING)
    csv_only = write(tmp_path, "csv.yaml", FREE_ALIGNING + "output: {formats: [csv]}\n")
    out = tmp_path / "reused"
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--seed", "1", "--quiet"]) == 0
    assert (out / "report.json").exists() and (out / "pairwise_limits.npy").exists()
    argv = ["verify", "--config", str(csv_only), "--out", str(out), "--seed", "2", "--quiet"]
    assert main(argv) == 0
    assert (out / "config.yaml").read_text() == csv_only.read_text()
    assert not (out / "report.json").exists()
    assert not (out / "pairwise_limits.npy").exists()


@pytest.mark.parametrize("module", ["wallflock", "wallflock.cli"])
def test_python_dash_m_runs_the_command_line(module, tmp_path):
    src = Path(wallflock.__file__).resolve().parents[1]
    config = Path(__file__).resolve().parents[1] / "configs" / "control_nowall.yaml"
    out = tmp_path / "control"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = ["verify", "--config", str(config), "--out", str(out), "--quiet"]
    done = subprocess.run([sys.executable, "-m", module, *argv], env=env, capture_output=True)
    assert done.returncode == 1, done.stderr
    assert '"passed": false' in (out / "report.json").read_text()
