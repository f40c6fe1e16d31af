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
from wallflock import FIELDS, ConfigError, parse_config, serialize_config
from wallflock.cli import build_parser, main, parse_sweep

FREE_ALIGNING = """
kernel: {family: powerlaw, H: 1.0, beta: 0.0}
ic: {n_agents: 4, x_low: 2.0, x_high: 4.0, v_low: 0.1, v_high: 0.9, seed: 1}
integrator: {t_end: 10.0, sample_every: 0.1}
"""

NO_WALL_CONTROL = """
potential: {theta: 0.0}
ic: {n_agents: 4, x_low: 0.5, x_high: 3.0, v_low: -1.0, v_high: -0.5, seed: 42}
integrator: {t_end: 10.0, sample_every: 0.1}
"""

STIFF = """
kernel: {family: powerlaw, H: 1.0, beta: 0.0}
potential: {theta: 1.0e+20}
ic: {n_agents: 2, x_low: 0.05, x_high: 6.0, v_low: -2.0, v_high: 2.0, seed: 3}
integrator: {t_end: 1.0, sample_every: 1.0}
"""

SWEEP = """
base:
  kernel: {family: powerlaw, H: 1.0, beta: 0.0}
  ic: {n_agents: 4, x_low: 2.0, x_high: 4.0, v_low: 0.1, v_high: 0.9, seed: 1}
  integrator: {t_end: 10.0, sample_every: 0.1}
sweep:
  axes:
    - {key: kernel.H, values: [1.2, 0.8]}
  seeds: [2, 1]
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
    path = out / "diagnostics.csv"
    assert path.read_text().split("\n", 1)[0] == ",".join(FIELDS)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
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
    ta = np.loadtxt(a / "diagnostics.csv", delimiter=",", skiprows=1)
    tb = np.loadtxt(b / "diagnostics.csv", delimiter=",", skiprows=1)
    assert not np.array_equal(ta, tb)
    with pytest.raises(SystemExit):
        main(["simulate", "--seed", "not-a-number"])
    assert main(["simulate", "--config", str(cfg), "--out", str(a), "--seed", "-1"]) == 2


def test_out_of_range_seed_is_rejected_as_ic_seed(tmp_path, capsys):
    cfg = write(tmp_path, "run.yaml", FREE_ALIGNING)
    out = tmp_path / "big"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", str(2**64)]) == 2
    assert capsys.readouterr().err == "config error: ic.seed must be a 64-bit unsigned integer\n"
    assert not out.exists()


def test_seed_over_a_malformed_section_is_a_config_error(tmp_path, capsys):
    # the section's mapping check comes first: an exit 2, not a TypeError
    cfg = write(tmp_path, "bad.yaml", "ic: 5\n")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "x"), "--seed", "3"]) == 2
    assert capsys.readouterr().err == "config error: ic: expected a mapping\n"


def test_plot_data_seed_without_config_records_the_effective_config(tmp_path):
    out = tmp_path / "plots"
    assert main(["plot-data", "--out", str(out), "--seed", "5", "--quiet"]) == 0
    text = (out / "config.yaml").read_text()
    recorded = parse_config(text)
    assert (recorded.ic.seed, recorded.output.formats) == (5, ("plot",))
    assert recorded.output.directory == str(out)
    assert text == serialize_config(recorded)
    assert sorted(p.name for p in out.iterdir()) == ["config.yaml", "plot.dat", "plot_positions.dat"]


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
    # A is identically 0 for one agent, so there is no rate to fit
    rate = next(c for c in claims if c["name"] == "exponential_rate")
    assert rate["applicable"] is False
    assert rate["detail"].startswith("A stays below the round-off floor")


def test_halfline_verify_writes_only_config_and_report(tmp_path):
    cfg = write(tmp_path, "ok.yaml", FREE_ALIGNING)
    out = tmp_path / "ok"
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["config.yaml", "report.json"]
    # the pairwise limits are the differences of the settled positions
    assert len(json.loads((out / "report.json").read_text())["settled_positions"]) == 4


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
    # a reused directory keeps no file that the latest run did not write
    both = write(tmp_path, "both.yaml", FREE_ALIGNING + "output: {formats: [csv, plot]}\n")
    reused = tmp_path / "reused"
    assert main(["simulate", "--config", str(both), "--out", str(reused), "--quiet"]) == 0
    files = ["config.yaml", "diagnostics.csv", "final_state.csv", "plot.dat", "plot_positions.dat"]
    assert sorted(path.name for path in reused.iterdir()) == files
    csv_only = write(tmp_path, "csv.yaml", FREE_ALIGNING + "output: {formats: [csv]}\n")
    assert main(["simulate", "--config", str(csv_only), "--out", str(reused), "--quiet"]) == 0
    assert sorted(path.name for path in reused.iterdir()) == files[:3]
    assert main(["simulate", "--config", str(cfg), "--out", str(reused), "--quiet"]) == 3
    assert [path.name for path in reused.iterdir()] == ["config.yaml"]
    assert (reused / "config.yaml").read_text() == STIFF


def test_config_errors_exit_2(tmp_path, capsys):
    bad = write(tmp_path, "bad.yaml", "kernel: {gamma: 1.0}")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    capsys.readouterr()
    for command in ("simulate", "verify", "sweep"):
        assert main([command, "--config", str(tmp_path / "missing.yaml")]) == 2
        assert "cannot read config" in capsys.readouterr().err
    assert main(["sweep"]) == 2  # sweep requires --config
    capsys.readouterr()
    parallel = write(tmp_path, "parallel.yaml", "sweep:\n  seeds: [1]\n  parallelism: 2\n")
    assert main(["sweep", "--config", str(parallel), "--out", str(tmp_path / "par")]) == 2
    assert capsys.readouterr().err.strip() == "config error: unknown key sweep.parallelism"
    assert not (tmp_path / "par").exists()
    # a bound that is not finite, or a span that overflows, is a config error, not a crash
    for ic in ("{x_low: .nan}", "{x_high: .inf}", "{v_low: -1.0e+308, v_high: 1.0e+308}"):
        bad_ic = write(tmp_path, "bad_ic.yaml", f"ic: {ic}\n")
        assert main(["verify", "--config", str(bad_ic), "--out", str(tmp_path / "ic")]) == 2
        assert "must be finite with a finite difference" in capsys.readouterr().err
    assert not (tmp_path / "ic").exists()


@pytest.mark.parametrize(
    "command, out",
    [
        ("verify", "file"),  # --out names an existing file
        ("simulate", "file/sub"),  # a file as a parent directory
        ("plot-data", "file"),
        ("sweep", "file/sub"),
        ("verify", "run"),  # report.json is a directory
        ("sweep", "run"),  # sweep.csv is a directory
    ],
)
def test_unusable_out_exits_2(tmp_path, capsys, command, out):
    (tmp_path / "file").write_text("")
    (tmp_path / "run" / "report.json").mkdir(parents=True)
    (tmp_path / "run" / "sweep.csv").mkdir()
    cfg = write(tmp_path, "run.yaml", SWEEP if command == "sweep" else FREE_ALIGNING)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == ""


SETTLE_30 = (
    (Path(__file__).resolve().parents[1] / "configs" / "settle.yaml")
    .read_text()
    .replace("t_end: 200.0", "t_end: 30")
)


STEP_CONTROL_KEYS = ("dt_init", "abs_tol", "rel_tol", "dt_min", "dt_max")


@pytest.mark.parametrize(
    "command, text, message",
    [
        # FAILs three claims at these bars; exit 0 when a config could loosen them
        (
            "verify",
            SETTLE_30 + "thresholds: {settle_eps: 1.0, align_eps: 1.0}\n",
            "config error: unknown section thresholds",
        ),
        (
            "sweep",
            "sweep:\n  axes:\n    - {key: thresholds.align_eps, values: [1.0]}\n",
            "config error: sweep axis key 'thresholds.align_eps' is not a config key",
        ),
        (
            "verify",
            "integrator: {wall_safety: 0.5}\n",
            "config error: unknown key integrator.wall_safety",
        ),
        # FAILs velocity_bound at the default tolerances; exit 0 when a config could tighten them
        (
            "verify",
            "ic: {n_agents: 1, seed: 3}\n"
            "integrator: {t_end: 5.0, abs_tol: 1.0e-12, rel_tol: 1.0e-12}\n",
            "config error: unknown key integrator.abs_tol",
        ),
        *(
            (
                "verify",
                f"integrator: {{{key}: 0.01}}\n",
                f"config error: unknown key integrator.{key}",
            )
            for key in STEP_CONTROL_KEYS
        ),
        *(
            (
                "sweep",
                f"sweep:\n  axes:\n    - {{key: integrator.{key}, values: [0.01]}}\n",
                f"config error: sweep axis key 'integrator.{key}' is not a config key",
            )
            for key in STEP_CONTROL_KEYS
        ),
    ],
    ids=[
        "loosened_settle",
        "threshold_sweep_axis",
        "wall_safety",
        "tightened_one_agent",
        *STEP_CONTROL_KEYS,
        *(f"{key}_sweep_axis" for key in STEP_CONTROL_KEYS),
    ],
)
def test_verdict_bars_and_wall_cap_are_not_config(tmp_path, capsys, command, text, message):
    cfg = write(tmp_path, "run.yaml", text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


def test_parse_sweep_validation():
    base, base_cfg, axes, seeds = parse_sweep(SWEEP)
    assert (base_cfg.kernel.family, base_cfg.kernel.beta) == ("powerlaw", 0.0)
    assert base_cfg.output.directory == "."  # the default, from config.OutputConfig
    assert axes == [("kernel.H", [1.2, 0.8])]
    assert seeds == [2, 1]
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
    # a sweep runs in one process: parallelism is no key
    with pytest.raises(ConfigError, match="^unknown key sweep.parallelism$"):
        parse_sweep("sweep:\n  parallelism: 1")
    with pytest.raises(ConfigError, match="exceeds"):
        parse_sweep("sweep:\n  seeds: [%s]" % ", ".join(str(i) for i in range(10_001)))


def test_sweep_axis_null_value_exits_2_before_writing(tmp_path, capsys):
    text = "sweep:\n  axes:\n    - {key: kernel.H, values: [1.0, null]}\n"
    cfg = write(tmp_path, "sweep.yaml", text)
    out = tmp_path / "null_axis"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert "sweep axis 'kernel.H'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "sweep, message",
    [
        (
            "axes:\n    - {key: ic.seed, values: [5, 6]}\n  seeds: [1]",
            "sweep axis key 'ic.seed': list the seeds under sweep.seeds",
        ),
        (
            "axes:\n    - {key: kernel.H, values: [0.5, 2.0]}\n    - {key: kernel.H, values: [1.0]}",
            "sweep axis key 'kernel.H' is named by more than one axis",
        ),
        ("seeds: []", "sweep.seeds must be a nonempty list of integers"),
        (
            "axes:\n    - {key: output.directory, values: [a, b]}",
            "sweep axis key 'output.directory': sweep runs write no output of their own",
        ),
    ],
    ids=["seed_axis", "repeated_axis", "no_seeds", "output_axis"],
)
def test_sweep_without_a_distinct_run_per_row_exits_2(tmp_path, capsys, sweep, message):
    cfg = write(tmp_path, "sweep.yaml", f"sweep:\n  {sweep}\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"
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


def test_sweep_runs_sorted_by_axis_value_then_seed(tmp_path):
    cfg = write(tmp_path, "sweep.yaml", SWEEP)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "kernel.H,seed,variant,final_A,delta,min_wall_distance,passed,status"
    assert len(lines) == 5
    # rows ordered by axis value then seed, regardless of list order
    assert [l.split(",")[:2] for l in lines[1:]] == [
        ["0.80000000000000004", "1"],
        ["0.80000000000000004", "2"],
        ["1.2", "1"],
        ["1.2", "2"],
    ]


def test_sweep_without_out_writes_to_base_output_directory(tmp_path, monkeypatch):
    target = tmp_path / "from_base"
    text = SWEEP.replace("base:\n", f"base:\n  output: {{directory: '{target}'}}\n", 1)
    cfg = write(tmp_path, "sweep.yaml", text)
    assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
    assert (target / "sweep.csv").is_file()
    assert (target / "sweep_config.yaml").read_text() == text
    # no output section: the default directory "." is the working directory
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "plain.yaml", SWEEP)
    assert main(["sweep", "--config", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == (target / "sweep.csv").read_bytes()


def test_sweep_failing_row_exits_1(tmp_path):
    text = """
base:
  kernel: {family: powerlaw, H: 1.0, beta: 0.0}
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


HUGE_GRID = "integrator: {t_end: 1.0e+300, sample_every: 1.0e-10}"


def test_sample_grid_bound_is_a_config_error(tmp_path, capsys):
    # t_end / sample_every overflows to inf: exit 2 before any grid is built
    bound = "records more than 134217728 numbers"
    cfg = write(tmp_path, "run.yaml", HUGE_GRID + "\n")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: integrator:") and bound in err
    sweep = write(tmp_path, "sweep.yaml", f"base:\n  {HUGE_GRID}\nsweep: {{seeds: [1]}}\n")
    assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "s"), "--quiet"]) == 2
    assert bound in capsys.readouterr().err
    # as axis values: an infinite ratio, two finite ones past the bound, and one run that fits
    text = """
base:
  ic: {n_agents: 2, x_low: 1.0, x_high: 2.0, v_low: -0.5, v_high: 0.5, seed: 1}
  integrator: {t_end: 1.0, sample_every: 0.5}
sweep:
  axes:
    - {key: integrator.t_end, values: [1.0e+300, 1.0]}
    - {key: integrator.sample_every, values: [1.0e-10, 0.5]}
"""
    out = tmp_path / "axes"
    assert main(["sweep", "--config", str(write(tmp_path, "axes.yaml", text)), "--out", str(out),
                 "--quiet"]) == 1
    rows = list(csv.DictReader(io.StringIO((out / "sweep.csv").read_text())))
    grids = [(float(row["integrator.t_end"]), float(row["integrator.sample_every"])) for row in rows]
    assert grids == [(1.0, 1e-10), (1.0, 0.5), (1e300, 1e-10), (1e300, 0.5)]
    assert [bound in row["status"] for row in rows] == [True, False, True, True]
    assert rows[1]["status"] == "ok"


def test_constant_family_is_unknown(tmp_path, capsys):
    # a beta sweep on a constant base used to write one run under three labels
    message = "config error: unknown kernel family 'constant'"
    cfg = write(tmp_path, "run.yaml", "kernel: {family: constant, H: 1.0}\n")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v"), "--quiet"]) == 2
    assert capsys.readouterr().err.strip() == message
    text = """
base:
  kernel: {family: constant, H: 1.0}
  ic: {n_agents: 4, x_low: 2.0, x_high: 4.0, v_low: 0.1, v_high: 0.9, seed: 1}
  integrator: {t_end: 1.0, sample_every: 0.5}
sweep:
  axes:
    - {key: kernel.beta, values: [0.0, 0.5, 2.0]}
"""
    sweep = write(tmp_path, "sweep.yaml", text)
    assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "s"), "--quiet"]) == 2
    assert capsys.readouterr().err.strip() == message
    axis = text.replace("family: constant", "family: powerlaw").replace(
        "kernel.beta, values: [0.0, 0.5, 2.0]", "kernel.family, values: [constant, powerlaw]"
    )
    out = tmp_path / "axis"
    assert main(["sweep", "--config", str(write(tmp_path, "axis.yaml", axis)), "--out", str(out),
                 "--quiet"]) == 1
    rows = list(csv.DictReader(io.StringIO((out / "sweep.csv").read_text())))
    assert [row["status"] for row in rows] == [
        "config-error: unknown kernel family 'constant'", "ok",
    ]


def test_sweep_non_finite_ic_bound_is_a_config_error_row(tmp_path):
    text = """
base:
  ic: {n_agents: 2, x_low: 1.0, x_high: 2.0, v_low: -0.5, v_high: 0.5, seed: 1}
  integrator: {t_end: 0.5, sample_every: 0.05}
sweep:
  axes:
    - {key: ic.x_low, values: [.nan, 0.5]}
"""
    cfg = write(tmp_path, "sweep.yaml", text)
    out = tmp_path / "nan_ic"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    rows = list(csv.DictReader(io.StringIO((out / "sweep.csv").read_text())))
    assert [row["ic.x_low"] for row in rows] == ["0.5", "nan"]
    assert rows[0]["status"] == "ok"
    message = "ic.x_low and ic.x_high must be finite with a finite difference"
    assert rows[1]["status"] == f"config-error: {message}"


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
    assert (out / "report.json").exists()
    argv = ["verify", "--config", str(csv_only), "--out", str(out), "--seed", "2", "--quiet"]
    assert main(argv) == 0
    assert parse_config((out / "config.yaml").read_text()).ic.seed == 2
    assert not (out / "report.json").exists()


def test_a_reused_out_holds_only_the_latest_runs_files(tmp_path):
    cfg = write(tmp_path, "all.yaml", FREE_ALIGNING + "output: {formats: [csv, json, plot]}\n")
    out = tmp_path / "mix"
    simulated = [
        "config.yaml", "diagnostics.csv", "final_state.csv", "plot.dat", "plot_positions.dat",
    ]
    verified = ["config.yaml", "report.json"]
    for seed, (command, files) in enumerate(
        [("verify", verified), ("simulate", simulated), ("verify", verified)]
    ):
        argv = [command, "--config", str(cfg), "--out", str(out), "--seed", str(seed), "--quiet"]
        assert main(argv) == 0
        assert sorted(path.name for path in out.iterdir()) == files
        assert parse_config((out / "config.yaml").read_text()).ic.seed == seed


def test_seed_override_is_recorded_in_config_yaml(tmp_path):
    # config.yaml must reproduce the run it sits next to, --seed included
    halfline = Path(__file__).resolve().parents[1] / "configs" / "halfline.yaml"
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    argv = ["simulate", "--config", str(halfline), "--out", str(first), "--seed", "7", "--quiet"]
    assert main(argv) == 0
    recorded = first / "config.yaml"
    assert parse_config(recorded.read_text()).ic.seed == 7
    assert main(["simulate", "--config", str(recorded), "--out", str(rerun), "--quiet"]) == 0
    diagnostics = (first / "diagnostics.csv").read_bytes()
    assert (rerun / "diagnostics.csv").read_bytes() == diagnostics


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


def test_a_verify_run_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: a fresh interpreter that imports the
    # package and runs verify (every sample calls kernel.primitive) and a sweep
    # holds no scipy module, no numpy.polynomial, whose leggauss(12) the
    # quadrature rule's literals hold, and no numpy.random, whose Philox stream
    # initial_condition writes out
    src = Path(wallflock.__file__).resolve().parents[1]
    runs = []
    for command, text in (("verify", FREE_ALIGNING), ("sweep", SWEEP)):
        config = write(tmp_path, f"{command}.yaml", text.replace("beta: 0.0", "beta: 0.3"))
        runs.append([command, "--config", str(config), "--out", str(tmp_path / command), "--quiet"])
    script = (
        "import sys, wallflock, wallflock.cli\n"
        f"codes = [wallflock.cli.main(argv) for argv in {runs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m == 'scipy'\n"
        "                    or m.startswith(('scipy.', 'numpy.polynomial', 'numpy.random'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] []"


BOUNCE_T30 = """
ic: {n_agents: 8, x_low: 0.8, x_high: 3.0, v_low: -1.0, v_high: -0.2, seed: 5}
integrator: {t_end: 30.0}
"""


def test_verify_prints_skip_for_an_inapplicable_claim(tmp_path, capsys):
    # negative initial momentum: the exponential rate does not apply, even when its fit passes
    cfg = write(tmp_path, "bounce.yaml", BOUNCE_T30)
    out = tmp_path / "bounce"
    main(["verify", "--config", str(cfg), "--out", str(out)])
    claims = json.loads((out / "report.json").read_text())["claims"]
    rate = next(c for c in claims if c["name"] == "exponential_rate")
    assert rate["applicable"] is False and rate["passed"] is True
    stdout = capsys.readouterr().out
    assert "SKIP exponential_rate" in stdout
    assert "PASS exponential_rate" not in stdout


def test_sweep_rejects_seed_before_writing(tmp_path, capsys):
    cfg = write(tmp_path, "sweep.yaml", SWEEP)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "99"]) == 2
    assert "sweep.seeds" in capsys.readouterr().err
    assert not out.exists()


MIXED_FAILURE_SWEEP = """
base:
  ic: {n_agents: 4, x_low: 1.0, x_high: 2.0, v_low: 0.0, v_high: 0.5}
  integrator: {t_end: 1.0, sample_every: 0.5}
sweep:
  axes:
    - {key: potential.theta, values: [1.0e+20, 1.0]}
    - {key: ic.x_low, values: [0.05, 1.0]}
  seeds: [1, 2]
"""


def _sweep_batches(tmp_path, monkeypatch, text, name, one_member):
    """sweep.csv bytes and the models of each slice the integrator stepped."""
    slices = []
    step = wallflock.integrator._batch

    def recorded(models, states, t_end, sample_every):
        slices.append(models)
        return step(models, states, t_end, sample_every)

    with monkeypatch.context() as mp:
        mp.setattr(wallflock.integrator, "_batch", recorded)
        if one_member:
            mp.setattr(wallflock.integrator, "batch_members", lambda n, samples: 1)
        cfg = write(tmp_path, f"{name}.yaml", text)
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / name), "--quiet"])
    return (tmp_path / name / "sweep.csv").read_bytes(), slices


@pytest.mark.parametrize("sweep", ["sweep_beta", "mixed_failure"])
def test_batched_sweep_rows_equal_one_member_batches(tmp_path, monkeypatch, sweep):
    # the runs of a sweep that share a model step together; every row is the
    # row its run gives alone, failures included
    if sweep == "sweep_beta":
        text = (Path(__file__).resolve().parents[1] / "configs" / "sweep_beta.yaml").read_text()
    else:
        text = MIXED_FAILURE_SWEEP
    batched, slices = _sweep_batches(tmp_path, monkeypatch, text, "batched", False)
    alone, singles = _sweep_batches(tmp_path, monkeypatch, text, "alone", True)
    sizes, ones = [len(s) for s in slices], [len(s) for s in singles]
    assert batched == alone
    assert max(sizes) > 1 and set(ones) == {1}
    assert sum(sizes) == sum(ones) == len(batched.decode().splitlines()) - 1
    if sweep == "mixed_failure":
        rows = list(csv.DictReader(io.StringIO(batched.decode())))
        stiff = [r for r in rows if r["potential.theta"] == "1e+20" and r["ic.x_low"] == "0.050000000000000003"]
        assert [r["seed"] for r in stiff] == ["1", "2"]
        assert stiff[0]["status"].startswith("integration-error: StiffnessError: ")
        assert "at t=0 " in stiff[0]["status"]
        assert stiff[1]["status"] == "ok"


KERNEL_SWEEP = """
base:
  ic: {n_agents: 4, x_low: 1.0, x_high: 3.0, v_low: -0.5, v_high: 0.5}
  integrator: {t_end: 2.0, sample_every: 0.5}
sweep:
  axes:
    - {key: ic.x_high, values: [3.0, 4.0]}
    - {key: kernel.beta, values: [0.0, 0.25, 1.0]}
    - {key: kernel.H, values: [0.3, 1.0]}
  seeds: [1, 2]
"""


def test_kernel_axes_sweep_is_one_batch_with_one_member_rows(tmp_path, monkeypatch):
    # runs that differ only in their kernel (or their initial data) step as
    # one slice in the rows' sorted order, which interleaves the kernels;
    # every row is the row its run gives alone
    batched, slices = _sweep_batches(tmp_path, monkeypatch, KERNEL_SWEEP, "batched", False)
    alone, singles = _sweep_batches(tmp_path, monkeypatch, KERNEL_SWEEP, "alone", True)
    assert batched == alone
    rows = batched.decode().splitlines()[1:]
    assert [len(s) for s in slices] == [len(rows)] == [24]
    assert [len(s) for s in singles] == [1] * 24
    runs = [m.kernel for m in slices[0]]
    assert len({(k.H, k.beta) for k in runs}) == 6
    assert sum(a != b for a, b in zip(runs, runs[1:])) == 11


def test_sweep_batches_hold_one_member_above_one_strip(tmp_path, monkeypatch):
    # at N = 182 one member's kernel matrix is more than one strip
    text = """
base:
  ic: {n_agents: 182, x_low: 2.0, x_high: 40.0, v_low: 0.1, v_high: 0.9}
  integrator: {t_end: 0.2, sample_every: 0.1}
sweep:
  seeds: [1, 2, 3]
"""
    _, slices = _sweep_batches(tmp_path, monkeypatch, text, "n182", False)
    assert [len(s) for s in slices] == [1, 1, 1]


def test_aligned_flock_has_no_rate_to_fit(tmp_path):
    # every velocity equal and every agent outside the wall layer: A is 0 at
    # every sample, as for one agent, so exponential_rate does not apply
    cfg = write(
        tmp_path, "aligned.yaml",
        "ic: {n_agents: 4, x_low: 1.5, x_high: 2.0, v_low: 0.3, v_high: 0.3}\n"
        "integrator: {t_end: 5}\n",
    )
    out = tmp_path / "aligned"
    assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    claims = json.loads((out / "report.json").read_text())["claims"]
    rate = next(c for c in claims if c["name"] == "exponential_rate")
    assert rate["applicable"] is False
    assert rate["detail"].startswith("A stays below the round-off floor")
