"""Exit codes and sha256 digests of the artifacts of the shipped configs.

Usage, from the repository root:

    python3 tools/artifact_digest.py > digest.txt

Runs `wallflock verify`, `wallflock simulate` and `wallflock plot-data` on
configs/{halfline,interval,settle,control_nowall}.yaml and `wallflock sweep` on
configs/sweep_beta.yaml, plus `wallflock simulate` with no --config (whose
config.yaml is the serialized defaults) and `wallflock simulate` and `verify` of
configs/halfline.yaml at ic.n_agents 320 and integrator.t_end 0.3 (written to
halfline_n320.yaml), and `wallflock verify` of configs/interval.yaml at
integrator.t_end 1.05 (interval_short_last.yaml), and `wallflock simulate` and
`verify` of configs/interval.yaml at geometry.b 4 with the initial box
[0.5, 3.5] (interval_two_walls.yaml), and the same at ic.n_agents 320 and
integrator.t_end 0.3 (interval_two_walls_n320.yaml), and `wallflock sweep` of
configs/sweep_beta.yaml on the interval (0, 4) with the initial box [0.5, 3.5]
(sweep_interval.yaml), and `wallflock sweep` of configs/sweep_beta.yaml over
kernel.beta [0, 0.5, 1, 1.5] by kernel.H [0.3, 1] (sweep_kernels.yaml), each
into its own directory
under a temporary working directory, and prints one line per run (`<command> <config> exit=<code>`)
followed by `<sha256>  <command>/<config>/<file>` for every file the run
wrote.  wallflock is imported from the src/ tree next to this script, so two
checkouts give two digests whose diff is the byte-identity check of a change.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from wallflock.cli import main  # noqa: E402

RUNS = [
    (command, name)
    for name in ("halfline", "interval", "settle", "control_nowall")
    for command in ("verify", "simulate", "plot-data")
] + [("sweep", "sweep_beta"), ("simulate", None)]
# per config name, the shipped config it changes and the values it changes
DERIVED = {
    # the half-line runs on the strip path of dynamics.kernel_strips (N > 181):
    # at N = 320 the kernel sums run over four strips of 102 rows, so the order
    # in which each strip's terms join the running totals shows in the digest
    # (at N = 256 the second and last of two strips has no columns past its rows)
    "halfline_n320": ("halfline", {"ic": {"n_agents": 320}, "integrator": {"t_end": 0.3}}),
    # t_end 1.05 ends the 0.1 sample grid with one 0.05 interval, which the
    # impulse of momentum_force_identity closes with a trapezoid; the walls still
    # push at t = 1.05, so the closing term sets the claim's value (on the
    # half-line the flock has left the wall layer by then, and no t_end shows it)
    "interval_short_last": ("interval", {"integrator": {"t_end": 1.05}}),
    # a one-state run whose flock is within both walls' layers at once,
    # where both walls add their rows; it is also within one layer only and
    # within none, so each path of the wall layer shows in one digest
    "interval_two_walls": ("interval", {"geometry": {"b": 4.0}, "ic": {"x_low": 0.5, "x_high": 3.5}}),
    # the interval runs on the strip path: interval_two_walls at N = 320 to
    # t = 0.3, where the kernel strips meet both walls' rows
    "interval_two_walls_n320": ("interval", {
        "geometry": {"b": 4.0},
        "ic": {"n_agents": 320, "x_low": 0.5, "x_high": 3.5},
        "integrator": {"t_end": 0.3},
    }),
    # the only batched interval runs: a sweep steps its runs as one batch, whose
    # samples take each member's wall terms, x_min_wall (sweep.csv's
    # min_wall_distance) and verdicts from the batch's rows; the base sections
    # given here replace those of sweep_beta in full
    "sweep_interval": ("sweep_beta", {"base": {
        "geometry": {"variant": "interval", "a": 0.0, "b": 4.0},
        "ic": {"n_agents": 8, "x_low": 0.5, "x_high": 3.5, "v_low": -0.5, "v_high": 0.8, "seed": 1},
    }}),
    # a sweep over the kernel grid beta in {0, 1/2, 1, 3/2} by H in {0.3, 1}:
    # its batch holds each kernel as a column, so beta = 1's reciprocal, beta =
    # 0's ones and the amplitude column show in sweep.csv and the reports
    "sweep_kernels": ("sweep_beta", {"sweep": {"axes": [
        {"key": "kernel.beta", "values": [0.0, 0.5, 1.0, 1.5]},
        {"key": "kernel.H", "values": [0.3, 1.0]},
    ]}}),
}
RUNS += [("simulate", "halfline_n320"), ("verify", "halfline_n320")]
RUNS += [("verify", "interval_short_last")]
RUNS += [("simulate", "interval_two_walls"), ("verify", "interval_two_walls")]
RUNS += [("simulate", "interval_two_walls_n320"), ("verify", "interval_two_walls_n320")]
RUNS += [("sweep", "sweep_interval"), ("sweep", "sweep_kernels")]


def write_derived_configs(directory: Path) -> None:
    """Each DERIVED config as directory/<name>.yaml."""
    for name, (base, changes) in DERIVED.items():
        data = yaml.safe_load((ROOT / "configs" / f"{base}.yaml").read_text())
        for section, values in changes.items():
            data[section].update(values)
        (directory / f"{name}.yaml").write_text(yaml.safe_dump(data))


def print_digest() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative --out paths keep the temporary directory's name out of the
        # output.directory that the defaults run serializes into config.yaml
        os.chdir(tmp)
        write_derived_configs(Path(tmp))
        try:
            for command, config in RUNS:
                name = config or "defaults"
                out = Path(command) / name
                argv = [command, "--out", str(out), "--quiet"]
                if config in DERIVED:
                    argv += ["--config", str(Path(tmp) / f"{config}.yaml")]
                elif config is not None:
                    argv += ["--config", str(ROOT / "configs" / f"{config}.yaml")]
                code = main(argv)
                print(f"{command} {name} exit={code}")
                for path in sorted(out.iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {command}/{name}/{path.name}")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    print_digest()
