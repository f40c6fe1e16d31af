"""Command-line driver: simulate, verify, sweep, and plot-data subcommands.

Exit codes: 0 success / all claims pass, 1 claim failure, 2 configuration
error or unusable output directory, 3 integration failure.  All artifacts are
deterministic functions of (config bytes, seed); reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    config_from_data,
    initial_state_from_config,
    model_from_config,
    parse_config,
    parse_sweep,
    read_config_text,
    serialize_config,
)
from .integrator import StiffnessError, Trajectory, integrate
from .observables import write_diagnostics_csv
from .potentials import WallDomainError
from .verification import REPORT_JSON, TheoremReport, verify, verify_batch


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="YAML config (omit for defaults)")
    common.add_argument("--out", type=Path, help="output directory (overrides config)")
    common.add_argument("--seed", type=int, help="initial-condition seed (overrides config)")
    common.add_argument("--quiet", action="store_true", help="suppress the summary lines")

    parser = argparse.ArgumentParser(
        prog="wallflock",
        description="Deterministic simulator and verdict harness for wall-confined flocks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="run one scenario, write diagnostics")
    sub.add_parser("verify", parents=[common], help="run one scenario, check all claims")
    sub.add_parser("sweep", parents=[common], help="run a parameter/seed cross product")
    sub.add_parser("plot-data", parents=[common], help="run and emit plot-ready columns")
    return parser


# every file a simulate, plot-data or verify run may write besides config.yaml
RUN_FILES = ("diagnostics.csv", "final_state.csv", "plot.dat", "plot_positions.dat", REPORT_JSON)


def _run_dir(cfg: RunConfig, config_text: str) -> Path:
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    # no earlier run's file may outlive the config.yaml it belonged to
    for name in RUN_FILES:
        (out / name).unlink(missing_ok=True)
    # keep the exact input bytes next to the artifacts for provenance, or the
    # serialized config when there are none to keep
    (out / "config.yaml").write_text(
        config_text if config_text else serialize_config(cfg), encoding="utf-8"
    )
    return out


def _write_final_state(traj: Trajectory, path: Path) -> None:
    final = np.column_stack([np.arange(traj.X.shape[1]), traj.X[-1], traj.V[-1]])
    np.savetxt(path, final, fmt="%d,%.17g,%.17g", header="i,x,v", comments="")


def emit_plot_data(traj: Trajectory, path: Path) -> None:
    """Whitespace columns (t, A, E, K, p, D, F_max) plus per-agent traces."""
    path = Path(path)
    cols = ["t", "A", "E", "K", "p", "D", "F_max"]
    np.savetxt(path, traj.records[cols], fmt="%.17g", header=" ".join(cols))
    agents = path.with_name(path.stem + "_positions" + path.suffix)
    header = " ".join(["t"] + [f"x{i}" for i in range(traj.X.shape[1])])
    np.savetxt(agents, np.column_stack([traj.sample_times, traj.X]), fmt="%.17g", header=header)


def run_simulate(cfg: RunConfig, config_text: str = "", quiet: bool = False) -> int:
    out = _run_dir(cfg, config_text)
    try:
        traj = integrate(
            model_from_config(cfg), initial_state_from_config(cfg), cfg.t_end, cfg.sample_every
        )
    except (StiffnessError, WallDomainError) as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 3
    if "csv" in cfg.output.formats:
        write_diagnostics_csv(traj.records, out / "diagnostics.csv")
        _write_final_state(traj, out / "final_state.csv")
    if "plot" in cfg.output.formats:
        emit_plot_data(traj, out / "plot.dat")
    last = traj.records[-1]
    if not quiet:
        print(
            f"t={last.t:g} A={last.A:.6g} E={last.E:.6g} min_wall_distance="
            f"{traj.records.x_min_wall.min():.6g}"
        )
    return 0


def _verify(cfg: RunConfig) -> TheoremReport:
    model = model_from_config(cfg)
    state = initial_state_from_config(cfg)
    return verify(model, state, t_end=cfg.t_end, sample_every=cfg.sample_every)


def run_verify(cfg: RunConfig, config_text: str = "", quiet: bool = False) -> int:
    out = _run_dir(cfg, config_text)
    report = _verify(cfg)
    if "json" in cfg.output.formats:
        report.write(out)
    if not quiet:
        for c in report.claims:
            status = "SKIP" if not c.applicable else ("PASS" if c.passed else "FAIL")
            print(f"{status} {c.name}: value={c.value:.6g} threshold={c.threshold:.6g}")
        print(f"report: {'PASS' if report.passed else 'FAIL'}")
    if not report.claim("integration_completed").passed:
        return 3
    return 0 if report.passed else 1


def _sort_key(value):
    if isinstance(value, bool) or isinstance(value, str):
        return (2, str(value))
    value = float(value)
    # NaN compares false with every number, so it gets its own place after them
    return (1, 0.0) if math.isnan(value) else (0, value)


def _sweep_job(group: list) -> list:
    """The TheoremReports of a group of run configs that share a wall,
    geometry, N and sample grid, stepped together by verify_batch."""
    return verify_batch(
        [model_from_config(c) for c in group],
        [initial_state_from_config(c) for c in group],
        t_end=group[0].t_end,
        sample_every=group[0].sample_every,
    )


def _sweep_row(combo, seed: int, run) -> list:
    """The sweep.csv row of a run: its TheoremReport, or the ConfigError that rejected it."""
    if isinstance(run, ConfigError):
        results = ["", "", "", "", False, f"config-error: {run}"]
    else:
        completed = run.claim("integration_completed")
        results = [
            run.variant,
            run.final_A,
            "" if run.fit is None else run.fit.delta,
            run.min_wall_distance,
            bool(run.passed),
            "ok" if completed.passed else f"integration-error: {completed.detail}",
        ]
    # floats as %.17g, which reads back bit for bit
    return [format(v, ".17g") if isinstance(v, float) else v for v in [*combo, seed, *results]]


def run_sweep(text: str, overrides: dict, quiet: bool = False) -> int:
    base, base_cfg, axes, seeds = parse_sweep(text, overrides)
    out = Path(base_cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep_config.yaml").write_text(text, encoding="utf-8")

    # stable sort, so rows with equal keys keep the cross-product order
    jobs = sorted(
        ((combo, seed) for combo in itertools.product(*(v for _, v in axes)) for seed in seeds),
        key=lambda job: (tuple(_sort_key(v) for v in job[0]), job[1]),
    )
    keys = [key for key, _ in axes]
    # per job its RunConfig, later its TheoremReport, or the ConfigError that
    # rejected it; a group holds the indices of runs with equal wall,
    # geometry, N, t_end and sample_every
    runs: list = []
    groups: dict = {}
    for combo, seed in jobs:
        try:
            cfg = config_from_data(base, {**dict(zip(keys, combo)), "ic.seed": seed})
        except ConfigError as exc:
            runs.append(exc)
            continue
        key = (cfg.wall, cfg.geometry, cfg.ic.n_agents, cfg.t_end, cfg.sample_every)
        groups.setdefault(key, []).append(len(runs))
        runs.append(cfg)
    for members in groups.values():
        for i, report in zip(members, _sweep_job([runs[i] for i in members])):
            runs[i] = report
    rows = [_sweep_row(combo, seed, run) for (combo, seed), run in zip(jobs, runs)]

    header = keys + ["seed", "variant", "final_A", "delta", "min_wall_distance", "passed", "status"]
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    if not quiet:
        print(f"sweep: {len(jobs)} runs -> {out / 'sweep.csv'}")
    return 0 if all(status == "ok" and passed for *_, passed, status in rows) else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every command-line override is a config key, validated with the file's own
    overrides: dict = {}
    if args.seed is not None:
        overrides["ic.seed"] = args.seed
    if args.out is not None:
        overrides["output.directory"] = str(args.out)
    if args.command == "plot-data":
        overrides["output.formats"] = ["plot"]
    try:
        if args.command == "sweep":
            if args.config is None:
                raise ConfigError("sweep requires --config")
            if args.seed is not None:
                raise ConfigError("sweep takes no --seed: list the seeds under sweep.seeds")
            return run_sweep(read_config_text(args.config), overrides, args.quiet)
        text = "" if args.config is None else read_config_text(args.config)
        cfg = parse_config(text, overrides)
        if args.seed is not None:
            text = ""  # the input names another seed: config.yaml gets the effective config
        if args.command == "verify":
            return run_verify(cfg, text, args.quiet)
        return run_simulate(cfg, text, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the run directory cannot be made or written
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
