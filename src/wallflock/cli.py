"""Command-line driver: simulate, verify, sweep, and plot-data subcommands.

Exit codes: 0 success / all claims pass, 1 claim failure, 2 configuration
error, 3 integration failure.  All artifacts are deterministic functions of
(config bytes, seed); reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
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
from .verification import TheoremReport, remove_report, verify


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


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise ConfigError("--seed must be a 64-bit unsigned integer")
        cfg = dataclasses.replace(cfg, ic=dataclasses.replace(cfg.ic, seed=args.seed))
    if args.out is not None:
        cfg = dataclasses.replace(
            cfg, output=dataclasses.replace(cfg.output, directory=str(args.out))
        )
    return cfg


def _run_dir(cfg: RunConfig, config_text: str) -> Path:
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    # keep the exact input bytes next to the artifacts for provenance
    (out / "config.yaml").write_text(
        config_text if config_text else serialize_config(cfg), encoding="utf-8"
    )
    return out


def _simulate(cfg: RunConfig) -> Trajectory:
    model = model_from_config(cfg)
    state = initial_state_from_config(cfg)
    return integrate(model, state, cfg.t_end, cfg.control, cfg.sample_every)


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
        traj = _simulate(cfg)
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
    return verify(
        model, state, cfg.control, cfg.thresholds, t_end=cfg.t_end, sample_every=cfg.sample_every
    )


def _report_exit_code(report: TheoremReport) -> int:
    completed = report.claim("integration_completed")
    if not completed.passed:
        return 3
    return 0 if report.passed else 1


def run_verify(cfg: RunConfig, config_text: str = "", quiet: bool = False) -> int:
    out = _run_dir(cfg, config_text)
    report = _verify(cfg)
    if "json" in cfg.output.formats:
        report.write(out)
    else:
        remove_report(out)
    if not quiet:
        for c in report.claims:
            status = "PASS" if c.passed else ("SKIP" if not c.applicable else "FAIL")
            print(f"{status} {c.name}: value={c.value:.6g} threshold={c.threshold:.6g}")
        print(f"report: {'PASS' if report.passed else 'FAIL'}")
    return _report_exit_code(report)


def _set_dotted(data: dict, key: str, value) -> None:
    """Set section.field in data, copying the section so a shared base stays intact."""
    section, _, field = key.partition(".")
    data[section] = {**(data.get(section) or {}), field: value}


def _sort_key(value):
    if isinstance(value, bool) or isinstance(value, str):
        return (2, str(value))
    value = float(value)
    # NaN compares false with every number, so it gets its own place after them
    return (1, 0.0) if math.isnan(value) else (0, value)


def _sweep_job(base: dict, axes, combo, seed: int) -> list:
    """One sweep.csv row: the axis values, the seed, and the run's results."""
    data = dict(base)
    for (key, _), value in zip(axes, combo):
        _set_dotted(data, key, value)
    _set_dotted(data, "ic.seed", seed)
    try:
        cfg = config_from_data(data)
    except ConfigError as exc:
        results = ["", "", "", "", False, f"config-error: {exc}"]
    else:
        report = _verify(cfg)
        completed = report.claim("integration_completed")
        results = [
            report.variant,
            report.final_A,
            "" if report.fit is None else report.fit.delta,
            report.min_wall_distance,
            bool(report.passed),
            "ok" if completed.passed else f"integration-error: {completed.detail}",
        ]
    return [_fmt_cell(v) for v in [*combo, seed, *results]]


def run_sweep(text: str, out_override: Path | None, quiet: bool = False) -> int:
    base, base_cfg, axes, seeds, parallelism = parse_sweep(text)
    out = Path(out_override if out_override is not None else base_cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep_config.yaml").write_text(text, encoding="utf-8")

    # stable sort, so rows with equal keys keep the cross-product order
    jobs = sorted(
        ((combo, seed) for combo in itertools.product(*(v for _, v in axes)) for seed in seeds),
        key=lambda job: (tuple(_sort_key(v) for v in job[0]), job[1]),
    )
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        rows = list(pool.map(lambda job: _sweep_job(base, axes, *job), jobs))

    header = [key for key, _ in axes] + [
        "seed", "variant", "final_A", "delta", "min_wall_distance", "passed", "status",
    ]
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    if not quiet:
        print(f"sweep: {len(jobs)} runs -> {out / 'sweep.csv'}")
    return 0 if all(status == "ok" and passed for *_, passed, status in rows) else 1


def _fmt_cell(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is None and args.command == "sweep":
            raise ConfigError("sweep requires --config")
        text = "" if args.config is None else read_config_text(args.config)
        if args.command == "sweep":
            return run_sweep(text, args.out, args.quiet)
        cfg = _apply_overrides(parse_config(text), args)
        if args.command == "verify":
            return run_verify(cfg, text, args.quiet)
        if args.command == "plot-data":
            plot_only = dataclasses.replace(cfg.output, formats=("plot",))
            cfg = dataclasses.replace(cfg, output=plot_only)
        return run_simulate(cfg, text, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
