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
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import yaml

from .config import (
    _SCHEMA,
    ConfigError,
    RunConfig,
    config_from_data,
    initial_state_from_config,
    model_from_config,
    parse_config,
    read_config_text,
    serialize_config,
)
from .integrator import StiffnessError, Trajectory, integrate
from .observables import write_diagnostics_csv
from .potentials import WallDomainError
from .verification import TheoremReport, remove_report, verify

MAX_SWEEP_RUNS = 10_000


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


def parse_sweep(text: str):
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if not isinstance(data, dict) or "sweep" not in data:
        raise ConfigError("sweep config requires a top-level 'sweep' section")
    base = data.get("base", {}) or {}
    if not isinstance(base, dict):
        raise ConfigError("base: expected a mapping")
    sweep = data["sweep"] or {}
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: expected a mapping")
    unknown = set(sweep) - {"axes", "seeds", "parallelism"}
    if unknown:
        raise ConfigError(f"unknown key sweep.{sorted(unknown)[0]}")

    axes = []
    for entry in sweep.get("axes", []) or []:
        if not isinstance(entry, dict) or set(entry) != {"key", "values"}:
            raise ConfigError("each sweep axis needs exactly the keys 'key' and 'values'")
        values = entry["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {entry['key']!r} needs a nonempty value list")
        axes.append((str(entry["key"]), values))

    base_cfg = config_from_data(base)  # validates sections and keys
    for key, _ in axes:
        section, _, field = key.partition(".")
        if section not in _SCHEMA or field not in _SCHEMA[section]:
            raise ConfigError(f"sweep axis key {key!r} is not a config key")

    seeds = sweep.get("seeds")
    if seeds is None:
        seeds = [base_cfg.ic.seed]
    if not isinstance(seeds, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError("sweep.seeds must be a list of integers")
    parallelism = sweep.get("parallelism", 1)
    if not isinstance(parallelism, int) or isinstance(parallelism, bool) or parallelism < 1:
        raise ConfigError("sweep.parallelism must be a positive integer")

    total = len(seeds)
    for _, values in axes:
        total *= len(values)
    if total > MAX_SWEEP_RUNS:
        raise ConfigError(f"sweep size {total} exceeds the limit of {MAX_SWEEP_RUNS}")
    return base, base_cfg, axes, seeds, parallelism


def _sort_key(value):
    if isinstance(value, bool) or isinstance(value, str):
        return (1, str(value))
    return (0, float(value))


def _sweep_job(base: dict, axes, combo, seed: int):
    data = dict(base)
    for (key, _), value in zip(axes, combo):
        _set_dotted(data, key, value)
    _set_dotted(data, "ic.seed", seed)
    try:
        cfg = config_from_data(data)
    except ConfigError as exc:
        return {"status": f"config-error: {exc}", "passed": False}
    report = _verify(cfg)
    completed = report.claim("integration_completed")
    return {
        "status": "ok" if completed.passed else f"integration-error: {completed.detail}",
        "passed": bool(report.passed),
        "variant": report.variant,
        "final_A": report.final_A,
        "delta": "" if report.fit is None else format(report.fit.delta, ".17g"),
        "min_wall_distance": report.min_wall_distance,
    }


def run_sweep(text: str, out_override: Path | None, quiet: bool = False) -> int:
    base, base_cfg, axes, seeds, parallelism = parse_sweep(text)
    out = Path(out_override if out_override is not None else base_cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep_config.yaml").write_text(text, encoding="utf-8")

    combos = list(itertools.product(*(values for _, values in axes)))
    jobs = [(combo, seed) for combo in combos for seed in seeds]
    order = sorted(
        range(len(jobs)),
        key=lambda i: (tuple(_sort_key(v) for v in jobs[i][0]), jobs[i][1]),
    )

    results = [None] * len(jobs)
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        futures = {
            i: pool.submit(_sweep_job, base, axes, jobs[i][0], jobs[i][1])
            for i in range(len(jobs))
        }
        for i, fut in futures.items():
            results[i] = fut.result()

    header = [key for key, _ in axes] + [
        "seed", "variant", "final_A", "delta", "min_wall_distance", "passed", "status",
    ]
    all_ok = True
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in order:
            combo, seed = jobs[i]
            res = results[i]
            ok = res["status"] == "ok" and res["passed"]
            all_ok = all_ok and ok
            writer.writerow(
                [_fmt_cell(v) for v in combo]
                + [
                    seed,
                    res.get("variant", ""),
                    _fmt_cell(res.get("final_A", "")),
                    res.get("delta", ""),
                    _fmt_cell(res.get("min_wall_distance", "")),
                    res["passed"],
                    res["status"],
                ]
            )
    if not quiet:
        print(f"sweep: {len(jobs)} runs -> {out / 'sweep.csv'}")
    return 0 if all_ok else 1


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
