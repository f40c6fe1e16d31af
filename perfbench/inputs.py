"""Workload inputs generated from a seed, and the checks on each operation's outputs.

An input is one `wallflock` command line (verify or sweep) with its config
text.  A workload is a list of inputs; one pass runs each of them once.  The
workload seed selects one of POOL variants, and the variant's random stream
draws the initial-condition seeds.  Every
variant has an entry in reference.json, recorded at the seed commit, that the
outputs are compared against.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

POOL = 16
WORKLOADS = ("canonical", "large_n", "sweep")
RTOL = 1e-6
ATOL = 1e-9
ORACLE_RTOL = 1e-12

# The four shipped scenarios (configs/*.yaml) with their N, kernel, walls and
# initial-condition box, each run from _CANONICAL_ICS initial conditions.  The
# horizons are shortened (200/400 -> 30/50) so a pass fits several times into
# one run, and several initial conditions per scenario even out the step
# count, which varies by up to 20 % between draws on the interval.  At the
# shipped seeds the half-line and interval verdicts are those of the full
# horizon; settle has not settled by t=30 and, like control_nowall, takes the
# FAIL/exit-1 path.
_CANONICAL = {
    "halfline": {
        "kernel": {"family": "powerlaw", "H": 1.0, "beta": 0.25},
        "potential": {"ell": 1.0, "theta": 1.0},
        "geometry": {"variant": "halfline"},
        "integrator": {"t_end": 30.0, "sample_every": 0.1},
        "ic": {"n_agents": 16, "x_low": 0.5, "x_high": 3.0, "v_low": -0.5, "v_high": 1.0},
    },
    "interval": {
        "kernel": {"family": "powerlaw", "H": 1.0, "beta": 0.25},
        "potential": {"ell": 1.0, "theta": 1.0},
        "geometry": {"variant": "interval", "a": 0.0, "b": 10.0},
        "integrator": {"t_end": 50.0, "sample_every": 0.1},
        "ic": {"n_agents": 16, "x_low": 1.0, "x_high": 9.0, "v_low": -1.0, "v_high": 1.0},
    },
    "settle": {
        "kernel": {"family": "powerlaw", "H": 0.15, "beta": 0.25},
        "potential": {"ell": 1.0, "theta": 1.0},
        "geometry": {"variant": "halfline"},
        "integrator": {"t_end": 30.0, "sample_every": 0.1},
        "ic": {"n_agents": 16, "x_low": 1.1, "x_high": 5.0, "v_low": -0.0462, "v_high": -0.0378},
    },
    "control_nowall": {
        "kernel": {"family": "powerlaw", "H": 1.0, "beta": 0.25},
        "potential": {"ell": 1.0, "theta": 0.0},
        "geometry": {"variant": "halfline"},
        "integrator": {"t_end": 10.0, "sample_every": 0.1},
        "ic": {"n_agents": 16, "x_low": 0.5, "x_high": 3.0, "v_low": -1.0, "v_high": -0.5},
    },
}
_CANONICAL_ICS = 3

# The half-line scenario at N=1024 for one time unit's worth of steps: the
# O(N^2) kernel sum and the N x N pairwise_limits in report.json dominate.
_LARGE_N = dict(
    _CANONICAL["halfline"],
    integrator={"t_end": 0.3, "sample_every": 0.1},
    ic=dict(_CANONICAL["halfline"]["ic"], n_agents=1024),
)

# Shaped like configs/sweep_beta.yaml (N=8, beta axis x seeds) with 4 x 4 = 16
# runs of t_end 10 instead of 3 x 3 runs of 40; the seed draws the four
# initial-condition seeds.  No sweep.parallelism key: the default single
# worker thread stays within two CPUs.
_SWEEP_BASE = {
    "kernel": {"family": "powerlaw", "H": 1.0, "beta": 0.25},
    "potential": {"ell": 1.0, "theta": 1.0},
    "geometry": {"variant": "halfline"},
    "integrator": {"t_end": 10.0, "sample_every": 0.1},
    "ic": {"n_agents": 8, "x_low": 2.0, "x_high": 5.0, "v_low": 0.2, "v_high": 0.8, "seed": 1},
    "output": {"directory": "runs/sweep"},
}
_SWEEP_BETAS = [0.1, 0.2, 0.3, 0.4]
_SWEEP_SEEDS = 4


@dataclass(frozen=True)
class Input:
    """One command: `kind` is 'verify' or 'sweep'; `text` is the config file."""

    name: str
    kind: str
    text: str


def variant(seed: int) -> int:
    return seed % POOL


def _config_text(sections: dict, ic_seed: int) -> str:
    data = {k: dict(v) for k, v in sections.items()}
    data["ic"]["seed"] = ic_seed
    data["output"] = {"directory": "runs/bench", "formats": ["csv", "json"]}
    return yaml.safe_dump(data, default_flow_style=None, sort_keys=True)


def make_inputs(workload: str, seed: int) -> list[Input]:
    """The inputs of one pass; a pure function of (workload, seed % POOL)."""
    k = variant(seed)
    rng = random.Random(f"{workload}/{k}")
    if workload == "canonical":
        return [
            Input(f"{name}.{j}", "verify", _config_text(shape, rng.randrange(1, 2**31)))
            for name, shape in _CANONICAL.items()
            for j in range(_CANONICAL_ICS)
        ]
    if workload == "large_n":
        return [Input("halfline_n1024", "verify", _config_text(_LARGE_N, rng.randrange(1, 2**31)))]
    if workload == "sweep":
        seeds = [rng.randrange(1, 2**31) for _ in range(_SWEEP_SEEDS)]
        doc = {
            "base": _SWEEP_BASE,
            "sweep": {"axes": [{"key": "kernel.beta", "values": _SWEEP_BETAS}], "seeds": seeds},
        }
        return [Input("sweep", "sweep", yaml.safe_dump(doc, default_flow_style=None, sort_keys=True))]
    raise ValueError(f"unknown workload {workload!r}")


def setup_config(inp: Input) -> str:
    """A single-run config for timing set-up: the input's own, or a sweep's base."""
    if inp.kind == "verify":
        return inp.text
    return yaml.safe_dump(yaml.safe_load(inp.text)["base"], default_flow_style=None, sort_keys=True)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _num(value):
    """JSON/CSV number to float, keeping None for absent values."""
    if value is None or value == "":
        return None
    return float(value)


def summarize_report(exit_code: int, text: str) -> dict:
    """The parts of report.json that the reference pins."""
    report = json.loads(text)
    fit = report.get("fit")
    return {
        "exit_code": exit_code,
        "verdicts": [[c["name"], c["passed"], c["applicable"]] for c in report["claims"]],
        "values": {
            "final_A": _num(report.get("final_A")),
            "final_D": _num(report.get("final_D")),
            "min_wall_distance": _num(report.get("min_wall_distance")),
            "delta": None if fit is None else _num(fit.get("delta")),
            "escape_time": _num(report.get("escape_time")),
        },
    }


_SWEEP_KEYS = ("seed", "variant")
_SWEEP_VERDICTS = ("passed", "status")
_SWEEP_VALUES = ("final_A", "delta", "min_wall_distance")


def summarize_sweep(exit_code: int, text: str) -> dict:
    """Per-row keys, verdict columns and numeric columns of sweep.csv."""
    rows = list(csv.DictReader(io.StringIO(text)))
    fixed = set(_SWEEP_KEYS + _SWEEP_VERDICTS + _SWEEP_VALUES)
    out = []
    for row in rows:
        axes = [row[c] for c in row if c not in fixed]
        out.append(
            {
                "key": axes + [row[c] for c in _SWEEP_KEYS],
                "verdict": [row[c] for c in _SWEEP_VERDICTS],
                "values": {c: _num(row[c]) for c in _SWEEP_VALUES},
            }
        )
    return {"exit_code": exit_code, "rows": out}


def _close(ref, got) -> bool:
    if ref is None or got is None:
        return ref is got
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    return abs(got - ref) <= ATOL + RTOL * abs(ref)


def _value_mismatches(ref: dict, got: dict, where: str) -> list[str]:
    return [
        f"{where}{name}: {got.get(name)!r} != reference {ref[name]!r}"
        for name in ref
        if not _close(ref[name], got.get(name))
    ]


def report_mismatches(ref: dict, got: dict) -> list[str]:
    """Differences between a verify summary and its reference; empty if it matches."""
    out = []
    if got["exit_code"] != ref["exit_code"]:
        out.append(f"exit code {got['exit_code']} != reference {ref['exit_code']}")
    if got["verdicts"] != ref["verdicts"]:
        out.append(f"verdicts {got['verdicts']} != reference {ref['verdicts']}")
    return out + _value_mismatches(ref["values"], got["values"], "")


def sweep_row_failures(ref: dict, got: dict) -> tuple[int, list[str]]:
    """(number of failed rows, reasons) of a sweep summary against its reference.

    A wrong exit code or a different row count fails every row.
    """
    n = len(ref["rows"])
    if got["exit_code"] != ref["exit_code"]:
        return n, [f"sweep exit code {got['exit_code']} != reference {ref['exit_code']}"]
    if len(got["rows"]) != n:
        return n, [f"sweep.csv has {len(got['rows'])} rows, reference {n}"]
    failed, reasons = 0, []
    for i, (r, g) in enumerate(zip(ref["rows"], got["rows"])):
        why = []
        if g["key"] != r["key"] or g["verdict"] != r["verdict"]:
            why.append(f"row {i}: {g['key'] + g['verdict']} != reference {r['key'] + r['verdict']}")
        why += _value_mismatches(r["values"], g["values"], f"row {i} ")
        if why:
            failed += 1
            reasons += why
    return failed, reasons


def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def dense_acceleration(cfg, x, v):
    """dv/dt by the dense O(N^2) formula for a power-law kernel and a half-line wall."""
    import numpy as np

    k, w = cfg.kernel, cfg.wall
    d = x[:, None] - x[None, :]
    phi = k.H * (1.0 + d * d) ** (-k.beta)
    g = np.maximum(w.ell - x, 0.0)
    wall = w.theta * (4.0 * g**3 * x + g**4) / (x * x)
    return (phi * (v[None, :] - v[:, None])).sum(axis=1) / x.size + wall


def acceleration_oracle_error(text: str, seed: int) -> float:
    """Largest relative error of wallflock's acceleration against the dense formula.

    Checked at the input's initial state and at a second state, drawn from
    the seed, with a quarter of the agents inside the wall layer.  The error
    is max |a - a_ref| / max |a_ref| over the agents.
    """
    import numpy as np
    from wallflock.config import initial_state_from_config, model_from_config, parse_config
    from wallflock.dynamics import acceleration

    cfg = parse_config(text)
    if cfg.geometry.variant != "halfline" or cfg.kernel.family != "powerlaw":
        raise ValueError("the oracle covers a power-law kernel on the half-line")
    model = model_from_config(cfg)
    s0 = initial_state_from_config(cfg)
    rng = np.random.default_rng(seed)
    n = s0.x.size
    x1 = np.sort(np.concatenate([rng.uniform(0.05, 1.0, n // 4), rng.uniform(1.0, 4.0, n - n // 4)]))
    v1 = rng.uniform(-1.0, 1.0, n)
    worst = 0.0
    for x, v in ((s0.x, s0.v), (x1, v1)):
        ref = dense_acceleration(cfg, x, v)
        got = acceleration(model, x, v)
        worst = max(worst, float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))))
    return worst
