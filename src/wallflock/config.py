"""Run configuration: parsing, validation, defaults, and scenario assembly.

Configs are YAML mappings with one section per subsystem.  Unknown sections
or keys are rejected by name; an empty document yields the full defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import yaml

from .dynamics import FlockModel, FlockState, initial_condition
from .integrator import IntegratorControl
from .kernels import CommunicationKernel
from .potentials import Geometry, WallPotential
from .verification import Thresholds


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class InitialConditions:
    n_agents: int = 16
    x_low: float = 0.5
    x_high: float = 3.0
    v_low: float = -0.5
    v_high: float = 1.0
    seed: int = 42


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "."
    formats: tuple = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    kernel: CommunicationKernel
    wall: WallPotential
    geometry: Geometry
    control: IntegratorControl
    thresholds: Thresholds
    ic: InitialConditions
    output: OutputConfig
    t_end: float = 200.0
    sample_every: float = 0.1


_FLOAT = "float"
_INT = "int"
_STR = "str"
_STR_LIST = "str_list"

_SCHEMA = {
    "kernel": {"family": _STR, "H": _FLOAT, "beta": _FLOAT},
    "potential": {"ell": _FLOAT, "theta": _FLOAT},
    "geometry": {"variant": _STR, "a": _FLOAT, "b": _FLOAT},
    "integrator": {
        "dt_init": _FLOAT,
        "abs_tol": _FLOAT,
        "rel_tol": _FLOAT,
        "dt_min": _FLOAT,
        "dt_max": _FLOAT,
        "wall_safety": _FLOAT,
        "sample_every": _FLOAT,
        "t_end": _FLOAT,
    },
    "thresholds": {
        "align_eps": _FLOAT,
        "settle_eps": _FLOAT,
        "tail_fraction": _FLOAT,
        "fit_min_points": _INT,
        "budget_tol": _FLOAT,
    },
    "ic": {
        "n_agents": _INT,
        "x_low": _FLOAT,
        "x_high": _FLOAT,
        "v_low": _FLOAT,
        "v_high": _FLOAT,
        "seed": _INT,
    },
    "output": {"directory": _STR, "formats": _STR_LIST},
}


def _coerce(kind: str, key: str, value):
    if kind == _FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        return float(value)
    if kind == _INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return int(value)
    if kind == _STR:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    if kind == _STR_LIST:
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{key}: expected a list of strings, got {value!r}")
        return tuple(value)
    raise AssertionError(kind)


def _section(data: dict, name: str) -> dict:
    raw = data.get(name, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected a mapping")
    out = {}
    for key, value in raw.items():
        if key not in _SCHEMA[name]:
            raise ConfigError(f"unknown key {name}.{key}")
        out[key] = _coerce(_SCHEMA[name][key], f"{name}.{key}", value)
    return out


def parse_config(text: str) -> RunConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    return config_from_data({} if data is None else data)


def config_from_data(data: dict) -> RunConfig:
    """Coerce and validate a loaded config document."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    for key in data:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown section {key}")

    sections = {name: _section(data, name) for name in _SCHEMA}
    try:
        kernel = CommunicationKernel(**sections["kernel"])
        wall = WallPotential(**sections["potential"])
        geometry = Geometry(**sections["geometry"])
        integ = dict(sections["integrator"])
        t_end = integ.pop("t_end", 200.0)
        sample_every = integ.pop("sample_every", 0.1)
        control = IntegratorControl(**integ)
        thresholds = Thresholds(**sections["thresholds"])
        ic = InitialConditions(**sections["ic"])
        output = OutputConfig(**sections["output"])
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    _validate(kernel, wall, geometry, ic, output, t_end, sample_every)
    return RunConfig(
        kernel=kernel,
        wall=wall,
        geometry=geometry,
        control=control,
        thresholds=thresholds,
        ic=ic,
        output=output,
        t_end=t_end,
        sample_every=sample_every,
    )


def _validate(kernel, wall, geometry, ic, output, t_end, sample_every):
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigError("integrator.t_end must be positive and finite")
    if not (math.isfinite(sample_every) and 0 < sample_every <= t_end):
        raise ConfigError("integrator.sample_every must lie in (0, t_end]")
    if ic.n_agents < 1:
        raise ConfigError("ic.n_agents must be at least 1")
    if not 0 <= ic.seed < 2**64:
        raise ConfigError("ic.seed must be a 64-bit unsigned integer")
    if ic.x_low > ic.x_high:
        raise ConfigError("ic.x_low must not exceed ic.x_high")
    if ic.v_low > ic.v_high:
        raise ConfigError("ic.v_low must not exceed ic.v_high")
    margin = 0.05 * wall.ell
    if geometry.variant == "halfline":
        if ic.x_low < margin:
            raise ConfigError(f"ic.x_low must keep wall distance >= {margin}")
    else:
        if ic.x_low - geometry.a < margin or geometry.b - ic.x_high < margin:
            raise ConfigError(f"ic box must keep wall distance >= {margin} from both ends")
    bad = set(output.formats) - {"csv", "json", "plot"}
    if bad:
        raise ConfigError(f"output.formats: unknown format {sorted(bad)[0]!r}")


def serialize_config(cfg: RunConfig) -> str:
    data = {
        "kernel": {"family": cfg.kernel.family, "H": cfg.kernel.H, "beta": cfg.kernel.beta},
        "potential": {"ell": cfg.wall.ell, "theta": cfg.wall.theta},
        "geometry": {"variant": cfg.geometry.variant},
        "integrator": {
            "dt_init": cfg.control.dt_init,
            "abs_tol": cfg.control.abs_tol,
            "rel_tol": cfg.control.rel_tol,
            "dt_min": cfg.control.dt_min,
            "dt_max": cfg.control.dt_max,
            "wall_safety": cfg.control.wall_safety,
            "sample_every": cfg.sample_every,
            "t_end": cfg.t_end,
        },
        "thresholds": dataclasses.asdict(cfg.thresholds),
        "ic": dataclasses.asdict(cfg.ic),
        "output": {"directory": cfg.output.directory, "formats": list(cfg.output.formats)},
    }
    if cfg.geometry.variant == "interval":
        data["geometry"]["a"] = cfg.geometry.a
        data["geometry"]["b"] = cfg.geometry.b
    return yaml.safe_dump(data, sort_keys=True)


def read_config_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def model_from_config(cfg: RunConfig) -> FlockModel:
    return FlockModel(
        kernel=cfg.kernel, wall=cfg.wall, geometry=cfg.geometry, n_agents=cfg.ic.n_agents
    )


def initial_state_from_config(cfg: RunConfig) -> FlockState:
    ic = cfg.ic
    return initial_condition(ic.n_agents, ic.x_low, ic.x_high, ic.v_low, ic.v_high, ic.seed)
