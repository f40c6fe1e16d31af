"""Run configuration: parsing, validation, defaults, sweeps, and scenario assembly.

Configs are YAML mappings with one section per subsystem.  The section
dataclasses are the schema: each section key is an init field of its
dataclass, and the integrator section holds RunConfig's own fields (t_end,
sample_every).  Step control is not configurable: it is the integrator's
module constants.  Unknown sections or keys are rejected by name; an empty
document yields the full defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import yaml

from .dynamics import FlockModel, FlockState, initial_condition
from .integrator import sample_rows
from .kernels import CommunicationKernel
from .potentials import Geometry, WallPotential


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
    ic: InitialConditions
    output: OutputConfig
    t_end: float = 200.0
    sample_every: float = 0.1


# config section -> (RunConfig field, its dataclass); the dataclasses' init
# fields are the section keys
_SECTIONS = {
    "kernel": ("kernel", CommunicationKernel),
    "potential": ("wall", WallPotential),
    "geometry": ("geometry", Geometry),
    "ic": ("ic", InitialConditions),
    "output": ("output", OutputConfig),
}


def _fields(cls) -> dict:
    """Init field name -> annotation string (annotations are postponed)."""
    return {f.name: f.type for f in dataclasses.fields(cls) if f.init}


_RUN_SCALARS = {
    name: kind for name, kind in _fields(RunConfig).items()
    if name not in {attr for attr, _ in _SECTIONS.values()}
}
_SCHEMA = {name: _fields(cls) for name, (_, cls) in _SECTIONS.items()}
_SCHEMA["integrator"] = _RUN_SCALARS

MAX_SWEEP_RUNS = 10_000
_SWEEP_KEYS = ("axes", "seeds")  # the settable keys of a sweep document's sweep section


def _coerce(kind: str, key: str, value):
    if kind in ("float", "float | None"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        return float(value)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return int(value)
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    if kind == "tuple":
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{key}: expected a list of strings, got {value!r}")
        return tuple(value)
    raise AssertionError(kind)


def _section(data: dict, name: str, overrides: dict) -> dict:
    raw = data.get(name, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected a mapping")
    out = {}
    # the document's keys, then the overrides over them: each is checked and coerced
    for key, value in [*raw.items(), *overrides.get(name, {}).items()]:
        if key not in _SCHEMA[name]:
            raise ConfigError(f"unknown key {name}.{key}")
        out[key] = _coerce(_SCHEMA[name][key], f"{name}.{key}", value)
    return out


# libyaml's parser where PyYAML was built with it: the same safe constructor and
# resolver, so the same objects, in about an eighth of the time
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(text: str):
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    data = _load_yaml(text)
    return config_from_data({} if data is None else data, overrides)


def config_from_data(data: dict, overrides: dict | None = None) -> RunConfig:
    """Coerce and validate a loaded config document, with the values of
    overrides ({"section.field": value}) in place of the document's own."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    by_section: dict = {}
    for key, value in (overrides or {}).items():
        section, _, field = key.partition(".")
        by_section.setdefault(section, {})[field] = value
    for key in [*data, *by_section]:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown section {key}")

    sections = {name: _section(data, name, by_section) for name in _SCHEMA}
    try:
        parts = {attr: cls(**sections[name]) for name, (attr, cls) in _SECTIONS.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cfg = RunConfig(**parts, **sections["integrator"])
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    ic = cfg.ic
    if not (math.isfinite(cfg.t_end) and cfg.t_end > 0):
        raise ConfigError("integrator.t_end must be positive and finite")
    if not (math.isfinite(cfg.sample_every) and 0 < cfg.sample_every <= cfg.t_end):
        raise ConfigError("integrator.sample_every must lie in (0, t_end]")
    if ic.n_agents < 1:
        raise ConfigError("ic.n_agents must be at least 1")
    try:
        sample_rows(ic.n_agents, cfg.t_end, cfg.sample_every)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0 <= ic.seed < 2**64:
        raise ConfigError("ic.seed must be a 64-bit unsigned integer")
    for low, high in (("x_low", "x_high"), ("v_low", "v_high")):
        # a NaN or infinite bound, or a span that overflows, makes the span non-finite
        span = getattr(ic, high) - getattr(ic, low)
        if not math.isfinite(span):
            raise ConfigError(f"ic.{low} and ic.{high} must be finite with a finite difference")
        if span < 0:
            raise ConfigError(f"ic.{low} must not exceed ic.{high}")
    margin, g = 0.05 * cfg.wall.ell, cfg.geometry
    if min(ic.x_low - (g.a or 0.0), math.inf if g.b is None else g.b - ic.x_high) < margin:
        raise ConfigError(f"ic box must keep wall distance >= {margin} from every wall")
    bad = set(cfg.output.formats) - {"csv", "json", "plot"}
    if bad:
        raise ConfigError(f"output.formats: unknown format {sorted(bad)[0]!r}")


def _plain(obj, keys) -> dict:
    """obj's values for keys as YAML data: unset (None) values left out, tuples as lists."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key in keys
        if (value := getattr(obj, key)) is not None
    }


def serialize_config(cfg: RunConfig) -> str:
    data = {
        name: _plain(getattr(cfg, attr), _fields(cls)) for name, (attr, cls) in _SECTIONS.items()
    }
    data["integrator"] = _plain(cfg, _RUN_SCALARS)
    return yaml.safe_dump(data, sort_keys=True)


def parse_sweep(text: str, overrides: dict | None = None):
    """A sweep document: (base data, base RunConfig, [(key, values)], seeds)."""
    data = _load_yaml(text)
    if not isinstance(data, dict) or "sweep" not in data:
        raise ConfigError("sweep config requires a top-level 'sweep' section")
    base = data.get("base", {}) or {}
    if not isinstance(base, dict):
        raise ConfigError("base: expected a mapping")
    sweep = data["sweep"] or {}
    if not isinstance(sweep, dict):
        raise ConfigError("sweep: expected a mapping")
    unknown = set(sweep) - set(_SWEEP_KEYS)
    if unknown:
        raise ConfigError(f"unknown key sweep.{sorted(unknown)[0]}")

    axes = []
    for entry in sweep.get("axes", []) or []:
        if not isinstance(entry, dict) or set(entry) != {"key", "values"}:
            raise ConfigError("each sweep axis needs exactly the keys 'key' and 'values'")
        values = entry["values"]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep axis {entry['key']!r} needs a nonempty value list")
        for value in values:
            if not isinstance(value, (int, float, str)):  # bool is an int
                raise ConfigError(
                    f"sweep axis {entry['key']!r}: values must be numbers, strings or"
                    f" booleans, got {value!r}"
                )
        axes.append((str(entry["key"]), values))

    base_cfg = config_from_data(base, overrides)  # validates sections and keys
    keys = [key for key, _ in axes]
    for key in keys:
        section, _, field = key.partition(".")
        if section not in _SCHEMA or field not in _SCHEMA[section]:
            raise ConfigError(f"sweep axis key {key!r} is not a config key")
        # a sweep run writes no files, so an output key would only relabel one run
        if section == "output":
            raise ConfigError(f"sweep axis key {key!r}: sweep runs write no output of their own")
        # each run's seed comes from sweep.seeds, and a later axis would overwrite an earlier one
        if key == "ic.seed":
            raise ConfigError("sweep axis key 'ic.seed': list the seeds under sweep.seeds")
        if keys.count(key) > 1:
            raise ConfigError(f"sweep axis key {key!r} is named by more than one axis")

    seeds = sweep.get("seeds")
    if seeds is None:
        seeds = [base_cfg.ic.seed]
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError("sweep.seeds must be a nonempty list of integers")

    total = len(seeds) * math.prod(len(values) for _, values in axes)
    if total > MAX_SWEEP_RUNS:
        raise ConfigError(f"sweep size {total} exceeds the limit of {MAX_SWEEP_RUNS}")
    return base, base_cfg, axes, seeds


def read_config_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def model_from_config(cfg: RunConfig) -> FlockModel:
    return FlockModel(kernel=cfg.kernel, wall=cfg.wall, geometry=cfg.geometry)


def initial_state_from_config(cfg: RunConfig) -> FlockState:
    ic = cfg.ic
    return initial_condition(ic.n_agents, ic.x_low, ic.x_high, ic.v_low, ic.v_high, ic.seed)
