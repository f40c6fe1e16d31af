import re
import string
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import wallflock as wf
from wallflock import config
from wallflock import (
    ConfigError,
    RunConfig,
    config_from_data,
    initial_state_from_config,
    model_from_config,
    parse_config,
    read_config_text,
    serialize_config,
)
from wallflock.integrator import _MAX_SAMPLE_NUMBERS, _row_numbers

CANONICAL = """
kernel: {family: powerlaw, H: 1.0, beta: 0.25}
potential: {ell: 1.0, theta: 1.0}
geometry: {variant: halfline}
integrator: {t_end: 200.0, sample_every: 0.05}
ic: {n_agents: 16, x_low: 0.5, x_high: 3.0, v_low: -0.5, v_high: 1.0, seed: 42}
"""

INTERVAL = """
geometry: {variant: interval, a: 0.0, b: 10.0}
integrator: {t_end: 400.0}
ic: {x_low: 1.0, x_high: 9.0, v_low: -1.0, v_high: 1.0, seed: 7}
"""


def test_empty_config_gives_defaults():
    cfg = parse_config("")
    assert cfg.kernel == wf.CommunicationKernel("powerlaw", 1.0, 0.25)
    assert cfg.wall == wf.WallPotential(1.0, 1.0)
    assert cfg.geometry.variant == "halfline"
    assert cfg.t_end == 200.0
    assert cfg.sample_every == 0.1
    assert cfg.ic.n_agents == 16
    assert cfg.ic.seed == 42
    assert cfg.output.formats == ("csv", "json")


def test_parse_canonical():
    cfg = parse_config(CANONICAL)
    assert cfg.sample_every == 0.05
    assert cfg.ic.x_low == 0.5
    m = model_from_config(cfg)
    assert (m.kernel, m.wall, m.geometry) == (cfg.kernel, cfg.wall, cfg.geometry)
    s = initial_state_from_config(cfg)
    assert s.n == 16
    assert s.t == 0.0


def test_interval_section():
    cfg = parse_config(INTERVAL)
    assert cfg.geometry == wf.Geometry("interval", 0.0, 10.0)
    assert cfg.t_end == 400.0


def test_unknown_names_are_rejected_with_location():
    with pytest.raises(ConfigError, match="unknown section solver"):
        parse_config("solver: {dt: 0.1}")
    with pytest.raises(ConfigError, match="kernel.gamma"):
        parse_config("kernel: {gamma: 2.0}")
    with pytest.raises(ConfigError, match="mapping"):
        parse_config("kernel: 3")
    with pytest.raises(ConfigError):
        parse_config("- a\n- b")
    with pytest.raises(ConfigError, match="invalid YAML"):
        parse_config("kernel: {family: [unclosed")


SHIPPED = sorted((Path(__file__).parents[1] / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_configs_load_alike_through_both_yaml_loaders(path, monkeypatch):
    # libyaml's loader where PyYAML has it, else the pure-Python one: the same
    # objects, types included, and the same ConfigError for invalid YAML
    text = path.read_text()
    loaded = yaml.load(text, Loader=yaml.SafeLoader)
    assert loaded
    for loader in {config._LOADER, yaml.SafeLoader}:
        monkeypatch.setattr(config, "_LOADER", loader)
        assert config._load_yaml(text) == loaded
        assert repr(config._load_yaml(text)) == repr(loaded)
        with pytest.raises(ConfigError, match="invalid YAML"):
            config._load_yaml(text + "\nkernel: {family: [unclosed")


def test_type_errors():
    with pytest.raises(ConfigError, match="kernel.H"):
        parse_config("kernel: {H: true}")
    with pytest.raises(ConfigError, match="ic.seed"):
        parse_config("ic: {seed: 1.5}")
    with pytest.raises(ConfigError, match="ic.n_agents"):
        parse_config("ic: {n_agents: sixteen}")
    with pytest.raises(ConfigError, match="output.formats"):
        parse_config("output: {formats: csv}")
    with pytest.raises(ConfigError, match="kernel.family"):
        parse_config("kernel: {family: 2}")


def test_overrides_replace_document_values_and_are_checked_like_them():
    cfg = parse_config(CANONICAL, {"ic.seed": 7, "output.formats": ["plot"], "kernel.beta": 1})
    assert (cfg.ic.seed, cfg.output.formats, cfg.kernel.beta) == (7, ("plot",), 1.0)
    assert cfg.ic.n_agents == parse_config(CANONICAL).ic.n_agents
    # a section the document leaves out takes the override alone
    assert config_from_data({}, {"integrator.t_end": 5}).t_end == 5.0
    with pytest.raises(ConfigError, match="ic.seed: expected an integer"):
        parse_config(CANONICAL, {"ic.seed": "7"})
    with pytest.raises(ConfigError, match="ic.seed must be a 64-bit unsigned integer"):
        parse_config(CANONICAL, {"ic.seed": 2**64})
    # the document's own values are still checked where an override replaces them
    with pytest.raises(ConfigError, match="ic.seed: expected an integer"):
        parse_config("ic: {seed: 1.5}", {"ic.seed": 3})
    # a section's mapping check comes before its overrides
    with pytest.raises(ConfigError, match="ic: expected a mapping"):
        parse_config("ic: 5", {"ic.seed": 3})


@pytest.mark.parametrize(
    "key, message",
    [
        ("bogus.x", "unknown section bogus"),
        ("solver", "unknown section solver"),
        ("ic.bogus", "unknown key ic.bogus"),
        ("ic", "unknown key ic."),
    ],
)
def test_override_of_an_unknown_name_is_rejected(key, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_data({}, {key: 1})


def test_overrides_leave_the_document_unchanged():
    data = {"ic": {"seed": 1, "n_agents": 4}, "kernel": {"beta": 0.5}}
    before = {name: dict(section) for name, section in data.items()}
    cfg = config_from_data(data, {"ic.seed": 9, "kernel.beta": 1.0, "integrator.t_end": 3.0})
    assert (cfg.ic.seed, cfg.kernel.beta, cfg.t_end) == (9, 1.0, 3.0)
    assert data == before
    assert config_from_data(data).ic.seed == 1


def test_sample_grid_is_bounded_at_config_time():
    # t_end / sample_every overflows to inf in the first, and is finite but
    # past the bound in the second; neither builds a grid
    for grid in ("{t_end: 1.0e+300, sample_every: 1.0e-10}", "{t_end: 1.0e+6, sample_every: 1.0e-3}"):
        with pytest.raises(ConfigError, match="records more than 134217728 numbers"):
            parse_config(f"integrator: {grid}")
    # the N = 1024 half-line to t = 200 fits: 2 001 rows of 2 065 numbers
    cfg = parse_config("ic: {n_agents: 1024}\nintegrator: {t_end: 200.0, sample_every: 0.1}")
    assert cfg.ic.n_agents == 1024
    # the bound counts agents too: 2 rows of 2 N + 17 numbers
    n = (_MAX_SAMPLE_NUMBERS // 2 - _row_numbers(0)) // 2
    parse_config(f"ic: {{n_agents: {n}}}\nintegrator: {{t_end: 1.0, sample_every: 1.0}}")
    with pytest.raises(ConfigError, match="records more than"):
        parse_config(f"ic: {{n_agents: {n + 1}}}\nintegrator: {{t_end: 1.0, sample_every: 1.0}}")


def test_semantic_validation():
    with pytest.raises(ConfigError, match="t_end"):
        parse_config("integrator: {t_end: -5.0}")
    with pytest.raises(ConfigError, match="sample_every"):
        parse_config("integrator: {t_end: 1.0, sample_every: 2.0}")
    with pytest.raises(ConfigError, match="interval variant only"):
        parse_config("geometry: {variant: halfline, b: 4.0}")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("ic: {seed: -3}")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(f"ic: {{seed: {2**64}}}")
    with pytest.raises(ConfigError, match="x_low"):
        parse_config("ic: {x_low: 2.0, x_high: 1.0}")
    with pytest.raises(ConfigError, match="v_low"):
        parse_config("ic: {v_low: 1.0, v_high: -1.0}")
    # a bound that is not finite, or a span that overflows, never reaches the sampler
    for ic in ("{x_low: .nan}", "{x_high: .inf}", "{v_low: -1.0e+308, v_high: 1.0e+308}"):
        with pytest.raises(ConfigError, match="must be finite with a finite difference"):
            parse_config(f"ic: {ic}")
    with pytest.raises(ConfigError, match="unknown format"):
        parse_config("output: {formats: [csv, svg]}")
    # constructor-level rejections surface as config errors too
    with pytest.raises(ConfigError):
        parse_config("kernel: {family: gaussian}")
    with pytest.raises(ConfigError):
        parse_config("geometry: {variant: interval, a: 3.0, b: 1.0}")
    # step control is not configurable: runs use the integrator's constants
    with pytest.raises(ConfigError, match="^unknown key integrator.dt_min$"):
        parse_config("integrator: {dt_min: 0.5}")


def test_wall_margin_enforced():
    with pytest.raises(ConfigError, match="wall distance"):
        parse_config("ic: {x_low: 0.01}")
    parse_config("ic: {x_low: 0.05}")  # exactly the 0.05 ell margin
    one_rule = "^ic box must keep wall distance >= 0.05 from every wall$"
    with pytest.raises(ConfigError, match=one_rule):
        parse_config(
            "geometry: {variant: interval, a: 0.0, b: 10.0}\nic: {x_low: 0.5, x_high: 9.99}"
        )
    # at ell = 2.5 the margin is 0.125, and every difference below is exact
    interval = "potential: {ell: 2.5}\ngeometry: {variant: interval, a: 1.0, b: 9.0}\n"
    with pytest.raises(ConfigError, match=one_rule.replace("0.05", "0.125")):
        parse_config(interval + "ic: {x_low: 1.0625, x_high: 5.0}")  # the first wall
    parse_config(interval + "ic: {x_low: 1.125, x_high: 8.875}")  # both exactly at the margin


def test_readme_config_table_is_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Configuration", 1)[1].split("\n\n| section.key |", 1)[1]
    first_cells = re.findall(r"^\| (.*?) \|", table.split("\n\n", 1)[0], flags=re.M)
    documented = {key for cell in first_cells for key in re.findall(r"`(\w+\.\w+)`", cell)}
    schema = {f"{section}.{key}" for section, keys in wf.config._SCHEMA.items() for key in keys}
    assert documented == schema


def test_serialize_round_trip():
    import yaml

    for text in ("", CANONICAL, INTERVAL):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
    # endpoint keys are emitted for the interval variant only
    assert "a" not in yaml.safe_load(serialize_config(parse_config(CANONICAL)))["geometry"]
    assert "b" in yaml.safe_load(serialize_config(parse_config(INTERVAL)))["geometry"]


def test_serialize_is_stable():
    cfg = parse_config(CANONICAL)
    assert serialize_config(cfg) == serialize_config(cfg)


def test_load_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(INTERVAL)
    cfg = parse_config(read_config_text(path))
    assert cfg.geometry.variant == "interval"
    with pytest.raises(ConfigError, match="cannot read"):
        read_config_text(tmp_path / "missing.yaml")


def test_runconfig_is_plain_data():
    cfg = parse_config("")
    assert isinstance(cfg, RunConfig)
    assert cfg == parse_config("")


_POS = st.floats(1e-6, 1e6)
_NONNEG = st.floats(0.0, 1e3)


@st.composite
def valid_configs(draw):
    """A config document that config_from_data accepts, half-line or interval."""
    ell = draw(_POS)
    margin = 0.05 * ell
    n_agents = draw(st.integers(1, 10_000))
    t_end = draw(_POS)
    # the sample grid fits _MAX_SAMPLE_NUMBERS, with a row to spare for rounding
    spans = _MAX_SAMPLE_NUMBERS // _row_numbers(n_agents) - 2
    sample_every = draw(st.floats(t_end / spans, t_end))
    v_low, v_high = sorted(draw(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2)))
    geometry = {"variant": "halfline"}
    x_low = 2.0 * margin + draw(_NONNEG)
    if draw(st.booleans()):
        a = draw(st.floats(-1e3, 1e3))
        x_low += a
        geometry = {"variant": "interval", "a": a}
    x_high = x_low + draw(_NONNEG)
    if geometry["variant"] == "interval":
        geometry["b"] = x_high + 2.0 * margin + draw(_NONNEG)
    return config_from_data(
        {
            "kernel": {
                "family": draw(st.sampled_from(wf.kernels.FAMILIES)),
                "H": draw(_POS),
                "beta": draw(st.floats(0.0, 10.0)),
            },
            "potential": {"ell": ell, "theta": draw(_NONNEG)},
            "geometry": geometry,
            "integrator": {"sample_every": sample_every, "t_end": t_end},
            "ic": {
                "n_agents": n_agents, "x_low": x_low, "x_high": x_high,
                "v_low": v_low, "v_high": v_high, "seed": draw(st.integers(0, 2**64 - 1)),
            },
            "output": {
                "directory": draw(st.text(string.ascii_letters + string.digits + "./_- ")),
                "formats": draw(st.lists(st.sampled_from(["csv", "json", "plot"]), max_size=3)),
            },
        }
    )


@settings(max_examples=100, deadline=None)
@given(valid_configs())
def test_serialize_round_trip_property(cfg):
    assert parse_config(serialize_config(cfg)) == cfg
