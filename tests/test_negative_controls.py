"""Negative controls: the claim checks must notice a model that is wrong.

Each row perturbs the dynamics through monkeypatch only, runs verify on a
shipped config cut to t_end = 10, and asserts the exact set of applicable
claims that FAIL (DeMillo, Lipton & Sayward, IEEE Computer 11, 1978).  The
baseline row holds what the unperturbed model FAILs at that horizon: nothing
on the half-line; on the interval the decay claims, which need a longer run.
A row whose set equals the baseline's is a perturbation no claim detects.

A whole-run relation sees some of those: reflecting the interval, x -> a + b - x
and v -> -v with the agents reversed, must reflect the run at every sample
(metamorphic testing: Chen et al., ACM Comput. Surv. 51(1), 2018; Segura et
al., IEEE TSE 42(9), 2016).
"""

from pathlib import Path

import numpy as np
import pytest
import yaml

import wallflock.dynamics as dynamics
import wallflock.integrator as integrator
import wallflock.observables as observables
import wallflock.potentials as potentials
from wallflock import (
    CommunicationKernel,
    FlockState,
    Geometry,
    config_from_data,
    initial_state_from_config,
    integrate,
    model_from_config,
    verify,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHORT_HORIZON = {"force_decay", "kinetic_decay", "velocity_alignment"}

_acceleration = dynamics.acceleration
_geometry_force = potentials.geometry_force
_matrix = CommunicationKernel.matrix
_wall_layer = potentials.wall_layer


def _uniform_force(monkeypatch, eps):
    monkeypatch.setattr(integrator, "acceleration", lambda m, x, v: _acceleration(m, x, v) + eps)


def _flipped_interaction(monkeypatch):
    # keep the wall force, reverse the sign of the alignment term
    monkeypatch.setattr(
        integrator,
        "acceleration",
        lambda m, x, v: 2 * _geometry_force(m.geometry, m.wall, x) - _acceleration(m, x, v),
    )


def _scaled_wall(monkeypatch, factor):
    # the wall force of acceleration alone, which takes it from its wall_layer
    def layer(geom, wall, x, potential=False):
        lo, P, F = _wall_layer(geom, wall, x, potential)
        return lo, P, (None if F is None else factor * F)

    monkeypatch.setattr(dynamics, "wall_layer", layer)


def _asymmetric_kernel(monkeypatch, eps):
    # phi_ij scaled by 1 + eps above the diagonal only, so phi_ij != phi_ji; a
    # strip from row lo has rows and columns from agent lo on, so j > i is triu(w, 1)
    def matrix(kernel, xi, xj):
        w = _matrix(kernel, xi, xj)
        return w + eps * np.triu(w, 1)

    monkeypatch.setattr(CommunicationKernel, "matrix", matrix)


def _one_agent_drift(monkeypatch, eps):
    # a force eps on agent 0 alone
    def drifted(m, x, v):
        a = _acceleration(m, x, v)
        a[0] += eps
        return a

    monkeypatch.setattr(integrator, "acceleration", drifted)


def _stronger_second_wall(monkeypatch, eps):
    # the interval's second wall with F and U scaled by 1 + eps: its terms are
    # the half-line wall's at the distances b - x, and it pushes towards -x
    def layer(geom, wall, x, potential=False):
        lo, P, F = _wall_layer(geom, wall, x, potential)
        _, P_b, F_b = _wall_layer(Geometry(), wall, geom.b - x, potential)
        if F_b is not None:
            F = F - eps * F_b
            P = P + eps * P_b if potential else P
        return lo, P, F

    monkeypatch.setattr(potentials, "wall_layer", layer)
    monkeypatch.setattr(dynamics, "wall_layer", layer)
    monkeypatch.setattr(observables, "wall_layer", layer)


ROWS = {
    "baseline": lambda mp: None,
    "uniform_force_1e-5": lambda mp: _uniform_force(mp, 1e-5),
    "uniform_force_1e-4": lambda mp: _uniform_force(mp, 1e-4),
    "interaction_sign_flipped": _flipped_interaction,
    "wall_force_negated": lambda mp: _scaled_wall(mp, -1.0),
    "wall_force_scaled_1-1e-3": lambda mp: _scaled_wall(mp, 1.0 - 1e-3),
    "kernel_asymmetry_1e-4": lambda mp: _asymmetric_kernel(mp, 1e-4),
    "kernel_asymmetry_1e-2": lambda mp: _asymmetric_kernel(mp, 1e-2),
    "one_agent_drift_1e-2": lambda mp: _one_agent_drift(mp, 1e-2),
    "second_wall_scaled_1+1e-6": lambda mp: _stronger_second_wall(mp, 1e-6),
}

EXPECTED = [
    ("baseline", "halfline", set()),
    ("baseline", "interval", SHORT_HORIZON),
    ("uniform_force_1e-5", "halfline", {"energy_nonincreasing"}),
    ("uniform_force_1e-5", "interval", SHORT_HORIZON),
    ("uniform_force_1e-4", "halfline", {"energy_nonincreasing", "momentum_force_identity"}),
    ("uniform_force_1e-4", "interval", SHORT_HORIZON | {"momentum_force_identity"}),
    # the interval run collapses its step size and takes over 20 s: left out
    (
        "interaction_sign_flipped",
        "halfline",
        {
            "diameter_growth",
            "energy_nonincreasing",
            "exponential_rate",
            "lyapunov_budget",
            "momentum_force_identity",
            "strong_flocking",
            "velocity_alignment",
            "velocity_bound",
        },
    ),
    ("wall_force_negated", "halfline", {"integration_completed"}),
    ("wall_force_negated", "interval", {"integration_completed"}),
    ("wall_force_scaled_1-1e-3", "halfline", set()),
    ("wall_force_scaled_1-1e-3", "interval", SHORT_HORIZON | {"momentum_force_identity"}),
    ("kernel_asymmetry_1e-4", "halfline", {"momentum_nondecreasing"}),
    ("kernel_asymmetry_1e-4", "interval", SHORT_HORIZON),
    ("kernel_asymmetry_1e-2", "halfline", {"momentum_force_identity", "momentum_nondecreasing"}),
    ("kernel_asymmetry_1e-2", "interval", SHORT_HORIZON | {"momentum_force_identity"}),
    (
        "one_agent_drift_1e-2",
        "halfline",
        {
            "energy_nonincreasing",
            "exponential_rate",
            "momentum_force_identity",
            "strong_flocking",
            "velocity_alignment",
        },
    ),
    ("one_agent_drift_1e-2", "interval", SHORT_HORIZON | {"momentum_force_identity"}),
    # seen by the reflection relation alone (test_reflected_interval_run_is_its_mirror_image)
    ("second_wall_scaled_1+1e-6", "interval", SHORT_HORIZON),
]


def _config(name, t_end):
    data = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    data["integrator"]["t_end"] = t_end
    return config_from_data(data)


def _failed_claims(name):
    cfg = _config(name, 10.0)
    report = verify(
        model_from_config(cfg),
        initial_state_from_config(cfg),
        t_end=cfg.t_end,
        sample_every=cfg.sample_every,
    )
    return {c.name for c in report.claims if c.applicable and not c.passed}


@pytest.mark.parametrize("row, config, failed", EXPECTED, ids=[f"{r}-{c}" for r, c, _ in EXPECTED])
def test_negative_control(monkeypatch, row, config, failed):
    ROWS[row](monkeypatch)
    assert _failed_claims(config) == failed


def test_kernel_asymmetry_takes_the_one_strip_path(monkeypatch):
    # over several strips each pair's term is used for both of its rows, so an
    # asymmetric patch would lose its asymmetry there; every config the rows
    # run fits in one strip, where the patched acceleration is the dense
    # asymmetric form phi_ij (1 + eps) for i < j exactly
    for name in {config for _, config, _ in EXPECTED}:
        n = config_from_data(yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())).ic.n_agents
        assert dynamics.block_rows(n) >= n, name
    n, eps = 16, 1e-2
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(1.5, 9.0, n))
    v = rng.uniform(-1.0, 1.0, n)
    m = model_from_config(config_from_data({"ic": {"n_agents": n}}))
    w = _matrix(m.kernel, x, x)
    w = w + eps * np.triu(w, 1)
    w *= v[None, :] - v[:, None]
    dense = w.sum(axis=1) / n + _geometry_force(m.geometry, m.wall, x)
    _asymmetric_kernel(monkeypatch, eps)
    assert np.array_equal(dynamics.acceleration(m, x, v), dense)


# The reflected run differs from the mirror image of the run only by rounding:
# fl(b - (b - x)) is not x, and the two runs take their own adaptive steps.
# On configs/interval.yaml the gap is 1.4e-9 in X and 2.5e-9 in V at T = 40,
# and no larger at T = 400, so k = 0.1 in the bar k * ABS_TOL * (1 + T) leaves
# a factor 16.
REFLECTION_T = 40.0
REFLECTION_BAR = 0.1 * integrator.ABS_TOL * (1.0 + REFLECTION_T)


@pytest.mark.parametrize("row, detected", [("baseline", False), ("second_wall_scaled_1+1e-6", True)])
def test_reflected_interval_run_is_its_mirror_image(monkeypatch, row, detected):
    ROWS[row](monkeypatch)
    cfg = _config("interval", REFLECTION_T)
    m, s = model_from_config(cfg), initial_state_from_config(cfg)
    a, b = m.geometry.a, m.geometry.b
    mirrored = FlockState(s.t, (a + b - s.x)[::-1], -s.v[::-1])
    runs, verdicts = [], []
    for state in (s, mirrored):
        runs.append(integrate(m, state, cfg.t_end, cfg.sample_every))
        report = verify(m, state, t_end=cfg.t_end, sample_every=cfg.sample_every)
        verdicts.append([(c.name, c.applicable, c.passed) for c in report.claims])
    run, reflected = runs
    gap_x = np.abs(reflected.X - (a + b - run.X)[:, ::-1]).max()
    gap_v = np.abs(reflected.V + run.V[:, ::-1]).max()
    assert verdicts[0] == verdicts[1]  # no claim tells the two apart
    assert (max(gap_x, gap_v) > REFLECTION_BAR) == detected, (gap_x, gap_v)
