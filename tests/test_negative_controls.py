"""Negative controls: the claim checks must notice a model that is wrong.

Each row perturbs the dynamics through monkeypatch only, runs verify on a
shipped config cut to t_end = 10, and asserts the exact set of applicable
claims that FAIL (DeMillo, Lipton & Sayward, IEEE Computer 11, 1978).  The
baseline row holds what the unperturbed model FAILs at that horizon: nothing
on the half-line; on the interval the decay claims, which need a longer run.
A row whose set equals the baseline's is a perturbation no claim detects.

A whole-run relation sees some of those: reflecting the interval, x -> a + b - x
and v -> -v with the agents reversed, must reflect the run at every sample;
rescaling time, (H, theta, v) -> (cH, c^2 theta, cv), must speed it up c
times; and translating the interval and the flock must translate the run
(metamorphic testing: Chen et al., ACM Comput. Surv. 51(1), 2018; Segura et
al., IEEE TSE 42(9), 2016).  So does each agent's first integral on the line,
Q_i = v_i - (1/N) sum_j Psi(x_j - x_i) while no wall force acts (Ha, Kim, Park
and Zhang, Arch. Ration. Mech. Anal. 231, 2019), and the settled shape on the
half-line that it predicts at the escape.
"""

import copy
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.special import hyp2f1

import wallflock.dynamics as dynamics
import wallflock.integrator as integrator
import wallflock.observables as observables
import wallflock.potentials as potentials
from wallflock import (
    CommunicationKernel,
    FlockState,
    Geometry,
    WallPotential,
    config_from_data,
    initial_state_from_config,
    integrate,
    model_from_config,
    verify,
)
from wallflock.verification import _report

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHORT_HORIZON = {"force_decay", "kinetic_decay", "velocity_alignment"}

_acceleration = dynamics.acceleration
_geometry_force = potentials.geometry_force
_matrix = CommunicationKernel.matrix
_wall_layer = potentials.wall_layer
_terms = WallPotential._terms
_diagnostics = observables.diagnostics


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


def _theta_short_in_force(monkeypatch, eps):
    # the wall force with theta^(1 - eps) where the potential has theta: eps = 1
    # applies theta to P but not to F; at theta = 1 nothing changes
    def terms(wall, x, potential=False):
        U, F = _terms(wall, x, potential)
        return U, F * wall.theta**-eps

    monkeypatch.setattr(WallPotential, "_terms", terms)


def _extra_H_in_diagnostics(monkeypatch, eps):
    # diagnostics' kernel terms, I2 and the primitive in L, with H^(1 + eps):
    # eps = 1 applies H twice; at H = 1 nothing changes
    def diagnostics(m, s, G):
        rec = _diagnostics(m, s, G)
        scale = m.kernel.H**eps
        return rec._replace(I2=scale * rec.I2, L=rec.A + scale * m.kernel.primitive(rec.D))

    monkeypatch.setattr(integrator, "diagnostics", diagnostics)


def _second_wall_off_by_a(monkeypatch, eps):
    # the interval's second wall, for its F and U, at b - eps a: eps = 1 puts it
    # at the interval's width b - a; at a = 0 nothing changes
    def layer(geom, wall, x, potential=False):
        lo = _wall_layer(geom, wall, x, potential)[0]
        if geom.a:
            geom = Geometry(geom.variant, geom.a, geom.b - eps * geom.a)
        return (lo,) + _wall_layer(geom, wall, x, potential)[1:]

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
    "kernel_asymmetry_1e-8": lambda mp: _asymmetric_kernel(mp, 1e-8),
    "kernel_asymmetry_1e-4": lambda mp: _asymmetric_kernel(mp, 1e-4),
    "kernel_asymmetry_1e-2": lambda mp: _asymmetric_kernel(mp, 1e-2),
    "one_agent_drift_1e-2": lambda mp: _one_agent_drift(mp, 1e-2),
    "second_wall_scaled_1+1e-6": lambda mp: _stronger_second_wall(mp, 1e-6),
    "theta_on_P_not_F": lambda mp: _theta_short_in_force(mp, 1.0),
    "H_twice_in_diagnostics": lambda mp: _extra_H_in_diagnostics(mp, 1.0),
    "second_wall_at_b-1e-6a": lambda mp: _second_wall_off_by_a(mp, 1e-6),
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
    # seen by the first-integral law alone (test_control_nowall_keeps_each_agents_first_integral)
    ("kernel_asymmetry_1e-8", "halfline", set()),
    ("kernel_asymmetry_1e-8", "interval", SHORT_HORIZON),
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
    # seen by the rescaling relation alone (test_time_rescaled_interval_run_is_the_run_sped_up)
    ("theta_on_P_not_F", "halfline", set()),
    ("theta_on_P_not_F", "interval", SHORT_HORIZON),
    ("H_twice_in_diagnostics", "halfline", set()),
    ("H_twice_in_diagnostics", "interval", SHORT_HORIZON),
    # seen by the translation relation alone (test_translated_interval_run_is_the_run_shifted)
    ("second_wall_at_b-1e-6a", "interval", SHORT_HORIZON),
]


def _data(name, t_end):
    data = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
    data["integrator"]["t_end"] = t_end
    return data


def _config(name, t_end):
    return config_from_data(_data(name, t_end))


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
    for name in {config for _, config, _ in EXPECTED} | {"control_nowall"}:
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


def _run(data):
    cfg = config_from_data(data)
    m = model_from_config(cfg)
    return integrate(m, initial_state_from_config(cfg), cfg.t_end, cfg.sample_every)


def _gaps(run, other, shift=0.0, c=1.0):
    """max |.| of other's X - shift, V / c, E / c^2 and I2 / c^3 less run's, at matching samples."""
    rec, other_rec = run.records, other.records
    return [
        float(np.abs(other.X - shift - run.X).max()),
        float(np.abs(other.V / c - run.V).max()),
        float(np.abs(other_rec.E / c**2 - rec.E).max()),
        float(np.abs(other_rec.I2 / c**3 - rec.I2).max()),
    ]


# With (H, theta, v(0), t_end, sample_every) -> (cH, c^2 theta, c v(0), t_end / c,
# sample_every / c) the alignment term and the wall force both scale by c^2, so
# x_c(t) = x(ct), v_c = c v, E_c = c^2 E and I2_c = c^3 I2.  At c = 2 every
# scaled input is exact, but the tolerances are absolute, so the two runs take
# their own adaptive steps: on configs/interval.yaml the gap is 1.2e-8 in X,
# 1.9e-8 in V / c, 4.1e-10 in E / c^2 and 4.5e-10 in I2 / c^3 at T = 10, 40 and
# 400, and the same with numpy's dispatch and the BLAS kernel lowered, so
# k = 0.5 in the bar k * ABS_TOL * (1 + T) leaves a factor 10.
RELATION_T = 40.0
RESCALING_C = 2.0
RESCALING_BAR = 0.5 * integrator.ABS_TOL * (1.0 + RELATION_T)


@pytest.mark.parametrize(
    "row, detected",
    [("baseline", False), ("theta_on_P_not_F", True), ("H_twice_in_diagnostics", True)],
)
def test_time_rescaled_interval_run_is_the_run_sped_up(monkeypatch, row, detected):
    ROWS[row](monkeypatch)
    c = RESCALING_C
    data = _data("interval", RELATION_T)
    fast = copy.deepcopy(data)
    fast["kernel"]["H"] *= c
    fast["potential"]["theta"] *= c * c
    # v_low + (v_high - v_low) u is exactly doubled with both ends
    fast["ic"]["v_low"] *= c
    fast["ic"]["v_high"] *= c
    fast["integrator"]["t_end"] /= c
    fast["integrator"]["sample_every"] /= c
    run, sped = _run(data), _run(fast)
    assert np.array_equal(c * sped.sample_times, run.sample_times)
    gaps = _gaps(run, sped, c=c)
    assert (max(gaps) > RESCALING_BAR) == detected, gaps


# Translating the interval and the initial box by s translates the run.  It
# holds up to rounding: x + s rounds, and so does every wall distance x - a.
# On configs/interval.yaml at s = 3 the gap is 4.6e-11 in X, 2.0e-11 in V,
# 6.8e-13 in E and 3.3e-13 in I2 at T = 40 and 400, and the same lowered, so
# k = 1e-3 in the bar k * ABS_TOL * (1 + T) leaves a factor 8.9.  The run
# never comes within ell of its first wall, so the relation reads the second.
TRANSLATION_SHIFT = 3.0
TRANSLATION_BAR = 1e-3 * integrator.ABS_TOL * (1.0 + RELATION_T)


@pytest.mark.parametrize("row, detected", [("baseline", False), ("second_wall_at_b-1e-6a", True)])
def test_translated_interval_run_is_the_run_shifted(monkeypatch, row, detected):
    ROWS[row](monkeypatch)
    s = TRANSLATION_SHIFT
    data = _data("interval", RELATION_T)
    moved = copy.deepcopy(data)
    for section, key in (("geometry", "a"), ("geometry", "b"), ("ic", "x_low"), ("ic", "x_high")):
        moved[section][key] += s
    gaps = _gaps(_run(data), _run(moved), shift=s)
    assert (max(gaps) > TRANSLATION_BAR) == detected, gaps


# With no wall force, d/dt Psi(x_j - x_i) = phi(x_j - x_i) (v_j - v_i) makes
# Q_i = v_i - (1/N) sum_j Psi(x_j - x_i) constant for each agent, where Psi is
# the kernel's odd primitive, H r 2F1(1/2, beta; 3/2; -r^2), taken from scipy
# so that it shares no code with CommunicationKernel.primitive.  On
# configs/control_nowall.yaml (theta = 0) max |Q_i(t) - Q_i(0)| is 4.2e-11 at
# T = 10 and at T = 100, so the bar 0.05 * ABS_TOL (5e-10) leaves a factor 12.
FIRST_INTEGRAL_BAR = 0.05 * integrator.ABS_TOL


def _first_integrals(m, X, V):
    """Q_i at each sample of the positions X and velocities V, (S, N) each."""
    r = X[:, None, :] - X[:, :, None]  # r[s, i, j] = x_j - x_i
    psi = m.kernel.H * r * hyp2f1(0.5, m.kernel.beta, 1.5, -r * r)
    return V - psi.sum(axis=2) / X.shape[1]


def _first_integral_drift(cfg):
    m = model_from_config(cfg)
    traj = integrate(m, initial_state_from_config(cfg), cfg.t_end, cfg.sample_every)
    Q = _first_integrals(m, traj.X, traj.V)
    return float(np.abs(Q - Q[0]).max())


@pytest.mark.parametrize("row, detected", [("baseline", False), ("kernel_asymmetry_1e-8", True)])
def test_control_nowall_keeps_each_agents_first_integral(monkeypatch, row, detected):
    cfg = _config("control_nowall", 10.0)
    assert cfg.wall.theta == 0.0
    failed = _failed_claims("control_nowall")
    ROWS[row](monkeypatch)
    assert _failed_claims("control_nowall") == failed  # no claim tells the two apart
    drift = _first_integral_drift(cfg)
    assert (drift > FIRST_INTEGRAL_BAR) == detected, drift


# On the half-line the wall force is 0 once every agent is at distance >= ell,
# so from the escape sample on Q_i is constant there too.  configs/halfline.yaml
# escapes at t = 4.8; unperturbed, max |Q_i(t) - Q_i(4.8)| over [4.8, 200] is
# 5.7e-13 (4.1e-13 to t = 10, and 4.2e-13 with numpy's dispatch and the BLAS
# kernel lowered), so the bar 5e-4 * ABS_TOL (5e-12) leaves a factor 8.8.
ESCAPED_FIRST_INTEGRAL_BAR = 5e-4 * integrator.ABS_TOL


def _halfline_run():
    """(model, run) of configs/halfline.yaml to T = 200."""
    cfg = _config("halfline", 200.0)
    m = model_from_config(cfg)
    return m, integrate(m, initial_state_from_config(cfg), cfg.t_end, cfg.sample_every)


@pytest.fixture(scope="module")
def halfline_run():
    """The unperturbed run of _halfline_run, shared by the tests from the escape on."""
    return _halfline_run()


def _escape_sample(m, traj):
    """The sample from which every later record's nearest wall distance is >= ell."""
    stays_out = np.logical_and.accumulate((traj.records.x_min_wall >= m.wall.ell)[::-1])[::-1]
    assert stays_out[-1], "the flock never leaves the wall range"
    k0 = int(np.argmax(stays_out))
    assert not np.any(traj.records.F_max[k0:])  # no wall force from the escape on
    return k0


def _first_integral_drift_after_escape(m, traj):
    """(report, escape time, max |Q_i(t) - Q_i(escape)| over the samples from the escape on)."""
    k0 = _escape_sample(m, traj)
    Q = _first_integrals(m, traj.X[k0:], traj.V[k0:])
    return _report(m, traj), float(traj.sample_times[k0]), float(np.abs(Q - Q[0]).max())


@pytest.mark.parametrize("row, detected", [("baseline", False), ("kernel_asymmetry_1e-8", True)])
def test_halfline_keeps_each_agents_first_integral_after_escape(
    monkeypatch, halfline_run, row, detected
):
    report = _first_integral_drift_after_escape(*halfline_run)[0]
    verdicts = [(c.name, c.applicable, c.passed) for c in report.claims]
    ROWS[row](monkeypatch)
    report, escape, drift = _first_integral_drift_after_escape(*_halfline_run())
    assert report.escape_time == escape
    # no claim tells the two apart
    assert [(c.name, c.applicable, c.passed) for c in report.claims] == verdicts
    assert (drift > ESCAPED_FIRST_INTEGRAL_BAR) == detected, drift


# After the escape Q_i is constant, so an aligned limit, every v_i at the
# momentum p, solves (1/N) sum_j Psi(x_j - x_i) = p - Q_i(t_e), with Q read at
# the escape sample t_e: Q_i(x, p) - Q_i(t_e) = 0 in the positions x.  Its
# Jacobian is the graph Laplacian with weights phi(x_j - x_i) / N, whose null
# space is translation, so Newton steps the positions past the first agent's,
# and the predicted gaps are compared with the final gaps of the run.  On
# configs/halfline.yaml (t_e = 4.8, T = 200, largest gap 1.45) Newton stops
# after 4 iterations and the gaps agree to 7.9e-13 (4.1e-13 with numpy's
# dispatch and the BLAS kernel lowered), so the bar 1e-3 * ABS_TOL (1e-11)
# leaves a factor 12.7.
SETTLED_SHAPE_BAR = 1e-3 * integrator.ABS_TOL


def _settled_shape(m, x, v):
    """The positions of the aligned limit predicted from the state (x, v) after
    the escape, the first agent's kept; phi written out, as Psi is in _first_integrals."""
    n = x.size
    p = np.full((1, n), v.sum() / n)
    target = _first_integrals(m, x[None], v[None])[0]
    y = x.copy()
    for _ in range(20):
        residual = _first_integrals(m, y[None], p)[0] - target
        r = y[None, :] - y[:, None]
        w = m.kernel.H * (1.0 + r * r) ** -m.kernel.beta / n
        jacobian = np.diag(w.sum(axis=1)) - w  # the diagonal's w_ii cancels
        step = np.linalg.solve(jacobian[1:, 1:], -residual[1:])
        y[1:] += step
        if np.abs(step).max() <= 1e-14 * np.abs(y).max():
            return y
    raise AssertionError("Newton did not converge")


@pytest.mark.parametrize("row, detected", [("baseline", False), ("kernel_asymmetry_1e-8", True)])
def test_halfline_settles_into_the_shape_predicted_at_escape(
    monkeypatch, halfline_run, row, detected
):
    ROWS[row](monkeypatch)
    m, traj = halfline_run if row == "baseline" else _halfline_run()
    k0 = _escape_sample(m, traj)
    predicted = _settled_shape(m, traj.X[k0], traj.V[k0])
    error = float(np.abs(np.diff(predicted) - np.diff(traj.X[-1])).max())
    assert (error > SETTLED_SHAPE_BAR) == detected, error
