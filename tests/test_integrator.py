import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import wallflock as wf
from wallflock import integrator
from wallflock import (
    StiffnessError,
    Trajectory,
    WallDomainError,
    integrate,
)
from wallflock.dynamics import acceleration
from wallflock.kernels import KernelStack
from wallflock.integrator import (
    ABS_TOL, REL_TOL, _A, _B4, _ERR, _attempt, _error_ratio, batch_members, integrate_batch,
    reference_rk4,
)
from wallflock.observables import DiagnosticsRecord, diagnostics, initial_energy


def two_agent_constant(H=1.0):
    return wf.FlockModel(
        wf.CommunicationKernel("powerlaw", H, 0.0),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
    )


def closed_form_pair(t, x1=2.0, x2=3.0, v1=0.5, v2=1.0, H=1.0):
    """Exact two-agent solution for the constant kernel away from the wall.

    The velocity gap obeys w' = -H w; the centroid moves freely.
    """
    vc = 0.5 * (v1 + v2)
    xc = 0.5 * (x1 + x2) + vc * t
    w = (v2 - v1) * np.exp(-H * t)
    r = (x2 - x1) + (v2 - v1) * (1.0 - np.exp(-H * t)) / H
    return (
        np.array([xc - 0.5 * r, xc + 0.5 * r]),
        np.array([vc - 0.5 * w, vc + 0.5 * w]),
    )


def test_single_step_local_error():
    m = two_agent_constant()
    s = wf.FlockState(0.0, [2.0, 3.0], [0.5, 1.0])
    dt = 0.01
    (x_new, v_new), (err_x, err_v), _ = _attempt(m, np.stack((s.x, s.v)), dt)
    x_ref, v_ref = closed_form_pair(dt)
    assert np.max(np.abs(x_new - x_ref)) < 1e-11  # local error ~ dt^5
    assert np.max(np.abs(v_new - v_ref)) < 1e-11
    err = max(np.max(np.abs(err_x)), np.max(np.abs(err_v)))
    assert 0.0 <= err < 1e-9


def test_step_into_forbidden_region_raises():
    m = two_agent_constant()
    s = wf.FlockState(0.0, [1.05, 2.0], [-3.0, -3.0])
    with pytest.raises(WallDomainError):
        _attempt(m, np.stack((s.x, s.v)), 1.0)


def test_overflowing_stage_is_a_rejected_step(monkeypatch):
    # a stiff pair (H = 1e8) at speeds 1e299: a 1e-6 step overflows a stage to
    # inf, which the wall check rejects as a domain violation (also with the
    # wall disabled), and integrate halves the step and carries on
    H = 1e8
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", H, 0.0),
        wf.WallPotential(1.0, 0.0),
        wf.Geometry("halfline"),
    )
    s = wf.FlockState(0.0, [1.0, 2.0], [-1e299, 1e299])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(WallDomainError, match="finite"):
            _attempt(m, np.stack((s.x, s.v)), 1e-6)

        outcomes = []

        def attempt(*args):
            try:
                result = _attempt(*args)
            except WallDomainError:
                outcomes.append("domain")
                raise
            outcomes.append("ok")
            return result

        monkeypatch.setattr(wf.integrator, "_attempt", attempt)
        traj = integrate(m, s, 1e-6, sample_every=1e-6)
    assert outcomes[0] == "domain"
    assert outcomes[-1] == "ok"
    x_ref, v_ref = closed_form_pair(1e-6, 1.0, 2.0, -1e299, 1e299, H)
    assert np.allclose(traj.X[-1], x_ref, rtol=1e-6, atol=0.0)
    assert np.allclose(traj.V[-1], v_ref, rtol=1e-4, atol=0.0)


def _paired_attempt(m, x, v, dt):
    """The Fehlberg attempt on separate x and v arrays, stage by stage."""
    kx = np.empty((6, x.size))
    kv = np.empty((6, x.size))
    kx[0] = v
    kv[0] = acceleration(m, x, v)
    for i in range(1, 6):
        xi = x + dt * (_A[i] @ kx[:i])
        vi = v + dt * (_A[i] @ kv[:i])
        kx[i] = vi
        kv[i] = acceleration(m, xi, vi)
    x_new = x + dt * (_B4 @ kx)
    v_new = v + dt * (_B4 @ kv)
    return x_new, v_new, dt * (_ERR @ kx), dt * (_ERR @ kv)


def _paired_error_ratio(x, v, x_new, v_new, err_x, err_v):
    scale_x = ABS_TOL + REL_TOL * np.maximum(np.abs(x), np.abs(x_new))
    scale_v = ABS_TOL + REL_TOL * np.maximum(np.abs(v), np.abs(v_new))
    return max(float(np.max(np.abs(err_x) / scale_x)), float(np.max(np.abs(err_v) / scale_v)))


def _paired_rk4_substep(m, x, v, h):
    kx1 = v
    kv1 = acceleration(m, x, v)
    kx2 = v + 0.5 * h * kv1
    kv2 = acceleration(m, x + 0.5 * h * kx1, v + 0.5 * h * kv1)
    kx3 = v + 0.5 * h * kv2
    kv3 = acceleration(m, x + 0.5 * h * kx2, v + 0.5 * h * kv2)
    kx4 = v + h * kv3
    kv4 = acceleration(m, x + h * kx3, v + h * kv3)
    x = x + (h / 6.0) * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
    v = v + (h / 6.0) * (kv1 + 2.0 * kv2 + 2.0 * kv3 + kv4)
    return x, v


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 16, 33])
@pytest.mark.parametrize(
    "geometry",
    [wf.Geometry("halfline"), wf.Geometry("interval", 0.0, 6.0)],
    ids=["halfline", "interval"],
)
def test_phase_state_steps_bitwise_equal_paired_form(geometry, n):
    # agent 0 sits inside the wall layer (distance < ell = 1) and, on the
    # interval, so does the last agent, next to the other wall
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25), wf.WallPotential(1.0, 1.0), geometry
    )
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = rng.uniform(0.3, 5.7, n)
        x[-1], x[0] = 5.6, 0.4  # x[0] last, so a single agent is the one at 0.4
        v = rng.uniform(-1.0, 1.0, n)
        dt = 0.01
        y_new, err, dist = _attempt(m, np.stack((x, v)), dt)
        x_new, v_new, err_x, err_v = _paired_attempt(m, x, v, dt)
        assert np.array_equal(_bits(y_new), _bits([x_new, v_new]))
        assert np.array_equal(_bits(err), _bits([err_x, err_v]))
        # the endpoint's nearest wall distance, which caps the next step:
        # x_new on the half-line, x_new - a and -(x_new - b) on the interval
        near = [x_new] if geometry.variant == "halfline" else [x_new - geometry.a, -(x_new - geometry.b)]
        assert _bits(dist) == _bits(np.min(near))
        (ratio,) = _error_ratio(np.stack((x, v)), y_new, err)
        assert _bits(ratio) == _bits(_paired_error_ratio(x, v, x_new, v_new, err_x, err_v))
        # one reference_rk4 span of five substeps against five paired substeps
        s0 = wf.FlockState(0.0, x, v)
        traj = reference_rk4(m, s0, 5 * dt, dt, sample_every=5 * dt)
        xr, vr = x, v
        for _ in range(5):
            xr, vr = _paired_rk4_substep(m, xr, vr, dt)
        assert np.array_equal(_bits(traj.X[-1]), _bits(xr))
        assert np.array_equal(_bits(traj.V[-1]), _bits(vr))


@pytest.mark.parametrize("poison", [None, math.nan, math.inf])
def test_one_member_ratio_bitwise_equal_error_ratio(monkeypatch, poison):
    # _attempt_one's float ratio is _error_ratio's one-member list entry, over
    # steps that pass and fail the error test, and inf where y_new is not finite
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25), wf.WallPotential(1.0, 1.0),
        wf.Geometry("interval", 0.0, 6.0),
    )
    attempt = integrator._attempt

    def poisoned(m, y, h):
        y_new, err, dist = attempt(m, y, h)
        if poison is not None:
            y_new[1, -1] = poison  # a velocity: the endpoint's positions stay in the domain
        return y_new, err, dist

    monkeypatch.setattr(integrator, "_attempt", poisoned)
    rng = np.random.default_rng(11)
    ratios = []
    for n in (1, 2, 16):
        for dt in (1e-3, 0.02, 0.1):
            y = np.stack((rng.uniform(0.5, 5.5, n), rng.uniform(-1.0, 1.0, n)))
            with np.errstate(invalid="ignore"):  # 0 * inf
                _, ratio, _ = integrator._attempt_one(m, y, dt)
                (want,) = _error_ratio(y, *poisoned(m, y, dt)[:2])
            assert type(ratio) is float and _bits(ratio) == _bits(want)
            ratios.append(ratio)
    if poison is None:
        assert min(ratios) < 1.0 < max(ratios) < math.inf
    else:
        assert ratios == [math.inf] * len(ratios)


@pytest.mark.parametrize("component, value", [(0, math.nan), (1, math.inf)])
@pytest.mark.parametrize("members", [1, 2])
def test_one_member_sample_rejects_a_non_finite_row(members, component, value):
    # the one live member's rows, of a single run or of a batch whose other
    # member failed in the same span, are checked before their diagnostics
    m = two_agent_constant()
    s = wf.FlockState(0.0, [2.0, 3.0], [0.5, 1.0])

    def advance(y, live, t0, t1):
        y[component, live[-1], 0] = value
        return {0: StiffnessError("dropped")} if len(live) == 2 else {}

    models = [m] * members
    batched = wf.FlockModel(KernelStack((m.kernel,) * members), m.wall, m.geometry)
    with pytest.raises(ValueError, match="^state entries must be finite$"):
        integrator._sample(models, batched, [s] * members, 0.2, 0.1, advance)


def test_sample_grid_exact_and_uniform():
    m = two_agent_constant()
    s = wf.FlockState(0.0, [2.0, 3.0], [0.5, 1.0])
    traj = integrate(m, s, 1.0, sample_every=0.1)
    t = np.asarray(traj.sample_times)
    assert t.shape == (11,)
    assert t[0] == 0.0
    assert t[-1] == 1.0
    assert np.allclose(np.diff(t), 0.1, rtol=0, atol=1e-15)
    # non-divisor spacing still ends exactly at t_end
    traj2 = integrate(m, s, 1.0, sample_every=0.3)
    t2 = np.asarray(traj2.sample_times)
    assert t2[-1] == 1.0
    assert len(traj2.X) == len(t2) == len(traj2.records)


@pytest.mark.parametrize("entry", ["verify", "integrate", "integrate_batch", "reference_rk4"])
def test_sample_grid_bound_holds_on_the_python_api(entry, monkeypatch):
    # the config-time bound, before any grid is built: 1e310 rows would
    # overflow int() in _sample_grid
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(integrator, "_sample_grid", no_grid)
    m = wf.FlockModel(wf.CommunicationKernel(), wf.WallPotential(), wf.Geometry("halfline"))
    s = wf.FlockState(0.0, [1.0, 2.0, 3.0, 4.0], [0.1, -0.2, 0.3, 0.0])
    run = {
        "verify": lambda: wf.verify(m, s, t_end=1e300, sample_every=1e-10),
        "integrate": lambda: integrate(m, s, 1e300, 1e-10),
        "integrate_batch": lambda: integrate_batch([m] * 2, [s, s], 1e300, 1e-10),
        "reference_rk4": lambda: reference_rk4(m, s, 1e300, 0.01, 1e-10),
    }[entry]
    with pytest.raises(ValueError, match="records more than 134217728 numbers"):
        run()


def test_matches_closed_form():
    m = two_agent_constant()
    s = wf.FlockState(0.0, [2.0, 3.0], [0.5, 1.0])
    traj = integrate(m, s, 10.0, sample_every=0.5)
    worst = 0.0
    for tk, xk, vk in zip(traj.sample_times, traj.X, traj.V):
        x_ref, v_ref = closed_form_pair(tk)
        worst = max(worst, np.max(np.abs(xk - x_ref)), np.max(np.abs(vk - v_ref)))
    assert worst < 1e-7


def test_adaptive_agrees_with_fixed_step_reference():
    rng = np.random.default_rng(2)
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
    )
    for _ in range(3):
        x = np.sort(rng.uniform(2.0, 5.0, 4))
        v = rng.uniform(0.0, 1.0, 4)
        s = wf.FlockState(0.0, x, v)
        a = integrate(m, s, 5.0, sample_every=0.5)
        b = reference_rk4(m, s, 5.0, 1e-3, sample_every=0.5)
        assert np.asarray(a.sample_times).tolist() == np.asarray(b.sample_times).tolist()
        assert np.max(np.abs(a.X - b.X)) < 1e-8
        assert np.max(np.abs(a.V - b.V)) < 1e-8


def test_wall_bounce_has_no_collision_and_dissipates():
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
    )
    s = wf.FlockState(0.0, [0.8, 1.2, 1.6, 2.0], [-1.5, -1.0, -0.5, -1.0])
    traj = integrate(m, s, 15.0, sample_every=0.1)
    dist = traj.records.x_min_wall
    assert np.min(dist) > 0.0
    E = traj.records.E
    assert np.max(E[1:] - E[:-1]) <= 1e-9
    # the bounce reverses the inbound momentum
    assert traj.records[-1].p > 0.0


def test_interval_bounces_both_walls():
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("interval", 0.0, 4.0),
    )
    s = wf.FlockState(0.0, [1.2, 2.0, 2.8], [1.5, 0.0, -1.5])
    traj = integrate(m, s, 12.0, sample_every=0.1)
    dist = traj.records.x_min_wall
    assert np.min(dist) > 0.0
    assert np.all(traj.X > 0.0) and np.all(traj.X < 4.0)


def test_stiffness_error_when_dt_min_unreachable():
    # a wall of strength 1e20 with an agent 0.05 from it: the error test
    # halves the step below the 1e-12 floor.  The message names t, the
    # attempted dt, and the agent nearest a wall with its speed: on the
    # interval the agent at the largest x, next to the second wall
    cases = [
        (wf.Geometry("halfline"), [0.05, 6.0], [-2.0, 2.0],
         r"\(attempted dt=6.1e-12\): agent 0 is 0.05 from the wall at x=0, speed 2$"),
        (wf.Geometry("interval", -3.0, 10.0), [1.0, 9.95, 2.0], [-2.0, 2.0, 0.0],
         r"\(attempted dt=1.49e-12\): agent 1 is 0.05 from the wall at x=10, speed 2$"),
    ]
    for geometry, x, v, message in cases:
        m = wf.FlockModel(
            wf.CommunicationKernel("powerlaw", 1.0, 0.0), wf.WallPotential(1.0, 1e20), geometry
        )
        with pytest.raises(StiffnessError, match=r"^step size collapsed below dt_min at t=0 " + message):
            integrate(m, wf.FlockState(0.0, x, v), 1.0, sample_every=1.0)


def test_trajectory_length_validation():
    m = two_agent_constant()
    s = wf.FlockState(0.0, [2.0, 3.0], [0.5, 1.0])
    traj = integrate(m, s, 1.0, sample_every=0.5)
    times, X, V, rec = traj.sample_times, traj.X, traj.V, traj.records
    Trajectory(times, X, V, rec)
    with pytest.raises(ValueError, match="one row per sample"):
        Trajectory(times[:2], X, V, rec)
    with pytest.raises(ValueError, match="one row per sample"):
        Trajectory(times, X, V[:2], rec)
    with pytest.raises(ValueError, match="one row per sample"):
        Trajectory(times, X, V, rec[:2])
    with pytest.raises(ValueError, match="same shape"):
        Trajectory(times, X, V[:, :1], rec)


@pytest.mark.parametrize(
    "run",
    [
        lambda m, s, t: integrate(m, s, t, sample_every=0.25),
        lambda m, s, t: reference_rk4(m, s, t, 0.01, sample_every=0.25),
    ],
    ids=["integrate", "reference_rk4"],
)
def test_trajectory_rows_equal_per_sample_diagnostics(run):
    n = 13
    kernel = wf.CommunicationKernel("powerlaw", 1.0, 0.25)
    geometries = ((wf.Geometry("halfline"), 4.0), (wf.Geometry("interval", 0.0, 6.0), 5.0))
    for geometry, x_high in geometries:
        m = wf.FlockModel(kernel, wf.WallPotential(1.0, 1.0), geometry)
        s0 = wf.initial_condition(n, 1.2, x_high, -1.0, 1.0, 11)
        traj = run(m, s0, 3.0)
        S = traj.sample_times.size
        assert traj.X.shape == traj.V.shape == (S, n)
        assert traj.records.shape == (S,)
        assert np.array_equal(traj.X[0], s0.x) and np.array_equal(traj.V[0], s0.v)
        G = initial_energy(m, s0)
        for k, t in enumerate(traj.sample_times):
            want = diagnostics(m, wf.FlockState(t, traj.X[k], traj.V[k]), G)
            for name, value in zip(want._fields, want):
                got = np.float64(traj.records[k][name]).view(np.int64)
                assert got == np.float64(value).view(np.int64), (k, name)


def test_reference_rk4_subdivides_to_land_on_grid():
    m = two_agent_constant()
    s = wf.FlockState(0.0, [2.0, 3.0], [0.5, 1.0])
    traj = reference_rk4(m, s, 1.0, 0.03, sample_every=0.1)  # 0.03 does not divide 0.1
    t = np.asarray(traj.sample_times)
    assert t[-1] == 1.0
    assert np.allclose(np.diff(t), 0.1, rtol=0, atol=1e-15)
    x_ref, v_ref = closed_form_pair(1.0)
    assert np.max(np.abs(traj.X[-1] - x_ref)) < 1e-6


@pytest.mark.parametrize(
    "run",
    [lambda m, s, t: integrate(m, s, t), lambda m, s, t: reference_rk4(m, s, t, 0.01)],
    ids=["integrate", "reference_rk4"],
)
def test_entry_checks_shared_by_both_integrators(run):
    m = two_agent_constant()
    with pytest.raises(ValueError, match="t_end"):
        run(m, wf.FlockState(1.0, [2.0, 3.0], [0.5, 1.0]), 1.0)
    with pytest.raises(WallDomainError):
        run(m, wf.FlockState(0.0, [-1.0, 3.0], [0.5, 1.0]), 1.0)


def test_readme_step_control_is_the_constants():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Every run steps with the module constants", 1)[1].split("\n\n", 1)[0]
    name = r"`([A-Z]+(?:_[A-Z]+)+)`"
    named = set(re.findall(name, paragraph))
    given = dict(re.findall(name + r"\s+`([^`]+)`", paragraph))
    constants = {
        key: value for key, value in vars(integrator).items()
        if key.isupper() and not key.startswith("_") and type(value) in (int, float)
    }
    assert named == set(given) == set(constants)
    assert {key: float(value) for key, value in given.items()} == constants
    assert f"`{integrator._WALL_SAFETY} * min wall distance" in paragraph


def test_wall_cap_is_the_current_states(monkeypatch):
    # an agent drifts into a weak wall, whose force leaves the error test
    # slack: every attempt stays within the cap of the state it starts from,
    # and the cap sets most of the steps
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.0),
        wf.WallPotential(1.0, 1e-6),
        wf.Geometry("halfline"),
    )
    s = wf.FlockState(0.0, [0.05, 1.2], [-0.01, 0.1])
    steps = []

    def attempt(m, y, h):
        cap = 0.25 * y[0].min() / (np.abs(y[1]).max() + 1.0)  # on the half-line: x
        steps.append((h, cap))
        return _attempt(m, y, h)

    monkeypatch.setattr(integrator, "_attempt", attempt)
    integrate(m, s, 3.0)
    assert all(h <= cap for h, cap in steps)
    assert sum(h == cap for h, cap in steps) > len(steps) / 2


def _assert_same_run(got, want):
    """Two runs' sample times, X, V and every record field, bit for bit."""
    assert isinstance(got, Trajectory), got
    assert np.array_equal(_bits(got.sample_times), _bits(want.sample_times))
    assert np.array_equal(_bits(got.X), _bits(want.X))
    assert np.array_equal(_bits(got.V), _bits(want.V))
    for field in DiagnosticsRecord._fields:
        assert np.array_equal(_bits(got.records[field]), _bits(want.records[field])), field


def _counting_attempts(monkeypatch):
    """Patch integrator._attempt to log (members, raised) per call."""
    calls = []

    def attempt(m, y, dt):
        try:
            result = _attempt(m, y, dt)
        except WallDomainError:
            calls.append((y.shape[1] if y.ndim == 3 else 1, True))
            raise
        calls.append((y.shape[1] if y.ndim == 3 else 1, False))
        return result

    monkeypatch.setattr(integrator, "_attempt", attempt)
    return calls


@pytest.mark.parametrize(
    "model, box",
    [
        (wf.FlockModel(wf.CommunicationKernel("powerlaw", 1.0, 0.25), wf.WallPotential(1.0, 1.0),
                       wf.Geometry("halfline")), (0.5, 3.0, -0.5, 1.0)),
        (wf.FlockModel(wf.CommunicationKernel("powerlaw", 1.0, 0.25), wf.WallPotential(1.0, 1.0),
                       wf.Geometry("interval", 0.0, 10.0)), (1.0, 9.0, -1.0, 1.0)),
        (wf.FlockModel(wf.CommunicationKernel("powerlaw", 1.0, 0.25), wf.WallPotential(1.0, 1.0),
                       wf.Geometry("interval", 0.0, 4.0)), (0.5, 3.5, -1.0, 1.0)),
        (wf.FlockModel(wf.CommunicationKernel("powerlaw", 1.0, 0.25), wf.WallPotential(1.0, 0.0),
                       wf.Geometry("halfline")), (0.5, 3.0, -1.0, -0.5)),
    ],
    ids=["halfline", "interval", "interval_two_walls", "control_nowall"],
)
def test_batch_members_bitwise_equal_single_runs(monkeypatch, model, box):
    # three members that share the model but take different steps, stepped in
    # lockstep rounds; each equals its own run in every bit.  On (0, 4) some
    # members are within both walls' layers at once, others within one
    states = [wf.initial_condition(8, *box, seed) for seed in (1, 2, 3)]
    singles = [integrate(model, s, 6.0, 0.1) for s in states]
    calls = _counting_attempts(monkeypatch)
    runs = integrate_batch([model] * len(states), states, 6.0, 0.1)
    for run, single in zip(runs, singles):
        _assert_same_run(run, single)
    # most rounds step all three members in one batched attempt
    assert sum(members == 3 for members, _ in calls) > len(calls) / 2


def test_batch_domain_rejection_rejects_only_its_member(monkeypatch):
    # member 0 overflows a stage to inf at its first step (see
    # test_overflowing_stage_is_a_rejected_step); its siblings do not, and
    # that batched round is re-run one member at a time
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1e8, 0.0),
        wf.WallPotential(1.0, 0.0),
        wf.Geometry("halfline"),
    )
    states = [
        wf.FlockState(0.0, [1.0, 2.0], [-1e299, 1e299]),
        wf.FlockState(0.0, [1.0, 2.0], [0.5, -0.5]),
        wf.FlockState(0.0, [1.0, 3.0], [0.1, 0.2]),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        singles = [integrate(m, s, 1e-6, 5e-7) for s in states]
        calls = _counting_attempts(monkeypatch)
        runs = integrate_batch([m] * len(states), states, 1e-6, 5e-7)
    for run, single in zip(runs, singles):
        _assert_same_run(run, single)
    # the first round raised on the batch; alone, only member 0 left the domain
    assert calls[:4] == [(3, True), (1, True), (1, False), (1, False)]


_FOUR = [(1.0, 0.25), (0.3, 1.0), (1.0, 0.0), (0.3, 1.5)]
# a sweep's kernel grid, beta in {0, 1/2, 1, 3/2} by H in {0.3, 1}, twice over
# and interleaved so that no two adjacent members share a kernel
_GRID = [(H, beta) for beta in (0.0, 0.5, 1.0, 1.5) for H in (0.3, 1.0)]
_GRID += _GRID[::2] + _GRID[1::2]


@pytest.mark.parametrize(
    "geometry, box, kernels",
    [
        (wf.Geometry("halfline"), (0.5, 3.0, -0.5, 1.0), _FOUR),
        (wf.Geometry("interval", 0.0, 10.0), (1.0, 9.0, -1.0, 1.0), _FOUR),
        (wf.Geometry("halfline"), (0.5, 3.0, -0.5, 1.0), _GRID),
        (wf.Geometry("interval", 0.0, 10.0), (1.0, 9.0, -1.0, 1.0), _GRID),
    ],
    ids=["halfline", "interval", "halfline_beta_by_H_grid", "interval_beta_by_H_grid"],
)
def test_batch_members_with_own_kernels_bitwise_equal_single_runs(
    monkeypatch, geometry, box, kernels
):
    # every member its own kernel, beta = 0 and beta = 1 among them: one kernel
    # pass per stage serves the batch, beta = 1's reciprocal and the amplitude
    # column included, and each run equals its own in every bit, diagnostics
    # (whose L takes the member's primitive) included
    assert all(a != b for a, b in zip(kernels, kernels[1:]))
    models = [
        wf.FlockModel(wf.CommunicationKernel("powerlaw", H, beta), wf.WallPotential(1.0, 1.0),
                      geometry)
        for H, beta in kernels
    ]
    states = [wf.initial_condition(8, *box, seed) for seed in range(1, len(models) + 1)]
    singles = [integrate(m, s, 6.0, 0.1) for m, s in zip(models, states)]
    calls = _counting_attempts(monkeypatch)
    runs = integrate_batch(models, states, 6.0, 0.1)
    for run, single in zip(runs, singles, strict=True):
        _assert_same_run(run, single)
    # the members still share most rounds
    assert sum(members > 1 for members, _ in calls) > len(calls) / 2


@pytest.mark.parametrize("beta", [0.25, 1.0])
def test_batched_acceleration_calls_do_not_grow_with_distinct_kernels(beta):
    # one batched acceleration under 16 distinct kernels makes the Python
    # and C calls of one under a single shared kernel: one kernel pass,
    # whatever the kernels (beta = 1 among them or throughout takes the
    # masked pass either way; no H is 1 in either)
    wall, geometry = wf.WallPotential(1.0, 1.0), wf.Geometry("halfline")
    shared = [wf.CommunicationKernel("powerlaw", 0.7, beta)] * 16
    distinct = [
        wf.CommunicationKernel("powerlaw", 0.5 + 0.01 * j, beta + 0.25 * (j % 2)) for j in range(16)
    ]
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.5, 6.0, (16, 8)), axis=1)
    v = rng.uniform(-1.0, 1.0, x.shape)

    def count(kernels):
        m = wf.FlockModel(KernelStack(tuple(kernels)), wall, geometry)
        acceleration(m, x, v)  # first-call caches out of the way
        events = Counter()

        def hook(frame, event, arg):
            events[event] += 1

        sys.setprofile(hook)
        try:
            acceleration(m, x, v)
        finally:
            sys.setprofile(None)
        return events["call"], events["c_call"]

    assert len(set(distinct)) == 16
    assert count(distinct) == count(shared)


def test_batch_domain_rejection_with_own_kernels_rejects_only_its_member(monkeypatch):
    # test_batch_domain_rejection_rejects_only_its_member with a kernel per
    # member: the members re-run alone take their own models
    models = [
        wf.FlockModel(wf.CommunicationKernel("powerlaw", H, beta), wf.WallPotential(1.0, 0.0),
                      wf.Geometry("halfline"))
        for H, beta in [(1e8, 0.0), (1e8, 1.0), (0.5, 0.5)]
    ]
    states = [
        wf.FlockState(0.0, [1.0, 2.0], [-1e299, 1e299]),
        wf.FlockState(0.0, [1.0, 2.0], [0.5, -0.5]),
        wf.FlockState(0.0, [1.0, 3.0], [0.1, 0.2]),
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        singles = [integrate(m, s, 1e-6, 5e-7) for m, s in zip(models, states)]
        calls = _counting_attempts(monkeypatch)
        runs = integrate_batch(models, states, 1e-6, 5e-7)
    for run, single in zip(runs, singles):
        _assert_same_run(run, single)
    assert calls[:4] == [(3, True), (1, True), (1, False), (1, False)]


@pytest.mark.parametrize("entry", ["integrate_batch", "verify_batch"])
def test_batch_rejects_an_empty_or_mismatched_batch(entry):
    run = {
        "integrate_batch": lambda models, states: integrate_batch(models, states, 1.0),
        "verify_batch": lambda models, states: wf.verify_batch(models, states, t_end=1.0),
    }[entry]
    m = wf.FlockModel(wf.CommunicationKernel(), wf.WallPotential(), wf.Geometry("halfline"))
    s = wf.FlockState(0.0, [1.0, 2.0], [0.1, -0.1])
    with pytest.raises(ValueError, match="needs at least one state"):
        run([], [])
    with pytest.raises(ValueError, match="one model per state, not 1 for 2"):
        run([m], [s, s])
    other_wall = wf.FlockModel(m.kernel, wf.WallPotential(1.0, 2.0), m.geometry)
    other_geometry = wf.FlockModel(m.kernel, m.wall, wf.Geometry("interval", 0.0, 10.0))
    for other in (other_wall, other_geometry):
        with pytest.raises(ValueError, match="must share their wall and geometry"):
            run([m, other], [s, s])


def test_batch_failures_drop_only_their_member():
    # the wall of test_stiffness_error_when_dt_min_unreachable: a member 0.05
    # from it fails with its single run's StiffnessError, a member outside the
    # domain with WallDomainError, and the member far from the wall completes
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.0),
        wf.WallPotential(1.0, 1e20),
        wf.Geometry("halfline"),
    )
    stiff = wf.FlockState(0.0, [0.05, 6.0], [-2.0, 2.0])
    outside = wf.FlockState(0.0, [-1.0, 6.0], [0.0, 0.0])
    free = wf.FlockState(0.0, [3.0, 6.0], [0.5, 0.2])
    runs = integrate_batch([m] * 3, [stiff, outside, free], 1.0, 0.5)
    with pytest.raises(StiffnessError) as single:
        integrate(m, stiff, 1.0, 0.5)
    assert isinstance(runs[0], StiffnessError) and str(runs[0]) == str(single.value)
    assert isinstance(runs[1], WallDomainError)
    _assert_same_run(runs[2], integrate(m, free, 1.0, 0.5))
    with pytest.raises(ValueError, match="share N"):
        integrate_batch([m] * 2, [free, wf.FlockState(0.0, [3.0], [0.5])], 1.0, 0.5)


def _counting_diagnostics(monkeypatch):
    """Patch integrator.diagnostics to log the members of each call, 0 for one state."""
    calls = []
    diagnostics = integrator.diagnostics

    def counted(m, s, G):
        calls.append(np.size(G) if np.ndim(G) else 0)
        return diagnostics(m, s, G)

    monkeypatch.setattr(integrator, "diagnostics", counted)
    return calls


def _mixed_kernel_models(geometry):
    return [
        wf.FlockModel(wf.CommunicationKernel("powerlaw", H, beta), wf.WallPotential(1.0, 1.0),
                      geometry)
        for H, beta in [(1.0, 0.25), (0.3, 1.0), (1.0, 0.25), (0.3, 1.5)]
    ]


def test_one_diagnostics_call_per_sample(monkeypatch):
    # a 4-member batch with its own kernels (a, b, a, c) records each of its
    # 21 samples in one call on all members' rows; a single run in one call
    # on its state
    models = _mixed_kernel_models(wf.Geometry("halfline"))
    states = [wf.initial_condition(8, 0.5, 3.0, -0.5, 1.0, seed) for seed in (1, 2, 3, 4)]
    singles = [integrate(m, s, 2.0, 0.1) for m, s in zip(models, states)]
    calls = _counting_diagnostics(monkeypatch)
    runs = integrate_batch(models, states, 2.0, 0.1)
    assert calls == [4] * 21
    for run, single in zip(runs, singles):
        _assert_same_run(run, single)
    calls.clear()
    _assert_same_run(integrate(models[0], states[0], 2.0, 0.1), singles[0])
    assert calls == [0] * 21


def test_batch_member_failing_mid_run_leaves_its_siblings_records(monkeypatch):
    # member 0's agent 0 runs at the wall at speed 1e6 and fails the wall cap
    # at t = 1.5e-6, between samples; the members left are recorded in one call
    # per sample, or alone once one is left, each bit-equal to its single run
    models = _mixed_kernel_models(wf.Geometry("halfline"))
    states = [wf.initial_condition(8, 1.5, 3.0, -0.5, 1.0, seed) for seed in (1, 2, 3, 4)]
    states[0].v[0] = -1e6
    stiff = r"^wall layer forces dt below dt_min at t=1\.5"
    with pytest.raises(StiffnessError, match=stiff) as failed:
        integrate(models[0], states[0], 2e-5, 1e-6)
    singles = [integrate(m, s, 2e-5, 1e-6) for m, s in zip(models[1:], states[1:])]
    for members in (4, 2):
        calls = _counting_diagnostics(monkeypatch)
        runs = integrate_batch(models[:members], states[:members], 2e-5, 1e-6)
        assert isinstance(runs[0], StiffnessError) and str(runs[0]) == str(failed.value)
        for run, single in zip(runs[1:], singles):
            _assert_same_run(run, single)
        left = members - 1 if members > 2 else 0
        assert calls == [members] * 2 + [left] * 19


def test_batch_size_bounds_kernel_block_and_samples():
    # stacked N x N matrices within one 2^15-entry strip: one member above N = 181
    block = wf.dynamics._BLOCK_ELEMENTS
    for n in (1, 2, 8, 16, 100, 181):
        assert batch_members(n, 1) * n * n <= block < (batch_members(n, 1) + 1) * n * n, n
    assert batch_members(182, 1) == batch_members(4096, 1) == 1
    # and the members' recorded samples within 2^22 numbers
    row = 2 * 8 + len(DiagnosticsRecord._fields)
    assert batch_members(8, 4001) * 4001 * row <= 1 << 22
    assert batch_members(8, 10**7) == 1


@pytest.mark.parametrize("entry", ["integrate_batch", "verify_batch"])
@pytest.mark.parametrize(
    "n, members, slices",
    [(182, None, [1, 1, 1]), (8, 2, [2, 2, 1])],
    ids=["n182_one_strip", "two_members"],
)
def test_batch_is_stepped_in_slices_bitwise_equal_single_runs(
    monkeypatch, entry, n, members, slices
):
    # any number of states at any N: the integrator cuts them into slices of
    # at most batch_members (one member above N = 181, or a patched two), and
    # each run still equals its own, with its own kernel
    kernels = [(1.0, 0.25), (0.3, 1.0), (1.0, 0.25), (1.0, 0.0), (0.3, 1.5)][: sum(slices)]
    models = [
        wf.FlockModel(wf.CommunicationKernel("powerlaw", H, beta), wf.WallPotential(1.0, 1.0),
                      wf.Geometry("halfline"))
        for H, beta in kernels
    ]
    states = [wf.initial_condition(n, 2.0, 4.0 * n**0.5, -0.5, 1.0, seed) for seed in range(1, 6)]
    states = states[: len(models)]
    if entry == "verify_batch":
        singles = [wf.verify(m, s, t_end=0.4) for m, s in zip(models, states)]
    else:
        singles = [integrate(m, s, 0.4) for m, s in zip(models, states)]
    sizes = []
    step = integrator._batch

    def recorded(models, states, t_end, sample_every):
        sizes.append(len(states))
        return step(models, states, t_end, sample_every)

    monkeypatch.setattr(integrator, "_batch", recorded)
    if members is not None:
        monkeypatch.setattr(integrator, "batch_members", lambda n, samples: members)
    if entry == "verify_batch":
        reports = wf.verify_batch(models, states, t_end=0.4)
        assert [r.to_json() for r in reports] == [r.to_json() for r in singles]
    else:
        for run, single in zip(integrate_batch(models, states, 0.4), singles, strict=True):
            _assert_same_run(run, single)
    assert sizes == slices
