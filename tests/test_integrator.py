import numpy as np
import pytest

import wallflock as wf
from wallflock import (
    IntegratorControl,
    StiffnessError,
    Trajectory,
    WallDomainError,
    integrate,
    reference_rk4,
)
from wallflock.integrator import _attempt


def two_agent_constant(H=1.0):
    return wf.FlockModel(
        wf.CommunicationKernel("constant", H),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
        2,
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


def test_control_validation():
    IntegratorControl()
    with pytest.raises(ValueError):
        IntegratorControl(dt_init=0.0)
    with pytest.raises(ValueError):
        IntegratorControl(dt_min=1e-3, dt_init=1e-4)
    with pytest.raises(ValueError):
        IntegratorControl(dt_max=1e-3, dt_init=1e-2)
    with pytest.raises(ValueError):
        IntegratorControl(abs_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorControl(wall_safety=1.5)


def test_control_defaults():
    c = IntegratorControl()
    assert c.dt_init == 1e-3
    assert c.dt_min == 1e-12
    assert c.dt_max == 0.1
    assert c.abs_tol == 1e-8
    assert c.rel_tol == 1e-8
    assert c.wall_safety == 0.25


def test_single_step_local_error():
    m = two_agent_constant()
    s = wf.FlockState(0.0, [2.0, 3.0], [0.5, 1.0])
    dt = 0.01
    x_new, v_new, err_x, err_v = _attempt(m, s.x, s.v, dt)
    x_ref, v_ref = closed_form_pair(dt)
    assert np.max(np.abs(x_new - x_ref)) < 1e-11  # local error ~ dt^5
    assert np.max(np.abs(v_new - v_ref)) < 1e-11
    err = max(np.max(np.abs(err_x)), np.max(np.abs(err_v)))
    assert 0.0 <= err < 1e-9


def test_step_into_forbidden_region_raises():
    m = two_agent_constant()
    s = wf.FlockState(0.0, [1.05, 2.0], [-3.0, -3.0])
    with pytest.raises(WallDomainError):
        _attempt(m, s.x, s.v, 1.0)


def test_overflowing_stage_is_a_rejected_step(monkeypatch):
    # a stiff pair (H = 1e8) at speeds 1e299: a 1e-6 step overflows a stage to
    # inf, which the wall check rejects as a domain violation (also with the
    # wall disabled), and integrate halves the step and carries on
    H = 1e8
    m = wf.FlockModel(
        wf.CommunicationKernel("constant", H),
        wf.WallPotential(1.0, 0.0),
        wf.Geometry("halfline"),
        2,
    )
    s = wf.FlockState(0.0, [1.0, 2.0], [-1e299, 1e299])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(WallDomainError, match="finite"):
            _attempt(m, s.x, s.v, 1e-6)

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
        c = IntegratorControl(dt_init=1e-6, dt_max=1e-6, dt_min=1e-15)
        traj = integrate(m, s, 1e-6, c, sample_every=1e-6)
    assert outcomes[0] == "domain"
    assert outcomes[-1] == "ok"
    x_ref, v_ref = closed_form_pair(1e-6, 1.0, 2.0, -1e299, 1e299, H)
    assert np.allclose(traj.X[-1], x_ref, rtol=1e-6, atol=0.0)
    assert np.allclose(traj.V[-1], v_ref, rtol=1e-4, atol=0.0)


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
        4,
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
        4,
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
        3,
    )
    s = wf.FlockState(0.0, [1.2, 2.0, 2.8], [1.5, 0.0, -1.5])
    traj = integrate(m, s, 12.0, sample_every=0.1)
    dist = traj.records.x_min_wall
    assert np.min(dist) > 0.0
    assert np.all(traj.X > 0.0) and np.all(traj.X < 4.0)


def test_stiffness_error_when_dt_min_unreachable():
    m = two_agent_constant()
    s = wf.FlockState(0.0, [5.0, 6.0], [-2.0, 2.0])
    c = IntegratorControl(dt_init=0.2, dt_min=0.2, dt_max=0.2, abs_tol=1e-13, rel_tol=1e-13)
    # the message names t, the attempted dt, and the agent nearest a wall with its speed
    with pytest.raises(
        StiffnessError,
        match=r"at t=0 \(attempted dt=0.2\): agent 0 is 5 from the wall at x=0, speed 2$",
    ):
        integrate(m, s, 1.0, c, sample_every=1.0)


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
        m = wf.FlockModel(kernel, wf.WallPotential(1.0, 1.0), geometry, n)
        s0 = wf.initial_condition(n, 1.2, x_high, -1.0, 1.0, 11)
        traj = run(m, s0, 3.0)
        S = traj.sample_times.size
        assert traj.X.shape == traj.V.shape == (S, n)
        assert traj.records.shape == (S,)
        assert np.array_equal(traj.X[0], s0.x) and np.array_equal(traj.V[0], s0.v)
        G = wf.initial_energy(m, s0)
        for k, t in enumerate(traj.sample_times):
            want = wf.diagnostics(m, wf.FlockState(t, traj.X[k], traj.V[k]), G)
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
    with pytest.raises(ValueError, match="state size"):
        run(m, wf.FlockState(0.0, [2.0, 3.0, 4.0], [0.5, 1.0, 0.0]), 1.0)
    with pytest.raises(ValueError, match="t_end"):
        run(m, wf.FlockState(1.0, [2.0, 3.0], [0.5, 1.0]), 1.0)
    with pytest.raises(WallDomainError):
        run(m, wf.FlockState(0.0, [-1.0, 3.0], [0.5, 1.0]), 1.0)


def test_fixed_step_mode_effectively_disables_adaptivity():
    # huge tolerances with dt_init = dt_max force a constant step size
    m = two_agent_constant()
    s = wf.FlockState(0.0, [2.0, 3.0], [0.5, 1.0])
    h = 0.05
    c = IntegratorControl(dt_init=h, dt_min=1e-15, dt_max=h, abs_tol=1e9, rel_tol=1e9)
    traj = integrate(m, s, 1.0, c, sample_every=1.0)
    x_ref, v_ref = closed_form_pair(1.0)
    err = np.max(np.abs(traj.X[-1] - x_ref))
    # error of a genuine h=0.05 fourth-order pass, far above adaptive accuracy
    assert 1e-12 < err < 1e-6
