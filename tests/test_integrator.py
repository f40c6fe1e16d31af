import re
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
    reference_rk4,
)
from wallflock.integrator import (
    ABS_TOL, REL_TOL, _A, _B4, _ERR, _attempt, _error_ratio, batch_members, integrate_batch,
)


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
    kv[0] = wf.acceleration(m, x, v)
    for i in range(1, 6):
        xi = x + dt * (_A[i] @ kx[:i])
        vi = v + dt * (_A[i] @ kv[:i])
        kx[i] = vi
        kv[i] = wf.acceleration(m, xi, vi)
    x_new = x + dt * (_B4 @ kx)
    v_new = v + dt * (_B4 @ kv)
    return x_new, v_new, dt * (_ERR @ kx), dt * (_ERR @ kv)


def _paired_error_ratio(x, v, x_new, v_new, err_x, err_v):
    scale_x = ABS_TOL + REL_TOL * np.maximum(np.abs(x), np.abs(x_new))
    scale_v = ABS_TOL + REL_TOL * np.maximum(np.abs(v), np.abs(v_new))
    return max(float(np.max(np.abs(err_x) / scale_x)), float(np.max(np.abs(err_v) / scale_v)))


def _paired_rk4_substep(m, x, v, h):
    kx1 = v
    kv1 = wf.acceleration(m, x, v)
    kx2 = v + 0.5 * h * kv1
    kv2 = wf.acceleration(m, x + 0.5 * h * kx1, v + 0.5 * h * kv1)
    kx3 = v + 0.5 * h * kv2
    kv3 = wf.acceleration(m, x + 0.5 * h * kx2, v + 0.5 * h * kv2)
    kx4 = v + h * kv3
    kv4 = wf.acceleration(m, x + h * kx3, v + h * kv3)
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
        # the endpoint's nearest wall distance, which caps the next step
        assert _bits(dist) == _bits(wf.wall_distances(geometry, x_new).min())
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
    # halves the step below the 1e-12 floor
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.0),
        wf.WallPotential(1.0, 1e20),
        wf.Geometry("halfline"),
    )
    s = wf.FlockState(0.0, [0.05, 6.0], [-2.0, 2.0])
    # the message names t, the attempted dt, and the agent nearest a wall with its speed
    with pytest.raises(
        StiffnessError,
        match=r"^step size collapsed below dt_min at t=0 \(attempted dt=6.1e-12\): "
        r"agent 0 is 0.05 from the wall at x=0, speed 2$",
    ):
        integrate(m, s, 1.0, sample_every=1.0)


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
        cap = 0.25 * wf.wall_distances(m.geometry, y[0]).min() / (np.abs(y[1]).max() + 1.0)
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
    for field in wf.DiagnosticsRecord._fields:
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
        (wf.FlockModel(wf.CommunicationKernel("powerlaw", 1.0, 0.25), wf.WallPotential(1.0, 0.0),
                       wf.Geometry("halfline")), (0.5, 3.0, -1.0, -0.5)),
    ],
    ids=["halfline", "interval", "control_nowall"],
)
def test_batch_members_bitwise_equal_single_runs(monkeypatch, model, box):
    # three members that share the model but take different steps, stepped in
    # lockstep rounds; each equals its own run in every bit
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


@pytest.mark.parametrize(
    "geometry, box",
    [
        (wf.Geometry("halfline"), (0.5, 3.0, -0.5, 1.0)),
        (wf.Geometry("interval", 0.0, 10.0), (1.0, 9.0, -1.0, 1.0)),
    ],
    ids=["halfline", "interval"],
)
def test_batch_members_with_own_kernels_bitwise_equal_single_runs(monkeypatch, geometry, box):
    # every member its own kernel, beta = 0 and beta = 1 among them: the
    # batched attempts stack the kernels, and each run equals its own in
    # every bit, diagnostics (whose L takes the member's primitive) included
    kernels = [(1.0, 0.25), (0.3, 1.0), (1.0, 0.0), (0.3, 1.5)]
    models = [
        wf.FlockModel(wf.CommunicationKernel("powerlaw", H, beta), wf.WallPotential(1.0, 1.0),
                      geometry)
        for H, beta in kernels
    ]
    states = [wf.initial_condition(8, *box, seed) for seed in (1, 2, 3, 4)]
    singles = [integrate(m, s, 6.0, 0.1) for m, s in zip(models, states)]
    calls = _counting_attempts(monkeypatch)
    runs = integrate_batch(models, states, 6.0, 0.1)
    for run, single in zip(runs, singles):
        _assert_same_run(run, single)
    # the members still share most rounds
    assert sum(members > 1 for members, _ in calls) > len(calls) / 2


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


def test_batch_size_bounds_kernel_block_and_samples():
    # stacked N x N matrices within one 2^15-entry strip: one member above N = 181
    block = wf.dynamics._BLOCK_ELEMENTS
    for n in (1, 2, 8, 16, 100, 181):
        assert batch_members(n, 1) * n * n <= block < (batch_members(n, 1) + 1) * n * n, n
    assert batch_members(182, 1) == batch_members(4096, 1) == 1
    # and the members' recorded samples within 2^22 numbers
    row = 2 * 8 + len(wf.DiagnosticsRecord._fields)
    assert batch_members(8, 4001) * 4001 * row <= 1 << 22
    assert batch_members(8, 10**7) == 1
