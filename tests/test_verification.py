import inspect
import json
import math
import re
import tempfile
import tracemalloc
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wallflock as wf
from wallflock import (
    Claim,
    TheoremReport,
    Trajectory,
    integrate,
    verify,
)
from wallflock import dynamics, verification
from wallflock.observables import DiagnosticsRecord, diagnostics, initial_energy
from wallflock.verification import (
    FitResult,
    _cumulative_simpson,
    _cumulative_trapezoid,
    _report,
    _RunStats,
    _tail_share,
    _work_of_force,
    fit_exponential,
)


def make_record(t, **values):
    """A DiagnosticsRecord at t: the given fields, D = x_min_wall = 1 and 0 elsewhere."""
    row = dict.fromkeys(DiagnosticsRecord._fields, 0.0)
    return DiagnosticsRecord(**{**row, "D": 1.0, "x_min_wall": 1.0, **values, "t": t})


def synthetic_traj(times, xs, **series):
    """Trajectory with prescribed agent positions and record series (A=..., K=...,
    one value per sample or one for all); x_min_wall is each sample's lowest x."""
    times = np.asarray(times, dtype=float)
    X = np.array(xs, dtype=float)
    columns = {
        name: np.broadcast_to(np.asarray(values, dtype=float), times.shape)
        for name, values in series.items()
    }
    records = [
        make_record(
            t,
            x_min_wall=float(np.min(X[k])),
            **{name: float(column[k]) for name, column in columns.items()},
        )
        for k, t in enumerate(times)
    ]
    records = np.rec.fromrecords(records, names=DiagnosticsRecord._fields)
    return Trajectory(times, X, np.zeros_like(X), records)


_HALF = wf.Geometry("halfline")
_BOX = wf.Geometry("interval", 0.0, 10.0)


def _two_agents(geometry=_HALF):
    kernel, wall = wf.CommunicationKernel("powerlaw", 1.0, 0.0), wf.WallPotential(1.0, 1.0)
    return wf.FlockModel(kernel, wall, geometry)


def test_readme_verdict_bars_are_the_constants():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("The verdict bars are fixed values", 1)[1].split("\n\n", 1)[0]
    name = r"`([A-Z]+(?:_[A-Z]+)+)`"
    named = set(re.findall(name, paragraph))
    given = dict(re.findall(name + r" `([^`]+)`", paragraph))
    bars = {
        key: value for key, value in vars(verification).items()
        if key.isupper() and not key.startswith("_") and type(value) in (int, float)
    }
    assert named == set(bars)
    assert {key: float(value) for key, value in given.items()} == bars


def test_no_collision_uses_infimum():
    times = np.arange(4.0)
    xs = [[2.0, 3.0], [1.0, 2.0], [0.4, 1.0], [1.5, 2.0]]
    report = _report(_two_agents(), synthetic_traj(times, xs))
    ok, dist = report.claim("no_wall_collision").passed, report.min_wall_distance
    assert ok and dist == 0.4
    xs[2] = [-0.1, 1.0]
    report = _report(_two_agents(), synthetic_traj(times, xs))
    ok, dist = report.claim("no_wall_collision").passed, report.min_wall_distance
    assert not ok and dist == -0.1


def test_alignment_tail_guard():
    times = np.linspace(0.0, 100.0, 201)
    xs = [[1.0, 2.0]] * 201

    def aligned(A):
        report = _report(_two_agents(), synthetic_traj(times, xs, A=A))
        return report.claim("velocity_alignment").passed

    A = np.full(201, 1e-4)
    assert aligned(A)
    # lucky dip at the last sample must not pass while the tail is large
    A_bad = np.full(201, 0.5)
    A_bad[-1] = 1e-4
    assert not aligned(A_bad)
    # the tail may peak below 2 ALIGN_EPS, not above
    for peak, passes in ((3.0, False), (1.5, True)):
        A_peak = np.full(201, 1e-4)
        A_peak[180] = peak * verification.ALIGN_EPS  # t = 90, inside the tail window
        assert aligned(A_peak) == passes


def test_fit_recovers_synthetic_rate():
    times = np.linspace(0.0, 40.0, 401)
    A = 3.0 * np.exp(-0.2 * times)  # stays well above the round-off floor
    traj = synthetic_traj(times, [[1.0, 2.0]] * 401, A=A)
    fit = fit_exponential(traj)
    assert fit is not None
    assert abs(fit.delta - 0.2) < 1e-9
    assert fit.r_squared > 1.0 - 1e-12
    assert abs(fit.C - 3.0) < 1e-6
    assert fit.window[0] >= 30.0 - 1e-9


def test_fit_skips_roundoff_floor():
    times = np.linspace(0.0, 40.0, 401)
    A = 1.0 * np.exp(-2.0 * times)
    floor = 50.0 * np.finfo(float).eps  # below the 100 eps mask cutoff
    A_obs = np.maximum(A, floor)  # a saturated tail would bias the slope
    traj = synthetic_traj(times, [[1.0, 2.0]] * 401, A=A_obs)
    fit = fit_exponential(traj, window_start=0.0)
    assert fit is not None
    assert abs(fit.delta - 2.0) < 1e-6
    # A from 1e5 down to 1e3 eps lies above the floor: every sample enters the fit
    rate = np.log(100.0) / 40.0
    A_low = 1e5 * np.finfo(float).eps * np.exp(-rate * times)
    fit = fit_exponential(synthetic_traj(times, [[1.0, 2.0]] * 401, A=A_low), window_start=0.0)
    assert fit is not None and fit.window == (0.0, 40.0)
    assert abs(fit.delta - rate) < 1e-9


def test_fit_requires_enough_points():
    times = np.linspace(0.0, 10.0, 101)
    A = np.full(101, 1e-18)  # all below the floor
    traj = synthetic_traj(times, [[1.0, 2.0]] * 101, A=A)
    assert fit_exponential(traj) is None


def _tail(times, A):
    """A Trajectory of one agent whose records carry t and A only (the fit reads A)."""
    n, names = len(times), DiagnosticsRecord._fields
    records = np.rec.fromarrays([np.zeros(n)] * len(names), names=names)
    records.t[:], records.A[:] = times, A
    return Trajectory(times, np.zeros((n, 1)), np.zeros((n, 1)), records)


def test_fit_agrees_with_polyfit():
    # np.polyfit's SVD least squares is the oracle. Each window spans `span`
    # and starts at up to 3 spans (a tail quarter starts at 3), and log A
    # moves by 1 to 25 along it, so both solutions are well conditioned
    rng = np.random.default_rng(36)
    for _ in range(60):
        n = int(rng.integers(10, 4001))
        span = 10.0 ** rng.uniform(0.0, 2.5)
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 25.0) / span
        t0 = rng.uniform(0.0, 3.0) * span
        times = np.linspace(t0, t0 + span, n)
        noise = rng.choice([0.0, 1e-8, 1e-3, 0.3])
        A = np.exp(rng.uniform(-3.0, 3.0) + slope * (times - t0) + noise * rng.standard_normal(n))
        fit = fit_exponential(_tail(times, A), window_start=t0)
        la = np.log(A)
        s, c = np.polyfit(times, la, 1)
        r2 = 1.0 - np.sum((la - (s * times + c)) ** 2) / np.sum((la - np.mean(la)) ** 2)
        assert fit.window == (t0, times[-1])
        assert fit.delta == pytest.approx(-s, rel=1e-12, abs=0.0)
        assert fit.C == pytest.approx(np.exp(c), rel=1e-12, abs=0.0)
        assert fit.r_squared == pytest.approx(r2, rel=0.0, abs=1e-12)


def test_verify_fits_the_rate_without_lapack(monkeypatch):
    # no run reaches np.polyfit or numpy.linalg: the half-line fit is closed form
    def refuse(*args, **kwargs):
        raise AssertionError("np.polyfit or numpy.linalg called")

    monkeypatch.setattr(np, "polyfit", refuse)
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):  # LinAlgError stays
            monkeypatch.setattr(np.linalg, name, refuse)
    text = (Path(__file__).resolve().parents[1] / "configs" / "halfline.yaml").read_text()
    cfg = wf.parse_config(text, {"integrator.t_end": 30.0})
    m, s0 = wf.model_from_config(cfg), wf.initial_state_from_config(cfg)
    report = verify(m, s0, t_end=cfg.t_end, sample_every=cfg.sample_every)
    assert report.fit is not None and report.fit.delta > 0.0
    assert report.claim("exponential_rate").passed


def test_detect_escape():
    # the escape time is the first sample from which every agent stays at distance >= ell = 1
    times = np.arange(5.0)

    def escape_time(xs):
        return _report(_two_agents(), synthetic_traj(times, xs)).escape_time

    xs = [[0.5, 2.0], [0.8, 2.0], [1.2, 2.0], [1.5, 2.0], [1.7, 2.0]]
    assert escape_time(xs) == 2.0
    xs_in = [[0.5, 2.0]] * 5
    assert escape_time(xs_in) is None
    xs_out = [[1.5, 2.0]] * 5
    assert escape_time(xs_out) == 0.0


def test_settlement_parked_flock_passes():
    times = np.linspace(0.0, 100.0, 101)
    xs = [[1.2 + 0.001 * math.sin(t), 1.5] for t in times]
    report = _report(_two_agents(), synthetic_traj(times, xs))
    settle = report.claim("positions_settle")
    assert settle.passed
    assert settle.applicable  # not in drift mode
    assert np.min(report.settled_positions) > 1.1
    assert settle.value < 0.003  # the largest tail-window variation


def test_settlement_rejects_wandering_or_inside():
    times = np.linspace(0.0, 100.0, 101)

    def settles(xs):
        return _report(_two_agents(), synthetic_traj(times, xs)).claim("positions_settle").passed

    xs_wander = [[1.2 + 0.02 * math.sin(0.3 * t), 1.5] for t in times]
    assert not settles(xs_wander)
    xs_inside = [[0.5, 1.5]] * 101
    assert not settles(xs_inside)


def test_settlement_flags_drift():
    times = np.linspace(0.0, 100.0, 101)
    xs = [[2.0 + 0.05 * t, 3.0 + 0.05 * t] for t in times]
    p = np.full(101, 0.05)
    report = _report(_two_agents(), synthetic_traj(times, xs, p=p))
    settle = report.claim("positions_settle")
    assert not settle.applicable  # drift mode
    assert not settle.passed  # absolute settlement fails even though the shape is rigid
    assert report.claim("strong_flocking").value < 1e-12


@pytest.mark.parametrize("window, n", [(2, 1024), (50, 200), (301, 16), (7, 1), (40, 1024)])
def test_settlement_blocks_bitwise_equal_direct_form(window, n, monkeypatch):
    rng = np.random.default_rng(window + n)
    times = np.arange(4 * window) * 0.1
    xs = rng.uniform(1.0, 50.0, (times.size, n))
    traj = synthetic_traj(times, xs)
    X = xs[verification._tail_start_index(times) :]
    # the direct form, every gap x_i - x_j, one row i at a time
    peak = 0.0
    for i in range(n):
        diffs = X[:, i, None] - X
        peak = max(peak, float(np.max(diffs.max(axis=0) - diffs.min(axis=0))))
    # the default strips (several rows each up to (301, 16), one row at
    # (40, 1024)), then strips of 3 rows and of 1 row (one strip at N=1), each
    # against the columns from its first row on
    for block in (dynamics._BLOCK_ELEMENTS, 3 * X.size, 1):
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", block)
        got = _RunStats(_two_agents(), traj).pair_variation
        assert np.float64(got).view(np.int64) == np.float64(peak).view(np.int64)


def test_settlement_memory_is_one_strip():
    # the gaps come in the kernel sums' strips of at most 2^15 entries, or one
    # row's window x N; a block of 2^22 gaps held 67 MB at (2, 4096)
    for window, n in ((2, 4096), (13, 1024)):
        rng = np.random.default_rng(window + n)
        times = np.arange(4 * window) * 0.1
        traj = synthetic_traj(times, rng.uniform(1.0, 50.0, (times.size, n)))
        _RunStats(_two_agents(), traj).pair_variation
        stats = _RunStats(_two_agents(), traj)
        tracemalloc.start()
        try:
            stats.pair_variation
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, (window, n)


def test_cumulative_quadrature_rules():
    h = 0.01
    t = np.arange(0.0, 2.0 + h / 2, h)
    y = np.sin(3.0 * t)
    exact = (1.0 - np.cos(3.0 * t)) / 3.0
    simp = _cumulative_simpson(y, h)
    trap = _cumulative_trapezoid(y, t)
    assert np.max(np.abs(simp - exact)) < 1e-7
    assert np.max(np.abs(trap - exact)) < 1e-3
    # simpson must beat trapezoid by orders of magnitude on smooth data
    assert np.max(np.abs(simp - exact)) < 1e-3 * np.max(np.abs(trap - exact))


def _cumulative_simpson_loop(y, h):
    """The cumulative Simpson rule one prefix at a time: the bitwise oracle."""
    n = y.size
    out = np.zeros(n)
    if n > 1:
        out[1] = 0.5 * h * (y[0] + y[1])
    for k in range(2, n):
        if k % 2 == 0:
            out[k] = out[k - 2] + h * (y[k - 2] + 4.0 * y[k - 1] + y[k]) / 3.0
        else:
            out[k] = out[k - 3] + 3.0 * h * (y[k - 3] + 3.0 * y[k - 2] + 3.0 * y[k - 1] + y[k]) / 8.0
    return out


@pytest.mark.parametrize("n", [*range(10), 101, 4001])
def test_cumulative_simpson_bitwise_equal_loop(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        # magnitudes over 20 decades and both signs, so that rounding differs
        # between summation orders
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-10, 10, n)
        h = rng.uniform(1e-3, 1.0)
        got, want = _cumulative_simpson(y, h), _cumulative_simpson_loop(y, h)
        assert got.shape == want.shape == (n,)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_momentum_identity_with_a_short_last_sample_interval():
    # t_end 50.05 ends the 0.1 grid with one 0.05 interval; the impulse up to
    # t = 50 must still be integrated with Simpson's rule, not a trapezoid
    text = (Path(__file__).resolve().parents[1] / "configs" / "interval.yaml").read_text()
    cfg = wf.parse_config(text)
    m, s0 = wf.model_from_config(cfg), wf.initial_state_from_config(cfg)
    claims = {
        t_end: verify(m, s0, t_end=t_end, sample_every=cfg.sample_every).claim(
            "momentum_force_identity"
        )
        for t_end in (50.0, 50.05)
    }
    assert claims[50.05].passed
    assert claims[50.05].value == pytest.approx(claims[50.0].value, rel=1e-3)


def test_momentum_identity_closes_a_short_last_interval_with_a_trapezoid():
    # F_mean is 0 but at the last sample, 0.05 after the 0.1 grid's end: the
    # impulse gains 0.5 (F_mean[-2] + F_mean[-1]) * 0.05 there, and p with it
    times = np.append(np.linspace(0.0, 1.0, 11), 1.05)
    F_mean, p = np.zeros(12), np.zeros(12)
    F_mean[-1], p[-1] = 1.0, 0.5 * (times[-1] - times[-2])
    traj = synthetic_traj(times, [[4.0, 5.0]] * 12, G=0.5, F_mean=F_mean, p=p)
    claim = _report(_two_agents(wf.Geometry("interval", 0.0, 10.0)), traj).claim(
        "momentum_force_identity"
    )
    assert claim.passed and claim.value == 0.0


def test_interval_decay_requires_interval_geometry(interval_fixture):
    m, s0, traj = interval_fixture
    s = _RunStats(m, traj)
    # the statistics the kinetic_decay and force_decay claims read
    assert s.K[-1] < verification.ALIGN_EPS**2
    assert _tail_share(s.K, s.times, s.kinetic_integral) <= 0.10
    assert s.F_max[-1] < verification.ALIGN_EPS
    assert _tail_share(s.F_sq, s.times, s.force_sq_integral) <= 0.10
    # a half-line report of the same run carries neither claim
    m_half = wf.FlockModel(m.kernel, m.wall, wf.Geometry("halfline"))
    names = {c.name for c in _report(m_half, traj).claims}
    assert not names & {"kinetic_decay", "force_decay"}


def test_work_of_force_envelope(interval_fixture):
    m, s0, traj = interval_fixture
    claim = _report(m, traj).claim("work_of_force_bounded")
    ok, w_peak, envelope = claim.passed, claim.value, claim.threshold
    assert ok
    assert 0.0 <= w_peak <= envelope
    # the envelope sqrt(2K) N F_max is 2 at K = 0.5, N = 2, F_max = 1: |W| may
    # reach it, not exceed it by half
    times = np.linspace(0.0, 1.0, 11)
    for W, within in ((2.0, True), (-3.0, False)):
        traj = synthetic_traj(times, [[4.0, 5.0]] * 11, K=0.5, F_max=1.0, W=W)
        claim = _report(_two_agents(_BOX), traj).claim("work_of_force_bounded")
        assert (claim.passed, claim.value, claim.threshold) == (within, abs(W), 2.0)


@st.composite
def _finite_states(draw):
    """(model, state) with 1 to 12 agents anywhere inside the open domain."""
    theta = draw(st.sampled_from([0.0, 1.0, 1e20]))
    if draw(st.booleans()):
        geometry, lo, hi = wf.Geometry("halfline"), 1e-3, 1e3
    else:
        geometry, lo, hi = wf.Geometry("interval", 0.0, 10.0), 1e-3, 10.0 - 1e-3
    n = draw(st.integers(1, 12))
    x = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    v = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    kernel = wf.CommunicationKernel("powerlaw", 1.0, 0.25)
    return wf.FlockModel(kernel, wf.WallPotential(1.0, theta), geometry), wf.FlockState(0.0, x, v)


@settings(max_examples=200, deadline=None)
@given(_finite_states())
def test_work_of_force_holds_for_any_state(case):
    # |W| = |v . F| <= |v| sqrt(N) F_max = sqrt(2K) N F_max by Cauchy-Schwarz:
    # the claim holds for the records of any state, whatever the dynamics
    m, s = case
    record = diagnostics(m, s, initial_energy(m, s))
    records = np.rec.fromrecords([record], names=DiagnosticsRecord._fields)
    assert _work_of_force(_RunStats(m, Trajectory([s.t], s.x[None], s.v[None], records)))[0]


_T = np.linspace(0.0, 1.0, 11)
_SPEED = math.sqrt(2.0)  # the speed bound sqrt(2 N G) at N = 2, G = 0.5


@pytest.mark.parametrize(
    "claim, series, passed",
    [
        # E may rise by 1e-9 max(1, |E(0)|) between samples
        ("energy_nonincreasing", {"E": 1.0 + 2e-9 * (_T > 0.5)}, False),
        ("energy_nonincreasing", {"E": 1.0 + 0.5e-9 * (_T > 0.5)}, True),
        # no |v| exceeds sqrt(2 N G)
        ("velocity_bound", {"v_max": 1.005 * _SPEED * (_T > 0.5)}, False),
        ("velocity_bound", {"v_min": -_SPEED * (_T > 0.5)}, True),
        # the diameter grows at most twice as fast as the speed bound
        ("diameter_growth", {"D": 1.0 + 2.5 * _SPEED * _T}, False),
        ("diameter_growth", {"D": 1.0 + 2.0 * _SPEED * _T}, True),
    ],
)
def test_budget_bars(claim, series, passed):
    traj = synthetic_traj(_T, [[4.0, 5.0]] * len(_T), G=0.5, **series)
    report = _report(_two_agents(wf.Geometry("halfline")), traj)
    assert {c.name: c.passed for c in report.claims}[claim] == passed


@pytest.mark.parametrize("wobble, passed", [(0.2, True), (0.7, False)])
def test_exponential_rate_needs_r_squared_above_its_bar(wobble, passed):
    # log A wobbles about a line of slope -0.2; the flock is outside the wall
    # range from t = 0, so the fit reads the whole run
    times = np.linspace(0.0, 40.0, 401)
    A = np.exp(-0.2 * times + wobble * np.sin(3.0 * times))
    traj = synthetic_traj(times, [[2.0, 3.0]] * 401, A=A, p=1.0)
    report = _report(_two_agents(wf.Geometry("halfline")), traj)
    assert report.fit.r_squared > 0.9 and (report.fit.r_squared > 0.99) == passed
    assert report.claim("exponential_rate").passed == passed


@pytest.mark.parametrize("rate, passed", [(0.125, True), (0.1, False)])
def test_decay_tail_share_bars(rate, passed):
    # K and F_sq decay as exp(-rate t) on [0, 40] and stay below both final
    # bars; the second half holds 1 / (1 + exp(20 rate)) of their integrals,
    # 0.076 at rate 0.125 and 0.119 at rate 0.1, against the 0.10 bar
    times = np.linspace(0.0, 40.0, 401)
    decay = 1e-6 * np.exp(-rate * times)
    traj = synthetic_traj(times, [[4.0, 5.0]] * 401, K=decay, F_sq=decay)
    box = _two_agents(wf.Geometry("interval", 0.0, 10.0))
    s = _RunStats(box, traj)
    share = _tail_share(s.K, s.times, s.kinetic_integral)
    assert share == pytest.approx(1.0 / (1.0 + math.exp(20.0 * rate)), rel=1e-2)
    report = _report(box, traj)
    assert report.claim("kinetic_decay").passed == passed
    assert report.claim("force_decay").passed == passed


_T40 = np.linspace(0.0, 40.0, 401)
# agent 1 moves 1.5 SETTLE_EPS during the tail window (t >= 0.75) of _T
_TAIL_STEP = [[4.0, 5.0 + 1.5 * verification.SETTLE_EPS * (t > 0.85)] for t in _T]


# the tail window of _T is its last three samples, t >= 0.8
_IN_TAIL = (_T > 0.75) & (_T < 0.95)
# per case, a synthetic run (geometry, times, positions, record series) just
# past the bar of the claim the case is named after
_VIOLATIONS = {
    # an agent reaches the wall exactly: the distance infimum 0.0 is a collision
    "no_wall_collision": (_HALF, _T, [[4.0, 5.0]] * 5 + [[0.0, 5.0]] + [[4.0, 5.0]] * 5, {}),
    # A sits at ALIGN_EPS at the end, inside the tail guard's 2 ALIGN_EPS
    "velocity_alignment": (_HALF, _T, [[4.0, 5.0]] * 11, {"A": verification.ALIGN_EPS}),
    # A ends at 0, after a tail sample at the guard's 2 ALIGN_EPS
    "velocity_alignment-tail_guard": (
        _HALF, _T, [[4.0, 5.0]] * 11, {"A": 2.0 * verification.ALIGN_EPS * _IN_TAIL}
    ),
    # A grows as exp(0.2 t) with p(0) > 0: a clean fit (R^2 = 1) of negative delta
    "exponential_rate": (_HALF, _T40, [[2.0, 3.0]] * 401, {"A": np.exp(0.2 * _T40), "p": 1.0}),
    # no escape, and the tail mean sits 2 SETTLE_EPS inside the wall range (ell = 1)
    "outside_wall_range": (_HALF, _T, [[1.0 - 2.0 * verification.SETTLE_EPS, 5.0]] * 11, {}),
    "positions_settle": (_HALF, _T, _TAIL_STEP, {}),
    "strong_flocking": (_HALF, _T, _TAIL_STEP, {}),
    # E rises by 2e-9 against the 1e-9 max(1, |E(0)|) slack
    "energy_nonincreasing": (_HALF, _T, [[4.0, 5.0]] * 11, {"E": 1.0 + 2e-9 * (_T > 0.5)}),
    # v_max runs 0.5 % over the speed bound sqrt(2 N G)
    "velocity_bound": (_HALF, _T, [[4.0, 5.0]] * 11, {"v_max": 1.005 * _SPEED * (_T > 0.5)}),
    # D runs 1e-6 over its budget D(0) + 2 sqrt(2 N G) t + 1e-9 after t = 0.5
    "diameter_growth": (
        _HALF, _T, [[4.0, 5.0]] * 11, {"D": 1.0 + 2.0 * _SPEED * _T + 1e-6 * (_T > 0.5)}
    ),
    # with F_max = 0, L may rise by BUDGET_TOL max(1, |L(0)|) and rises 1 % more
    "lyapunov_budget": (
        _HALF, _T, [[4.0, 5.0]] * 11, {"L": 1.01 * verification.BUDGET_TOL * (_T > 0.5)}
    ),
    # with F_mean = 0, p moves by 2e-4 against the 1e-4 max(1, |p(0)| + 1) slack
    "momentum_force_identity": (_HALF, _T, [[4.0, 5.0]] * 11, {"p": 2e-4 * (_T > 0.5)}),
    # p drops by 2e-9 against the 1e-9 slack
    "momentum_nondecreasing": (_HALF, _T, [[4.0, 5.0]] * 11, {"p": -2e-9 * (_T > 0.5)}),
    # K decays to ALIGN_EPS^2 at the end, a tail share of 1 / (1 + exp(10))
    "kinetic_decay": (
        _BOX, _T, [[4.0, 5.0]] * 11, {"K": verification.ALIGN_EPS**2 * np.exp(20.0 * (1.0 - _T))}
    ),
    # F_max decays to ALIGN_EPS at the end, F_sq = F_max^2 with it
    "force_decay": (
        _BOX, _T, [[4.0, 5.0]] * 11,
        {
            "F_max": verification.ALIGN_EPS * np.exp(10.0 * (1.0 - _T)),
            "F_sq": verification.ALIGN_EPS**2 * np.exp(20.0 * (1.0 - _T)),
        },
    ),
    # the envelope sqrt(2K) N F_max is 2 at K = 0.5, N = 2, F_max = 1; |W| runs 1e-9 past it
    "work_of_force_bounded": (
        _BOX, _T, [[4.0, 5.0]] * 11, {"K": 0.5, "F_max": 1.0, "W": 2.0 + 1e-9}
    ),
}


@pytest.mark.parametrize("case", list(_VIOLATIONS))
def test_report_carries_each_claim_verdict(case):
    # the claim's own verdict in a whole report, not only its helper's return value
    claim = case.partition("-")[0]
    geometry, times, xs, series = _VIOLATIONS[case]
    traj = synthetic_traj(times, xs, G=0.5, **series)
    report = _report(_two_agents(geometry), traj)
    verdict = report.claim(claim)
    assert verdict.applicable and not verdict.passed
    assert not report.passed
    if claim == "exponential_rate":
        assert report.fit.r_squared > 0.99 and report.fit.delta < 0.0
    if claim == "outside_wall_range":
        assert report.escape_time is None
    if case == "velocity_alignment":
        assert verdict.value == verification.ALIGN_EPS
    if case == "velocity_alignment-tail_guard":
        assert verdict.value == 0.0


# per case, a synthetic run (geometry, times, positions, record series) and the
# applicable flag and detail that the claim the case is named after reports
_BRANCHES = {
    # A decays cleanly but p(0) = 0: the fit exists and the rate does not apply
    "exponential_rate-no_momentum": (
        _HALF, _T40, [[2.0, 3.0]] * 401, {"A": np.exp(-0.2 * _T40)}, False, ""
    ),
    # p(0) > 0 and A above the floor, but agent 0 never leaves the wall range, so
    # the fit reads the tail window: 3 of _T's samples, below FIT_MIN_POINTS
    "exponential_rate-short_window": (
        _HALF, _T, [[0.5, 3.0]] * 11, {"A": 1.0, "p": 1.0}, True, "fit unavailable"
    ),
    # agent 0 leaves the wall range (ell = 1) at t = 0.5 and stays out
    "outside_wall_range-escape": (
        _HALF, _T, [[0.5, 5.0]] * 5 + [[2.0, 5.0]] * 6, {}, True, "escape time"
    ),
    # agent 0 ends inside the wall range, so there is no escape time
    "outside_wall_range-no_escape": (
        _HALF, _T, [[0.995, 5.0]] * 11, {}, True, "tail-window mean position"
    ),
    # p = 0.05 >= SETTLE_EPS: the flock drifts, and absolute settlement does not apply
    "positions_settle-drift": (
        _HALF, _T, [[4.0, 5.0]] * 11, {"p": 0.05}, False,
        "drift mode: flock translates at its aligned velocity",
    ),
}


@pytest.mark.parametrize("case", list(_BRANCHES))
def test_report_carries_each_claim_applicability_and_detail(case):
    claim = case.partition("-")[0]
    geometry, times, xs, series, applicable, detail = _BRANCHES[case]
    traj = synthetic_traj(times, xs, G=0.5, **series)
    verdict = _report(_two_agents(geometry), traj).claim(claim)
    assert (verdict.applicable, verdict.detail) == (applicable, detail)
    if case == "outside_wall_range-escape":
        assert verdict.passed and verdict.value == 0.5
    if case == "outside_wall_range-no_escape":
        assert verdict.passed and verdict.value == pytest.approx(0.995)


def test_verify_halfline_report_shape(canonical_model, canonical_state):
    rep = verify(canonical_model, canonical_state, t_end=30.0, sample_every=0.1)
    names = [c.name for c in rep.claims]
    assert names[0] == "integration_completed"
    assert "no_wall_collision" in names
    assert "momentum_nondecreasing" in names
    assert rep.claim("velocity_alignment").passed
    with pytest.raises(KeyError):
        rep.claim("nonexistent")
    # drift regime: absolute settlement is reported but not applicable
    settle = rep.claim("positions_settle")
    assert not settle.applicable
    assert rep.passed


def test_verify_interval_has_no_momentum_monotonicity(interval_fixture):
    m, s0, traj = interval_fixture
    rep = verify(m, s0, t_end=30.0, sample_every=0.1)
    names = [c.name for c in rep.claims]
    assert "momentum_nondecreasing" not in names
    assert "kinetic_decay" in names and "force_decay" in names


HEAD_CLAIMS = ["integration_completed", "no_wall_collision", "velocity_alignment"]
BUDGET_CLAIMS = [
    "energy_nonincreasing",
    "velocity_bound",
    "diameter_growth",
    "lyapunov_budget",
    "momentum_force_identity",
]


def test_verify_claim_names_in_order():
    kernel, wall = wf.CommunicationKernel("powerlaw", 1.0, 0.0), wf.WallPotential(1.0, 1.0)
    s = wf.FlockState(0.0, [2.0, 3.0, 4.0], [0.1, 0.5, 0.9])
    half = verify(wf.FlockModel(kernel, wall, wf.Geometry("halfline")), s, t_end=2.0)
    assert [c.name for c in half.claims] == (
        HEAD_CLAIMS
        + ["strong_flocking", "positions_settle", "outside_wall_range", "exponential_rate"]
        + BUDGET_CLAIMS
        + ["momentum_nondecreasing"]
    )
    box = wf.FlockModel(kernel, wall, wf.Geometry("interval", 0.0, 6.0))
    inter = verify(box, s, t_end=2.0)
    assert [c.name for c in inter.claims] == (
        HEAD_CLAIMS + ["kinetic_decay", "force_decay", "work_of_force_bounded"] + BUDGET_CLAIMS
    )


def test_verify_reports_integration_failure_as_claim():
    # a wall of strength 1e20 with an agent 0.05 from it collapses the step size
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.0),
        wf.WallPotential(1.0, 1e20),
        wf.Geometry("halfline"),
    )
    s = wf.FlockState(0.0, [0.05, 6.0], [-2.0, 2.0])
    rep = verify(m, s, t_end=1.0)
    assert not rep.passed
    assert len(rep.claims) == 1
    claim = rep.claim("integration_completed")
    assert not claim.passed
    assert "StiffnessError" in claim.detail


def test_no_argument_moves_a_verdict_through_step_control():
    # one agent at seed 3 FAILs velocity_bound at the integrator's tolerances,
    # and no public function takes a tolerance that could turn it into a PASS
    cfg = wf.parse_config("ic: {n_agents: 1, seed: 3}\nintegrator: {t_end: 5}\n")
    m, s = wf.model_from_config(cfg), wf.initial_state_from_config(cfg)
    rep = verify(m, s, t_end=cfg.t_end, sample_every=cfg.sample_every)
    assert [c.name for c in rep.claims if c.applicable and not c.passed] == ["velocity_bound"]
    for run in (verify, integrate):
        assert list(inspect.signature(run).parameters) == ["m", "s0", "t_end", "sample_every"]


def test_report_json_round_trip(settle_fixture):
    m, s0, traj = settle_fixture
    rep = verify(m, s0, t_end=20.0, sample_every=0.1)
    text = rep.to_json()
    assert text == rep.to_json()  # deterministic
    data = json.loads(text)
    assert data["variant"] == "halfline"
    assert isinstance(data["claims"], list)
    assert set(data["claims"][0]) == {"name", "passed", "value", "threshold", "applicable", "detail"}
    assert text.endswith("\n")


_json_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 0.1]),
)


@st.composite
def _reports(draw):
    claims = [
        Claim(
            draw(st.text(max_size=8)),
            draw(st.booleans()),
            draw(_json_floats),
            draw(_json_floats),
            applicable=draw(st.booleans()),
            detail=draw(st.text(max_size=12)),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):  # the interval report: no arrays, no fit
        return TheoremReport("interval", claims, final_A=draw(_json_floats))
    n = draw(st.integers(1, 6))
    positions = np.array(draw(st.lists(_json_floats, min_size=n, max_size=n)), dtype=float)
    window = st.tuples(_json_floats, _json_floats)
    fit = draw(st.none() | st.builds(FitResult, _json_floats, _json_floats, _json_floats, window))
    return TheoremReport(
        "halfline",
        claims,
        min_wall_distance=draw(_json_floats),
        fit=fit,
        settled_positions=positions,
        escape_time=draw(st.none() | _json_floats),
    )


def _recovered(value, loaded) -> bool:
    """loaded is what json.loads gives back for value: floats by value and sign, NaN as NaN."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        same_keys = value.keys() == loaded.keys()
        return same_keys and all(_recovered(v, loaded[k]) for k, v in value.items())
    if isinstance(value, (list, tuple, np.ndarray)):
        return len(value) == len(loaded) and all(map(_recovered, value, loaded))
    if isinstance(value, float):
        if math.isnan(value):
            return math.isnan(loaded)
        return value == loaded and math.copysign(1.0, value) == math.copysign(1.0, loaded)
    return type(value) is type(loaded) and value == loaded


@given(_reports())
def test_any_report_round_trips_through_json(rep):
    data = json.loads(rep.to_json())
    assert rep.to_json() == json.dumps(data, indent=2, sort_keys=True) + "\n"
    expected = {name: getattr(rep, name) for name in rep.__dataclass_fields__}
    expected["passed"] = rep.passed
    assert _recovered(expected, data)
    with tempfile.TemporaryDirectory() as tmp:
        rep.write(tmp)
        assert (Path(tmp) / "report.json").read_text(encoding="utf-8") == rep.to_json()
