import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wallflock as wf
from wallflock import FlockModel, FlockState, acceleration, diagnostics, initial_condition


def free_model(n, family="powerlaw", H=1.0, beta=0.25):
    # wall present but every test state stays outside its range
    return FlockModel(
        wf.CommunicationKernel(family, H, beta),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
        n,
    )


def test_state_validation():
    s = FlockState(0.0, [1.0, 2.0], [0.5, -0.5])
    assert s.n == 2
    assert s.x.dtype == float
    with pytest.raises(ValueError):
        FlockState(0.0, [1.0, 2.0], [0.5])
    with pytest.raises(ValueError):
        FlockState(-1.0, [1.0], [0.0])
    with pytest.raises(ValueError):
        FlockState(0.0, [np.nan], [0.0])
    with pytest.raises(ValueError):
        FlockState(0.0, [[1.0, 2.0]], [[0.5, 0.5]])


def test_model_validation():
    with pytest.raises(ValueError):
        free_model(0)
    free_model(1)


def test_two_agent_acceleration_by_hand():
    m = free_model(2)
    x = np.array([2.0, 3.0])
    v = np.array([0.5, 1.0])
    w = float(m.kernel.eval(1.0))
    acc = acceleration(m, x, v)
    # each agent relaxes toward the other at half the kernel weight
    assert abs(acc[0] - 0.5 * w * 0.5) < 1e-15
    assert abs(acc[1] + 0.5 * w * 0.5) < 1e-15


def test_single_agent_feels_only_the_wall():
    m = free_model(1)
    acc = acceleration(m, np.array([0.5]), np.array([0.0]))
    assert abs(acc[0] - float(m.wall.force(0.5))) < 1e-15
    acc_out = acceleration(m, np.array([2.0]), np.array([3.0]))
    assert acc_out[0] == 0.0


def test_alignment_term_conserves_momentum():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        m = free_model(n, beta=float(rng.uniform(0.0, 1.5)))
        x = rng.uniform(2.0, 9.0, n)  # outside wall range, force free
        v = rng.uniform(-2.0, 2.0, n)
        acc = acceleration(m, x, v)
        assert abs(acc.sum()) < 1e-13 * max(1.0, np.abs(acc).sum())


def test_acceleration_contracts_velocity_spread():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        m = free_model(n)
        x = rng.uniform(2.0, 6.0, n)
        v = rng.uniform(-1.0, 1.0, n)
        acc = acceleration(m, x, v)
        # extreme agents accelerate toward the pack
        assert acc[np.argmax(v)] <= 1e-15
        assert acc[np.argmin(v)] >= -1e-15


def test_momentum_and_mean_force():
    m = free_model(2)
    s = FlockState(0.0, [0.5, 4.0], [1.0, 3.0])
    rec = diagnostics(m, s, G=0.0)
    assert rec.p == 2.0
    assert abs(rec.F_mean - 0.5 * float(m.wall.force(0.5))) < 1e-15


def test_initial_condition_reproducible_and_sorted():
    a = initial_condition(16, 0.5, 3.0, -0.5, 1.0, 42)
    b = initial_condition(16, 0.5, 3.0, -0.5, 1.0, 42)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.v, b.v)
    assert np.all(np.diff(a.x) >= 0.0)
    c = initial_condition(16, 0.5, 3.0, -0.5, 1.0, 43)
    assert not np.array_equal(a.x, c.x)


def test_initial_condition_respects_box():
    rng = np.random.default_rng(13)
    for _ in range(30):
        lo, hi = sorted(rng.uniform(0.2, 8.0, 2))
        vlo, vhi = sorted(rng.uniform(-2.0, 2.0, 2))
        seed = int(rng.integers(0, 2**63))
        n = int(rng.integers(1, 33))
        s = initial_condition(n, lo, hi, vlo, vhi, seed)
        assert s.n == n
        assert s.t == 0.0
        assert np.all((s.x >= lo) & (s.x <= hi))
        assert np.all((s.v >= vlo) & (s.v <= vhi))


def test_initial_condition_rejects_negative_seed():
    with pytest.raises(ValueError):
        initial_condition(4, 0.5, 3.0, -0.5, 1.0, -1)


@st.composite
def flock_states(draw, x_min):
    """(x, v, permutation) for 1 to 40 agents with positions at or above x_min."""
    n = draw(st.integers(1, 40))
    coords = st.lists(st.floats(x_min, 12.0), min_size=n, max_size=n)
    speeds = st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)
    perm = draw(st.permutations(range(n)))
    return np.array(draw(coords)), np.array(draw(speeds)), np.array(perm)


@settings(max_examples=60, deadline=None)
@given(flock_states(x_min=0.05), st.floats(0.0, 2.0), st.sampled_from([0.0, 1.0]))
def test_acceleration_is_permutation_equivariant(state, beta, theta):
    x, v, perm = state
    m = FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, beta),
        wf.WallPotential(1.0, theta),
        wf.Geometry("halfline"),
        x.size,
    )
    acc = acceleration(m, x, v)
    # permuting the agents reorders each kernel sum, so agreement is to rounding
    np.testing.assert_allclose(
        acceleration(m, x[perm], v[perm]), acc[perm], rtol=1e-12, atol=1e-12 * np.abs(v).max()
    )


@settings(max_examples=60, deadline=None)
@given(flock_states(x_min=-12.0), st.floats(0.0, 2.0))
def test_interaction_has_zero_net_momentum(state, beta):
    x, v, _ = state
    m = FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, beta),
        wf.WallPotential(1.0, 0.0),  # a disabled wall leaves the interaction alone
        wf.Geometry("halfline"),
        x.size,
    )
    assert abs(acceleration(m, x, v).sum()) <= 1e-12 * x.size * np.abs(v).max()


def test_layer_calls_timed_by_the_benchmark():
    # perfbench/micro.py times these calls by name and signature; one that
    # raised TypeError or AttributeError would leave its metric silently absent
    from wallflock import dynamics, observables, potentials

    cfg = wf.parse_config("")  # the defaults: N = 16 on the half-line
    m, s = wf.model_from_config(cfg), wf.initial_state_from_config(cfg)
    assert s.n == 16
    assert cfg.kernel.eval(s.x[:, None] - s.x[None, :]).shape == (16, 16)
    assert dynamics.acceleration(m, s.x, s.v).shape == (16,)
    assert potentials.geometry_force(m.geometry, m.wall, s.x).shape == (16,)
    G = observables.initial_energy(m, s)
    assert observables.diagnostics(m, s, G).G == G
