"""Shared scenario fixtures.

The long trajectories are session-scoped: every acceptance criterion and a
few module tests read from the same five runs instead of re-integrating.
"""

import numpy as np
import pytest

import wallflock as wf


def halfline_model(H=1.0, beta=0.25, ell=1.0, theta=1.0):
    return wf.FlockModel(
        wf.CommunicationKernel("powerlaw", H, beta),
        wf.WallPotential(ell, theta),
        wf.Geometry("halfline"),
    )


def interval_model(a=0.0, b=10.0):
    return wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("interval", a, b),
    )


@pytest.fixture(scope="session")
def dissipation_residual():
    """The function of a trajectory that gives central-difference dE/dt plus I2
    at its interior samples.

    The identity dE/dt = -I2 makes this a pure discretization residual; it
    shrinks at second order in the sample spacing.
    """

    def residual(traj):
        if len(traj.records) < 3:
            raise ValueError("need at least 3 samples for a central difference")
        t = np.asarray(traj.sample_times, dtype=float)
        E = traj.records.E
        I2 = traj.records.I2
        dEdt = (E[2:] - E[:-2]) / (t[2:] - t[:-2])
        return dEdt + I2[1:-1]

    return residual


@pytest.fixture(scope="session")
def canonical_model():
    return halfline_model()


@pytest.fixture(scope="session")
def canonical_state():
    # default box: x in [0.5, 3], v in [-0.5, 1], mean velocity comes out positive
    return wf.initial_condition(16, 0.5, 3.0, -0.5, 1.0, 42)


@pytest.fixture(scope="session")
def halfline_traj(canonical_model, canonical_state):
    return wf.integrate(canonical_model, canonical_state, 200.0, sample_every=0.05)


@pytest.fixture(scope="session")
def halfline_traj_halved(canonical_model, canonical_state):
    return wf.integrate(canonical_model, canonical_state, 200.0, sample_every=0.025)


@pytest.fixture(scope="session")
def interval_fixture():
    m = interval_model()
    s0 = wf.initial_condition(16, 1.0, 9.0, -1.0, 1.0, 7)
    traj = wf.integrate(m, s0, 400.0, sample_every=0.1)
    return m, s0, traj


@pytest.fixture(scope="session")
def settle_fixture():
    # inbound flock, mean velocity -0.042: slow enough that the wall bounce
    # is nearly dead and the flock parks just outside the reaction zone
    m = halfline_model(H=0.15)
    s0 = wf.initial_condition(16, 1.1, 5.0, -0.0462, -0.0378, 13)
    traj = wf.integrate(m, s0, 200.0, sample_every=0.1)
    return m, s0, traj


@pytest.fixture(scope="session")
def control_fixture():
    # theta=0 disables the wall; the same inbound geometry now crosses x=0
    m = halfline_model(theta=0.0)
    s0 = wf.initial_condition(16, 0.5, 3.0, -1.0, -0.5, 42)
    traj = wf.integrate(m, s0, 10.0, sample_every=0.1)
    return m, s0, traj


@pytest.fixture(scope="session")
def twoagent_fixture():
    # constant kernel, both agents outside the wall range and moving away
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.0),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
    )
    s0 = wf.FlockState(0.0, [2.0, 3.0], [0.5, 1.0])
    traj = wf.integrate(m, s0, 20.0, sample_every=0.1)
    return m, s0, traj


@pytest.fixture(scope="session")
def scenario_table(
    canonical_model,
    halfline_traj,
    interval_fixture,
    settle_fixture,
    control_fixture,
    twoagent_fixture,
):
    """(name, model, trajectory) rows for every-scenario sweeps."""
    return [
        ("halfline", canonical_model, halfline_traj),
        ("interval", interval_fixture[0], interval_fixture[2]),
        ("settle", settle_fixture[0], settle_fixture[2]),
        ("control", control_fixture[0], control_fixture[2]),
        ("twoagent", twoagent_fixture[0], twoagent_fixture[2]),
    ]
