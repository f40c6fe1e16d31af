import numpy as np
import pytest

import wallflock as wf
from wallflock import (
    FIELDS,
    diagnostics,
    dissipation_residual,
    initial_energy,
    read_diagnostics_csv,
    write_diagnostics_csv,
)
from wallflock.potentials import distance_potential

# frozen hand values for the N=2 reference state below (H=1, beta=0.5)
I2_REF = 0.1767766952966369  # phi(1)/4 = 1/(4 sqrt 2)
L_REF = 1.8813735870195432  # A + asinh(D) = 1 + asinh(1)


def two_agent_model(beta=0.5):
    return wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, beta),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
        2,
    )


def record_table(records):
    """The diagnostics table a trajectory carries, built from DiagnosticsRecords."""
    return np.rec.fromrecords(records, names=wf.DiagnosticsRecord._fields)


def reference_state():
    return wf.FlockState(0.0, [2.0, 3.0], [0.0, 1.0])


def test_fields_order_frozen():
    assert FIELDS == (
        "t", "K", "P", "E", "p", "A", "D", "I2", "L", "W",
        "F_max", "F_mean", "x_min_wall", "v_max", "v_min", "G",
    )


def test_reference_record_values():
    m = two_agent_model()
    s = reference_state()
    rec = diagnostics(m, s, G=initial_energy(m, s))
    assert rec.t == 0.0
    assert rec.K == 0.25  # (0 + 1) / (2 * 2)
    assert rec.P == 0.0  # both agents outside the wall range
    assert rec.E == 0.25
    assert rec.p == 0.5
    assert rec.A == 1.0
    assert rec.D == 1.0
    assert abs(rec.I2 - I2_REF) < 1e-16
    assert abs(rec.L - L_REF) < 1e-15
    assert rec.W == 0.0
    assert rec.F_max == 0.0
    assert rec.F_mean == 0.0
    assert rec.x_min_wall == 2.0
    assert rec.v_max == 1.0
    assert rec.v_min == 0.0
    assert rec.G == 0.25


def test_wall_work_sign():
    # agent moving into the wall: force positive, v negative, W = -v F > 0
    m = two_agent_model()
    s = wf.FlockState(0.0, [0.5, 2.0], [-1.0, 0.0])
    rec = diagnostics(m, s, G=initial_energy(m, s))
    assert rec.F_max == 1.25
    assert rec.W == 1.25
    assert rec.P == 0.0625  # U(0.5)/2


def test_diagnostics_against_hand_formulas():
    rng = np.random.default_rng(21)
    m3 = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
        3,
    )
    for _ in range(25):
        x = rng.uniform(0.3, 5.0, 3)
        v = rng.uniform(-1.0, 1.0, 3)
        s = wf.FlockState(0.0, x, v)
        rec = diagnostics(m3, s, G=1.0)
        assert abs(rec.K - (v @ v) / 6.0) < 1e-15
        assert abs(rec.p - v.mean()) < 1e-15
        assert abs(rec.A - (v.max() - v.min())) < 1e-15
        assert abs(rec.D - (x.max() - x.min())) < 1e-15
        i2 = 0.0
        for i in range(3):
            for j in range(3):
                i2 += float(m3.kernel.eval(x[i] - x[j])) * (v[i] - v[j]) ** 2
        assert abs(rec.I2 - i2 / 18.0) < 1e-15
        F = wf.geometry_force(m3.geometry, m3.wall, x)
        assert abs(rec.W + float(v @ F)) < 1e-13
        assert rec.x_min_wall == x.min()


def _direct_diagnostics(m, s, G):
    """diagnostics written out field by field with np.mean / np.max / np.min / np.sum."""
    x, v, n = s.x, s.v, s.n
    F = wf.geometry_force(m.geometry, m.wall, x)
    dv = v[:, None] - v[None, :]
    A = float(np.max(v)) - float(np.min(v))
    D = float(np.max(x) - np.min(x))
    K = float(v @ v) / (2.0 * n)
    P = float(np.mean(distance_potential(m.wall, wf.wall_distances(m.geometry, x))))
    return dict(
        t=s.t, K=K, P=P, E=K + P, p=float(np.mean(v)), A=A, D=D,
        I2=float(np.sum(m.kernel.matrix(x) * dv * dv)) / (2.0 * n * n),
        L=A + m.kernel.primitive(D), W=-float(v @ F),
        F_max=float(np.max(np.abs(F))), F_mean=float(np.mean(F)),
        x_min_wall=float(np.min(wf.wall_distances(m.geometry, x))),
        v_max=float(np.max(v)), v_min=float(np.min(v)), G=G, F_sq=float(np.sum(F**2)),
    )


@pytest.mark.parametrize(
    "geometry, theta, n, x_low",
    [
        (wf.Geometry("halfline"), 1.0, 13, 0.2),
        (wf.Geometry("interval", 0.0, 6.0), 1.0, 13, 0.2),
        (wf.Geometry("halfline"), 0.0, 13, -1.0),  # a disabled wall allows x <= 0
        (wf.Geometry("halfline"), 1.0, 1, 0.2),
    ],
    ids=["halfline", "interval", "disabled_wall", "n1"],
)
def test_diagnostics_bitwise_equal_direct_form(geometry, theta, n, x_low):
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25), wf.WallPotential(1.0, theta), geometry, n
    )
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = wf.FlockState(0.0, rng.uniform(x_low, 5.8, n), rng.uniform(-1.0, 1.0, n))
        G = initial_energy(m, s)
        rec = diagnostics(m, s, G)
        for name, value in _direct_diagnostics(m, s, G).items():
            got = np.float64(getattr(rec, name)).view(np.int64)
            assert got == np.float64(value).view(np.int64), name


def test_interval_wall_distance_uses_both_walls():
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("interval", 0.0, 10.0),
        2,
    )
    s = wf.FlockState(0.0, [4.0, 9.7], [0.0, 0.0])
    rec = diagnostics(m, s, G=0.0)
    assert abs(rec.x_min_wall - 0.3) < 1e-15


def test_table_and_series(tmp_path):
    m = two_agent_model()
    s = reference_state()
    rec = diagnostics(m, s, G=0.25)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(record_table([rec, rec]), path)
    table = read_diagnostics_csv(path)
    assert table.shape == (2, len(FIELDS))
    assert table[0, FIELDS.index("L")] == rec.L


def test_csv_round_trip_is_exact(tmp_path):
    # .17g repr round-trips doubles exactly
    m = two_agent_model()
    rng = np.random.default_rng(31)
    recs = []
    for k in range(5):
        x = rng.uniform(0.3, 6.0, 2)
        v = rng.uniform(-1.0, 1.0, 2)
        recs.append(diagnostics(m, wf.FlockState(float(k), x, v), G=np.pi))
    records = record_table(recs)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(records, path)
    table = read_diagnostics_csv(path)
    for k, name in enumerate(FIELDS):
        assert np.array_equal(table[:, k], records[name])
    # byte-identical on rewrite
    first = path.read_bytes()
    write_diagnostics_csv(records, path)
    assert path.read_bytes() == first


def test_csv_header_is_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_diagnostics_csv(path)


def test_dissipation_residual_needs_three_samples(twoagent_fixture):
    m, s0, traj = twoagent_fixture
    with pytest.raises(ValueError):
        dissipation_residual(
            wf.Trajectory(traj.sample_times[:2], traj.X[:2], traj.V[:2], traj.records[:2])
        )
    res = dissipation_residual(traj)
    assert res.shape == (len(traj.records) - 2,)
    # residual is pure O(h^2) differencing error, h=0.1 here
    assert np.max(np.abs(res)) < 1e-3
