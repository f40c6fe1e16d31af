import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import wallflock as wf
from wallflock import (
    FIELDS,
    diagnostics,
    dynamics,
    dissipation_residual,
    initial_energy,
    write_diagnostics_csv,
)

# frozen hand values for the N=2 reference state below (H=1, beta=0.5)
I2_REF = 0.1767766952966369  # phi(1)/4 = 1/(4 sqrt 2)
L_REF = 1.8813735870195432  # A + asinh(D) = 1 + asinh(1)


def two_agent_model(beta=0.5):
    return wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, beta),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
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
    geom = m.geometry  # each wall's distances: x, or x - a and -(x - b)
    d = np.array([x] if geom.variant == "halfline" else [x - geom.a, -(x - geom.b)])
    g = np.maximum(m.wall.ell - d, 0.0)
    U = np.zeros_like(d) if m.wall.disabled else m.wall.theta * g**4 / d
    P = float(np.mean(np.add.reduce(U, axis=0)))
    return dict(
        t=s.t, K=K, P=P, E=K + P, p=float(np.mean(v)), A=A, D=D,
        I2=float(np.sum(m.kernel.matrix(x, x) * dv * dv)) / (2.0 * n * n),
        L=A + m.kernel.primitive(D), W=-float(v @ F),
        F_max=float(np.max(np.abs(F))), F_mean=float(np.mean(F)),
        x_min_wall=float(np.min(d)),
        v_max=float(np.max(v)), v_min=float(np.min(v)), G=G, F_sq=float(np.sum(F**2)),
    )


@pytest.mark.parametrize(
    "geometry, theta, n, x_low",
    [
        (wf.Geometry("halfline"), 1.0, 13, 0.2),
        (wf.Geometry("interval", 0.0, 6.0), 1.0, 13, 0.2),
        (wf.Geometry("halfline"), 0.0, 13, -1.0),  # a disabled wall allows x <= 0
        (wf.Geometry("halfline"), 1.0, 1, 0.2),
        (wf.Geometry("halfline"), 1.0, 181, 0.2),  # the largest one-strip N
        (wf.Geometry("halfline"), 1.0, 182, 0.2),
        (wf.Geometry("halfline"), 1.0, 1024, 0.2),
    ],
    ids=["halfline", "interval", "disabled_wall", "n1", "n181", "n182", "n1024"],
)
def test_diagnostics_bitwise_equal_direct_form(monkeypatch, geometry, theta, n, x_low):
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25), wf.WallPotential(1.0, theta), geometry
    )
    rng = np.random.default_rng(5)
    # at 39 elements a strip holds 3 of 13 rows, so I2 is summed over five
    # strips, the last one short.  Its n^2 terms are >= 0 and have the direct
    # form's bits (phi and (v_i - v_j)^2 are even), so each of the two sums is
    # within gamma_{n^2 - 1} I2 of the exact one and the division by 2 n^2
    # adds a rounding: |strips - direct| <= 2 gamma_{n^2} I2, capped at
    # perfbench's 1e-12 where that is tighter (n > 67).  Every other field
    # is built without the kernel and keeps its bits.
    n2 = n * n
    bound = 2.0 * n2 * 2.0**-53 / (1.0 - n2 * 2.0**-53)
    for block in (dynamics._BLOCK_ELEMENTS, 39):
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", block)
        one_strip = dynamics.block_rows(n) >= n
        for _ in range(20):
            s = wf.FlockState(0.0, rng.uniform(x_low, 5.8, n), rng.uniform(-1.0, 1.0, n))
            G = initial_energy(m, s)
            rec = diagnostics(m, s, G)
            for name, value in _direct_diagnostics(m, s, G).items():
                if name == "I2" and not one_strip:
                    assert abs(rec.I2 - value) <= min(bound, 1e-12) * value, block
                    continue
                got = np.float64(getattr(rec, name)).view(np.int64)
                assert got == np.float64(value).view(np.int64), (name, block)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _batched_diagnostics(models, x, v, t=0.7):
    """diagnostics on the (B, N) rows x, v under the models' KernelStack, each
    member's column checked against its own call's record in every bit."""
    states = [wf.FlockState(t, xb, vb) for xb, vb in zip(x, v)]
    G = np.array([initial_energy(m, s) for m, s in zip(models, states)])
    m = models[0]
    stack = wf.FlockModel(wf.kernels.KernelStack(tuple(m.kernel for m in models)), m.wall, m.geometry)
    rec = diagnostics(stack, SimpleNamespace(t=t, x=x, v=v), G)
    for b, (m, s) in enumerate(zip(models, states)):
        want = diagnostics(m, s, G[b])
        for name in wf.DiagnosticsRecord._fields:
            got = np.broadcast_to(getattr(rec, name), len(models))[b]
            assert _bits(got) == _bits(getattr(want, name)), (name, b)
    return rec


@pytest.mark.parametrize("n", [8, 16, 181])
@pytest.mark.parametrize(
    "geometry", [wf.Geometry("halfline"), wf.Geometry("interval", 0.0, 10.0)],
    ids=["halfline", "interval"],
)
def test_batched_diagnostics_bitwise_equal_per_member_calls(geometry, n):
    # members with their own kernels through the stack, one of them twice
    # apart (a, b, a); every third member has agents inside the wall layer
    # and the others none, so the batch's layer sums take the formula path
    ks = [wf.CommunicationKernel("powerlaw", H, beta)
          for beta in (0.0, 0.5, 1.0, 1.5) for H in (0.3, 1.0)]
    models = [wf.FlockModel(ks[i], wf.WallPotential(1.0, 1.0), geometry)
              for i in (0, 1, 0, 2, 2, 3, 4, 5, 6, 7, 7, 4)]
    rng = np.random.default_rng(n)
    x = rng.uniform(1.5, 8.5, (len(models), n))
    x[::3, 0] = rng.uniform(0.05, 0.95, len(x[::3]))
    if geometry.variant == "interval":
        x[::3, -1] = rng.uniform(9.05, 9.95, len(x[::3]))
    v = rng.uniform(-1.0, 1.0, x.shape)
    rec = _batched_diagnostics(models, x, v)
    assert (rec.P[::3] > 0.0).all() and (rec.P[1::3] == 0.0).all()


def test_batched_diagnostics_takes_each_members_own_wall_distance():
    # a disabled wall (theta = 0): member 1 has crossed it, so the batch's
    # smallest wall distance is its own, and every other member keeps its own
    model = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25), wf.WallPotential(1.0, 0.0),
        wf.Geometry("halfline"),
    )
    rng = np.random.default_rng(2)
    x = rng.uniform(0.5, 4.0, (3, 8))
    x[1, 3] = -0.75
    v = rng.uniform(-1.0, 1.0, x.shape)
    rec = _batched_diagnostics([model] * 3, x, v)
    assert rec.x_min_wall.tolist() == x.min(axis=1).tolist()
    assert rec.x_min_wall[1] == -0.75 and (rec.x_min_wall[[0, 2]] > 0.0).all()


def test_diagnostics_holds_one_pairwise_buffer():
    # I2 is summed a row strip at a time: the peak is one strip and its
    # (v_i - v_j) factor, not the N x N matrix (134 MB at N = 4096)
    n = 4096
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
    )
    rng = np.random.default_rng(3)
    s = wf.FlockState(0.0, np.sort(rng.uniform(0.5, 200.0, n)), rng.uniform(-1.0, 1.0, n))
    diagnostics(m, s, 0.0)
    tracemalloc.start()
    try:
        diagnostics(m, s, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_interval_wall_distance_uses_both_walls():
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("interval", 0.0, 10.0),
    )
    s = wf.FlockState(0.0, [4.0, 9.7], [0.0, 0.0])
    rec = diagnostics(m, s, G=0.0)
    assert abs(rec.x_min_wall - 0.3) < 1e-15


def read_table(path):
    """The rows of a diagnostics CSV, after checking its header line."""
    assert path.read_text().split("\n", 1)[0] == ",".join(FIELDS)
    return np.loadtxt(path, delimiter=",", skiprows=1)


def test_table_and_series(tmp_path):
    m = two_agent_model()
    s = reference_state()
    rec = diagnostics(m, s, G=0.25)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(record_table([rec, rec]), path)
    table = read_table(path)
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
    table = read_table(path)
    for k, name in enumerate(FIELDS):
        assert np.array_equal(table[:, k], records[name])
    # byte-identical on rewrite
    first = path.read_bytes()
    write_diagnostics_csv(records, path)
    assert path.read_bytes() == first


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
