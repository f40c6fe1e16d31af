import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wallflock as wf
from wallflock import FlockModel, FlockState, acceleration, diagnostics, dynamics, initial_condition
from wallflock.potentials import wall_layer


def free_model(family="powerlaw", H=1.0, beta=0.25):
    # wall present but every test state stays outside its range
    return FlockModel(
        wf.CommunicationKernel(family, H, beta),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
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
    # the model is the scenario's physics; N is the length of the state
    assert [f.name for f in dataclasses.fields(FlockModel)] == ["kernel", "wall", "geometry"]
    with pytest.warns(UserWarning, match="exceeds half the interval width"):
        FlockModel(free_model().kernel, wf.WallPotential(), wf.Geometry("interval", 0.0, 1.5))


def test_two_agent_acceleration_by_hand():
    m = free_model()
    x = np.array([2.0, 3.0])
    v = np.array([0.5, 1.0])
    w = float(m.kernel.eval(1.0))
    acc = acceleration(m, x, v)
    # each agent relaxes toward the other at half the kernel weight
    assert abs(acc[0] - 0.5 * w * 0.5) < 1e-15
    assert abs(acc[1] + 0.5 * w * 0.5) < 1e-15


def test_single_agent_feels_only_the_wall():
    m = free_model()
    acc = acceleration(m, np.array([0.5]), np.array([0.0]))
    assert abs(acc[0] - wf.geometry_force(wf.Geometry(), m.wall, 0.5)[0]) < 1e-15
    acc_out = acceleration(m, np.array([2.0]), np.array([3.0]))
    assert acc_out[0] == 0.0


def test_alignment_term_conserves_momentum():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        m = free_model(beta=float(rng.uniform(0.0, 1.5)))
        x = rng.uniform(2.0, 9.0, n)  # outside wall range, force free
        v = rng.uniform(-2.0, 2.0, n)
        acc = acceleration(m, x, v)
        assert abs(acc.sum()) < 1e-13 * max(1.0, np.abs(acc).sum())


def test_acceleration_contracts_velocity_spread():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        m = free_model()
        x = rng.uniform(2.0, 6.0, n)
        v = rng.uniform(-1.0, 1.0, n)
        acc = acceleration(m, x, v)
        # extreme agents accelerate toward the pack
        assert acc[np.argmax(v)] <= 1e-15
        assert acc[np.argmin(v)] >= -1e-15


def test_momentum_and_mean_force():
    m = free_model()
    s = FlockState(0.0, [0.5, 4.0], [1.0, 3.0])
    rec = diagnostics(m, s, G=0.0)
    assert rec.p == 2.0
    assert abs(rec.F_mean - 0.5 * wf.geometry_force(wf.Geometry(), m.wall, 0.5)[0]) < 1e-15


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
    with pytest.raises(TypeError):  # as numpy's SeedSequence rejects a float
        initial_condition(4, 0.5, 3.0, -0.5, 1.0, 1.5)


# seeds of one, two and four 32-bit words, and of five and seven, whose words
# past the pool's fourth go through SeedSequence's extra mixing loop
PHILOX_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 7, 2**128 + 5, 2**200 + 3] + [
    int(s) for s in np.random.default_rng(35).integers(0, 2**64, 50, dtype=np.uint64)
]


@pytest.mark.parametrize("box", [(0.5, 3.0, -0.5, 1.0), (1.1, 5.0, -0.0462, -0.0378)])
def test_initial_condition_is_numpys_philox_uniform(box):
    # numpy.random is the oracle of the stream written out in the package:
    # positions, then velocities from the same generator (mid-block unless
    # n % 4 == 0), stable-sorted by position
    for seed in PHILOX_SEEDS:
        for n in (1, 2, 3, 4, 5, 16, 1024):
            rng = np.random.Generator(np.random.Philox(seed))
            x, v = rng.uniform(box[0], box[1], n), rng.uniform(box[2], box[3], n)
            order = np.argsort(x, kind="stable")
            s = initial_condition(n, *box, seed)
            assert s.x.tobytes() == x[order].tobytes(), (seed, n)
            assert s.v.tobytes() == v[order].tobytes(), (seed, n)


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
    )
    acc = acceleration(m, x, v)
    # permuting the agents reorders each kernel sum, so agreement is to rounding
    np.testing.assert_allclose(
        acceleration(m, x[perm], v[perm]), acc[perm], rtol=1e-12, atol=1e-12 * np.abs(v).max()
    )


@settings(max_examples=60, deadline=None)
@given(flock_states(x_min=-12.0), st.floats(0.0, 2.0), st.integers(1, 4))
def test_interaction_has_zero_net_momentum(state, beta, rows):
    x, v, _ = state
    m = FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, beta),
        wf.WallPotential(1.0, 0.0),  # a disabled wall leaves the interaction alone
        wf.Geometry("halfline"),
    )
    assert abs(acceleration(m, x, v).sum()) <= 1e-12 * x.size * np.abs(v).max()
    # strips of 1 to 4 rows: each pair's term goes to row i with one sign and
    # to row j with the other, so the strips' sums cancel as the dense one does
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_BLOCK_ELEMENTS", rows * x.size)
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


ORACLE_N = list(range(1, 40)) + [64, 127, 128, 129, 181, 182, 1000, 1023, 1024, 4096]
U = 2.0**-53  # unit roundoff of float64


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _gamma(k):
    """gamma_k = k u / (1 - k u), the bound on k roundings (Higham 2002, Lemma 3.1)."""
    return k * U / (1.0 - k * U)


@pytest.mark.parametrize("family, beta", [("powerlaw", 0.0), ("powerlaw", 0.25), ("powerlaw", 1.0)])
@pytest.mark.parametrize(
    "geometry",
    [wf.Geometry("halfline"), wf.Geometry("interval", 0.0, 60.0)],
    ids=["halfline", "interval"],
)
def test_row_blocked_acceleration_bitwise_equal_dense_form(monkeypatch, geometry, family, beta):
    # acceleration sums phi (v_j - v_i) over row strips, each pair once.  With
    # one strip (N <= 181 at the shipped size) its bits are those of the dense
    # N x N form.  Over several strips each of row i's n terms has the dense
    # term's bits up to its sign (phi is even in r^2 and v_j - v_i = -(v_i - v_j)
    # exactly), added in another order; any order of n terms is within
    # gamma_{n-1} sum_j |t_ij| of the exact sum (Higham 2002, eq. 4.4), and
    # the division by n and the wall force add two roundings, so
    #     |strips - dense| <= 2 gamma_{n+1} (sum_j |t_ij| / n + |F_i|).
    # Blocks of 1000 and 40 elements put seams and short last strips at small
    # N too (40 // 13 = 3 rows: 3+3+3+3+1).
    k = wf.CommunicationKernel(family, 1.3, beta)
    blocks = (dynamics._BLOCK_ELEMENTS, 1000, 40)
    for n in ORACLE_N:
        m = FlockModel(k, wf.WallPotential(1.0, 1.0), geometry)
        rng = np.random.default_rng(n)
        # a few agents sit inside the wall layer (distance < ell = 1)
        x = np.sort(rng.uniform(0.3, 59.7, n))
        v = rng.uniform(-1.0, 1.0, n)
        gaps = np.subtract.outer(x, x)
        phi = k.H * (1.0 + gaps * gaps) ** (-k.beta)
        del gaps
        phi *= v[None, :] - v[:, None]
        F = wf.geometry_force(geometry, m.wall, x)
        dense = phi.sum(axis=1) / n + F
        np.abs(phi, out=phi)
        bound = 2.0 * _gamma(n + 1) * (phi.sum(axis=1) / n + np.abs(F))
        del phi
        for block in blocks:
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", block)
            got = acceleration(m, x, v)
            if dynamics.block_rows(n) >= n:
                assert np.array_equal(_bits(got), _bits(dense)), (n, block)
            else:
                err = np.abs(got - dense)
                assert np.all(err <= bound), (n, block)
                # perfbench's large_n oracle: max-norm relative error <= 1e-12
                assert err.max() <= 1e-12 * np.abs(dense).max(), (n, block)


def _awkward_values():
    """Doubles whose differences probe the rounding of a_j - a_i: magnitudes
    from 1e-300 to 1e300 of both signs, repeated values, neighbours one ulp
    apart, subnormals, both zeros, and pairs whose difference overflows."""
    big = np.finfo(float).max
    mags = 10.0 ** np.arange(-300, 301, 20)
    a = np.concatenate([
        mags, -mags, mags[::3],  # repeats: equal values
        np.nextafter(mags[::2], np.inf), np.nextafter(-mags[1::2], -np.inf),
        [5e-324, -5e-324, 1e-310, -2.5e-315, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0.0)],
        [0.0, -0.0, 0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0],
        [big, -big, 0.9 * big, -0.9 * big, 1e308, -1e308],
    ])
    return np.random.default_rng(11).permutation(a)


@pytest.mark.parametrize("block", [dynamics._BLOCK_ELEMENTS, 1000, 40])
def test_rank2_differences_bitwise_equal_subtraction(monkeypatch, block):
    # kernel_strips forms a_j - a_i as the product [-a_i, 1] . [1, a_j]: two
    # exact products and one rounded sum (Higham 2002, section 2.2), so each
    # entry has the subtraction's bits, an overflow included, except the sign
    # of a zero from two zeros of opposite sign
    class Raw:  # phi as the identity: the strip is the x differences
        def _phi(self, w):
            return w

    monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", block)
    a = _awkward_values()
    b = a[::-1].copy()
    bounds, overflows = [], 0
    with np.errstate(over="ignore"):
        for lo, hi, dx, dv in dynamics.kernel_strips(Raw(), a, b):
            bounds.append((lo, hi))
            for got, c in ((dx, a), (dv, b)):
                want = c[None, lo:] - c[lo:hi, None]
                overflows += np.isinf(want).sum()
                ci, cj = np.broadcast_arrays(c[lo:hi, None], c[None, lo:])
                signed_zeros = (ci == 0.0) & (cj == 0.0) & (np.signbit(ci) != np.signbit(cj))
                differ = _bits(got) != _bits(want)
                assert np.all(signed_zeros[differ] & (got[differ] == 0.0)), (lo, block)
    rows = dynamics.block_rows(a.size)
    assert bounds == [(lo, min(lo + rows, a.size)) for lo in range(0, a.size, rows)]
    assert overflows > 0


def _subtraction_strips(m, x, v):
    """acceleration and diagnostics' I2 over kernel_strips' strips with the
    differences formed by broadcast subtraction, term for term as before the
    rank-2 products."""
    n, rows = x.size, dynamics.block_rows(x.size)
    sums, total = np.zeros(n), 0.0
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        phi = m.kernel.matrix(x[lo:hi], x[lo:])
        w = phi * (v[None, lo:] - v[lo:hi, None])
        sums[lo:hi] += w.sum(axis=1)
        sums[hi:] -= w[:, hi - lo :].sum(axis=0)
        dv = v[lo:hi, None] - v[None, lo:]
        phi *= dv
        phi *= dv
        total += phi.sum() + phi[:, hi - lo :].sum()
    sums /= n
    sums += wf.geometry_force(m.geometry, m.wall, x)
    return sums, float(total) / (2.0 * n * n)


@pytest.mark.parametrize(
    "geometry",
    [wf.Geometry("halfline"), wf.Geometry("interval", 0.0, 60.0)],
    ids=["halfline", "interval"],
)
def test_strip_sums_bitwise_equal_subtraction_strips(monkeypatch, geometry):
    # a v with exact +-0.0 entries gives zero differences of both signs: the
    # force is never -0.0 and I2 squares them, so none reaches an output
    m = FlockModel(wf.CommunicationKernel("powerlaw", 1.3, 0.25), wf.WallPotential(1.0, 1.0), geometry)
    for n in ORACLE_N:
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(0.3, 59.7, n))  # a few agents in the wall layer
        x[1::9] = x[::9][: x[1::9].size]  # coincident agents: zero gaps
        v = rng.uniform(-1.0, 1.0, n)
        v[::5], v[2::5] = 0.0, -0.0
        s = FlockState(0.0, x, v)
        for block in (dynamics._BLOCK_ELEMENTS, 1000, 40):
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", block)
            if n * n <= block:  # the dense path
                continue
            acc, I2 = _subtraction_strips(m, x, v)
            assert np.array_equal(_bits(acceleration(m, x, v)), _bits(acc)), (n, block)
            assert _bits(diagnostics(m, s, 0.0).I2) == _bits(I2), (n, block)


def test_each_kernel_pair_is_evaluated_once(monkeypatch):
    # row strips of b = block_rows(N) rows hold the N (N + 1) / 2 pairs i <= j
    # and, in each b x b diagonal block, the b (b - 1) / 2 pairs i > j: at most
    # N (N + 1) / 2 + N (b - 1) / 2 = N (N + b) / 2 kernel entries per call.
    # phi is counted where it is evaluated, in _phi, which the dense form
    # reaches through matrix and the strips directly
    entries = []
    phi = wf.CommunicationKernel._phi

    def counted(kernel, w):
        entries.append(w.size)
        return phi(kernel, w)

    monkeypatch.setattr(wf.CommunicationKernel, "_phi", counted)
    for n in (1, 16, 181, 182, 1000, 1024, 4096):
        m = free_model()
        rng = np.random.default_rng(n)
        s = FlockState(0.0, np.sort(rng.uniform(2.0, 400.0, n)), rng.uniform(-1.0, 1.0, n))
        bound = n * (n + dynamics.block_rows(n)) // 2
        for call in (lambda: acceleration(m, s.x, s.v), lambda: diagnostics(m, s, 0.0)):
            entries.clear()
            call()
            assert 0 < sum(entries) <= bound, n
            if n <= 181:  # one strip: the whole matrix
                assert sum(entries) == n * n


def _peak_bytes(call):
    """The tracemalloc peak of call(), after one uncounted call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_acceleration_memory_is_one_row_block():
    # the dense form held two N x N arrays: 268 MB at N = 4096; a call holds
    # one 2^15-entry workspace for each of the two difference strips (512 KB)
    # and the O(N) factors of their rank-2 products
    n = 4096
    m = free_model()
    rng = np.random.default_rng(4)
    s = FlockState(0.0, np.sort(rng.uniform(2.0, 400.0, n)), rng.uniform(-1.0, 1.0, n))
    assert _peak_bytes(lambda: acceleration(m, s.x, s.v)) < 2e6
    assert _peak_bytes(lambda: diagnostics(m, s, 0.0)) < 2e6


def test_batched_acceleration_memory_is_one_strip():
    # a batch of batch_members(n) members stacks n x n matrices into at most
    # one 2^15-entry strip (256 KB), and its (members, n) rows are no larger:
    # the call holds a few such arrays (4 at n = 1, where the rows weigh most)
    from wallflock.integrator import batch_members

    m = FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
    )
    rng = np.random.default_rng(6)
    for n in (1, 8, 16, 181):
        b = batch_members(n, 1)
        x = rng.uniform(2.0, 400.0, (b, n))
        x[:, 0] = 0.7  # inside the wall layer: the wall force is evaluated
        v = rng.uniform(-1.0, 1.0, (b, n))
        acceleration(m, x, v)
        tracemalloc.start()
        try:
            got = acceleration(m, x, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * dynamics._BLOCK_ELEMENTS, n
        # each member's row has its own single call's bits
        for j in (0, b - 1):
            assert np.array_equal(_bits(got[j]), _bits(acceleration(m, x[j], v[j]))), n


def test_mixed_kernel_batch_acceleration_bitwise_equal_single_states():
    # the stepping model of a batch whose members carry their own kernels, in
    # the order (a, b, a, ...): each member's row is its single call's
    ks = [wf.CommunicationKernel("powerlaw", H, beta)
          for beta in (0.0, 0.5, 1.0, 1.5) for H in (0.3, 1.0)]
    wall, geometry = wf.WallPotential(1.0, 1.0), wf.Geometry("interval", 0.0, 40.0)
    models = [FlockModel(ks[i], wall, geometry) for i in (0, 1, 0, 2, 3, 3, 4, 5, 6, 7, 1)]
    stepping = FlockModel(wf.kernels.KernelStack(tuple(m.kernel for m in models)), wall, geometry)
    # a column per member: its kernel's -beta and H, and whether beta is 1
    assert stepping.kernel == wf.kernels.KernelStack(tuple(m.kernel for m in models))
    exponent, H, unit = (c.ravel().tolist() for c in stepping.kernel.columns)
    assert exponent == [-m.kernel.beta for m in models]
    assert H == [m.kernel.H for m in models]
    assert unit == [m.kernel.beta == 1.0 for m in models]
    # a subset's model takes exactly its members' kernels and columns
    subset = [4, 5, 9, 0]
    sub = wf.integrator._members(stepping, subset)
    assert sub.kernel == wf.kernels.KernelStack(tuple(models[b].kernel for b in subset))
    for got, col in zip(sub.kernel.columns, stepping.kernel.columns):
        assert np.array_equal(_bits(got), _bits(col[subset]))
    assert wf.integrator._members(stepping, list(range(len(models)))) is stepping
    rng = np.random.default_rng(13)
    for n in (1, 8, 16):
        x = rng.uniform(0.5, 39.5, (len(models), n))
        x[:, 0] = 0.7  # inside the wall layer: the wall force is evaluated
        v = rng.uniform(-1.0, 1.0, (len(models), n))
        got = acceleration(stepping, x, v)
        for b, m in enumerate(models):
            assert np.array_equal(_bits(got[b]), _bits(acceleration(m, x[b], v[b]))), (n, b)
        got = acceleration(sub, x[subset], v[subset])
        for j, b in enumerate(subset):
            assert np.array_equal(_bits(got[j]), _bits(acceleration(models[b], x[b], v[b]))), (n, b)


@pytest.mark.parametrize(
    "geometry",
    [wf.Geometry("halfline"), wf.Geometry("interval", 0.0, 1000.0)],
    ids=["halfline", "interval"],
)
@pytest.mark.parametrize("n", [16, 200], ids=["dense", "strips"])
def test_acceleration_without_a_wall_in_reach_adds_no_zeros(geometry, n):
    # with no agent in a wall layer, acceleration adds no force; adding
    # geometry_force's zeros would change no bit, because no row sum is -0.0:
    # an aligned flock (every term 0) and velocities of both zero signs
    # included, one state or a batch's rows, and with a wall in reach the
    # force is added as it is
    kernel = wf.CommunicationKernel("powerlaw", 0.7, 0.25)
    m = FlockModel(kernel, wf.WallPotential(1.0, 1.0), geometry)
    rng = np.random.default_rng(n)
    x = np.sort(rng.uniform(2.0, 400.0, n))
    signed = rng.choice([0.0, -0.0], n)
    assert np.signbit(signed).any() and not np.signbit(signed).all()
    # a batch's rows on the dense path, where a batch runs
    states = [x] if n * n > dynamics._BLOCK_ELEMENTS else [x, np.stack([x, x + 1.0])]
    for v in (np.full(n, 0.3), np.full(n, -0.0), signed):
        for state in states:
            assert wall_layer(geometry, m.wall, state)[2] is None
            got = acceleration(m, state, np.broadcast_to(v, state.shape).copy())
            zeros = wf.geometry_force(geometry, m.wall, state)
            assert not np.signbit(got[got == 0.0]).any()
            assert np.array_equal(_bits(got), _bits(got + zeros))
    x[0] = 0.5  # inside the first wall's layer
    v = rng.uniform(-1.0, 1.0, n)
    F = wf.geometry_force(geometry, m.wall, x)
    assert F[0] > 0.0
    free = FlockModel(m.kernel, wf.WallPotential(1.0, 0.0), geometry)
    assert np.array_equal(_bits(acceleration(m, x, v)), _bits(acceleration(free, x, v) + F))
