import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wallflock import (
    CommunicationKernel,
    FlockModel,
    FlockState,
    Geometry,
    WallDomainError,
    WallPotential,
    acceleration,
    check_domain,
    diagnostics,
    geometry_force,
    initial_energy,
    warn_if_overlapping,
)
from wallflock.kernels import KernelStack
from wallflock.potentials import wall_layer


# On the half-line the one wall's distance is the position, so the mean
# potential of a one-agent flock at x and the force at x are the single-wall
# U(x) and F(x) = -U'(x).
def U(w, x):
    return np.array([wall_layer(Geometry(), w, np.array([xi]), potential=True)[1] for xi in np.ravel(x)])


def F(w, x):
    return geometry_force(Geometry(), w, x)


def test_exact_values_at_half_depth():
    # ell=1, theta=1, x=0.5: gap g=0.5
    w = WallPotential()
    assert U(w, 0.5).tolist() == [0.125]  # 0.5^4 / 0.5
    assert F(w, 0.5).tolist() == [1.25]  # (4 g^3 x + g^4) / x^2


def test_blowup_near_wall():
    w = WallPotential()
    v = U(w, 1e-3)[0]
    assert abs(v - 996.005996001) < 1e-9 * v  # (1 - 1e-3)^4 / 1e-3
    assert U(w, 1e-6)[0] > 9.9e5


def test_zero_outside_reaction_length():
    w = WallPotential(ell=1.0, theta=2.0)
    for x in (1.0, 1.5, 40.0):
        assert U(w, x).tolist() == [0.0]
        assert F(w, x).tolist() == [0.0]


def test_theta_scales_linearly():
    rng = np.random.default_rng(3)
    base = WallPotential(1.0, 1.0)
    scaled = WallPotential(1.0, 2.5)
    x = rng.uniform(0.05, 0.95, size=25)
    assert np.allclose(U(scaled, x), 2.5 * U(base, x), rtol=1e-15)
    assert np.allclose(F(scaled, x), 2.5 * F(base, x), rtol=1e-15)


def test_force_is_negative_gradient():
    w = WallPotential(ell=1.3, theta=0.8)
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(40):
        x = float(rng.uniform(0.1, 1.25))
        grad = (U(w, x + h)[0] - U(w, x - h)[0]) / (2.0 * h)
        assert abs(F(w, x)[0] + grad) < 1e-6 * max(1.0, abs(grad))


def test_force_is_repulsive_inside():
    w = WallPotential()
    x = np.linspace(0.01, 0.99, 60)
    assert np.all(F(w, x) > 0.0)


def test_domain_errors():
    w = WallPotential()
    with pytest.raises(WallDomainError):
        U(w, 0.0)
    with pytest.raises(WallDomainError):
        F(w, -0.2)
    with pytest.raises(WallDomainError):
        U(w, np.nan)
    with pytest.raises(ValueError):
        WallPotential(ell=0.0)
    with pytest.raises(ValueError):
        WallPotential(theta=-1.0)


def test_disabled_wall_accepts_everything():
    w = WallPotential(theta=0.0)
    assert w.disabled
    x = np.array([-3.0, 0.0, 0.5, 2.0])
    assert np.all(U(w, x) == 0.0)
    assert np.all(F(w, x) == 0.0)


def test_geometry_validation():
    Geometry("halfline")
    Geometry("interval", 0.0, 10.0)
    with pytest.raises(ValueError):
        Geometry("circle")
    with pytest.raises(ValueError):
        Geometry("interval")  # endpoints required
    with pytest.raises(ValueError):
        Geometry("interval", 5.0, 5.0)
    with pytest.raises(ValueError):
        Geometry("interval", 2.0, 1.0)
    with pytest.raises(ValueError):
        Geometry("interval", 0.0, np.inf)
    # half-line endpoints would be silently ignored by the walls
    with pytest.raises(ValueError, match="interval variant only"):
        Geometry("halfline", a=5.0, b=6.0)
    with pytest.raises(ValueError, match="interval variant only"):
        Geometry("halfline", b=4.0)


def test_interval_force_antisymmetric():
    geom = Geometry("interval", 0.0, 4.0)
    w = WallPotential()
    rng = np.random.default_rng(29)
    for _ in range(30):
        d = float(rng.uniform(0.05, 0.95))
        left = float(geometry_force(geom, w, np.array([0.0 + d]))[0])
        right = float(geometry_force(geom, w, np.array([4.0 - d]))[0])
        assert abs(left + right) < 1e-12 * max(1.0, abs(left))
    # midpoint of a wide box feels nothing
    assert geometry_force(geom, w, np.array([2.0]))[0] == 0.0


def test_geometry_potential_sums_both_walls():
    geom = Geometry("interval", 0.0, 1.5)
    w = WallPotential(ell=1.0)
    x = np.array([0.75])  # inside both reaction zones
    expected_u = U(w, 0.75)[0] + U(w, 0.75)[0]
    assert abs(wall_layer(geom, w, x, potential=True)[1] - expected_u) < 1e-15


def test_check_domain():
    w = WallPotential()
    check_domain(Geometry("halfline"), w, np.array([0.1, 5.0]))
    with pytest.raises(WallDomainError):
        check_domain(Geometry("halfline"), w, np.array([0.1, -0.5]))
    geom = Geometry("interval", 0.0, 10.0)
    check_domain(geom, w, np.array([0.1, 9.9]))
    with pytest.raises(WallDomainError):
        check_domain(geom, w, np.array([10.5]))
    # disabled wall lifts the restriction so control runs can cross
    check_domain(Geometry("halfline"), WallPotential(theta=0.0), np.array([-2.0]))


def test_overlap_warning():
    with pytest.warns(UserWarning):
        warn_if_overlapping(Geometry("interval", 0.0, 1.5), WallPotential(ell=1.0))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warn_if_overlapping(Geometry("interval", 0.0, 10.0), WallPotential(ell=1.0))
        warn_if_overlapping(Geometry("halfline"), WallPotential(ell=1.0))


_ells = st.floats(0.1, 5.0)
# fractions of the wall range; bounded away from 0 and 1 so that u * ell and
# ell / u stay positive, finite and on the intended side of ell
_unit = st.floats(1e-6, 1.0 - 1e-9)


@given(ell=_ells, theta=st.floats(0.1, 10.0), u=_unit)
def test_wall_force_positive_inside_range_zero_beyond(ell, theta, u):
    w = WallPotential(ell=ell, theta=theta)
    assert F(w, u * ell)[0] > 0.0
    assert F(w, ell / u)[0] == 0.0


@given(ell=_ells, x=st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=20))
def test_halfline_geometry_force_is_the_wall_force(ell, x):
    w = WallPotential(ell=ell)
    x = np.array(x)
    f = geometry_force(Geometry("halfline"), w, x)
    assert f.tobytes() == _direct_terms("halfline", w, x[None, :])[1].tobytes()
    assert np.all(f >= 0.0)


@given(ell=_ells, half_width=st.floats(0.1, 20.0), u=_unit)
def test_interval_force_points_inward_and_reflects(ell, half_width, u):
    # symmetric interval: reflection x -> -x maps each wall distance onto the other exactly
    geom = Geometry("interval", -half_width, half_width)
    w = WallPotential(ell=ell)
    x = np.array([(2.0 * u - 1.0) * half_width])
    f = geometry_force(geom, w, x)
    assert np.array_equal(f, -geometry_force(geom, w, -x))  # exact, up to the sign of zero
    left, right = x[0] + half_width, half_width - x[0]
    if left < ell <= right:
        assert f[0] > 0.0
    if right < ell <= left:
        assert f[0] < 0.0
    if min(left, right) >= ell:
        assert f[0] == 0.0


# Bitwise oracle for the layer sums, which return exact zeros without
# evaluating the formula when no distance lies inside the wall range.  The
# direct expressions below evaluate the formula on every distance.
_DIRECTIONS = {"halfline": np.array([[1.0]]), "interval": np.array([[1.0], [-1.0]])}


def _distances(geom, x):
    """Every position's distance to every wall, written out, one row per wall
    ((walls, N), or (B, walls, N) for a batch): x on the half-line, x - a and
    -(x - b) on the interval, each wall's direction times (x - wall)."""
    x = np.array(x, dtype=float, ndmin=1)
    return np.stack([x] if geom.variant == "halfline" else [x - geom.a, -(x - geom.b)], axis=-2)


def _direct_terms(variant, wall, d):
    """Per-position potential and signed force, formula on every distance."""
    if wall.disabled:
        u = f = np.zeros_like(d)
    else:
        g = np.maximum(wall.ell - d, 0.0)
        u = wall.theta * g**4 / d
        f = wall.theta * (4.0 * g**3 * d + g**4) / (d * d)
    return np.add.reduce(u, axis=0), np.add.reduce(_DIRECTIONS[variant] * f, axis=0)


def _positions(variant, case, n, rng):
    """Positions with no agent, some agents or all agents within ell = 1 of a wall."""
    far = (1.5, 3.0) if variant == "halfline" else (1.5, 8.5)
    near = [(0.05, 0.95)] if variant == "halfline" else [(0.05, 0.95), (9.05, 9.95)]
    if case == "disabled":  # anywhere, across the walls too
        return rng.uniform(-2.0, 12.0, n)
    x = rng.uniform(*far, n)
    if case == "none":
        x[0] = 1.0  # exactly ell from the wall at 0: the formula gives +0.0 there
    if case in ("some", "all"):
        k = n if case == "all" else (n + 1) // 2
        x[:k] = [rng.uniform(*near[i % len(near)]) for i in range(k)]
    return x


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("n", [1, 2, 16, 130])
@pytest.mark.parametrize("case", ["none", "some", "all", "disabled"])
@pytest.mark.parametrize("variant", ["halfline", "interval"])
def test_layer_sums_bitwise_equal_direct_form(variant, case, n):
    geom = Geometry("halfline") if variant == "halfline" else Geometry("interval", 0.0, 10.0)
    wall = WallPotential(1.0, 0.0 if case == "disabled" else 1.5)
    m = FlockModel(CommunicationKernel("powerlaw", 1.0, 0.25), wall, geom)
    rng = np.random.default_rng([n, len(case), len(variant)])
    x = _positions(variant, case, n, rng)
    v = rng.uniform(-1.0, 1.0, n)
    d = _distances(geom, x)
    U, F = _direct_terms(variant, wall, d)

    assert np.array_equal(_bits(geometry_force(geom, wall, x)), _bits(F))
    w = m.kernel.matrix(x, x)
    w *= v[None, :] - v[:, None]
    expected = w.sum(axis=1) / n + F
    assert np.array_equal(_bits(acceleration(m, x, v)), _bits(expected))

    rec = diagnostics(m, FlockState(t=0.0, x=x, v=v), 0.0)
    direct = {
        "P": float(U.sum()) / n,
        "W": -float(v @ F),
        "F_max": float(np.abs(F).max()),
        "F_mean": float(F.sum()) / n,
        "F_sq": float((F**2).sum()),
        "x_min_wall": float(d.min()),
    }
    assert {k: _bits(getattr(rec, k)) for k in direct} == {k: _bits(x) for k, x in direct.items()}


@pytest.mark.parametrize("case", ["mixed", "outside"])
@pytest.mark.parametrize("variant", ["halfline", "interval"])
def test_layer_sums_of_a_batch_equal_per_row_calls(variant, case):
    # a batch's rows are summed over the walls, not over the batch, and a
    # batch with no agent inside the layer gets no force and zero potentials
    geom = Geometry("halfline") if variant == "halfline" else Geometry("interval", 0.0, 10.0)
    wall = WallPotential(1.0, 1.0)
    m = FlockModel(CommunicationKernel("powerlaw", 1.0, 0.25), wall, geom)
    rows = {"mixed": [[0.5, 5.0, 9.7], [3.0, 4.0, 5.0]], "outside": [[3.0, 4.0, 5.0], [2.0, 6.0, 7.5]]}
    x = np.array(rows[case])
    v = np.array([[0.3, -0.2, 0.1], [-0.4, 0.5, 0.25]])
    lo, P, F = wall_layer(geom, wall, x, potential=True)
    per_row = [wall_layer(geom, wall, row, potential=True) for row in x]
    force = geometry_force(geom, wall, x)
    assert F.shape == force.shape == x.shape
    assert _same(lo, [r[0] for r in per_row])
    assert _same(P, [r[1] for r in per_row])
    assert _same(F, force) and _same(force, [geometry_force(geom, wall, row) for row in x])
    assert all(r[2] is None for r in per_row) == (case == "outside")
    stack = FlockModel(KernelStack((m.kernel,) * len(x)), wall, geom)
    rec = diagnostics(stack, SimpleNamespace(t=0.0, x=x, v=v), np.zeros(len(x)))
    for b, (xb, vb) in enumerate(zip(x, v)):
        want = diagnostics(m, FlockState(0.0, xb, vb), 0.0)
        assert [_same(np.broadcast_to(got, len(x))[b], w) for got, w in zip(rec, want)] == [True] * len(want)


# The reach-limited layer: geometry_force, diagnostics and initial_energy
# evaluate the formula only for the walls that some agent is within ell of.
# The oracle is the formula written out on every wall's row of distances,
# summed over the walls.  Values are compared with their sign bits, so -0.0 in
# place of +0.0 fails.
_LAYERS = {"left": (0.05, 0.95), "right": (9.05, 9.95)}
_REACH = {"neither": (), "left": ("left",), "right": ("right",), "both": ("left", "right")}
_REACH_CASES = [
    (reach, n, at_ell)
    for reach in _REACH
    for n in (1, 2, 16)
    for at_ell in (None, "left", "right")
    if len(_REACH[reach]) + (at_ell is not None) <= n
]
# wall strength, kernel amplitude and the interval (a, a + 10)
_MODELS = pytest.mark.parametrize(
    "theta, H, a",
    [(1.0, 1.0, 0.0), (2.5, 0.7, 0.0), (1.0, 1.0, -2.5), (0.0, 1.0, 0.0)],
    ids=["unit", "scaled", "shifted", "off"],
)


def _same(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _reach_positions(reach, n, at_ell, rng, a):
    """n positions in (a, a + 10), ell = 1: one agent inside each layer of
    reach, the others in (a + 1.5, a + 8.5), and with at_ell the last exactly
    ell from that wall, where the formula gives +0.0."""
    x = rng.uniform(1.5, 8.5, n)
    for i, side in enumerate(_REACH[reach]):
        x[i] = rng.uniform(*_LAYERS[side])
    if at_ell:
        x[-1] = {"left": 1.0, "right": 9.0}[at_ell]
    return a + x


def _layer_record(geom, wall, x, v):
    """The wall fields of one state's record, and its force, by the formula on every wall."""
    d = _distances(geom, x)
    U, F = _direct_terms("interval", wall, d)
    n = x.size
    P = float(U.sum()) / n
    E = float(v @ v) / (2.0 * n) + P
    return F, {
        "P": P, "E": E, "G": E, "W": -float(v @ F), "F_max": float(np.abs(F).max()),
        "F_mean": float(F.sum()) / n, "F_sq": float((F**2).sum()), "x_min_wall": float(d.min()),
    }


@_MODELS
@pytest.mark.parametrize("reach, n, at_ell", _REACH_CASES)
def test_reach_limited_layer_bitwise_equal_all_walls(reach, n, at_ell, theta, H, a):
    geom, wall = Geometry("interval", a, a + 10.0), WallPotential(1.0, theta)
    m = FlockModel(CommunicationKernel("powerlaw", H, 0.25), wall, geom)
    rng = np.random.default_rng([n, len(reach), len(at_ell or "")])
    x = _reach_positions(reach, n, at_ell, rng, a)
    v = rng.uniform(-1.0, 1.0, n)
    F, want = _layer_record(geom, wall, x, v)
    assert _same(geometry_force(geom, wall, x), F)
    s = FlockState(0.0, x, v)
    rec = diagnostics(m, s, initial_energy(m, s))
    assert {k: _same(getattr(rec, k), w) for k, w in want.items()} == dict.fromkeys(want, True)
    # phi written out: a unit H multiplies nothing
    r = x[:, None] - x[None, :]
    w = H * (r * r + 1.0) ** -0.25
    assert _same(acceleration(m, x, v), (w * (v[None, :] - v[:, None])).sum(axis=1) / n + F)


@_MODELS
@pytest.mark.parametrize(
    "rows", [("left", "neither"), ("right", "neither"), ("left", "right"), ("both", "neither"),
             ("neither", "neither")],
)
def test_reach_limited_layer_of_a_batch_bitwise_equal_all_walls(rows, theta, H, a):
    # geometry_force and the diagnostics of a batch's rows evaluate the walls
    # in reach of any member
    geom, wall = Geometry("interval", a, a + 10.0), WallPotential(1.0, theta)
    m = FlockModel(CommunicationKernel("powerlaw", H, 0.25), wall, geom)
    rng = np.random.default_rng([len(rows[0]), len(rows[1])])
    x = np.array([_reach_positions(reach, 6, "right", rng, a) for reach in rows])
    v = rng.uniform(-1.0, 1.0, x.shape)
    oracle = [_layer_record(geom, wall, xb, vb) for xb, vb in zip(x, v)]
    assert _same(geometry_force(geom, wall, x), [F for F, want in oracle])
    stack = FlockModel(KernelStack((m.kernel,) * len(rows)), wall, geom)
    G = np.array([want["G"] for F, want in oracle])
    rec = diagnostics(stack, SimpleNamespace(t=0.0, x=x, v=v), G)
    for b, (F, want) in enumerate(oracle):
        assert {k: _same(getattr(rec, k)[b], w) for k, w in want.items()} == dict.fromkeys(want, True)


@pytest.mark.parametrize(
    "distance, message",
    [(np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"), (0.0, "positive"), (-0.3, "positive")],
)
def test_domain_rule_messages(distance, message):
    w = WallPotential()
    d = np.array([[2.0, distance, 0.5]])
    for call in (
        lambda: geometry_force(Geometry("halfline"), w, d[0]),
        lambda: check_domain(Geometry("halfline"), w, d[0]),
    ):
        with pytest.raises(WallDomainError, match=f"^wall distance must be {message}$"):
            call()


def test_domain_rule_edges():
    off = WallPotential(theta=0.0)
    assert F(off, np.array([-0.3, 2.0])).tolist() == [0.0, 0.0]
    with pytest.raises(WallDomainError, match="finite"):
        F(off, np.array([-0.3, np.nan]))
    w = WallPotential()
    interval = Geometry("interval", 0.0, 1.0)
    assert wall_layer(interval, w, np.empty(0), potential=True) == (math.inf, 0.0, None)
    for out in (F(w, np.array([])), U(w, np.empty((1, 0))), geometry_force(interval, w, np.empty(0))):
        assert isinstance(out, np.ndarray) and out.shape == (0,)


# The domain rule reads only the two extremes of the positions.  Its oracle is
# the rule as two full reductions of the distances written out, which decides
# every value from all of them, with the zero of IEEE 754-2019 minimum: -0.0
# ranks below +0.0, so a zero is -0.0 when any distance is -0.0 (numpy's min
# picks among tied zeros by the array's length and the zeros' places).
def _distance_rule(wall, d):
    if not d.size:
        return math.inf
    lo, hi = d.min(), d.max()
    if not (-math.inf < lo and hi < math.inf):
        raise WallDomainError("wall distance must be finite")
    if lo <= 0.0 and not wall.disabled:
        raise WallDomainError("wall distance must be positive")
    if lo == 0.0:
        return -0.0 if np.signbit(d[d == 0.0]).any() else 0.0
    return float(lo)


def _member_rule(wall, d):
    """_distance_rule on one state's (walls, N) distances, or, for a batch's
    (B, walls, N), on all of them (which raises if any member does) and then
    on each member's; inf for no positions."""
    lo = _distance_rule(wall, d)
    return lo if d.ndim < 3 or not d.size else np.array([_distance_rule(wall, di) for di in d])


def _outcome(call):
    """The bits of call()'s result, or its exception's class and message."""
    try:
        return "returned", _bits(call()).tolist()
    except WallDomainError as exc:
        return type(exc), str(exc)


_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1e300, -1e300)


@st.composite
def _rule_cases(draw):
    """(geometry, wall, positions): a scalar, an (N,) row or (B, N) rows, N >= 0,
    inside the domain or with NaN, +-inf, +-0.0, huge values or agents on a wall."""
    if draw(st.booleans()):
        geom = Geometry()
    else:
        # at a = -1e308, max(x) - a overflows where b - min(x) does not
        a = draw(st.sampled_from([0.0, -0.0, -2.5, 1.0, -1e308]))
        geom = Geometry("interval", a, 1e308 if a == -1e308 else a + draw(st.floats(0.5, 20.0)))
    wall = WallPotential(draw(st.floats(0.1, 5.0)), draw(st.sampled_from([0.0, 1.5])))
    lo, hi = (0.0, 12.0) if geom.variant == "halfline" else (geom.a, geom.b)
    inside = st.floats(lo, hi)
    walls = st.sampled_from([lo, hi] if geom.variant == "interval" else [lo])
    element = draw(st.sampled_from(["inside", "walls", "any"]))
    values = {
        "inside": inside,
        "walls": st.one_of(inside, walls),
        "any": st.one_of(inside, walls, st.sampled_from(_SPECIAL), st.floats()),
    }[element]
    shape = draw(st.sampled_from(["scalar", "row", "batch"]))
    if shape == "scalar":
        return geom, wall, draw(values)
    n = draw(st.integers(0, 6))
    rows = draw(st.integers(1, 3)) if shape == "batch" else 1
    x = np.array(draw(st.lists(values, min_size=n * rows, max_size=n * rows)), dtype=float)
    return geom, wall, x.reshape(rows, n) if shape == "batch" else x


@given(_rule_cases())
# zeros tied across the walls (interval (0, 1) with the wall off), a zero a =
# -0.0 (where x - a is +0.0 at x = -0.0), and a batch whose members tie apart
@example((Geometry("interval", 0.0, 1.0), WallPotential(1.0, 0.0), np.array([0.0, 0.0, 0.0, 1.0, 0.0])))
@example((Geometry("interval", -0.0, 1.0), WallPotential(1.0, 0.0), -0.0))
@example((Geometry("interval", 0.0, 1.0), WallPotential(1.0, 0.0), np.array([[1.0], [0.0]])))
def test_extremes_rule_equals_the_distance_array_rule(case):
    geom, wall, x = case
    # distances near 1e308 overflow, and the formula behind a disabled wall
    # (which the force does not evaluate) divides by zero or gives NaN
    with np.errstate(all="ignore"):
        d = _distances(geom, x)
        want = _outcome(lambda: _member_rule(wall, d))
        xs = np.array(x, dtype=float, ndmin=1)
        assert _outcome(lambda: wall._reach(xs, geom, each=True)[0]) == want
        assert _outcome(lambda: check_domain(geom, wall, x)) == want
        assert _outcome(lambda: wall_layer(geom, wall, xs, potential=True)[0]) == want
        # without each, a batch's nearest distance over all its members
        assert _outcome(lambda: wall._reach(xs, geom)[0]) == _outcome(lambda: _distance_rule(wall, d))
        if want[0] != "returned":
            assert _outcome(lambda: geometry_force(geom, wall, x)) == want
            return
        force = geometry_force(geom, wall, x)
        formula = np.add.reduce(_DIRECTIONS[geom.variant] * wall._terms(d)[1], axis=-2)
    assert isinstance(force, np.ndarray) and force.shape == (np.shape(x) or (1,))
    if wall.disabled:  # zeros, without the formula
        formula = np.zeros(force.shape)
    assert _bits(force).tolist() == _bits(formula).tolist()


@pytest.mark.parametrize(
    "variant, x, want",
    [
        ("halfline", [0.0, 3.0], [0.0]),  # the wall at 0: x itself
        ("halfline", [0.0, -0.0, 3.0], [-0.0]),
        ("interval", [0.0, 0.5], [0.0]),  # the wall at a = 0: x - a
        ("interval", [0.5, 1.0], [-0.0]),  # the wall at b = 1: -(x - b), -(+0.0)
        ("interval", [0.0, 0.5, 1.0], [-0.0]),  # tied across the walls
        ("halfline", [[-0.5, 1.0], [0.0, 1.0], [-0.0, 1.0]], [-0.5, 0.0, -0.0]),
        # a member behind the wall, so the batch's nearest is below 0
        ("interval", [[0.0, 0.5], [0.5, 1.0], [-0.0, 0.5], [0.5, 0.75], [-0.25, 0.5]],
         [0.0, -0.0, -0.0, 0.25, -0.25]),
    ],
    ids=["halfline-plus", "halfline-minus", "first-wall", "second-wall", "both-walls",
         "halfline-batch", "interval-batch"],
)
def test_a_zero_distance_is_minus_zero_when_any_agents_is(variant, x, want):
    # a disabled wall lets agents reach it; the nearest distance and each
    # member's x_min_wall take the sign of the rule, on each wall
    geom = Geometry() if variant == "halfline" else Geometry("interval", 0.0, 1.0)
    wall = WallPotential(0.25, 0.0)
    m = FlockModel(CommunicationKernel("powerlaw", 1.0, 0.25), wall, geom)
    x = np.array(x)
    v = np.zeros(x.shape)
    got = np.ravel(check_domain(geom, wall, x))
    assert got.tolist() == want and np.signbit(got).tolist() == np.signbit(want).tolist()
    if x.ndim == 1:
        rec = diagnostics(m, FlockState(0.0, x, v), 0.0)
    else:
        stack = FlockModel(KernelStack((m.kernel,) * len(x)), wall, geom)
        rec = diagnostics(stack, SimpleNamespace(t=0.0, x=x, v=v), np.zeros(len(x)))
    assert _same(rec.x_min_wall, want if x.ndim > 1 else want[0])
