import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wallflock import (
    Geometry,
    WallDomainError,
    WallPotential,
    check_domain,
    geometry_force,
    geometry_potential,
    wall_distances,
    warn_if_overlapping,
)


def test_exact_values_at_half_depth():
    # ell=1, theta=1, x=0.5: gap g=0.5
    w = WallPotential()
    assert w.value(0.5) == 0.125  # 0.5^4 / 0.5
    assert w.force(0.5) == 1.25  # (4 g^3 x + g^4) / x^2


def test_blowup_near_wall():
    w = WallPotential()
    v = w.value(1e-3)
    assert abs(v - 996.005996001) < 1e-9 * v  # (1 - 1e-3)^4 / 1e-3
    assert w.value(1e-6) > 9.9e5


def test_zero_outside_reaction_length():
    w = WallPotential(ell=1.0, theta=2.0)
    for x in (1.0, 1.5, 40.0):
        assert w.value(x) == 0.0
        assert w.force(x) == 0.0


def test_theta_scales_linearly():
    rng = np.random.default_rng(3)
    base = WallPotential(1.0, 1.0)
    scaled = WallPotential(1.0, 2.5)
    x = rng.uniform(0.05, 0.95, size=25)
    assert np.allclose(scaled.value(x), 2.5 * base.value(x), rtol=1e-15)
    assert np.allclose(scaled.force(x), 2.5 * base.force(x), rtol=1e-15)


def test_force_is_negative_gradient():
    w = WallPotential(ell=1.3, theta=0.8)
    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(40):
        x = float(rng.uniform(0.1, 1.25))
        grad = (w.value(x + h) - w.value(x - h)) / (2.0 * h)
        assert abs(w.force(x) + grad) < 1e-6 * max(1.0, abs(grad))


def test_force_is_repulsive_inside():
    w = WallPotential()
    x = np.linspace(0.01, 0.99, 60)
    assert np.all(w.force(x) > 0.0)


def test_domain_errors():
    w = WallPotential()
    with pytest.raises(WallDomainError):
        w.value(0.0)
    with pytest.raises(WallDomainError):
        w.force(-0.2)
    with pytest.raises(WallDomainError):
        w.value(np.nan)
    with pytest.raises(ValueError):
        WallPotential(ell=0.0)
    with pytest.raises(ValueError):
        WallPotential(theta=-1.0)


def test_disabled_wall_accepts_everything():
    w = WallPotential(theta=0.0)
    assert w.disabled
    x = np.array([-3.0, 0.0, 0.5, 2.0])
    assert np.all(w.value(x) == 0.0)
    assert np.all(w.force(x) == 0.0)


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


def test_wall_distances_shapes_and_values():
    assert Geometry("halfline").walls == ((0.0, 1.0),)
    assert Geometry("interval", 0.0, 10.0).walls == ((0.0, 1.0), (10.0, -1.0))
    x = np.array([0.5, 2.0, 7.0])
    d_half = wall_distances(Geometry("halfline"), x)
    assert d_half.shape == (1, 3)
    assert np.array_equal(d_half[0], x)
    d_int = wall_distances(Geometry("interval", 0.0, 10.0), x)
    assert d_int.shape == (2, 3)
    assert np.array_equal(d_int[0], x)
    assert np.array_equal(d_int[1], 10.0 - x)


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
    expected_u = w.value(0.75) + w.value(0.75)
    assert abs(float(geometry_potential(geom, w, x)[0]) - expected_u) < 1e-15


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
    assert w.force(u * ell) > 0.0
    assert w.force(ell / u) == 0.0


@given(ell=_ells, x=st.lists(st.floats(1e-6, 50.0), min_size=1, max_size=20))
def test_halfline_geometry_force_is_the_wall_force(ell, x):
    w = WallPotential(ell=ell)
    x = np.array(x)
    f = geometry_force(Geometry("halfline"), w, x)
    assert f.tobytes() == w.force(x).tobytes()
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
