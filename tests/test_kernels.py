import numpy as np
import pytest
from scipy import integrate as sp_integrate

from wallflock import (
    CommunicationKernel,
    FlockModel,
    FlockState,
    Geometry,
    WallPotential,
    acceleration,
    diagnostics,
    geometry_force,
)

# closed-form primitives at D=1, H=1
ASINH_1 = 0.8813735870195430
ATAN_1 = 0.7853981633974483


def test_defaults():
    k = CommunicationKernel()
    assert k.family == "powerlaw"
    assert k.H == 1.0
    assert k.beta == 0.25


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CommunicationKernel("gaussian")
    with pytest.raises(ValueError):
        CommunicationKernel("powerlaw", H=0.0)
    with pytest.raises(ValueError):
        CommunicationKernel("powerlaw", H=-1.0)
    with pytest.raises(ValueError):
        CommunicationKernel("powerlaw", beta=-0.5)


def test_frozen():
    k = CommunicationKernel()
    with pytest.raises(AttributeError):
        k.H = 2.0


def test_eval_known_values():
    k = CommunicationKernel("powerlaw", H=2.0, beta=1.0)
    assert k.eval(0.0) == 2.0
    assert k.eval(1.0) == 1.0  # 2 * (1 + 1)^-1
    assert k.eval(3.0) == 0.2
    c = CommunicationKernel("constant", H=0.7)
    assert c.eval(0.0) == 0.7
    assert c.eval(100.0) == 0.7


def test_eval_even_and_array():
    k = CommunicationKernel("powerlaw", H=1.0, beta=0.3)
    r = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    out = k.eval(r)
    assert out.shape == r.shape
    # evenness must hold bitwise, the kernel only sees r^2
    assert out[0] == out[4]
    assert out[1] == out[3]


def test_eval_nonincreasing_property():
    rng = np.random.default_rng(101)
    for _ in range(50):
        H = float(rng.uniform(0.1, 3.0))
        beta = float(rng.uniform(0.0, 2.5))
        k = CommunicationKernel("powerlaw", H, beta)
        r = np.sort(rng.uniform(0.0, 10.0, size=40))
        vals = k.eval(r)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals > 0.0)
        assert np.all(vals <= H)


def test_primitive_closed_forms():
    assert CommunicationKernel("constant", 2.0).primitive(3.0) == 6.0
    assert CommunicationKernel("powerlaw", 1.0, 0.0).primitive(3.0) == 3.0
    k_half = CommunicationKernel("powerlaw", 1.0, 0.5)
    assert abs(k_half.primitive(1.0) - ASINH_1) < 1e-15
    k_one = CommunicationKernel("powerlaw", 1.0, 1.0)
    assert abs(k_one.primitive(1.0) - ATAN_1) < 1e-15
    assert CommunicationKernel("powerlaw", 3.0, 1.0).primitive(0.0) == 0.0


def test_primitive_matches_quadrature():
    # independent route: numerically integrate eval and compare
    for beta in (0.25, 0.5, 0.7, 1.0, 1.6):
        for D in (0.3, 1.0, 2.5, 7.5):
            k = CommunicationKernel("powerlaw", 1.3, beta)
            quad, err = sp_integrate.quad(lambda r: float(k.eval(r)), 0.0, D)
            assert abs(k.primitive(D) - quad) < 1e-9 + 1e-9 * abs(quad)


def test_primitive_derivative_is_kernel():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(30):
        beta = float(rng.uniform(0.0, 2.0))
        k = CommunicationKernel("powerlaw", 1.0, beta)
        D = float(rng.uniform(0.2, 5.0))
        num = (k.primitive(D + h) - k.primitive(D - h)) / (2.0 * h)
        assert abs(num - float(k.eval(D))) < 1e-8


def test_fat_tail():
    assert CommunicationKernel("constant", 1.0).fat_tail() is True
    assert CommunicationKernel("powerlaw", 1.0, 0.0).fat_tail() is True
    assert CommunicationKernel("powerlaw", 1.0, 0.25).fat_tail() is True
    assert CommunicationKernel("powerlaw", 1.0, 0.5).fat_tail() is True  # boundary case diverges
    assert CommunicationKernel("powerlaw", 1.0, 0.51).fat_tail() is False
    assert CommunicationKernel("powerlaw", 1.0, 1.0).fat_tail() is False



def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize(
    "family, beta",
    [("constant", 0.25)] + [("powerlaw", b) for b in (0.0, 0.25, 0.5, 1.0, 1.5)],
)
def test_kernel_matrix_consumers_bitwise_equal_direct_form(family, beta):
    # acceleration and I2 build phi in one buffer; their bits must be those of
    # the direct expressions H * (1 + r*r)**-beta * (v_j - v_i), summed
    rng = np.random.default_rng(11)
    k = CommunicationKernel(family, 1.3, beta)
    for n in (1, 2, 16, 130):
        x = np.sort(rng.uniform(0.5, 40.0, n))
        v = rng.uniform(-1.0, 1.0, n)
        m = FlockModel(k, WallPotential(), Geometry("halfline"), n)
        gaps = x[:, None] - x[None, :]
        if family == "constant":
            phi = np.full_like(gaps, k.H)
        else:
            phi = k.H * (1.0 + gaps * gaps) ** (-k.beta)
        F = geometry_force(m.geometry, m.wall, x)
        acc = (phi * (v[None, :] - v[:, None])).sum(axis=1) / n + F
        dv = v[:, None] - v[None, :]
        I2 = float((phi * dv * dv).sum()) / (2.0 * n * n)
        assert np.array_equal(_bits(acceleration(m, x, v)), _bits(acc))
        assert np.array_equal(_bits(diagnostics(m, FlockState(0.0, x, v), 0.0).I2), _bits(I2))
        assert np.array_equal(_bits(k.matrix(x)), _bits(phi))
        # eval shares the formula: an entry of the matrix is phi of its gap
        assert np.array_equal(_bits(k.eval(gaps)), _bits(phi))
        assert _bits(k.eval(gaps[-1, 0])) == _bits(phi[-1, 0])
