import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy.special import hyp2f1

from wallflock import (
    CommunicationKernel,
    FlockModel,
    FlockState,
    Geometry,
    WallPotential,
    acceleration,
    diagnostics,
    geometry_force,
    kernels,
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
    c = CommunicationKernel("powerlaw", H=0.7, beta=0.0)
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
    assert CommunicationKernel("powerlaw", 2.0, 0.0).primitive(3.0) == 6.0
    assert CommunicationKernel("powerlaw", 1.0, 0.0).primitive(3.0) == 3.0
    k_half = CommunicationKernel("powerlaw", 1.0, 0.5)
    assert abs(k_half.primitive(1.0) - ASINH_1) < 1e-15
    k_one = CommunicationKernel("powerlaw", 1.0, 1.0)
    assert abs(k_one.primitive(1.0) - ATAN_1) < 1e-15
    assert CommunicationKernel("powerlaw", 3.0, 1.0).primitive(0.0) == 0.0


def test_flat_kernel_primitive_is_h_times_d_bitwise():
    # beta = 0 has its own branch, H * D
    grid = np.concatenate([[0.0], np.logspace(-6, 4, 2001), [1e200]])
    for H in (1.0, 0.15, 3.7):
        k = CommunicationKernel("powerlaw", H, 0.0)
        got = np.array([k.primitive(float(D)) for D in grid])
        assert np.array_equal(_bits(got), _bits(H * grid))


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


# betas off the closed forms, two of them 1e-4 from the beta = 1/2 one
ORACLE_BETAS = (0.1, 0.25, 0.4999, 0.5001, 0.7, 1.5, 1.6, 2.5, 3.0)
# log-spaced, past D = 2^511.5 ~ 1.34e154, where D * D overflows
ORACLE_GRID = np.unique(np.concatenate([np.logspace(-8, 300, 45), np.logspace(-2, 3, 16)]))


def _mp_primitive(beta, grid):
    """Phi (H = 1) on the increasing grid to 40 digits, by tanh-sinh quadrature.

    [0, D] for D <= 1; past 1, Phi(1) plus the exact integral of r^(-2 beta)
    over [1, D] plus that of the rest, r^(-2 beta) ((1 + r^-2)^(-beta) - 1),
    taken in u = ln r, where it decays, span by span along the grid.
    """
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        c = 1 - 2 * b
        phi = lambda r: (1 + r * r) ** -b
        rest = lambda u: mpmath.exp(c * u) * mpmath.expm1(-b * mpmath.log1p(mpmath.exp(-2 * u)))
        head = mpmath.quad(phi, [0, 1])
        out, u0, tail = [], mpmath.mpf(0), mpmath.mpf(0)
        for D in grid:
            D = mpmath.mpf(float(D))
            if D <= 1:
                out.append(mpmath.quad(phi, [0, D]))
                continue
            u = mpmath.log(D)
            tail += mpmath.quad(rest, [u0, u])
            u0 = u
            out.append(head + mpmath.expm1(c * u) / c + tail)
        return out


# phi ~ exp(-beta r^2) near 0 at beta = 20 and 100, where the first panel shrinks
@pytest.mark.parametrize(
    "beta, tol", [(b, 4e-15) for b in ORACLE_BETAS] + [(20.0, 1e-14), (100.0, 1e-14)]
)
def test_primitive_matches_40_digit_quadrature(beta, tol):
    k = CommunicationKernel("powerlaw", 1.0, beta)
    for D, ref in zip(ORACLE_GRID, _mp_primitive(beta, ORACLE_GRID)):
        got = k.primitive(float(D))
        assert abs(mpmath.mpf(got) - ref) <= tol * ref, (D, got, ref)


@pytest.mark.parametrize("beta", [b for b in ORACLE_BETAS if abs(b - 0.5) >= 0.05])
def test_primitive_matches_hypergeometric_form(beta):
    # Phi(D) = H D 2F1(1/2, beta; 3/2; -D^2); scipy's 2F1 errs by ~1e-12 near
    # beta = 1/2, and at beta = 3 it returns 0 from D ~ 1e82 on
    k = CommunicationKernel("powerlaw", 1.3, beta)
    for D in np.logspace(-8, 60, 35):
        ref = 1.3 * D * hyp2f1(0.5, beta, 1.5, -D * D)
        assert abs(k.primitive(float(D)) - ref) <= 1e-14 * ref, D


@pytest.mark.parametrize("beta", ORACLE_BETAS)
def test_primitive_is_zero_at_zero_and_strictly_increasing(beta):
    k = CommunicationKernel("powerlaw", 0.8, beta)
    assert k.primitive(0.0) == 0.0
    # past D ~ 1e2, Phi(D) moves by less than an ulp where beta > 1/2
    vals = [k.primitive(float(D)) for D in np.logspace(-8, 2, 41)]
    assert np.all(np.diff(vals) > 0.0)
    vals = [k.primitive(float(D)) for D in ORACLE_GRID]
    assert np.all(np.diff(vals) >= 0.0)


@pytest.mark.parametrize("beta", ORACLE_BETAS + (20.0, 100.0))
def test_primitive_is_h_times_d_at_subnormal_d(beta):
    # phi = H to the last bit on [0, D]; at D = 5e-324 the panel's half-width
    # D / 2 underflows to 0, so the panel must not scale by it
    for H in (1.0, 0.8, 1.3):
        k = CommunicationKernel("powerlaw", H, beta)
        for D in (5e-324, 1e-310):
            assert _bits(k.primitive(D)) == _bits(H * D), (H, D)


def test_primitive_does_not_depend_on_the_cache(monkeypatch):
    # each value with a cold cache equals the value from one cache warmed from the top
    grid = [float(D) for D in ORACLE_GRID] + [1.7976931348623157e308]
    for beta in (0.25, 1.5, 40.0):
        k = CommunicationKernel("powerlaw", 1.0, beta)
        monkeypatch.setattr(kernels, "_ANCHORS", {})
        warm = [k.primitive(D) for D in reversed(grid)][::-1]
        for D, value in zip(grid, warm):
            monkeypatch.setattr(kernels, "_ANCHORS", {})
            assert _bits(k.primitive(D)) == _bits(value), (beta, D)


def test_quadrature_rule_is_leggauss_12():
    # the literals are numpy's rule within 1 ulp (another numpy or LAPACK build
    # may round its eigen-solve otherwise), in its order, and exactly symmetric
    nodes, weights = (np.array(a) for a in zip(*kernels._GAUSS))
    for got, ref in zip((nodes, weights), np.polynomial.legendre.leggauss(12)):
        assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])


def test_fat_tail():
    assert CommunicationKernel("powerlaw", 1.0, 0.0).fat_tail() is True
    assert CommunicationKernel("powerlaw", 1.0, 0.25).fat_tail() is True
    assert CommunicationKernel("powerlaw", 1.0, 0.5).fat_tail() is True  # boundary case diverges
    assert CommunicationKernel("powerlaw", 1.0, 0.51).fat_tail() is False
    assert CommunicationKernel("powerlaw", 1.0, 1.0).fat_tail() is False



def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize(
    "family, beta",
    [("powerlaw", b) for b in (0.0, 0.25, 0.5, 1.0, 1.5)],
)
def test_kernel_matrix_consumers_bitwise_equal_direct_form(family, beta):
    # acceleration and I2 build phi in one buffer; their bits must be those of
    # the direct expressions H * (1 + r*r)**-beta * (v_j - v_i), summed
    rng = np.random.default_rng(11)
    k = CommunicationKernel(family, 1.3, beta)
    for n in (1, 2, 16, 130):
        x = np.sort(rng.uniform(0.5, 40.0, n))
        v = rng.uniform(-1.0, 1.0, n)
        m = FlockModel(k, WallPotential(), Geometry("halfline"))
        gaps = x[:, None] - x[None, :]
        phi = k.H * (1.0 + gaps * gaps) ** (-k.beta)
        F = geometry_force(m.geometry, m.wall, x)
        acc = (phi * (v[None, :] - v[:, None])).sum(axis=1) / n + F
        dv = v[:, None] - v[None, :]
        I2 = float((phi * dv * dv).sum()) / (2.0 * n * n)
        assert np.array_equal(_bits(acceleration(m, x, v)), _bits(acc))
        assert np.array_equal(_bits(diagnostics(m, FlockState(0.0, x, v), 0.0).I2), _bits(I2))
        assert np.array_equal(_bits(k.matrix(x, x)), _bits(phi))
        # eval shares the formula: an entry of the matrix is phi of its gap
        assert np.array_equal(_bits(k.eval(gaps)), _bits(phi))
        assert _bits(k.eval(gaps[-1, 0])) == _bits(phi[-1, 0])


def test_kernel_stack_matrix_bitwise_equal_each_members_own():
    # a batch whose members carry their own kernels, one of them twice apart
    # (a, b, a): each member's slice has its own kernel.matrix's bits, the
    # beta = 1 reciprocal and beta = 0 ones paths included, and so has each
    # member of a subset that takes its columns by index
    ks = [CommunicationKernel("powerlaw", H, beta)
          for beta in (0.0, 0.5, 1.0, 1.5) for H in (0.3, 1.0)]
    members = [ks[i] for i in (0, 1, 0, 2, 2, 3, 4, 5, 6, 7, 7, 4)]
    stack = kernels.KernelStack(tuple(members))
    subset = [11, 3, 7, 1]
    sub = stack.take(subset)
    rng = np.random.default_rng(12)
    for n in (1, 8, 16):
        x = np.sort(rng.uniform(0.5, 40.0, (len(members), n)), axis=1)
        got = stack.matrix(x, x)
        for b, k in enumerate(members):
            assert np.array_equal(_bits(got[b]), _bits(k.matrix(x[b], x[b]))), (n, b)
        got = sub.matrix(x[subset], x[subset])
        for j, b in enumerate(subset):
            assert np.array_equal(_bits(got[j]), _bits(members[b].matrix(x[b], x[b]))), (n, b)


def test_kernel_stack_is_its_kernels():
    # equal and hashed by its kernels alone, however its columns were made;
    # a unit H or a beta other than 1 in every member leaves that column out
    ks = (CommunicationKernel("powerlaw", 0.3, 1.0), CommunicationKernel("powerlaw", 1.0, 0.5))
    stack = kernels.KernelStack(ks * 2)
    taken = stack.take([0, 1])
    assert taken == kernels.KernelStack(ks) and hash(taken) == hash(kernels.KernelStack(ks))
    assert taken != kernels.KernelStack(ks[::-1])
    assert kernels.KernelStack(ks[1:]).columns[1:] == (None, None)
    exponent, H, unit = stack.columns
    assert exponent.shape == H.shape == unit.shape == (4, 1, 1)
    assert exponent.ravel().tolist() == [-1.0, -0.5] * 2 and H.ravel().tolist() == [0.3, 1.0] * 2
    assert unit.ravel().tolist() == [True, False] * 2


def test_constant_kernel_is_the_power_law_at_beta_zero():
    # no family of its own: "constant" is unknown, and beta = 0 is H everywhere
    with pytest.raises(ValueError, match="unknown kernel family 'constant'"):
        CommunicationKernel("constant", 1.3)
    k = CommunicationKernel("powerlaw", 1.3, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(_bits(k.eval([0.0, 1e200, np.inf, -np.inf, np.nan])), _bits([1.3] * 5))
