"""Phase state and right-hand side of the wall-confined alignment dynamics.

Each agent carries a scalar position and velocity.  Accelerations are the
mean of kernel-weighted velocity differences plus the confining wall force:

    dx_i/dt = v_i
    dv_i/dt = (1/N) sum_j phi(x_i - x_j) (v_j - v_i) + F(x_i)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import CommunicationKernel
from .potentials import Geometry, WallPotential, wall_layer, warn_if_overlapping

# element bound of one row strip of every pairwise pass, the kernel sums and
# the settlement check's gaps (256 KB): 32 rows at N = 1024, and one strip,
# the whole N x N matrix, up to N = 181
_BLOCK_ELEMENTS = 1 << 15


@dataclass
class FlockState:
    t: float
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.t = float(self.t)
        self.x = np.array(self.x, dtype=float)
        self.v = np.array(self.v, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.v.shape or self.x.size < 1:
            raise ValueError("x and v must be 1-d arrays of equal length >= 1")
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError("time must be finite and nonnegative")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ValueError("state entries must be finite")

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class FlockModel:
    kernel: CommunicationKernel
    wall: WallPotential
    geometry: Geometry

    def __post_init__(self):
        warn_if_overlapping(self.geometry, self.wall)


def block_rows(n: int) -> int:
    """Rows in one strip of an n-column pairwise array."""
    return max(1, _BLOCK_ELEMENTS // n)


def kernel_strips(kernel: CommunicationKernel, x: np.ndarray, v: np.ndarray):
    """(lo, hi, phi(x_i - x_j), v_j - v_i) for i in [lo, hi), j >= lo: each pair
    i < j in one strip; both strips are views of one workspace, reused by the next.

    Each difference a_j - a_i is the rank-2 product [-a_i, 1] . [1, a_j]: both
    products are exact, so the matmul rounds their sum once, as the subtraction
    does, and at close to memory speed.  Only the sign of a zero from zeros of
    opposite sign can differ, which squaring, or adding to a sum that is never
    -0.0, removes.
    """
    n, rows = x.shape[0], block_rows(x.shape[0])
    ones = np.ones(n)
    (px, qx), (pv, qv) = [(np.stack((-a, ones), axis=1), np.stack((ones, a))) for a in (x, v)]
    work = np.empty((2, rows * n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        w, dv = work[:, : (hi - lo) * (n - lo)].reshape(2, hi - lo, n - lo)
        np.matmul(px[lo:hi], qx[:, lo:], out=w)
        np.matmul(pv[lo:hi], qv[:, lo:], out=dv)
        yield lo, hi, kernel._phi(w), dv


def acceleration(m: FlockModel, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dv/dt on raw arrays; dx/dt is v itself.

    x and v are one state's (N,) rows or a batch's (B, N) rows, up to N = 181
    where one strip holds a member's whole matrix; integrator.batch_members
    keeps a batch's stacked matrices within one strip's bound.
    """
    # the wall layer validates x (finite, inside the domain) before the O(N^2) work
    force = wall_layer(m.geometry, m.wall, x)[2]
    n = x.shape[-1]
    if n * n <= _BLOCK_ELEMENTS:
        # one strip, the dense N x N form: no loop, which costs 5 % at N = 16
        w = m.kernel.matrix(x, x)
        w *= v[..., None, :] - v[..., :, None]
        sums = np.add.reduce(w, axis=-1)
    else:
        # phi is even in r^2, so phi_ij (v_j - v_i) = -phi_ji (v_i - v_j) to the
        # bit: a strip's columns past its rows are also the later rows' terms
        sums = np.zeros(n)
        for lo, hi, w, dv in kernel_strips(m.kernel, x, v):
            w *= dv
            sums[lo:hi] += w.sum(axis=1)
            sums[hi:] -= w[:, hi - lo :].sum(axis=0)
    sums /= n
    if force is not None:  # None with no wall in reach: no sum is -0.0, so 0.0 adds nothing
        sums += force
    return sums


def initial_condition(
    n_agents: int,
    x_low: float,
    x_high: float,
    v_low: float,
    v_high: float,
    seed: int,
) -> FlockState:
    """Uniform box sample from a counter-based Philox stream, sorted by position.

    Positions are drawn before velocities; agents are then reordered
    ascending in x (pairs move together, so the dynamics are unchanged).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.uniform(x_low, x_high, n_agents)
    v = rng.uniform(v_low, v_high, n_agents)
    order = np.argsort(x, kind="stable")
    return FlockState(t=0.0, x=x[order], v=v[order])
