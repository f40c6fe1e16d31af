"""Phase state and right-hand side of the wall-confined alignment dynamics.

Each agent carries a scalar position and velocity.  Accelerations are the
mean of kernel-weighted velocity differences plus the confining wall force:

    dx_i/dt = v_i
    dv_i/dt = (1/N) sum_j phi(x_i - x_j) (v_j - v_i) + F(x_i)
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .kernels import CommunicationKernel
from .potentials import Geometry, WallPotential, wall_layer, warn_if_overlapping

# element bound of one row strip of every pairwise pass, the kernel sums and
# the settlement check's gaps (256 KB): 32 rows at N = 1024, and one strip,
# the whole N x N matrix, up to N = 181
_BLOCK_ELEMENTS = 1 << 15
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1


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


def _philox_key(seed: int) -> tuple:
    """numpy's SeedSequence(seed).generate_state(2, uint64): the seed's 32-bit
    words, little end first, hashed into a pool of 4 and drawn out as 2 words."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]

    def hasher(h, mult):  # a 32-bit hash whose constant h advances at each call
        def hash32(value):
            nonlocal h
            value ^= h
            h = h * mult & _M32
            value = value * h & _M32
            return value ^ value >> 16

        return hash32

    def mix(x, y):
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:  # words past the pool's mix into each pool word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = list(map(hasher(0x8B51F9DD, 0x58F38DED), pool))
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def _philox_uniforms(seed: int, count: int) -> np.ndarray:
    """The first count doubles in [0, 1) of numpy's Generator(Philox(seed)):
    block c of Philox4x64-10 (Salmon et al., SC'11) is 10 rounds on the counter
    (c, 0, 0, 0), from c = 1, and gives 4 words w, each the double (w >> 11) 2^-53."""
    k0, k1 = _philox_key(seed)
    keys = [(k0 + r * 0x9E3779B97F4A7C15 & _M64, k1 + r * 0xBB67AE8584CAA73B & _M64)
            for r in range(10)]  # each round's key, bumped by a Weyl sequence
    out = []
    for c in range(1, (count + 3) // 4 + 1):
        c0, c1, c2, c3 = c, 0, 0, 0
        for r0, r1 in keys:
            p, q = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = (q >> 64) ^ c1 ^ r0, q & _M64, (p >> 64) ^ c3 ^ r1, p & _M64
        out += (c0 >> 11, c1 >> 11, c2 >> 11, c3 >> 11)
    u = np.array(out[:count], dtype=float)
    u *= 2.0**-53
    return u


def initial_condition(
    n_agents: int,
    x_low: float,
    x_high: float,
    v_low: float,
    v_high: float,
    seed: int,
) -> FlockState:
    """Uniform box sample from a counter-based Philox stream, sorted by position.

    The stream is numpy's Generator(Philox(seed)).uniform, bit for bit, written
    out so that a run imports no part of numpy's random package: positions
    take its first n_agents draws low + (high - low) u, velocities the next
    n_agents (mid-block when n_agents is not a multiple of 4).  Agents are
    then reordered ascending in x (pairs move together, so the dynamics are
    unchanged).
    """
    u = _philox_uniforms(operator.index(seed), 2 * n_agents)
    x = float(x_low) + (float(x_high) - float(x_low)) * u[:n_agents]
    v = float(v_low) + (float(v_high) - float(v_low)) * u[n_agents:]
    order = np.argsort(x, kind="stable")
    return FlockState(t=0.0, x=x[order], v=v[order])
