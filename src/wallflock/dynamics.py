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
from .potentials import Geometry, WallPotential, geometry_force, warn_if_overlapping


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
    n_agents: int

    def __post_init__(self):
        if int(self.n_agents) != self.n_agents or self.n_agents < 1:
            raise ValueError("n_agents must be a positive integer")
        warn_if_overlapping(self.geometry, self.wall)


def acceleration(m: FlockModel, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dv/dt on raw arrays; dx/dt is v itself."""
    # the wall force validates x (finite, inside the domain) before the O(N^2) work
    force = geometry_force(m.geometry, m.wall, x)
    w = m.kernel.matrix(x)
    w *= v[None, :] - v[:, None]
    return w.sum(axis=1) / x.shape[0] + force


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
