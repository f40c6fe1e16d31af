"""Repulsive wall potentials with compact-support onset and boundary blow-up."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


class WallDomainError(ValueError):
    """Raised when a state (or an integrator stage) leaves the open domain."""


@dataclass(frozen=True)
class WallPotential:
    """Single-wall potential measured as distance x > 0 from the wall.

        U(x) = theta * max(ell - x, 0)^4 / x

    Smooth on (0, inf), supported on (0, ell), divergent as x -> 0+.
    theta = 0 disables the wall entirely (used for negative controls);
    a disabled wall exerts no force and imposes no domain restriction.
    """

    ell: float = 1.0
    theta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ValueError("wall range ell must be positive and finite")
        if not (math.isfinite(self.theta) and self.theta >= 0):
            raise ValueError("wall strength theta must be nonnegative and finite")

    @property
    def disabled(self) -> bool:
        return self.theta == 0.0

    def _terms(self, x, potential: bool = False):
        """(U(x), -U'(x)) with g = (ell - x)+, the force pointing away from the
        wall; U is None unless potential, and shares g and g^4 with the force.
        A unit theta multiplies nothing: 1.0 * a is a for every double.  The
        force is formed in g's buffer, after g^4 is taken from it."""
        g = np.subtract(self.ell, x)
        np.maximum(g, 0.0, out=g)
        g4 = g**4
        force = np.power(g, 3, out=g)
        force *= 4.0
        force *= x
        force += g4
        if self.theta != 1.0:
            force *= self.theta
            g4 *= self.theta
        force /= x * x
        return (g4 / x if potential else None), force

    def _reach(self, x: np.ndarray, geom: Geometry, each: bool = False) -> tuple:
        """The domain rule on positions x in geom, one state's (N,) row or a
        batch's (B, N) rows: finite wall distances, positive while the wall is
        on.  Returns the nearest distance (inf for no x; with each, a batch's
        (B,) array of each member's own) and any agent's nearest distances to
        the first and the second wall (inf for the half-line's second), from
        the extremes of x: argmin, argmax and ufunc reductions stop at a NaN,
        and correctly rounded subtraction is monotone.  A zero is -0.0 when any
        agent's distance, x, x - a or -(x - b), is -0.0, as IEEE 754-2019
        minimum ranks -0.0 below +0.0."""
        if not x.size:
            return math.inf, math.inf, math.inf
        lo, hi = x.item(x.argmin()), x.item(x.argmax())
        left, right = lo, math.inf
        if geom.variant == "interval":
            left, right = lo - geom.a, geom.b - hi
            lo, hi = min(left, right), max(hi - geom.a, geom.b - lo)
        if not (-math.inf < lo and hi < math.inf):
            raise WallDomainError("wall distance must be finite")
        if lo <= 0.0 and not self.disabled:
            raise WallDomainError("wall distance must be positive")
        if lo == 0.0 or each and x.ndim > 1:  # the sign of a zero, or each member's own
            each, zero = each and x.ndim > 1, lo <= 0.0  # a member's nearest may be 0
            if each:
                lo = np.minimum.reduce(x, axis=-1)
                if geom.variant == "interval":
                    lo = np.minimum(lo - geom.a, geom.b - np.maximum.reduce(x, axis=-1), out=lo)
            if zero:  # no distance is below a zero nearest one, so any signbit is -0.0
                d = [x] if geom.variant == "halfline" else [x - geom.a, -(x - geom.b)]
                neg = np.signbit(d).any(axis=(0, -1) if each else None)
                lo = np.where(lo == 0.0, np.where(neg, -0.0, 0.0), lo)[()]
        return lo, left, right


@dataclass(frozen=True)
class Geometry:
    """Open confinement domain: the half-line (0, inf) or an interval (a, b).

    The domain is bounded by its walls: the half-line's at 0, the interval's
    at a and b.  A position x is at distance x from the half-line's wall, and
    at x - a and -(x - b) from the interval's; WallPotential._reach holds the
    domain rule on them.
    """

    variant: str = "halfline"
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.variant == "halfline":
            if self.a is not None or self.b is not None:
                raise ValueError("geometry.a and geometry.b apply to the interval variant only")
        elif self.variant == "interval":
            if self.a is None or self.b is None:
                raise ValueError("interval geometry requires both endpoints a and b")
            if not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
                raise ValueError("interval geometry requires finite endpoints with b > a")
        else:
            raise ValueError(f"unknown geometry variant {self.variant!r}")


def check_domain(geom: Geometry, wall: WallPotential, x):
    """Raise unless every position is strictly inside the open domain, else
    return the smallest wall distance, one per member for a batch's (B, N)
    positions.

    The wall's own distance check decides, so a disabled wall (theta = 0)
    asks only for finite distances: control runs can cross the boundary and
    be flagged by the collision check afterwards.
    """
    return wall._reach(np.asarray(x, dtype=float), geom, True)[0]


def geometry_force(geom: Geometry, wall: WallPotential, x) -> np.ndarray:
    """Signed confining force: each wall pushes into the domain (wall_layer's F,
    zeros where it has none)."""
    x = np.array(x, dtype=float, ndmin=1, copy=None)
    F = wall_layer(geom, wall, x)[2]
    return np.zeros(x.shape) if F is None else F


def wall_layer(geom: Geometry, wall: WallPotential, x: np.ndarray, potential: bool = False):
    """(lo, P, F) at positions x, one state's (N,) row or a batch's (B, N) rows:
    the smallest wall distance, by the domain rule; P, with potential, the
    mean wall potential (else None); and the force per position, None where
    no agent is within ell of a wall or the wall is off.  With potential, a
    batch's lo and P are per member and its F is never None.

    Each wall in reach of some agent adds its row, x - a or b - x, bit for bit
    the sum over both walls of the formula on every distance: a wall out of
    reach adds +0.0, and the second wall pushes towards -x, so the force is
    F_a + (-F_b), which is F_a - F_b, or 0.0 - F_b with the second wall alone.
    """
    lo, left, right = wall._reach(x, geom, potential)
    U = F = None
    if (left < wall.ell or right < wall.ell) and not wall.disabled:
        U = F = 0.0
        if left < wall.ell:  # 1.0 * (x - a) is x - a, which is x at a zero a (x > 0)
            U, F = wall._terms(x - geom.a if geom.a else x, potential)
        if right < wall.ell:
            U_b, F_b = wall._terms(geom.b - x, potential)
            U, F = (U + U_b if potential else None), F - F_b
    if not potential:
        return lo, None, F
    if x.ndim == 1:
        return lo, (0.0 if U is None else float(U.sum()) / x.size), F
    if F is None:  # a batch's sample: each member's zeros, which the formula gives
        U = F = np.zeros(x.shape)
    return lo, U.sum(axis=-1) / x.shape[-1], F


def warn_if_overlapping(geom: Geometry, wall: WallPotential) -> None:
    # overlapping ranges are legal but leave no force-free interior region
    if geom.variant == "interval" and wall.ell > (half_width := (geom.b - geom.a) / 2.0):
        warnings.warn(
            f"wall range ell={wall.ell} exceeds half the interval width {half_width}",
            stacklevel=2,
        )
