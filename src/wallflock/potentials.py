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
        A unit theta multiplies nothing: 1.0 * a is a for every double."""
        g = np.maximum(self.ell - x, 0.0)
        g4 = g**4
        force = 4.0 * g**3 * x + g4
        if self.theta != 1.0:
            force *= self.theta
            g4 *= self.theta
        force /= x * x
        return (g4 / x if potential else None), force

    def _check(self, x: np.ndarray, geom: Geometry | None = None) -> float:
        """The domain rule on wall distances x, or on positions x in geom: finite,
        and positive while the wall is on.  Returns the smallest distance, inf
        when there is none (_reach's first value)."""
        return self._reach(x, geom)[0]

    def _reach(self, x: np.ndarray, geom: Geometry | None = None) -> tuple:
        """(_check's smallest distance, the nearest distances to the first and
        the second wall), all from x's extremes: argmin and argmax stop at the
        first NaN, and correctly rounded subtraction is monotone, so
        fl(min x - a) and fl(b - max x) are the nearest distances to the walls.
        The half-line's second wall, like that of a distance array, is at infinity.
        """
        if not x.size:
            return math.inf, math.inf, math.inf
        lo, hi = x.item(x.argmin()), x.item(x.argmax())
        left, right = lo, math.inf
        if geom is not None and geom.variant == "interval":
            left, right = lo - geom.a, geom.b - hi
            lo, hi = min(left, right), max(hi - geom.a, geom.b - lo)
        if not (-math.inf < lo and hi < math.inf):
            raise WallDomainError("wall distance must be finite")
        if lo <= 0.0 and not self.disabled:
            raise WallDomainError("wall distance must be positive")
        if lo == 0.0:  # the sign of a zero is the one numpy's min picks among tied zeros
            lo = float((x if geom is None else wall_distances(geom, x)).min())
        return lo, left, right


@dataclass(frozen=True)
class Geometry:
    """Open confinement domain: the half-line (0, inf) or an interval (a, b).

    The domain is bounded by its walls, each a position and a direction that
    points into the domain: the half-line has the wall at 0 facing +1, the
    interval the walls at a facing +1 and at b facing -1.  _position and
    _direction hold them as (walls, 1) columns that broadcast against a row
    of positions.
    """

    variant: str = "halfline"
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.variant == "halfline":
            if self.a is not None or self.b is not None:
                raise ValueError("geometry.a and geometry.b apply to the interval variant only")
            walls = ((0.0, 1.0),)
        elif self.variant == "interval":
            if self.a is None or self.b is None:
                raise ValueError("interval geometry requires both endpoints a and b")
            if not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
                raise ValueError("interval geometry requires finite endpoints with b > a")
            walls = ((self.a, 1.0), (self.b, -1.0))
        else:
            raise ValueError(f"unknown geometry variant {self.variant!r}")
        position, direction = np.array(walls, dtype=float).T[:, :, None]
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_direction", direction)


def wall_distances(geom: Geometry, x) -> np.ndarray:
    """Distance from each position to every wall, one row per wall.

    A batch's (B, N) positions give (B, walls, N).  direction * (x - position)
    is exact for direction -1: fl(x - b) = -fl(b - x).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        x = x[:, None, :]
    return geom._direction * (x - geom._position)


def check_domain(geom: Geometry, wall: WallPotential, x):
    """Raise unless every position is strictly inside the open domain, else
    return the smallest wall distance, one per member for a batch's (B, N)
    positions.

    The wall's own distance check decides, so a disabled wall (theta = 0)
    asks only for finite distances: control runs can cross the boundary and
    be flagged by the collision check afterwards.
    """
    x = np.asarray(x, dtype=float)
    lo = wall._check(x, geom)
    return lo if x.ndim < 2 else wall_distances(geom, x).min(axis=(-2, -1))


def geometry_force(geom: Geometry, wall: WallPotential, x) -> np.ndarray:
    """Signed confining force: each wall pushes along its direction (wall_layer's F,
    zeros where it has none)."""
    x = np.array(x, dtype=float, ndmin=1, copy=None)
    F = wall_layer(geom, wall, x)[2]
    return np.zeros(x.shape) if F is None else F


def wall_layer(geom: Geometry, wall: WallPotential, x: np.ndarray, potential: bool = False):
    """(lo, P, F) at positions x, one state's (N,) row or a batch's (B, N) rows:
    the domain rule's smallest wall distance; with potential, one state's mean
    wall potential per agent, else None; and the force per position, None when
    no agent is within ell of a wall or the wall is off, where it is zeros.

    Only the walls in reach are evaluated, bit for bit the sum over all walls:
    a wall out of reach adds +0.0 to the potential and direction * +0.0 to the
    force, so the right wall's force alone is the two-row sum +0.0 + (-F).
    """
    lo, left, right = wall._reach(x, geom)
    if lo >= wall.ell or wall.disabled:
        return lo, (0.0 if potential else None), None
    if right >= wall.ell:  # the first wall alone: 1.0 * (x - a) is x - a, which is x at a zero a (x > 0)
        U, F = wall._terms(x - geom.a if geom.a else x, potential)
    elif left >= wall.ell:
        U, F = wall._terms(geom.b - x, potential)
        F = 0.0 - F
    else:  # both walls of an interval: the (walls, N) form
        U, F = layer_terms(geom, wall, wall_distances(geom, x), lo, potential)
    return lo, (float(U.sum()) / x.shape[-1] if potential else None), F


def layer_terms(geom: Geometry, wall: WallPotential, d: np.ndarray, lo, potential: bool = True):
    """(U, F) per position from distances d that passed the domain rule with
    smallest lo, wall_distances' (walls, N) or a batch's (B, walls, N): the
    potential (None unless potential) and the force, each summed over the walls.
    With every distance >= ell or the wall off they are exact zeros without the
    formula, which gives +0.0 for every wall there; so a batch member outside
    the layer gets the same zeros whether or not another member is in it.
    """
    if lo >= wall.ell or wall.disabled:
        zeros = np.zeros(d.shape[:-2] + d.shape[-1:])
        return zeros, zeros
    U, F = wall._terms(d, potential)
    return (np.add.reduce(U, axis=-2) if potential else None), np.add.reduce(geom._direction * F, axis=-2)


def warn_if_overlapping(geom: Geometry, wall: WallPotential) -> None:
    # overlapping ranges are legal but leave no force-free interior region
    if geom.variant == "interval" and wall.ell > (half_width := (geom.b - geom.a) / 2.0):
        warnings.warn(
            f"wall range ell={wall.ell} exceeds half the interval width {half_width}",
            stacklevel=2,
        )
