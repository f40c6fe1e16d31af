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

    def _value(self, x):
        g = np.maximum(self.ell - x, 0.0)
        return self.theta * g**4 / x

    def _force(self, x):
        # -U'(x) with g = (ell - x)+, pointing away from the wall
        g = np.maximum(self.ell - x, 0.0)
        return self.theta * (4.0 * g**3 * x + g**4) / (x * x)

    def _check(self, x: np.ndarray, geom: Geometry | None = None) -> float:
        """The domain rule on wall distances x, or on positions x in geom: finite,
        and positive while the wall is on.  Returns the smallest distance (inf
        when there is none), from x's extremes alone: argmin and argmax stop at
        the first NaN, and correctly rounded subtraction is monotone, so
        fl(min x - a) and fl(b - max x) are the nearest distances to the walls.
        """
        if not x.size:
            return math.inf
        lo, hi = x.item(x.argmin()), x.item(x.argmax())
        if geom is not None and geom.variant == "interval":
            lo, hi = min(lo - geom.a, geom.b - hi), max(hi - geom.a, geom.b - lo)
        if not (-math.inf < lo and hi < math.inf):
            raise WallDomainError("wall distance must be finite")
        if lo <= 0.0 and not self.disabled:
            raise WallDomainError("wall distance must be positive")
        if lo == 0.0:  # the sign of a zero is the one numpy's min picks among tied zeros
            return (x if geom is None else wall_distances(geom, x)).min()
        return lo


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
    """Signed confining force: each wall pushes along its direction.  The wall
    distances are formed only inside the layer, and on the half-line not at
    all: there d = 1.0 * (x - 0.0) is x, and a sum over one wall is its row."""
    x = np.array(x, dtype=float, ndmin=1, copy=None)
    lo = wall._check(x, geom)
    if lo >= wall.ell or wall.disabled:
        return np.zeros(x.shape)
    if geom.variant == "halfline":
        return wall._force(x)
    return layer_force(geom, wall, wall_distances(geom, x), lo)


def distance_potential(wall: WallPotential, d: np.ndarray) -> np.ndarray:
    """Per-position confinement energy from the rows of wall_distances, (B, N)
    from a batch's (B, walls, N)."""
    return layer_potential(wall, d, wall._check(d))


# The layer sums take distances that have passed the domain rule, with lo their
# minimum.  With every distance >= ell or the wall off they return exact zeros
# without evaluating the formula: there the formula gives +0.0 for every wall,
# and the sum over walls +0.0 + (-0.0) is +0.0 as well.  So a batch member
# outside the layer gets the same zeros whether or not another member is in it.


def layer_potential(wall: WallPotential, d: np.ndarray, lo) -> np.ndarray:
    """distance_potential of checked distances."""
    if lo >= wall.ell or wall.disabled:
        return np.zeros(d.shape[:-2] + d.shape[-1:])
    return np.add.reduce(wall._value(d), axis=-2)


def layer_force(geom: Geometry, wall: WallPotential, d: np.ndarray, lo) -> np.ndarray:
    """geometry_force of checked distances."""
    if lo >= wall.ell or wall.disabled:
        return np.zeros(d.shape[:-2] + d.shape[-1:])
    return np.add.reduce(geom._direction * wall._force(d), axis=-2)


def warn_if_overlapping(geom: Geometry, wall: WallPotential) -> None:
    # overlapping ranges are legal but leave no force-free interior region
    if geom.variant == "interval" and wall.ell > (half_width := (geom.b - geom.a) / 2.0):
        warnings.warn(
            f"wall range ell={wall.ell} exceeds half the interval width {half_width}",
            stacklevel=2,
        )
