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

    def _gap(self, x):
        return np.maximum(self.ell - x, 0.0)

    def value(self, x):
        """U(x); zero for x >= ell, +inf is never returned (x <= 0 raises)."""
        x = self._check(x)
        if self.disabled:
            out = np.zeros_like(x)
        else:
            g = self._gap(x)
            out = self.theta * g**4 / x
        return out if out.ndim else float(out)

    def force(self, x):
        """-U'(x) = theta * (4 g^3 x + g^4) / x^2 with g = (ell - x)+, pointing away from the wall."""
        x = self._check(x)
        if self.disabled:
            out = np.zeros_like(x)
        else:
            g = self._gap(x)
            out = self.theta * (4.0 * g**3 * x + g**4) / (x * x)
        return out if out.ndim else float(out)

    def _check(self, x):
        """The domain rule on wall distances: finite, and positive while the wall is on."""
        x = np.asarray(x, dtype=float)
        # array methods, not np.all/np.any: this runs on every force evaluation
        if not np.isfinite(x).all():
            raise WallDomainError("wall distance must be finite")
        if not self.disabled and (x <= 0.0).any():
            raise WallDomainError("wall distance must be positive")
        return x


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

    direction * (x - position) is exact for direction -1: fl(x - b) = -fl(b - x).
    """
    return geom._direction * (np.asarray(x, dtype=float) - geom._position)


def check_domain(geom: Geometry, wall: WallPotential, x) -> None:
    """Raise unless every position is strictly inside the open domain.

    The wall's own distance check decides, so a disabled wall (theta = 0)
    asks only for finite distances: control runs can cross the boundary and
    be flagged by the collision check afterwards.
    """
    wall._check(wall_distances(geom, x))


def geometry_force(geom: Geometry, wall: WallPotential, x) -> np.ndarray:
    """Signed confining force: each wall pushes along its direction."""
    return distance_force(geom, wall, wall_distances(geom, x))


def distance_potential(wall: WallPotential, d: np.ndarray) -> np.ndarray:
    """Per-position confinement energy from the rows of wall_distances."""
    return np.add.reduce(wall.value(d), axis=0)


def distance_force(geom: Geometry, wall: WallPotential, d: np.ndarray) -> np.ndarray:
    """geometry_force from the rows of wall_distances."""
    return np.add.reduce(geom._direction * wall.force(d), axis=0)


def warn_if_overlapping(geom: Geometry, wall: WallPotential) -> None:
    # overlapping ranges are legal but leave no force-free interior region
    if geom.variant == "interval" and wall.ell > (half_width := (geom.b - geom.a) / 2.0):
        warnings.warn(
            f"wall range ell={wall.ell} exceeds half the interval width {half_width}",
            stacklevel=2,
        )
