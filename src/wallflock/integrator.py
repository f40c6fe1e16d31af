"""Adaptive embedded Runge-Kutta time stepping with wall-aware step control.

The pair is the classic Fehlberg 4(5); the fourth-order solution is the one
propagated, the fifth-order weights serve only the error estimate.  Steps are
rejected (never clamped) when any internal stage leaves the open domain, so
the discrete flow never evaluates the potential at or behind a wall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials
from .dynamics import FlockModel, FlockState, acceleration
from .observables import DiagnosticsRecord, diagnostics, initial_energy
from .potentials import WallDomainError, check_domain, wall_distances


class StiffnessError(RuntimeError):
    """Step-size control collapsed below dt_min."""


def _stiffness_error(m: FlockModel, x, v, t: float, dt: float, why: str) -> StiffnessError:
    """StiffnessError naming t, the attempted dt and the agent nearest a wall."""
    d = wall_distances(m.geometry, x)
    wall, agent = np.unravel_index(np.argmin(d), d.shape)
    return StiffnessError(
        f"{why} at t={t:.6g} (attempted dt={dt:.3g}): agent {agent} is {d[wall, agent]:.3g} "
        f"from the wall at x={m.geometry._position[wall, 0]:g}, speed {abs(v[agent]):.3g}"
    )


@dataclass(frozen=True)
class IntegratorControl:
    dt_init: float = 1e-3
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    dt_min: float = 1e-12
    dt_max: float = 0.1
    wall_safety: float = 0.25

    def __post_init__(self):
        for name in ("dt_init", "abs_tol", "rel_tol", "dt_min", "dt_max"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite")
        if not (self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("dt_min <= dt_init <= dt_max required")
        if not (0.0 < self.wall_safety < 1.0):
            raise ValueError("wall_safety must lie in (0, 1)")


@dataclass
class Trajectory:
    """One row per sample: positions X and velocities V (S, N), and records, an
    np.recarray (S,) with a float64 field per DiagnosticsRecord field, so
    records.A is the A series and records[-1].A its last value."""

    sample_times: np.ndarray
    X: np.ndarray
    V: np.ndarray
    records: np.recarray

    def __post_init__(self):
        if not (len(self.sample_times) == len(self.X) == len(self.V) == len(self.records)):
            raise ValueError("sample_times, X, V, records must have one row per sample")
        if self.X.shape != self.V.shape:
            raise ValueError("X and V must have the same shape")


# Fehlberg tableau: nodes, stage coefficients, fourth-order weights, and
# fifth-minus-fourth weights for the error estimate.
_A = (
    np.array([]),
    np.array([1 / 4]),
    np.array([3 / 32, 9 / 32]),
    np.array([1932 / 2197, -7200 / 2197, 7296 / 2197]),
    np.array([439 / 216, -8.0, 3680 / 513, -845 / 4104]),
    np.array([-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40]),
)
_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_ERR = np.array([1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55])


def _attempt(m: FlockModel, x: np.ndarray, v: np.ndarray, dt: float):
    """One trial step; raises WallDomainError if a stage or the endpoint
    leaves the open domain."""
    n = x.shape[0]
    kx = np.empty((6, n))
    kv = np.empty((6, n))
    kx[0] = v
    kv[0] = acceleration(m, x, v)
    for i in range(1, 6):
        a = _A[i]
        xi = x + dt * (a @ kx[:i])
        vi = v + dt * (a @ kv[:i])
        kx[i] = vi
        kv[i] = acceleration(m, xi, vi)  # raises on domain violation
    x_new = x + dt * (_B4 @ kx)
    v_new = v + dt * (_B4 @ kv)
    check_domain(m.geometry, m.wall, x_new)
    err_x = dt * (_ERR @ kx)
    err_v = dt * (_ERR @ kv)
    return x_new, v_new, err_x, err_v


def _sample_grid(t0: float, t_end: float, sample_every: float) -> np.ndarray:
    if not sample_every > 0:
        raise ValueError("sample_every must be positive")
    span = t_end - t0
    n = int(math.floor(span / sample_every + 1e-9))
    times = t0 + sample_every * np.arange(n + 1)
    if times[-1] < t_end - 1e-9 * max(1.0, abs(t_end)):
        times = np.append(times, t_end)
    else:
        times[-1] = min(times[-1], t_end)
    return times


def _error_ratio(c: IntegratorControl, x, v, x_new, v_new, err_x, err_v) -> float:
    scale_x = c.abs_tol + c.rel_tol * np.maximum(np.abs(x), np.abs(x_new))
    scale_v = c.abs_tol + c.rel_tol * np.maximum(np.abs(v), np.abs(v_new))
    ratio = max(float(np.max(np.abs(err_x) / scale_x)), float(np.max(np.abs(err_v) / scale_v)))
    # x_new is finite: check_domain in _attempt has just checked its wall distances
    if not (math.isfinite(ratio) and np.isfinite(v_new).all()):
        return math.inf
    return ratio


def _sample(
    m: FlockModel, s0: FlockState, t_end: float, sample_every: float, advance
) -> Trajectory:
    """Sample a run from s0.t to t_end on the uniform grid.

    Records s0 and its diagnostics in row 0, then calls advance(x, v, t0, t1)
    -> (x, v) once per grid span and records the state reached at t1 in the
    next row.
    """
    if not t_end > s0.t:
        raise ValueError("t_end must exceed the initial time")
    if s0.n != m.n_agents:
        raise ValueError("state size does not match model n_agents")
    # via the module: traced runs count the bare name as one call per step attempt
    potentials.check_domain(m.geometry, m.wall, s0.x)

    times = _sample_grid(s0.t, t_end, sample_every)
    G = initial_energy(m, s0)
    X = np.empty((times.size, s0.n))
    V = np.empty_like(X)
    records = np.recarray(times.size, dtype=[(f, float) for f in DiagnosticsRecord._fields])
    X[0], V[0] = s0.x, s0.v
    records[0] = diagnostics(m, s0, G)

    x, v = s0.x, s0.v
    for k in range(1, times.size):
        x, v = advance(x, v, times[k - 1], times[k])
        X[k], V[k] = x, v
        # the state is validated (finite x and v) before its diagnostics
        records[k] = diagnostics(m, FlockState(t=times[k], x=x, v=v), G)

    return Trajectory(sample_times=times, X=X, V=V, records=records)


def integrate(
    m: FlockModel,
    s0: FlockState,
    t_end: float,
    c: IntegratorControl | None = None,
    sample_every: float = 0.1,
) -> Trajectory:
    """Advance s0 to t_end, sampling diagnostics on a uniform grid.

    Steps are clamped to land exactly on sample times.  dt is additionally
    capped at wall_safety * (nearest wall distance) / (max |v| + 1) so the
    stiff wall layer is resolved before it is entered.
    """
    c = c or IntegratorControl()
    dt_prop = min(c.dt_init, c.dt_max)
    prev_ratio = 1.0
    walls_on = not m.wall.disabled

    def advance(x, v, t, tb):
        nonlocal dt_prop, prev_ratio
        while True:
            gap = tb - t
            if gap <= 4e-16 * max(1.0, abs(tb)):
                return x, v  # residual float gap; snap to the boundary
            h = min(dt_prop, gap, c.dt_max)
            if walls_on:
                dist = float(np.min(wall_distances(m.geometry, x)))
                cap = c.wall_safety * dist / (float(np.max(np.abs(v))) + 1.0)
                if cap < c.dt_min:
                    raise _stiffness_error(m, x, v, t, cap, "wall layer forces dt below dt_min")
                h = min(h, cap)
            clamped = h < dt_prop
            try:
                x_new, v_new, err_x, err_v = _attempt(m, x, v, h)
                ratio = _error_ratio(c, x, v, x_new, v_new, err_x, err_v)
            except WallDomainError:
                ratio = None  # stage left the domain: halve and retry
            if ratio is None:
                dt_prop = h / 2.0
            elif ratio > 1.0:
                dt_prop = h * max(0.1, 0.9 * ratio**-0.2)
            else:
                x, v = x_new, v_new
                t = tb if h >= gap * (1.0 - 1e-12) else t + h
                r = max(ratio, 1e-10)
                factor = min(5.0, max(0.2, 0.9 * r**-0.14 * prev_ratio**0.08))
                new_prop = min(h * factor, c.dt_max)
                # a clamp (boundary landing or wall cap) says nothing about
                # accuracy, so it may only grow the standing proposal
                dt_prop = max(dt_prop, new_prop) if clamped else new_prop
                prev_ratio = r
                if t == tb:
                    return x, v
                continue
            if dt_prop < c.dt_min:
                raise _stiffness_error(m, x, v, t, h, "step size collapsed below dt_min")

    return _sample(m, s0, t_end, sample_every, advance)


def reference_rk4(
    m: FlockModel,
    s0: FlockState,
    t_end: float,
    dt_fixed: float,
    sample_every: float = 0.1,
) -> Trajectory:
    """Classic fixed-step fourth-order integrator; the cross-check oracle.

    Each inter-sample span is covered by equal substeps of width as close to
    dt_fixed as divides evenly.  Domain violations are fatal here.
    """
    if not dt_fixed > 0:
        raise ValueError("dt_fixed must be positive")

    def advance(x, v, t0, t1):
        gap = t1 - t0
        n_sub = max(1, round(gap / dt_fixed))
        h = gap / n_sub
        for _ in range(n_sub):
            kx1 = v
            kv1 = acceleration(m, x, v)
            kx2 = v + 0.5 * h * kv1
            kv2 = acceleration(m, x + 0.5 * h * kx1, v + 0.5 * h * kv1)
            kx3 = v + 0.5 * h * kv2
            kv3 = acceleration(m, x + 0.5 * h * kx2, v + 0.5 * h * kv2)
            kx4 = v + h * kv3
            kv4 = acceleration(m, x + h * kx3, v + h * kv3)
            x = x + (h / 6.0) * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
            v = v + (h / 6.0) * (kv1 + 2.0 * kv2 + 2.0 * kv3 + kv4)
            check_domain(m.geometry, m.wall, x)
        return x, v

    return _sample(m, s0, t_end, sample_every, advance)
