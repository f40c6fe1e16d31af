"""Adaptive embedded Runge-Kutta time stepping with wall-aware step control.

The pair is the classic Fehlberg 4(5); the fourth-order solution is the one
propagated, the fifth-order weights serve only the error estimate.  Steps are
rejected (never clamped) when any internal stage leaves the open domain, so
the discrete flow never evaluates the potential at or behind a wall.

Both integrators step one phase state y = (x, v), an array of shape (2, N).
Fehlberg keeps its stages in a (2, 6, N) array, stages on axis 1, so every
tableau row combines one (6, N) block per component, each with the matvec
path of an N-wide row; a flat (2N,) state would take another path at width
2N and change the last bits of the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FlockModel, FlockState, acceleration
from .observables import DiagnosticsRecord, diagnostics, initial_energy
from .potentials import WallDomainError, check_domain, wall_distances


# step control, the same for every run: first step, error tolerances,
# collapse floor and step ceiling
DT_INIT = 1e-3
ABS_TOL = 1e-8
REL_TOL = 1e-8
DT_MIN = 1e-12
DT_MAX = 0.1
# dt <= _WALL_SAFETY * (nearest wall distance) / (max |v| + 1), so the stiff
# wall layer is resolved before it is entered
_WALL_SAFETY = 0.25


class StiffnessError(RuntimeError):
    """Step-size control collapsed below DT_MIN."""


def _stiffness_error(m: FlockModel, y, t: float, dt: float, why: str) -> StiffnessError:
    """StiffnessError naming t, the attempted dt and the agent nearest a wall."""
    d = wall_distances(m.geometry, y[0])
    wall, agent = np.unravel_index(np.argmin(d), d.shape)
    return StiffnessError(
        f"{why} at t={t:.6g} (attempted dt={dt:.3g}): agent {agent} is {d[wall, agent]:.3g} "
        f"from the wall at x={m.geometry._position[wall, 0]:g}, speed {abs(y[1, agent]):.3g}"
    )


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
        self.sample_times = np.asarray(self.sample_times, dtype=float)
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


def _rhs(m: FlockModel, y: np.ndarray, out: np.ndarray) -> None:
    """Write dy/dt = (v, acceleration(m, x, v)) into the (2, N) slot out;
    raises WallDomainError if x leaves the open domain."""
    out[0] = y[1]
    out[1] = acceleration(m, y[0], y[1])


def _attempt(m: FlockModel, y: np.ndarray, dt: float):
    """One trial step from y -> (y_new, err, the endpoint's nearest wall
    distance); raises WallDomainError if a stage or the endpoint leaves the
    open domain."""
    k = np.empty((2, 6, y.shape[1]))
    _rhs(m, y, k[:, 0])
    for i in range(1, 6):
        _rhs(m, y + dt * (_A[i] @ k[:, :i]), k[:, i])
    y_new = y + dt * (_B4 @ k)
    dist = check_domain(m.geometry, m.wall, y_new[0])
    return y_new, dt * (_ERR @ k), dist


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


def _error_ratio(y, y_new, err) -> float:
    scale = ABS_TOL + REL_TOL * np.maximum(np.abs(y), np.abs(y_new))
    ratio = float(np.max(np.abs(err) / scale))
    if not (math.isfinite(ratio) and np.isfinite(y_new).all()):
        return math.inf
    return ratio


def _sample(
    m: FlockModel, s0: FlockState, t_end: float, sample_every: float, advance
) -> Trajectory:
    """Sample a run from s0.t to t_end on the uniform grid.

    Records s0 and its diagnostics in row 0, then calls advance(y, t0, t1)
    -> y on the phase state y = (x, v) once per grid span and records the
    state reached at t1 in the next row.
    """
    if not t_end > s0.t:
        raise ValueError("t_end must exceed the initial time")
    G = initial_energy(m, s0)  # applies the domain rule to s0.x

    times = _sample_grid(s0.t, t_end, sample_every)
    X = np.empty((times.size, s0.n))
    V = np.empty_like(X)
    records = np.recarray(times.size, dtype=[(f, float) for f in DiagnosticsRecord._fields])
    X[0], V[0] = s0.x, s0.v
    records[0] = diagnostics(m, s0, G)

    y = np.stack((s0.x, s0.v))
    for k in range(1, times.size):
        y = advance(y, times[k - 1], times[k])
        X[k], V[k] = y
        # the state is validated (finite x and v) before its diagnostics
        records[k] = diagnostics(m, FlockState(t=times[k], x=y[0], v=y[1]), G)

    return Trajectory(sample_times=times, X=X, V=V, records=records)


def integrate(m: FlockModel, s0: FlockState, t_end: float, sample_every: float = 0.1) -> Trajectory:
    """Advance s0 to t_end, sampling diagnostics on a uniform grid.

    Steps are clamped to land exactly on sample times and capped by the wall
    layer (_WALL_SAFETY).
    """
    # dt_prop <= DT_MAX throughout: DT_INIT <= DT_MAX, every update is below h or capped
    dt_prop = DT_INIT
    prev_ratio = 1.0
    walls_on = not m.wall.disabled
    # nearest wall distance of the current state: the wall cap's input, taken
    # from each accepted attempt's endpoint check
    dist = float(wall_distances(m.geometry, s0.x).min())

    def advance(y, t, tb):
        nonlocal dt_prop, prev_ratio, dist
        while True:
            gap = tb - t
            if gap <= 4e-16 * max(1.0, abs(tb)):
                return y  # residual float gap; snap to the boundary
            h = min(dt_prop, gap)
            if walls_on:
                cap = _WALL_SAFETY * dist / (float(np.abs(y[1]).max()) + 1.0)
                if cap < DT_MIN:
                    raise _stiffness_error(m, y, t, cap, "wall layer forces dt below dt_min")
                h = min(h, cap)
            clamped = h < dt_prop
            try:
                y_new, err, dist_new = _attempt(m, y, h)
                ratio = _error_ratio(y, y_new, err)
            except WallDomainError:
                ratio = None  # stage left the domain: halve and retry
            if ratio is None:
                dt_prop = h / 2.0
            elif ratio > 1.0:
                dt_prop = h * max(0.1, 0.9 * ratio**-0.2)
            else:
                y, dist = y_new, float(dist_new)
                t = tb if h >= gap * (1.0 - 1e-12) else t + h
                r = max(ratio, 1e-10)
                factor = min(5.0, max(0.2, 0.9 * r**-0.14 * prev_ratio**0.08))
                new_prop = min(h * factor, DT_MAX)
                # a clamp (boundary landing or wall cap) says nothing about
                # accuracy, so it may only grow the standing proposal
                dt_prop = max(dt_prop, new_prop) if clamped else new_prop
                prev_ratio = r
                if t == tb:
                    return y
                continue
            if dt_prop < DT_MIN:
                raise _stiffness_error(m, y, t, h, "step size collapsed below dt_min")

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

    def advance(y, t0, t1):
        gap = t1 - t0
        n_sub = max(1, round(gap / dt_fixed))
        h = gap / n_sub
        k = np.empty((4, 2, y.shape[1]))
        for _ in range(n_sub):
            _rhs(m, y, k[0])
            _rhs(m, y + 0.5 * h * k[0], k[1])
            _rhs(m, y + 0.5 * h * k[1], k[2])
            _rhs(m, y + h * k[2], k[3])
            y = y + (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
            check_domain(m.geometry, m.wall, y[0])
        return y

    return _sample(m, s0, t_end, sample_every, advance)
