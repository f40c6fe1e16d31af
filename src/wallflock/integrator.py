"""Adaptive embedded Runge-Kutta time stepping with wall-aware step control.

The pair is the classic Fehlberg 4(5); the fourth-order solution is the one
propagated, the fifth-order weights serve only the error estimate.  Steps are
rejected (never clamped) when any internal stage leaves the open domain, so
the discrete flow never evaluates the potential at or behind a wall.

Both integrators step one phase state y = (x, v), an array of shape (2, N);
Fehlberg also steps a batch of them, (2, B, N), for runs that share a wall
and geometry, so y[0] and y[1] are the positions and velocities either way.
Fehlberg keeps its stages in a (2, [B,] 6, N) array, stages on axis -2, so
every tableau row combines one (6, N) block per component and member, each
with the matvec path of an N-wide row; a flat (2N,) state would take another
path at width 2N and change the last bits of the run.  A batch's kernel is a
kernels.KernelStack, a column per member, so that one pass serves them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dynamics import FlockModel, FlockState, acceleration, block_rows
from .kernels import KernelStack
from .observables import DiagnosticsRecord, diagnostics, initial_energy
from .potentials import WallDomainError, check_domain


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
# numbers that one slice's recorded samples may hold (32 MB)
_SAMPLE_ELEMENTS = 1 << 22


class StiffnessError(RuntimeError):
    """Step-size control collapsed below DT_MIN."""


def _stiffness_error(m: FlockModel, y, t: float, dt: float, why: str) -> StiffnessError:
    """StiffnessError naming t, the attempted dt and the agent nearest a wall."""
    x, geom = y[0], m.geometry
    lo, left, right = m.wall._reach(x, geom)  # the first wall where they tie
    agent, at = (x.argmin(), geom.a) if left <= right else (x.argmax(), geom.b)
    return StiffnessError(
        f"{why} at t={t:.6g} (attempted dt={dt:.3g}): agent {agent} is {lo:.3g} "
        f"from the wall at x={0.0 if at is None else at:g}, speed {abs(y[1, agent]):.3g}"
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
    """Write dy/dt = (v, acceleration(m, x, v)) into the slot out shaped as y;
    raises WallDomainError if x leaves the open domain."""
    out[0] = y[1]
    out[1] = acceleration(m, y[0], y[1])


def _attempt(m: FlockModel, y: np.ndarray, dt):
    """One trial step from y -> (y_new, err, the endpoint's nearest wall
    distance); raises WallDomainError if a stage or the endpoint leaves the
    open domain.

    y is one (2, N) state with a float dt, or a batch's (2, B, N) states with
    their steps dt as a (B, 1) array and a distance per member.
    """
    k = np.empty(y.shape[:-1] + (6, y.shape[-1]))
    _rhs(m, y, k[..., 0, :])
    # y + dt * (row @ k), formed in place: IEEE * and + commute, so no bit moves
    for i in range(1, 6):
        s = _A[i] @ k[..., :i, :]
        _rhs(m, np.add(np.multiply(s, dt, out=s), y, out=s), k[..., i, :])
    y_new, err = _B4 @ k, _ERR @ k
    np.add(np.multiply(y_new, dt, out=y_new), y, out=y_new)
    return y_new, np.multiply(err, dt, out=err), check_domain(m.geometry, m.wall, y_new[0])


def _sample_grid(t0: float, t_end: float, sample_every: float) -> np.ndarray:
    span = t_end - t0
    n = int(math.floor(span / sample_every + 1e-9))
    times = t0 + sample_every * np.arange(n + 1)
    if times[-1] < t_end - 1e-9 * max(1.0, abs(t_end)):
        times = np.append(times, t_end)
    else:
        times[-1] = min(times[-1], t_end)
    return times


# numbers that one run's recorded samples may hold (1 GiB): config validation
# and _sample reject a longer grid through sample_rows, before any is built
_MAX_SAMPLE_NUMBERS = 1 << 27


def _row_numbers(n: int) -> int:
    """Numbers that one sample of n agents records: x, v and its diagnostics."""
    return 2 * n + len(DiagnosticsRecord._fields)


def sample_rows(n: int, t_end: float, sample_every: float) -> int:
    """Most rows of _sample_grid over a span t_end, ceil(t_end / sample_every)
    + 1; a ValueError unless both are positive, or where n agents' rows hold
    more than _MAX_SAMPLE_NUMBERS numbers (the float ratio is compared, so an
    infinite one never reaches int(inf))."""
    if not t_end > 0:
        raise ValueError("t_end must exceed the initial time")
    if not sample_every > 0:
        raise ValueError("sample_every must be positive")
    ratio = t_end / sample_every
    if not ratio <= _MAX_SAMPLE_NUMBERS // _row_numbers(n) - 1:
        raise ValueError(
            f"integrator: t_end / sample_every at {n} agents records more than"
            f" {_MAX_SAMPLE_NUMBERS} numbers"
        )
    return math.ceil(ratio) + 1


def batch_members(n: int, samples: int) -> int:
    """Most members that integrate_batch steps together in one slice, at n
    agents and samples rows each.

    Their stacked N x N kernel matrices fill at most one strip of
    dynamics.block_rows, so above N = 181 a slice is one member on the strip
    path, and their recorded samples hold at most _SAMPLE_ELEMENTS numbers.
    """
    return max(1, min(block_rows(n) // n, _SAMPLE_ELEMENTS // (samples * _row_numbers(n))))


def _error_quotients(y, y_new, err) -> np.ndarray:
    """|err| over its tolerance scale; adding 0 * y_new keeps every finite
    quotient's bits and makes it NaN where y_new is not finite."""
    q, scale = np.abs(err), np.abs(y)
    np.maximum(scale, np.abs(y_new), out=scale)
    scale *= REL_TOL
    scale += ABS_TOL
    q /= scale
    q += np.multiply(y_new, 0.0, out=scale)
    return q


def _error_ratio(y, y_new, err) -> list:
    """Per member (one for a (2, N) state): the largest error quotient, inf
    where that or y_new is not finite (a NaN carries through the max)."""
    ratios = np.max(_error_quotients(y, y_new, err), axis=(0, -1)).reshape(-1).tolist()
    return [r if r <= math.inf else math.inf for r in ratios]


def _attempt_one(m: FlockModel, y: np.ndarray, h: float):
    """_attempt on one (2, N) state -> (y_new, error ratio, endpoint distance),
    with a ratio of None when a stage left the domain.  The ratio is
    _error_ratio's as a float: argmax, too, stops at the first NaN."""
    try:
        y_new, err, dist = _attempt(m, y, h)
    except WallDomainError:
        return None, None, None
    q = _error_quotients(y, y_new, err)
    ratio = q.item(q.argmax())
    return y_new, ratio if ratio <= math.inf else math.inf, dist


def _members(m: FlockModel, act: list):
    """The batch model m over its members act: m itself for all, else a namespace
    of m's wall, geometry and act's kernel columns (no second overlap warning)."""
    if len(act) == len(m.kernel.kernels):
        return m
    return SimpleNamespace(kernel=m.kernel.take(act), wall=m.wall, geometry=m.geometry)


def _round(models: list, batched: FlockModel, y: np.ndarray, act: list, hs: list) -> list:
    """One Fehlberg attempt for each member act[j] of the (2, B, N) states y at
    step hs[j], member b with model models[b]: a list of _attempt_one's results.

    The members share one batched attempt under the slice's model batched, a
    kernel column per member: a round of every member takes y and batched as
    they are, a subset its rows and columns, and one member alone takes the
    single-state path, because the batched attempt made a single run 1.3-1.6x
    slower.  If any member leaves the domain, each is attempted alone, so only
    that one is rejected.
    """
    if len(act) == 1:
        return [_attempt_one(models[act[0]], y[:, act[0]], hs[0])]
    ya = y if len(act) == y.shape[1] else y[:, act]
    try:
        y_new, err, dist = _attempt(_members(batched, act), ya, np.array(hs)[:, None])
    except WallDomainError:
        return [_attempt_one(models[b], y[:, b], h) for b, h in zip(act, hs)]
    return list(zip(y_new.swapaxes(0, 1), _error_ratio(ya, y_new, err), dist.tolist()))


def _sample(models: list, batched, states: list, t_end: float, sample_every: float, advance):
    """Sample runs from states, which share N and their start time, to t_end
    on the uniform grid, state b under models[b], a batch under batched (None
    for one state); one Trajectory or error per state.

    Records each state and its diagnostics in row 0, then calls
    advance(y, live, t0, t1) once per grid span on the (2, B, N) phase states
    y = (x, v): it moves the members in live to t1 in place and
    returns {member: error} for those that cannot get there, whose result is
    that error.  A state outside the domain fails at t0 with WallDomainError.
    Each sample's diagnostics are one call for all live members.
    """
    t0 = states[0].t
    sample_rows(states[0].n, t_end - t0, sample_every)
    results: list = [None] * len(states)
    G = np.full(len(states), math.nan)
    live = []
    for b, s in enumerate(states):
        try:
            G[b] = initial_energy(models[b], s)  # applies the domain rule to s.x
            live.append(b)
        except WallDomainError as exc:
            results[b] = exc

    times = _sample_grid(t0, t_end, sample_every)
    y = np.stack([np.stack((s.x, s.v)) for s in states], axis=1)
    X = np.empty((len(states), times.size, y.shape[-1]))
    V = np.empty_like(X)
    records = np.empty(X.shape[:2], dtype=[(f, float) for f in DiagnosticsRecord._fields])
    for k in range(times.size):
        if k:
            for b, exc in advance(y, live, times[k - 1], times[k]).items():
                results[b] = exc
                live.remove(b)
        X[:, k], V[:, k] = y
        # the live rows are validated (finite x and v) before their diagnostics
        rows = y if len(live) == len(states) else y[:, live]
        if not np.isfinite(rows).all():
            raise ValueError("state entries must be finite")
        if len(live) == 1:  # one member keeps its own model, as in _round
            (b,) = live
            sample = SimpleNamespace(t=float(times[k]), x=rows[0, 0], v=rows[1, 0])
            records[b, k] = diagnostics(models[b], sample, float(G[b]))
        elif live:
            sample = SimpleNamespace(t=float(times[k]), x=rows[0], v=rows[1])
            rec = diagnostics(_members(batched, live), sample, G[live])
            for f, column in zip(rec._fields, rec):
                records[f][live, k] = column

    for b in live:
        results[b] = Trajectory(times, X[b], V[b], records[b].view(np.recarray))
    return results


def _single(results: list) -> Trajectory:
    """The one run of a one-state _sample, raising its error if it failed."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def _batch(models: list, states: list, t_end: float, sample_every: float) -> list:
    """integrate_batch's runs of one slice, stepped as one (2, B, N) batch:
    every member keeps its own step control, in integrate's order of
    operations on Python floats, and a member that fails drops out; each
    round is one Fehlberg attempt over the members short of the sample time."""
    m = models[0]
    walls_on = not m.wall.disabled
    batched = None  # the model of the batched rounds and samples, a kernel column each
    if len(models) > 1:
        batched = FlockModel(KernelStack(tuple(mb.kernel for mb in models)), m.wall, m.geometry)
    # per member: the standing step proposal (dt_prop <= DT_MAX throughout:
    # DT_INIT <= DT_MAX, every update is below h or capped), the last accepted
    # error ratio, and the wall cap's input, the nearest wall distance of the
    # current state: a live state's own, then each accepted endpoint check's
    dt_prop = [DT_INIT] * len(states)
    prev_ratio = [1.0] * len(states)
    dist = [None] * len(states)

    def advance(y, live, t0, tb):
        failed = {}
        t = dict.fromkeys(live, t0)  # each member's time within the span
        snap = 4e-16 * max(1.0, abs(tb))  # a residual float gap lands on tb
        pending = live  # members short of tb
        while pending:
            vmax = np.abs(y[1]).max(axis=-1).tolist() if walls_on else None
            act, hs = [], []
            for b in pending:
                gap = tb - t[b]
                if gap <= snap:
                    continue
                h = min(dt_prop[b], gap)
                if walls_on:
                    if dist[b] is None:
                        dist[b] = m.wall._reach(y[0, b], m.geometry)[0]
                    cap = _WALL_SAFETY * dist[b] / (vmax[b] + 1.0)
                    if cap < DT_MIN:
                        failed[b] = _stiffness_error(
                            models[b], y[:, b], t[b], cap, "wall layer forces dt below dt_min"
                        )
                        continue
                    h = min(h, cap)
                act.append(b)
                hs.append(h)
            if not act:  # none left to attempt: each failed the wall cap or snapped
                break
            pending = []
            for b, h, (y_new, ratio, dist_new) in zip(act, hs, _round(models, batched, y, act, hs)):
                clamped = h < dt_prop[b]
                if ratio is None:
                    dt_prop[b] = h / 2.0  # a stage left the domain: halve and retry
                elif ratio > 1.0:
                    dt_prop[b] = h * max(0.1, 0.9 * ratio**-0.2)
                else:
                    y[:, b], dist[b] = y_new, dist_new
                    r = max(ratio, 1e-10)
                    factor = min(5.0, max(0.2, 0.9 * r**-0.14 * prev_ratio[b] ** 0.08))
                    new_prop = min(h * factor, DT_MAX)
                    # a clamp (boundary landing or wall cap) says nothing about
                    # accuracy, so it may only grow the standing proposal
                    dt_prop[b] = max(dt_prop[b], new_prop) if clamped else new_prop
                    prev_ratio[b] = r
                    if h < (tb - t[b]) * (1.0 - 1e-12):
                        t[b] += h
                        pending.append(b)
                    continue
                if dt_prop[b] < DT_MIN:
                    failed[b] = _stiffness_error(
                        models[b], y[:, b], t[b], h, "step size collapsed below dt_min"
                    )
                    continue
                pending.append(b)
        return failed

    return _sample(models, batched, states, t_end, sample_every, advance)


def integrate_batch(
    models: list, states: list, t_end: float, sample_every: float = 0.1, *, each=lambda m, r: r
) -> list:
    """integrate each state under its model, models[b] for states[b]: one
    Trajectory, StiffnessError or WallDomainError per state, bit-identical to
    its single run, or each(model, run) in its place.  The states share N and
    their start time, the models their wall and geometry; the runs are stepped
    in slices of at most batch_members, a slice's runs passed to each before
    the next slice is stepped."""
    if not states:
        raise ValueError("integrate_batch needs at least one state")
    if len(models) != len(states):
        raise ValueError(
            f"integrate_batch takes one model per state, not {len(models)} for {len(states)}"
        )
    m = models[0]
    s0 = states[0]
    if any(mb.wall != m.wall or mb.geometry != m.geometry for mb in models):
        raise ValueError("batched models must share their wall and geometry")
    if any(s.t != s0.t or s.n != s0.n for s in states):
        raise ValueError("batched states must share N and their initial time")
    size = batch_members(s0.n, sample_rows(s0.n, t_end - s0.t, sample_every))
    results: list = []
    for lo in range(0, len(states), size):
        ms = models[lo : lo + size]
        # no name holds a slice's runs, whose rows are views of its sample arrays
        results += map(each, ms, _batch(ms, states[lo : lo + size], t_end, sample_every))
    return results


def integrate(m: FlockModel, s0: FlockState, t_end: float, sample_every: float = 0.1) -> Trajectory:
    """Advance s0 to t_end, sampling diagnostics on a uniform grid.

    Steps are clamped to land exactly on sample times and capped by the wall
    layer (_WALL_SAFETY).  A one-member batch.
    """
    return _single(_batch([m], [s0], t_end, sample_every))


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

    def advance(ys, live, t0, t1):
        gap = t1 - t0
        n_sub = max(1, round(gap / dt_fixed))
        h = gap / n_sub
        y = ys[:, 0]
        k = np.empty((4,) + y.shape)
        for _ in range(n_sub):
            _rhs(m, y, k[0])
            _rhs(m, y + 0.5 * h * k[0], k[1])
            _rhs(m, y + 0.5 * h * k[1], k[2])
            _rhs(m, y + h * k[2], k[3])
            y = y + (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3])
            check_domain(m.geometry, m.wall, y[0])
        ys[:, 0] = y
        return {}

    return _single(_sample([m], None, [s0], t_end, sample_every, advance))
