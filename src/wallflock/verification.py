"""Machine-checkable verdicts for the flocking limit theorems.

Infinite-time statements are checked through finite-horizon surrogates: tail
windows for settlement, least-squares rates for exponential decay, and
trajectory-wide budget inequalities with explicit tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .dynamics import FlockModel, FlockState, block_rows
from .integrator import StiffnessError, Trajectory, integrate, integrate_batch
from .potentials import WallDomainError

_EPS = float(np.finfo(float).eps)
# the file TheoremReport.write keeps in an output directory
REPORT_JSON = "report.json"
# the verdict bars, fixed so that no config turns a FAIL into a PASS
ALIGN_EPS = 1e-2  # final velocity spread A
SETTLE_EPS = 1e-2  # tail-window position variation and wall-range slack
TAIL_FRACTION = 0.25  # trailing share of the run that tail statistics and fits read
FIT_MIN_POINTS = 10  # fewest samples an exponential-rate fit takes
BUDGET_TOL = 1e-3  # relative slack of the Lyapunov budget
# the round-off floor of A: samples below it carry no rate
_FIT_FLOOR = 100.0 * _EPS


@dataclass
class FitResult:
    C: float
    delta: float
    r_squared: float
    window: tuple


@dataclass
class Claim:
    name: str
    passed: bool
    value: float
    threshold: float
    applicable: bool = True
    detail: str = ""


@dataclass
class TheoremReport:
    variant: str
    claims: list
    min_wall_distance: float = math.nan
    final_A: float = math.nan
    final_D: float = math.nan
    fit: FitResult | None = None
    settled_positions: np.ndarray | None = None
    escape_time: float | None = None
    kinetic_integral: float = math.nan
    force_sq_integral: float = math.nan

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims if c.applicable)

    def claim(self, name: str) -> Claim:
        for c in self.claims:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        """The text of report.json: every field, plus passed."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["passed"] = self.passed
        return json.dumps(data, indent=2, sort_keys=True, default=_plain) + "\n"

    def write(self, directory) -> None:
        (Path(directory) / REPORT_JSON).write_text(self.to_json(), encoding="utf-8")


def _plain(obj):
    """JSON stand-in for the report's nested dataclasses and numpy values."""
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _tail_start_index(times: np.ndarray) -> int:
    t_cut = times[0] + (1.0 - TAIL_FRACTION) * (times[-1] - times[0])
    idx = int(np.searchsorted(times, t_cut - 1e-12))
    return min(idx, len(times) - 2)


def fit_exponential(traj: Trajectory, window_start: float | None = None):
    """Least-squares line on (t, log A) over the tail window.

    Samples with A below 100x machine epsilon sit in the round-off floor and
    are skipped.  Returns None when fewer than FIT_MIN_POINTS remain.  The line
    is in closed form on centred data dt, dl (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 20), every sum an `np.add.reduce`: no LAPACK
    or BLAS call, so its bits do not depend on the OpenBLAS kernel.
    """
    times, A = traj.sample_times, traj.records.A
    if window_start is None:
        window_start = times[_tail_start_index(times)]
    mask = (times >= window_start - 1e-12) & (A >= _FIT_FLOOR)
    if int(mask.sum()) < FIT_MIN_POINTS:
        return None
    tt = times[mask]
    la = np.log(A[mask])
    tm, lm = np.add.reduce(tt) / tt.size, np.add.reduce(la) / la.size
    dt, dl = tt - tm, la - lm
    slope = np.add.reduce(dt * dl) / np.add.reduce(dt * dt)
    intercept = lm - slope * tm
    fitted = slope * tt + intercept
    ss_res = float(np.sum((la - fitted) ** 2))
    ss_tot = float(np.sum(dl**2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(
        C=float(np.exp(intercept)),
        delta=float(-slope),
        r_squared=r2,
        window=(float(tt[0]), float(tt[-1])),
    )


def _cumulative_trapezoid(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral on a uniform grid, fourth-order at every prefix.

    Even prefixes use composite Simpson; odd ones close with a 3/8 block so
    no prefix falls back to a low-order rule (except the very first, where a
    trapezoid is exact to leading order since the run starts quiescent).
    """
    out = np.zeros(y.size)
    if y.size > 1:
        out[1] = 0.5 * h * (y[0] + y[1])
    # prefix k = 2j sums its j Simpson blocks left to right, as add.accumulate
    # does, from out[0] = 0.0; prefix k = 2j + 3 adds one 3/8 block to out[2j]
    even = out[::2]
    even[1:] = h * (y[:-2:2] + 4.0 * y[1:-1:2] + y[2::2]) / 3.0
    np.add.accumulate(even, out=even)
    out[3::2] = out[:-3:2] + 3.0 * h * (y[:-3:2] + 3.0 * y[1:-2:2] + 3.0 * y[2:-1:2] + y[3::2]) / 8.0
    return out


def _tail_share(series: np.ndarray, times: np.ndarray, total: float) -> float:
    """Share of total, the time integral of series, that falls in the second half."""
    mid = int(np.searchsorted(times, 0.5 * (times[0] + times[-1])))
    last = float(np.trapezoid(series[mid:], times[mid:]))
    return 0.0 if total == 0.0 else last / total


def _largest_step(series: np.ndarray) -> float:
    return float(np.max(series[1:] - series[:-1])) if len(series) > 1 else 0.0


def _impulse(times: np.ndarray, F_mean: np.ndarray) -> np.ndarray:
    """The time integral of F_mean from the first sample to each sample."""
    # samples are h apart but for a shorter last interval when sample_every does
    # not divide the run (integrator._sample_grid); one trapezoid closes that one
    h = float(times[1] - times[0]) if len(times) > 1 else 0.0
    last = float(times[-1] - times[-2]) if len(times) > 1 else 0.0
    if math.isclose(last, h, rel_tol=1e-9, abs_tol=1e-12):
        return _cumulative_simpson(F_mean, h)
    impulse = _cumulative_simpson(F_mean[:-1], h)
    return np.append(impulse, impulse[-1] + 0.5 * (F_mean[-2] + F_mean[-1]) * last)


class _RunStats:
    """The statistics of one completed run that the claims compare with their bars:
    those that both geometries' claims read are computed here, the others on first
    use, so a run computes each at most once and only those its geometry reads."""

    def __init__(self, m: FlockModel, traj: Trajectory):
        times, rec = traj.sample_times, traj.records.view(np.ndarray)
        self.m, self.traj, self.times = m, traj, times
        self.A, self.E, self.p, self.D = rec["A"], rec["E"], rec["p"], rec["D"]
        self.K, self.F_sq, self.F_max = rec["K"], rec["F_sq"], rec["F_max"]
        D, L = self.D, rec["L"]
        # a completed run collides with no wall when the wall-distance infimum is positive
        self.x_min_wall = rec["x_min_wall"]
        self.min_dist = float(np.min(self.x_min_wall))
        self.tail = _tail_start_index(times)
        self.final_A = float(self.A[-1])
        # the tail guard rejects a lucky dip sampled at the final instant
        tail_max = float(np.max(self.A[self.tail :]))
        self.aligned = self.final_A < ALIGN_EPS and tail_max < 2.0 * ALIGN_EPS
        self.kinetic_integral = float(np.trapezoid(self.K, times))
        self.force_sq_integral = float(np.trapezoid(self.F_sq, times))
        self.E_rise = _largest_step(self.E)
        # sqrt(2NG) bounds every speed, so the diameter grows at most twice as fast
        self.speed = math.sqrt(max(2.0 * traj.X.shape[1] * rec["G"][0], 0.0))
        self.v_peak = float(np.max(np.maximum(np.abs(rec["v_max"]), np.abs(rec["v_min"]))))
        self.D_excess = float(np.max(D - (2.0 * self.speed * (times - times[0]) + D[0] + 1e-9)))
        slack = BUDGET_TOL * max(1.0, abs(L[0]))
        L_budget = L[0] + _cumulative_trapezoid(self.F_max, times) + slack
        self.L_excess = float(np.max(L - L_budget))
        self.p_error = float(np.max(np.abs(self.p - self.p[0] - _impulse(times, rec["F_mean"]))))

    @cached_property
    def escape(self) -> float | None:
        """Earliest sample time after which every agent stays at distance >= ell
        (the records' x_min_wall, which on the half-line is the smallest x)."""
        outside = self.x_min_wall >= self.m.wall.ell
        if not outside[-1]:
            return None
        inside = np.nonzero(~outside)[0]
        k0 = 0 if inside.size == 0 else int(inside[-1]) + 1
        return float(self.times[k0])

    @cached_property
    def settle(self) -> tuple:
        """Each agent's mean position over the tail window, and its range there."""
        X = self.traj.X[self.tail :]
        return X.mean(axis=0), X.max(axis=0) - X.min(axis=0)

    @cached_property
    def pair_variation(self) -> float:
        """The largest range of a gap x_i - x_j over the tail window."""
        # pairwise differences over the kernel sums' strips (past window N = 2^15,
        # one row of window (N - lo)): rows [lo, lo + rows) against the columns
        # j >= lo, so no (window, N, N) array exists and each pair is seen once:
        # fl(x_j - x_i) = -fl(x_i - x_j), and a gap's spread has the same bits from either side
        X = self.traj.X[self.tail :]
        window, n = X.shape
        rows = block_rows(window * n)
        peaks = []
        for lo in range(0, n, rows):
            diffs = X[:, lo : lo + rows, None] - X[:, None, lo:]
            peaks.append(np.max(diffs.max(axis=0) - diffs.min(axis=0)))
        return float(np.max(peaks))

    @cached_property
    def fit(self) -> FitResult | None:
        return fit_exponential(self.traj, window_start=self.escape)


def _below(value: float, bar: float):
    return value < bar, value, bar


def _at_most(value: float, bar: float):
    return value <= bar, value, bar


def _positions_settle(s: _RunStats):
    """Every agent stops moving and rests at wall distance >= ell - SETTLE_EPS.

    A flock that aligned to a nonzero drift velocity cannot satisfy that: in
    drift mode the claim does not apply, and only the pairwise (shape)
    convergence of strong_flocking is meaningful.
    """
    means, variation = s.settle
    drift = abs(s.p[-1]) >= SETTLE_EPS
    passed = bool(np.all(variation < SETTLE_EPS) and np.all(means >= s.m.wall.ell - SETTLE_EPS))
    detail = "drift mode: flock translates at its aligned velocity" if drift else ""
    return passed, float(np.max(variation)), SETTLE_EPS, not drift, detail


def _outside_wall_range(s: _RunStats):
    if s.escape is not None:
        return True, s.escape, s.m.wall.ell, True, "escape time"
    low = float(np.min(s.settle[0]))
    return low >= s.m.wall.ell - SETTLE_EPS, low, s.m.wall.ell, True, "tail-window mean position"


def _exponential_rate(s: _RunStats):
    """Applies only when the initial momentum is positive (the escaping regime)
    and A leaves the fit's round-off floor at some sample: a single agent, or a
    flock aligned from the start, has no velocity spread to decay."""
    fit, flat = s.fit, bool(np.all(s.A < _FIT_FLOOR))
    if flat:
        detail = "A stays below the round-off floor 100 eps: nothing to fit"
    else:
        detail = "" if fit is not None else "fit unavailable"
    passed = fit is not None and fit.delta > 0.0 and fit.r_squared > 0.99
    return passed, math.nan if fit is None else fit.delta, 0.0, s.p[0] > 0.0 and not flat, detail


def _decays(s: _RunStats, last: np.ndarray, bar: float, series: np.ndarray, total: float):
    """last's final value below bar, and at most a tenth of total, the time
    integral of series, in the second half."""
    final, share = float(last[-1]), _tail_share(series, s.times, total)
    return final < bar and share <= 0.10, final, bar, True, f"tail share {share:.3g}"


def _work_of_force(s: _RunStats):
    """|W| against its per-sample Cauchy-Schwarz envelope sqrt(2K) * N * F_max:
    the verdict, the peak |W| and the peak envelope."""
    envelope = np.sqrt(2.0 * s.K) * s.traj.X.shape[1] * s.F_max
    W = np.abs(s.traj.records.W)
    ok = bool(np.all(W <= envelope + 1e-12 * np.maximum(1.0, envelope)))
    return ok, float(np.max(W)), float(np.max(envelope))


_HALFLINE, _INTERVAL, _BOTH = ("halfline",), ("interval",), ("halfline", "interval")
# one row per claim after integration_completed, in the order report.json lists
# them: its name, the geometries it applies to, and its verdict on the run's
# statistics, (passed, value, threshold[, applicable, detail]); the interval's
# diameter has no row, since boundedness of its asymptotic shape carries no claim
_CLAIMS = (
    ("no_wall_collision", _BOTH, lambda s: (s.min_dist > 0.0, s.min_dist, 0.0)),
    ("velocity_alignment", _BOTH, lambda s: (s.aligned, s.final_A, ALIGN_EPS)),
    ("strong_flocking", _HALFLINE, lambda s: _below(s.pair_variation, SETTLE_EPS)),
    ("positions_settle", _HALFLINE, _positions_settle),
    ("outside_wall_range", _HALFLINE, _outside_wall_range),
    ("exponential_rate", _HALFLINE, _exponential_rate),
    ("kinetic_decay", _INTERVAL, lambda s: _decays(s, s.K, ALIGN_EPS**2, s.K, s.kinetic_integral)),
    (
        "force_decay",
        _INTERVAL,
        lambda s: _decays(s, s.F_max, ALIGN_EPS, s.F_sq, s.force_sq_integral),
    ),
    ("work_of_force_bounded", _INTERVAL, _work_of_force),
    ("energy_nonincreasing", _BOTH, lambda s: _at_most(s.E_rise, 1e-9 * max(1.0, abs(s.E[0])))),
    ("velocity_bound", _BOTH, lambda s: _at_most(s.v_peak, s.speed + 1e-9)),
    ("diameter_growth", _BOTH, lambda s: _at_most(s.D_excess, 0.0)),
    ("lyapunov_budget", _BOTH, lambda s: _at_most(s.L_excess, 0.0)),
    (
        "momentum_force_identity",
        _BOTH,
        lambda s: _at_most(s.p_error, 1e-4 * max(1.0, abs(s.p[0]) + 1.0)),
    ),
    ("momentum_nondecreasing", _HALFLINE, lambda s: _at_most(_largest_step(-s.p), 1e-9)),
)


def verify(
    m: FlockModel,
    s0: FlockState,
    *,
    t_end: float,
    sample_every: float = 0.1,
) -> TheoremReport:
    """Run the scenario and check every claimed limit behavior of its geometry.

    A failed integration yields a report with the single failed claim
    integration_completed.
    """
    try:
        run = integrate(m, s0, t_end, sample_every)
    except (StiffnessError, WallDomainError) as exc:
        run = exc
    return _report(m, run)


def verify_batch(
    models: list,
    states: list,
    *,
    t_end: float,
    sample_every: float = 0.1,
) -> list:
    """verify each state under its model, the runs stepped together by
    integrate_batch (the states share N and their start time, the models their
    wall and geometry): each report equals verify's, made before the next slice steps."""
    return integrate_batch(models, states, t_end, sample_every, each=_report)


def _report(m: FlockModel, run) -> TheoremReport:
    """The report of one run: its Trajectory, or the error that ended it."""
    variant = m.geometry.variant
    if isinstance(run, Exception):
        claim = Claim(
            "integration_completed", False, math.nan, 0.0, detail=f"{type(run).__name__}: {run}"
        )
        return TheoremReport(variant=variant, claims=[claim])

    s = _RunStats(m, run)
    claims = [Claim("integration_completed", True, s.times[-1], s.times[-1])]
    claims += [Claim(name, *verdict(s)) for name, where, verdict in _CLAIMS if variant in where]
    report = TheoremReport(
        variant=variant,
        claims=claims,
        min_wall_distance=s.min_dist,
        final_A=s.final_A,
        final_D=float(s.D[-1]),
        kinetic_integral=s.kinetic_integral,
        force_sq_integral=s.force_sq_integral,
    )
    if variant == "halfline":
        report.fit, report.escape_time = s.fit, s.escape
        report.settled_positions = s.settle[0]
    return report
