"""Machine-checkable verdicts for the flocking limit theorems.

Infinite-time statements are checked through finite-horizon surrogates: tail
windows for settlement, least-squares rates for exponential decay, and
trajectory-wide budget inequalities with explicit tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .dynamics import FlockModel, FlockState
from .integrator import StiffnessError, Trajectory, integrate, integrate_batch
from .potentials import Geometry, WallDomainError, WallPotential

_EPS = float(np.finfo(float).eps)
# the file TheoremReport.write keeps in an output directory
REPORT_JSON = "report.json"
# element count of one block of pairwise differences in check_settlement (32 MB)
_BLOCK_ELEMENTS = 1 << 22
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
class SettlementResult:
    passed: bool
    settled_positions: np.ndarray
    drift: bool
    max_variation: float
    max_pair_variation: float
    min_mean_position: float


@dataclass
class IntervalDecayResult:
    final_K: float
    final_F_max: float
    kinetic_tail_share: float
    force_tail_share: float


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


def check_no_collision(traj: Trajectory):
    """A completed trajectory plus a positive wall-distance infimum."""
    min_dist = float(np.min(traj.records.x_min_wall))
    return min_dist > 0.0, min_dist


def check_alignment(traj: Trajectory):
    A = traj.records.A
    final_A = float(A[-1])
    tail_max = float(np.max(A[_tail_start_index(traj.sample_times):]))
    # the tail guard rejects a lucky dip sampled at the final instant
    return final_A < ALIGN_EPS and tail_max < 2.0 * ALIGN_EPS, final_A


def fit_exponential(traj: Trajectory, window_start: float | None = None):
    """Least-squares line on (t, log A) over the tail window.

    Samples with A below 100x machine epsilon sit in the round-off floor and
    are skipped.  Returns None when fewer than FIT_MIN_POINTS remain.
    """
    times, A = traj.sample_times, traj.records.A
    if window_start is None:
        window_start = times[_tail_start_index(times)]
    mask = (times >= window_start - 1e-12) & (A >= _FIT_FLOOR)
    if int(mask.sum()) < FIT_MIN_POINTS:
        return None
    tt = times[mask]
    la = np.log(A[mask])
    slope, intercept = np.polyfit(tt, la, 1)
    fitted = slope * tt + intercept
    ss_res = float(np.sum((la - fitted) ** 2))
    ss_tot = float(np.sum((la - np.mean(la)) ** 2))
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


def detect_escape(traj: Trajectory, geom: Geometry, wall: WallPotential):
    """Earliest sample time after which every agent stays at distance >= ell."""
    if geom.variant != "halfline":
        raise ValueError("escape detection applies to the half-line only")
    outside = traj.X.min(axis=1) >= wall.ell
    if not outside[-1]:
        return None
    inside = np.nonzero(~outside)[0]
    k0 = 0 if inside.size == 0 else int(inside[-1]) + 1
    return float(traj.sample_times[k0])


def check_settlement(traj: Trajectory, wall: WallPotential) -> SettlementResult:
    """Tail-window position convergence, absolute and pairwise.

    Absolute settlement asks every agent to stop moving and rest at wall
    distance >= ell - SETTLE_EPS.  A flock that aligned to a nonzero drift
    velocity cannot satisfy that; it is reported as drift mode, where only
    the pairwise (shape) convergence is meaningful.
    """
    k0 = _tail_start_index(traj.sample_times)
    X = traj.X[k0:]  # (window, N)
    means = X.mean(axis=0)
    variation = X.max(axis=0) - X.min(axis=0)
    # pairwise differences over strips of rows [lo, lo + rows) against the
    # columns j >= lo, so no (window, N, N) array exists and each pair is seen
    # once: fl(x_j - x_i) = -fl(x_i - x_j), and a gap's spread has the same
    # bits from either side
    window, n = X.shape
    rows = max(1, _BLOCK_ELEMENTS // (window * n))
    peaks = []
    for lo in range(0, n, rows):
        diffs = X[:, lo : lo + rows, None] - X[:, None, lo:]
        peaks.append(np.max(diffs.max(axis=0) - diffs.min(axis=0)))
    drift = abs(traj.records[-1].p) >= SETTLE_EPS
    passed = bool(
        np.all(variation < SETTLE_EPS) and np.all(means >= wall.ell - SETTLE_EPS)
    )
    return SettlementResult(
        passed=passed,
        settled_positions=means,
        drift=bool(drift),
        max_variation=float(np.max(variation)),
        max_pair_variation=float(np.max(peaks)),
        min_mean_position=float(np.min(means)),
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
    n = y.size
    out = np.zeros(n)
    if n > 1:
        out[1] = 0.5 * h * (y[0] + y[1])
    for k in range(2, n):
        if k % 2 == 0:
            out[k] = out[k - 2] + h * (y[k - 2] + 4.0 * y[k - 1] + y[k]) / 3.0
        else:
            out[k] = out[k - 3] + 3.0 * h * (y[k - 3] + 3.0 * y[k - 2] + 3.0 * y[k - 1] + y[k]) / 8.0
    return out


def _tail_share(series: np.ndarray, times: np.ndarray) -> float:
    """Share of the time integral of series that falls in the second half."""
    total = float(np.trapezoid(series, times))
    mid = int(np.searchsorted(times, 0.5 * (times[0] + times[-1])))
    last = float(np.trapezoid(series[mid:], times[mid:]))
    return 0.0 if total == 0.0 else last / total


def check_interval_decay(m: FlockModel, traj: Trajectory) -> IntervalDecayResult:
    """Final kinetic energy and wall force, and the late share of their time integrals."""
    if m.geometry.variant != "interval":
        raise ValueError("interval decay check requires interval geometry")
    K, times = traj.records.K, traj.sample_times
    return IntervalDecayResult(
        final_K=float(K[-1]),
        final_F_max=float(traj.records[-1].F_max),
        kinetic_tail_share=_tail_share(K, times),
        force_tail_share=_tail_share(traj.records.F_sq, times),
    )


def check_work_of_force(traj: Trajectory):
    """|W| against its per-sample Cauchy-Schwarz envelope sqrt(2K) * N * F_max.

    Returns the verdict, the peak |W| and the peak envelope.
    """
    rec = traj.records
    envelope = np.sqrt(2.0 * rec.K) * traj.X.shape[1] * rec.F_max
    W = np.abs(rec.W)
    ok = bool(np.all(W <= envelope + 1e-12 * np.maximum(1.0, envelope)))
    return ok, float(np.max(W)), float(np.max(envelope))


def budget_claims(m: FlockModel, traj: Trajectory) -> list:
    """Trajectory-wide inequality checks shared by both geometries."""
    times, rec = traj.sample_times, traj.records
    E, L, p, D = rec.E, rec.L, rec.p, rec.D
    F_max, F_mean = rec.F_max, rec.F_mean
    v_hi = np.maximum(np.abs(rec.v_max), np.abs(rec.v_min))
    G = rec[0].G
    n = traj.X.shape[1]
    claims = []

    tol_E = 1e-9 * max(1.0, abs(E[0]))
    worst_rise = float(np.max(E[1:] - E[:-1])) if len(E) > 1 else 0.0
    claims.append(Claim("energy_nonincreasing", worst_rise <= tol_E, worst_rise, tol_E))

    # sqrt(2NG) bounds every speed, so the diameter grows at most twice as fast
    speed = math.sqrt(max(2.0 * n * G, 0.0))
    v_bound = speed + 1e-9
    v_peak = float(np.max(v_hi))
    claims.append(Claim("velocity_bound", v_peak <= v_bound, v_peak, v_bound))

    d_budget = 2.0 * speed * (times - times[0]) + D[0] + 1e-9
    d_excess = float(np.max(D - d_budget))
    claims.append(Claim("diameter_growth", d_excess <= 0.0, d_excess, 0.0))

    lyap_budget = L[0] + _cumulative_trapezoid(F_max, times) + BUDGET_TOL * max(1.0, abs(L[0]))
    l_excess = float(np.max(L - lyap_budget))
    claims.append(Claim("lyapunov_budget", l_excess <= 0.0, l_excess, 0.0))

    # samples are h apart but for a shorter last interval when sample_every does
    # not divide the run (integrator._sample_grid); one trapezoid closes that one
    h = float(times[1] - times[0]) if len(times) > 1 else 0.0
    last = float(times[-1] - times[-2]) if len(times) > 1 else 0.0
    if math.isclose(last, h, rel_tol=1e-9, abs_tol=1e-12):
        impulse = _cumulative_simpson(F_mean, h)
    else:
        impulse = _cumulative_simpson(F_mean[:-1], h)
        impulse = np.append(impulse, impulse[-1] + 0.5 * (F_mean[-2] + F_mean[-1]) * last)
    p_tol = 1e-4 * max(1.0, abs(p[0]) + 1.0)
    p_err = float(np.max(np.abs(p - p[0] - impulse)))
    claims.append(Claim("momentum_force_identity", p_err <= p_tol, p_err, p_tol))

    if m.geometry.variant == "halfline":
        worst_drop = float(np.max(p[:-1] - p[1:])) if len(p) > 1 else 0.0
        claims.append(Claim("momentum_nondecreasing", worst_drop <= 1e-9, worst_drop, 1e-9))

    return claims


def _halfline_claims(m: FlockModel, traj: Trajectory, report: TheoremReport):
    """Strong flocking, settlement or escape, and the exponential rate.

    The exponential-rate claim applies only when the initial momentum is
    positive (the escaping regime) and A leaves the fit's round-off floor at
    some sample (a single agent, or a flock aligned from the start, has no
    velocity spread to decay); absolute settlement only when the flock is not
    in drift mode.
    """
    escape = detect_escape(traj, m.geometry, m.wall)
    settle = check_settlement(traj, m.wall)
    fit = fit_exponential(traj, window_start=escape)
    report.fit, report.escape_time = fit, escape
    report.settled_positions = settle.settled_positions
    outside = escape is not None or settle.min_mean_position >= m.wall.ell - SETTLE_EPS
    flat = bool(np.all(traj.records.A < _FIT_FLOOR))
    if flat:
        rate_detail = "A stays below the round-off floor 100 eps: nothing to fit"
    else:
        rate_detail = "" if fit is not None else "fit unavailable"
    report.claims += [
        Claim(
            "strong_flocking",
            settle.max_pair_variation < SETTLE_EPS,
            settle.max_pair_variation,
            SETTLE_EPS,
        ),
        Claim(
            "positions_settle",
            settle.passed,
            settle.max_variation,
            SETTLE_EPS,
            applicable=not settle.drift,
            detail="drift mode: flock translates at its aligned velocity" if settle.drift else "",
        ),
        Claim(
            "outside_wall_range",
            outside,
            settle.min_mean_position if escape is None else float(escape),
            m.wall.ell,
            detail="escape time" if escape is not None else "tail-window mean position",
        ),
        Claim(
            "exponential_rate",
            fit is not None and fit.delta > 0.0 and fit.r_squared > 0.99,
            math.nan if fit is None else fit.delta,
            0.0,
            applicable=traj.records[0].p > 0.0 and not flat,
            detail=rate_detail,
        ),
    ]


def _interval_claims(m: FlockModel, traj: Trajectory, report: TheoremReport):
    """Decay of kinetic energy and wall forces, and the bounded work of the force.

    The flock diameter is reported without a verdict: boundedness of the
    asymptotic shape carries no claim in this geometry.
    """
    decay = check_interval_decay(m, traj)
    ok, w_peak, envelope = check_work_of_force(traj)
    report.claims += [
        Claim(
            "kinetic_decay",
            decay.final_K < ALIGN_EPS**2 and decay.kinetic_tail_share <= 0.10,
            decay.final_K,
            ALIGN_EPS**2,
            detail=f"tail share {decay.kinetic_tail_share:.3g}",
        ),
        Claim(
            "force_decay",
            decay.final_F_max < ALIGN_EPS and decay.force_tail_share <= 0.10,
            decay.final_F_max,
            ALIGN_EPS,
            detail=f"tail share {decay.force_tail_share:.3g}",
        ),
        Claim("work_of_force_bounded", ok, w_peak, envelope),
    ]


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
    wall and geometry); each report equals verify's."""
    runs = integrate_batch(models, states, t_end, sample_every)
    return [_report(m, run) for m, run in zip(models, runs)]


def _report(m: FlockModel, run) -> TheoremReport:
    """The report of one run: its Trajectory, or the error that ended it."""
    variant = m.geometry.variant
    if isinstance(run, Exception):
        claim = Claim(
            "integration_completed", False, math.nan, 0.0, detail=f"{type(run).__name__}: {run}"
        )
        return TheoremReport(variant=variant, claims=[claim])

    traj = run
    times, rec = traj.sample_times, traj.records
    no_collision, min_dist = check_no_collision(traj)
    aligned, final_A = check_alignment(traj)
    report = TheoremReport(
        variant=variant,
        claims=[
            Claim("integration_completed", True, times[-1], times[-1]),
            Claim("no_wall_collision", no_collision, min_dist, 0.0),
            Claim("velocity_alignment", aligned, final_A, ALIGN_EPS),
        ],
        min_wall_distance=min_dist,
        final_A=final_A,
        final_D=float(rec[-1].D),
        kinetic_integral=float(np.trapezoid(rec.K, times)),
        force_sq_integral=float(np.trapezoid(rec.F_sq, times)),
    )
    own_claims = _halfline_claims if variant == "halfline" else _interval_claims
    own_claims(m, traj, report)
    report.claims += budget_claims(m, traj)
    return report
