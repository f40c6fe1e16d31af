"""Acceptance suite: one test and one printed verdict line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines on
passing runs as well.  Quadratures here come from scipy so the budget checks
do not share code with the package's own cumulative rules.
"""

import numpy as np
from scipy.integrate import cumulative_simpson, cumulative_trapezoid

import wallflock as wf
from wallflock import integrator, verification
from wallflock.cli import main


def _verdict(num, title, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {title}: {detail}")
    assert ok, f"criterion {num:02d} {title}: {detail}"


def test_criterion_01_energy_dissipation_identity(
    halfline_traj, halfline_traj_halved, dissipation_residual
):
    E0 = halfline_traj.records[0].E
    bar = 1e-3 * max(1.0, abs(E0))
    r_coarse = float(np.max(np.abs(dissipation_residual(halfline_traj))))
    r_fine = float(np.max(np.abs(dissipation_residual(halfline_traj_halved))))
    drop = r_coarse / r_fine
    ok = r_coarse <= bar and drop >= 3.5
    _verdict(
        1,
        "energy dissipation identity",
        ok,
        f"max residual {r_coarse:.3e} <= {bar:.3e} at dt_sample=0.05, halving drop {drop:.2f}x >= 3.5x",
    )


def test_criterion_02_no_wall_collision(scenario_table):
    details = []
    ok = True
    for name, m, traj in scenario_table:
        report = verification._report(m, traj)
        passed, dist = report.claim("no_wall_collision").passed, report.min_wall_distance
        if name == "control":
            # disabled-wall control must cross: the check has to fail
            ok = ok and not passed
            details.append(f"{name} min dist {dist:.3g} (expected failure)")
        else:
            ok = ok and passed
            details.append(f"{name} min dist {dist:.3g}")
    _verdict(2, "no wall collision", ok, "; ".join(details))


def test_criterion_03_apriori_velocity_and_diameter_bounds(scenario_table):
    worst_v = worst_d = -np.inf
    ok = True
    for name, m, traj in scenario_table:
        t = np.asarray(traj.sample_times)
        rec = traj.records
        G = rec[0].G
        n = traj.X.shape[1]
        v_bound = np.sqrt(max(2.0 * n * G, 0.0)) + 1e-9
        v_peak = max(
            np.max(np.abs(rec.v_max)),
            np.max(np.abs(rec.v_min)),
        )
        D = rec.D
        d_slack = np.max(D - (2.0 * np.sqrt(max(2.0 * n * G, 0.0)) * (t - t[0]) + D[0] + 1e-9))
        ok = ok and v_peak <= v_bound and d_slack <= 0.0
        worst_v = max(worst_v, v_peak / v_bound)
        worst_d = max(worst_d, d_slack)
    _verdict(
        3,
        "a priori bounds",
        ok,
        f"worst velocity peak at {worst_v:.3f} of bound, worst diameter excess {worst_d:.3e}",
    )


def test_criterion_04_lyapunov_budget(scenario_table):
    worst = -np.inf
    ok = True
    for name, m, traj in scenario_table:
        t = np.asarray(traj.sample_times)
        L = traj.records.L
        F_max = traj.records.F_max
        budget = L[0] + cumulative_trapezoid(F_max, t, initial=0.0) + 1e-3 * max(1.0, abs(L[0]))
        excess = float(np.max(L - budget))
        ok = ok and excess <= 0.0
        worst = max(worst, excess)
    _verdict(4, "lyapunov budget", ok, f"worst budget excess {worst:.3e} <= 0")


def test_criterion_05_momentum_law(scenario_table):
    worst_ratio = -np.inf
    worst_drop = -np.inf
    ok = True
    for name, m, traj in scenario_table:
        t = np.asarray(traj.sample_times)
        p = traj.records.p
        F_mean = traj.records.F_mean
        h = float(t[1] - t[0])
        impulse = cumulative_simpson(F_mean, dx=h, initial=0.0)
        bar = 1e-4 * max(1.0, abs(p[0]) + 1.0)
        err = float(np.max(np.abs(p - p[0] - impulse)))
        ok = ok and err <= bar
        worst_ratio = max(worst_ratio, err / bar)
        if m.geometry.variant == "halfline":
            drop = float(np.max(p[:-1] - p[1:]))
            ok = ok and drop <= 1e-9
            worst_drop = max(worst_drop, drop)
    _verdict(
        5,
        "momentum law",
        ok,
        f"worst identity error at {worst_ratio:.3f} of bound, worst half-line momentum drop {worst_drop:.3e}",
    )


def test_criterion_06_alignment(halfline_traj, interval_fixture):
    A_half = halfline_traj.records[-1].A
    A_int = interval_fixture[2].records[-1].A
    ok = A_half < 1e-2 and A_int < 1e-2
    _verdict(
        6,
        "alignment",
        ok,
        f"half-line A(200)={A_half:.3e} < 1e-2, interval A(400)={A_int:.3e} < 1e-2",
    )


def test_criterion_07_exponential_rate(twoagent_fixture, canonical_model, halfline_traj):
    m2, s2, traj2 = twoagent_fixture
    fit2 = verification.fit_exponential(traj2)
    # closed-form route: the velocity gap contracts at exactly the kernel height
    t2 = np.asarray(traj2.sample_times)
    A_exact = (s2.v[1] - s2.v[0]) * np.exp(-m2.kernel.H * t2)
    overlay = float(np.max(np.abs(traj2.records.A - A_exact)))
    two_ok = (
        fit2 is not None
        and abs(fit2.delta - 1.0) <= 0.02
        and fit2.r_squared > 0.999
        and overlay < 1e-7
    )

    esc = verification._RunStats(canonical_model, halfline_traj).escape
    fit_c = verification.fit_exponential(halfline_traj, window_start=esc)
    canon_ok = esc is not None and fit_c is not None and fit_c.delta > 0.0 and fit_c.r_squared > 0.99
    _verdict(
        7,
        "exponential decay rate",
        two_ok and canon_ok,
        f"two-agent delta={fit2.delta:.4f} (r2={fit2.r_squared:.6f}, closed-form overlay {overlay:.1e}); "
        f"canonical delta={fit_c.delta:.3f} (r2={fit_c.r_squared:.5f}) after t*={esc:g}",
    )


def test_criterion_08_settlement(settle_fixture):
    m, s0, traj = settle_fixture
    p0 = traj.records[0].p
    report = verification._report(m, traj)
    settle = report.claim("positions_settle")
    # applicable: the flock is not in drift mode
    ok = p0 < 0.0 and settle.passed and settle.applicable
    _verdict(
        8,
        "settlement outside the wall range",
        ok,
        f"p0={p0:.4f} < 0, tail variation {settle.value:.3e} < 1e-2, "
        f"min mean position {np.min(report.settled_positions):.4f} >= {m.wall.ell - 1e-2:.2f}",
    )


def test_criterion_09_interval_decay(interval_fixture):
    m, s0, traj = interval_fixture
    t, K, F_sq = traj.sample_times, traj.records.K, traj.records.F_sq
    final_K, final_F_max = float(K[-1]), float(traj.records[-1].F_max)
    kinetic_tail_share = verification._tail_share(K, t, float(np.trapezoid(K, t)))
    force_tail_share = verification._tail_share(F_sq, t, float(np.trapezoid(F_sq, t)))
    ok = (
        final_K < 1e-4
        and final_F_max < 1e-2
        and kinetic_tail_share < 0.10
        and force_tail_share < 0.10
    )
    _verdict(
        9,
        "interval decay",
        ok,
        f"K(400)={final_K:.3e} < 1e-4, max|F|(400)={final_F_max:.3e} < 1e-2, "
        f"tail shares {kinetic_tail_share:.3f}/{force_tail_share:.3f} < 0.10",
    )


def test_criterion_10_integrator_order_and_reference_agreement():
    m = wf.FlockModel(
        wf.CommunicationKernel("powerlaw", 1.0, 0.25),
        wf.WallPotential(1.0, 1.0),
        wf.Geometry("halfline"),
    )
    s0 = wf.initial_condition(8, 2.0, 5.0, 0.0, 1.0, 3)
    T = 20.0
    truth = integrator.reference_rk4(m, s0, T, 1e-3, sample_every=T)
    errs = []
    for h in (0.2, 0.1, 0.05, 0.025):
        # the Fehlberg step itself at fixed h, without step control
        y = np.stack((s0.x, s0.v))
        for _ in range(round(T / h)):
            y = integrator._attempt(m, y, h)[0]
        errs.append(max(np.max(np.abs(y[0] - truth.X[-1])), np.max(np.abs(y[1] - truth.V[-1]))))
    orders = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
    order = float(np.mean(orders))

    adaptive = wf.integrate(m, s0, T, sample_every=0.1)
    reference = integrator.reference_rk4(m, s0, T, 0.002, sample_every=0.1)
    dev = 0.0
    for xa, va, xr, vr in zip(adaptive.X, adaptive.V, reference.X, reference.V):
        dev = max(dev, np.max(np.abs(xa - xr)), np.max(np.abs(va - vr)))
    bar = 10.0 * integrator.ABS_TOL
    ok = 3.6 <= order <= 4.4 and dev <= bar
    _verdict(
        10,
        "integrator order",
        ok,
        f"measured order {order:.3f} in [3.6, 4.4], adaptive vs reference {dev:.3e} <= {bar:.1e}",
    )


BOUNCE = """
ic: {n_agents: 8, x_low: 0.8, x_high: 3.0, v_low: -1.0, v_high: -0.2, seed: 5}
integrator: {t_end: 5.0, sample_every: 0.1}
"""

SWEEP = """
base:
  kernel: {family: powerlaw, H: 1.0, beta: 0.0}
  ic: {n_agents: 4, x_low: 2.0, x_high: 4.0, v_low: 0.1, v_high: 0.9, seed: 1}
  integrator: {t_end: 10.0, sample_every: 0.1}
sweep:
  axes:
    - {key: kernel.H, values: %s}
    - {key: kernel.beta, values: [0.0]}
  seeds: %s
"""


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "bounce.yaml"
    cfg.write_text(BOUNCE)
    digests = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc_sim = main(["simulate", "--config", str(cfg), "--out", str(out / "sim"), "--quiet"])
        rc_ver = main(["verify", "--config", str(cfg), "--out", str(out / "ver"), "--quiet"])
        assert rc_sim == 0
        digests.append(
            (
                (out / "sim" / "diagnostics.csv").read_bytes(),
                (out / "sim" / "final_state.csv").read_bytes(),
                (out / "ver" / "report.json").read_bytes(),
            )
        )
    repeat_ok = digests[0] == digests[1]

    sweeps = []
    for H, seeds, name in (([1.2, 0.8], [2, 1], "as_written"), ([0.8, 1.2], [1, 2], "reversed")):
        sweep_cfg = tmp_path / f"sweep_{name}.yaml"
        sweep_cfg.write_text(SWEEP % (H, seeds))
        out = tmp_path / name
        assert main(["sweep", "--config", str(sweep_cfg), "--out", str(out), "--quiet"]) == 0
        sweeps.append((out / "sweep.csv").read_bytes())
    sweep_ok = sweeps[0] == sweeps[1]

    _verdict(
        11,
        "determinism",
        repeat_ok and sweep_ok,
        f"repeated runs byte-identical: {repeat_ok}; sweep output independent of the order of"
        f" axis values and seeds: {sweep_ok}",
    )
