"""Self-tests of the benchmark's span accounting and output checks.

Run from the repository root: python3 -m pytest -q perfbench
"""

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs as wl  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

SMALL = (
    "kernel: {family: powerlaw, H: 1.0, beta: 0.25}\n"
    "potential: {ell: 1.0, theta: 1.0}\n"
    "geometry: {variant: halfline}\n"
    "integrator: {t_end: 2.0, sample_every: 0.1}\n"
    "ic: {n_agents: 6, x_low: 0.5, x_high: 3.0, v_low: -0.5, v_high: 1.0, seed: 5}\n"
)


def _traced_verify(tmp_path, text=SMALL):
    from wallflock import cli

    config = tmp_path / "c.yaml"
    config.write_text(text)
    tracer = spans.Tracer()
    with spans.instrument(tracer) as missing:
        with tracer.span("op"):
            code = cli.main(["verify", "--config", str(config), "--out", str(tmp_path), "--quiet"])
    return code, tracer.spans, missing


def test_rhs_evaluations_are_six_per_domain_check_without_rejections(tmp_path):
    code, recorded, missing = _traced_verify(tmp_path)
    assert code in (0, 1) and missing == []
    m = spans.pass_metrics(recorded)
    assert m["integrator.domain_rejections"] == 0
    assert m["dynamics.acceleration.calls"] == 6 * m["potentials.check_domain.calls"] > 0
    assert m["integrator.step_attempts"] == m["potentials.check_domain.calls"]
    assert m["observables.diagnostics.calls"] == 21  # t = 0, 0.1, ..., 2.0
    assert m["config.parse_config.calls"] == 1
    assert m["verification.report_json_bytes"] == len((tmp_path / "report.json").read_text())


def test_step_attempts_count_stage_rejections():
    # one attempt rejected at its third stage, then one accepted attempt
    s = [Span(1, "integrator.integrate", 0.0, 10.0, None)]
    s += [Span(2 + i, "dynamics.acceleration", 1.0 + i * 0.1, 1.05 + i * 0.1, 1) for i in range(2)]
    s += [Span(4, "dynamics.acceleration", 1.3, 1.35, 1, "WallDomainError")]
    s += [Span(5 + i, "dynamics.acceleration", 2.0 + i * 0.1, 2.05 + i * 0.1, 1) for i in range(6)]
    s += [Span(11, "potentials.check_domain", 2.7, 2.75, 1)]
    m = spans.pass_metrics(s)
    assert m["integrator.step_attempts"] == 2
    assert m["integrator.domain_rejections"] == 1
    assert m["dynamics.acceleration.calls"] == 9


def test_self_times_are_nonnegative_and_within_their_span(tmp_path):
    _, recorded, _ = _traced_verify(tmp_path)
    selfs = spans.self_times(recorded)
    assert {s.name for s in recorded} >= {"op", "cli.verify", "integrator.integrate"}
    for s in recorded:
        assert 0.0 <= selfs[s.id] <= s.end - s.start
    # overlapping and out-of-span children are clipped and counted once
    synthetic = [
        Span(1, "a", 0.0, 1.0, None),
        Span(2, "b", 0.2, 0.6, 1),
        Span(3, "c", 0.4, 0.8, 1),
        Span(4, "d", 0.9, 1.5, 1),
    ]
    assert spans.self_times(synthetic)[1] == pytest.approx(0.3)


def test_missing_boundary_leaves_its_metrics_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(
        spans, "BOUNDARIES",
        spans.BOUNDARIES[:-1] + (("verification.report_json", "wallflock.verification", "Gone.to_json"),),
    )
    code, recorded, missing = _traced_verify(tmp_path)
    assert code in (0, 1) and missing == ["verification.report_json"]
    m = spans.pass_metrics(recorded, missing)
    assert "verification.report_json_s" not in m and "verification.report_json_bytes" not in m
    assert m["dynamics.acceleration.calls"] > 0


def test_instrument_restores_the_originals():
    import wallflock.integrator as integ
    import wallflock.verification as verif

    before = (integ.acceleration, verif.TheoremReport.__dict__["to_json"])
    with spans.instrument(spans.Tracer()):
        assert integ.acceleration is not before[0]
    assert (integ.acceleration, verif.TheoremReport.__dict__["to_json"]) == before


def test_reference_check_fails_on_a_perturbed_verdict():
    ref = wl.load_reference(HERE / "reference.json")
    good = ref["canonical"]["0"]["halfline.0"]
    assert wl.report_mismatches(good, copy.deepcopy(good)) == []
    bad = copy.deepcopy(good)
    bad["verdicts"][1][1] = not bad["verdicts"][1][1]
    assert wl.report_mismatches(good, bad)
    bad = copy.deepcopy(good)
    bad["exit_code"] = 1 - bad["exit_code"]
    assert wl.report_mismatches(good, bad)
    bad = copy.deepcopy(good)
    bad["values"]["final_D"] *= 1 + 1e-4
    assert wl.report_mismatches(good, bad)


def test_control_reference_fails_no_wall_collision_with_exit_1():
    ref = wl.load_reference(HERE / "reference.json")
    for k in range(wl.POOL):
        for j in range(3):
            control = ref["canonical"][str(k)][f"control_nowall.{j}"]
            assert control["exit_code"] == 1
            assert ["no_wall_collision", False, True] in control["verdicts"]


def test_sweep_check_counts_each_perturbed_row():
    good = wl.load_reference(HERE / "reference.json")["sweep"]["0"]["sweep"]
    bad = copy.deepcopy(good)
    bad["rows"][2]["verdict"][0] = "False" if bad["rows"][2]["verdict"][0] == "True" else "True"
    assert wl.sweep_row_failures(good, copy.deepcopy(good)) == (0, [])
    assert wl.sweep_row_failures(good, bad)[0] == 1
    bad["exit_code"] += 1
    assert wl.sweep_row_failures(good, bad)[0] == len(good["rows"])


def test_acceleration_oracle_agrees_and_catches_a_perturbation(monkeypatch):
    import wallflock.dynamics as dyn

    assert wl.acceleration_oracle_error(SMALL, 3) <= wl.ORACLE_RTOL
    original = dyn.acceleration
    monkeypatch.setattr(dyn, "acceleration", lambda m, x, v: original(m, x, v) * (1 + 1e-9))
    assert wl.acceleration_oracle_error(SMALL, 3) > wl.ORACLE_RTOL


def test_inputs_depend_only_on_the_seed_modulo_the_pool():
    for workload in wl.WORKLOADS:
        assert wl.make_inputs(workload, 3) == wl.make_inputs(workload, 3 + wl.POOL)
        assert wl.make_inputs(workload, 3) != wl.make_inputs(workload, 4)
    assert "parallelism" not in wl.make_inputs("sweep", 0)[0].text
