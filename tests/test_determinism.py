"""Determinism across CPUs: what numpy's run-time code choices may move.

numpy picks the SIMD loops of `pow`, `exp` and `log` from the CPU, and
OpenBLAS picks its kernels from the CPU. Both choices are read once, when
numpy is imported, from NPY_DISABLE_CPU_FEATURES and OPENBLAS_CORETYPE, so
these tests run children with them set and compare with this process.
The bytes of a run are fixed per numpy build, dispatch level and BLAS
kernel; across those, the rate fit keeps its bits, the verdicts are equal
and the claim values agree within VALUE_BAR (README "Determinism").
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import wallflock
from wallflock import Trajectory, config_from_data
from wallflock import initial_state_from_config, model_from_config, verify
from wallflock.observables import DiagnosticsRecord
from wallflock.verification import fit_exponential

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tools"))
from lowered_dispatch import lowered_env  # noqa: E402

CONFIGS = HERE.parent / "configs"
CANONICAL = ("halfline", "interval", "settle", "control_nowall")
SHORT_T = 10.0
# Claim values of the four canonical configs at t_end 10 differ from an
# AVX-512, SkylakeX-kernel run by at most 9.9e-12 (the rate of control_nowall's
# fit) with the dispatch lowered to AVX2 or to numpy's baseline and OpenBLAS
# on its Haswell or Sandybridge kernel; round-off-scale values differ by 50 %
# relative, so the bar is absolute and leaves a factor 10
VALUE_BAR = 1e-10


def probe_bits():
    """The bits of a small matrix-vector product, which OpenBLAS's kernels round differently."""
    a = np.linspace(0.1, 1.7, 37).reshape(1, 37)
    b = np.sin(np.arange(37 * 29.0)).reshape(37, 29) * 1e3 + 1 / 3
    return (a @ b).tobytes().hex()


def fit_bits():
    """C, delta and r^2 of fits on fixed synthetic tails, as float.hex strings."""
    bits = []
    for n, slope, noise in ((10, -0.7, 0.0), (401, -0.2, 0.1), (1001, 0.05, 0.3), (4000, -2.5, 1e-3)):
        times = np.linspace(30.0, 40.0, n)
        A = np.exp(1.3 + slope * (times - 30.0) + noise * np.sin(12.9898 * times))
        names = DiagnosticsRecord._fields
        records = np.rec.fromarrays([np.zeros(n)] * len(names), names=names)
        records.t[:], records.A[:] = times, A
        fit = fit_exponential(Trajectory(times, np.zeros((n, 1)), np.zeros((n, 1)), records), 30.0)
        bits += [float(fit.C).hex(), float(fit.delta).hex(), float(fit.r_squared).hex()]
    return bits


def claim_rows():
    """Per canonical config cut to t_end 10, each claim's (name, passed, applicable, value, threshold)."""
    rows = {}
    for name in CANONICAL:
        data = yaml.safe_load((CONFIGS / f"{name}.yaml").read_text())
        data["integrator"]["t_end"] = SHORT_T
        cfg = config_from_data(data)
        m, s0 = model_from_config(cfg), initial_state_from_config(cfg)
        report = verify(m, s0, t_end=cfg.t_end, sample_every=cfg.sample_every)
        rows[name] = [
            [c.name, bool(c.passed), bool(c.applicable), float(c.value), float(c.threshold)]
            for c in report.claims
        ]
    return rows


def child(call, **env):
    """The JSON result of `test_determinism.<call>` in a fresh interpreter with env set."""
    src = Path(wallflock.__file__).resolve().parents[1]
    script = (
        f"import json, sys; sys.path.insert(0, {str(HERE)!r}); import test_determinism as t; "
        f"print(json.dumps([t.probe_bits(), t.{call}()]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src), **env},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_rate_fit_bits_do_not_depend_on_the_blas_kernel():
    # the fit sums with np.add.reduce: no BLAS call, so no kernel's rounding
    runs = {core: child("fit_bits", OPENBLAS_CORETYPE=core) for core in ("Haswell", "Sandybridge")}
    if all(probe == probe_bits() for probe, _ in runs.values()):
        pytest.skip("OPENBLAS_CORETYPE is not honoured: the probe product has one set of bits")
    for core, (_, bits) in runs.items():
        assert bits == fit_bits(), core


def _close(a, b):
    return a == b or (math.isnan(a) and math.isnan(b)) or abs(a - b) <= VALUE_BAR


def test_verdicts_do_not_depend_on_the_simd_dispatch_or_blas_kernel():
    found, env = lowered_env()
    probe, rows = child("claim_rows", **env)
    if not found and probe == probe_bits():
        pytest.skip("no dispatch target above numpy's baseline and OPENBLAS_CORETYPE is not honoured")
    here = claim_rows()
    assert list(rows) == list(here)
    for name, claims in here.items():
        assert [c[:3] for c in rows[name]] == [c[:3] for c in claims], name
        for mine, theirs in zip(claims, rows[name]):
            assert _close(mine[3], theirs[3]) and _close(mine[4], theirs[4]), (name, mine, theirs)
