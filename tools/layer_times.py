"""Median time per call of acceleration, diagnostics and one Fehlberg attempt,
at N = 16, 128 and 1024.

Usage, from the repository root:

    python3 tools/layer_times.py

Builds the initial state of configs/halfline.yaml at each N in
{16, 128, 1024} (at N = 1024 the shape of perfbench's large_n input) and
times three layers on it: `dynamics.acceleration`, `observables.diagnostics`
and one step attempt, `integrator._attempt` at dt = integrator.DT_INIT on the
(2, N) phase state.  Each layer is called once to size a batch of about
BATCH_S seconds, then run for one untimed warm-up batch and BATCHES timed
ones.  Prints one line per N, `n=<N> acceleration_us=<t> diagnostics_us=<t>
attempt_us=<t>`, each the median over the batches of the microseconds per
call.

The process pins each of its threads to one CPU, the lowest it may run on:
numpy's BLAS threads too, which importing numpy started, so pinning the
main thread alone would leave them on every CPU.  The numbers are raw wall
times, not scaled by any CPU probe, so compare two checkouts by alternating
runs of this script on the same machine.  wallflock is imported from the
src/ tree next to this script.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from wallflock import dynamics, integrator, observables  # noqa: E402
from wallflock.config import initial_state_from_config, model_from_config, parse_config  # noqa: E402

SIZES = (16, 128, 1024)
LAYERS = ("acceleration_us", "diagnostics_us", "attempt_us")
BATCHES = 9
BATCH_S = 0.05
CONFIG = ROOT / "configs" / "halfline.yaml"


def per_call_us(call) -> float:
    """The median over BATCHES timed batches of call()'s microseconds per call."""
    start = time.perf_counter()
    call()
    calls = max(1, int(BATCH_S / max(time.perf_counter() - start, 1e-7)))
    times = []
    for _ in range(BATCHES + 1):  # the first batch is the warm-up
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        times.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(times[1:])


def layer_calls(n: int) -> tuple:
    """acceleration, diagnostics and one attempt, as calls on the state at N = n."""
    cfg = parse_config(CONFIG.read_text(), {"ic.n_agents": n})
    m, s = model_from_config(cfg), initial_state_from_config(cfg)
    G = observables.initial_energy(m, s)
    y = np.stack((s.x, s.v))
    return (
        lambda: dynamics.acceleration(m, s.x, s.v),
        lambda: observables.diagnostics(m, s, G),
        lambda: integrator._attempt(m, y, integrator.DT_INIT),
    )


def main() -> None:
    cpu = {min(os.sched_getaffinity(0))}
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), cpu)
    for n in SIZES:
        times = [per_call_us(call) for call in layer_calls(n)]
        print(f"n={n} " + " ".join(f"{k}={v:.1f}" for k, v in zip(LAYERS, times)))


if __name__ == "__main__":
    main()
