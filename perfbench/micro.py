"""Per-call timings of single layers at N in {16, 128, 1024}.

Models and states are built through the config API (parse_config,
model_from_config, initial_state_from_config), whose format is stable, and
each layer is called through its public name.  None of the API that the
simplification plan deletes (step_embedded, rhs, PhaseDerivative,
diagnostics_table, momentum, mean_force, the curvature helpers) is used.
A layer that can no longer be called this way is left out.
"""

from __future__ import annotations

import statistics
import time

SIZES = (16, 128, 1024)
BATCH_S = 2e-3  # time per timed batch: keeps timer overhead below 0.1 %
BUDGET_S = 0.25  # time per (layer, N)
MIN_BATCHES = 5

_CONFIG = (
    "kernel: {{family: powerlaw, H: 1.0, beta: 0.25}}\n"
    "potential: {{ell: 1.0, theta: 1.0}}\n"
    "geometry: {{variant: halfline}}\n"
    "ic: {{n_agents: {n}, x_low: 0.5, x_high: 3.0, v_low: -0.5, v_high: 1.0, seed: {seed}}}\n"
)


def time_call(fn, budget: float = BUDGET_S) -> float:
    """Median wall time of one call, in microseconds, over batches of calls."""
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    per_batch = max(1, int(BATCH_S / once))
    samples = []
    begin = time.perf_counter()
    while len(samples) < MIN_BATCHES or time.perf_counter() - begin < budget:
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((time.perf_counter() - t0) / per_batch)
    return 1e6 * statistics.median(samples)


def _layers(n: int, seed: int) -> dict:
    from wallflock import dynamics, observables, potentials
    from wallflock.config import initial_state_from_config, model_from_config, parse_config

    cfg = parse_config(_CONFIG.format(n=n, seed=seed))
    m = model_from_config(cfg)
    s = initial_state_from_config(cfg)
    gaps = s.x[:, None] - s.x[None, :]
    G = observables.initial_energy(m, s)
    return {
        "kernels.eval_us": lambda: cfg.kernel.eval(gaps),
        "dynamics.acceleration_us": lambda: dynamics.acceleration(m, s.x, s.v),
        "potentials.geometry_force_us": lambda: potentials.geometry_force(m.geometry, m.wall, s.x),
        "observables.diagnostics_us": lambda: observables.diagnostics(m, s, G),
    }


NAMES = tuple(
    f"{layer}.n{n}"
    for layer in (
        "kernels.eval_us",
        "dynamics.acceleration_us",
        "potentials.geometry_force_us",
        "observables.diagnostics_us",
    )
    for n in SIZES
)


def run(seed: int) -> tuple[dict, list]:
    """({metric: microseconds per call}, [names left out with the reason])."""
    values, absent = {}, []
    for n in SIZES:
        try:
            layers = _layers(n, seed)
        except (ImportError, AttributeError, TypeError) as exc:
            absent += [(name, repr(exc)) for name in NAMES if name.endswith(f".n{n}")]
            continue
        for layer, fn in layers.items():
            try:
                values[f"{layer}.n{n}"] = time_call(fn)
            except (AttributeError, TypeError) as exc:
                absent.append((f"{layer}.n{n}", repr(exc)))
    return values, absent
