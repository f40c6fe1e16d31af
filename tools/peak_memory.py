"""Tracemalloc peak of each phase of one `wallflock verify`, at N = 16, 128 and 1024.

Usage, from the repository root:

    python3 tools/peak_memory.py

Runs the verify path of configs/halfline.yaml at t_end 0.3, the shape of
perfbench's large_n input, at each N in {16, 128, 1024}: once uncounted, so
that imports and first-call caches are out of the way, then again with each
phase under its own tracemalloc trace: `integrate` (the run), the claims
(verification._report, every claim checked on the trajectory) and
report.json (TheoremReport.write).  Prints one line per N,
`n=<N> integrate_mb=<peak> claims_mb=<peak> report_json_mb=<peak>`, each
the most memory, in MB of 10^6 bytes, that the phase's own allocations held
at once; what an earlier phase left allocated is not counted.

perfbench's peak_rss_mb is one number for its whole process, which on
large_n its in-process dense oracle can set; these peaks name the phase
that holds the memory, and do not depend on timing.

A last line, `fresh import_mb=<rss> verify_mb=<rss> numpy_random=<loaded>`,
comes from a fresh interpreter: its ru_maxrss (10^6 bytes) after
`import wallflock` and after one `wallflock verify` of configs/halfline.yaml
(N = 16, its own t_end), and whether any numpy.random module is then
loaded.  That is the whole-process figure perfbench reads, without
perfbench's own imports.  The interpreter is started by a bare one, because
Linux carries a parent's RSS high-water mark into its child's ru_maxrss
across exec, and this process's own peak is far above a fresh one's.

wallflock is imported from the src/ tree next to this script, so two
checkouts give two outputs to compare.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from wallflock import verification  # noqa: E402
from wallflock.config import initial_state_from_config, model_from_config, parse_config  # noqa: E402
from wallflock.integrator import integrate  # noqa: E402

SIZES = (16, 128, 1024)
PHASES = ("integrate_mb", "claims_mb", "report_json_mb")
CONFIG = ROOT / "configs" / "halfline.yaml"


def traced(call) -> tuple:
    """call()'s result, and the peak in bytes of what it allocated."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def phase_peaks(n: int, directory: Path) -> tuple:
    """The peaks of integrate, the claims and report.json of one verify at N = n."""
    cfg = parse_config(CONFIG.read_text(), {"ic.n_agents": n, "integrator.t_end": 0.3})
    m, s0 = model_from_config(cfg), initial_state_from_config(cfg)
    run, integrate_peak = traced(lambda: integrate(m, s0, cfg.t_end, cfg.sample_every))
    report, claims_peak = traced(lambda: verification._report(m, run))
    _, json_peak = traced(lambda: report.write(directory))
    return integrate_peak, claims_peak, json_peak


FRESH = """
import resource, sys
def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
import wallflock.cli
imported = rss_mb()
wallflock.cli.main(["verify", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"])
loaded = any(m == "numpy.random" or m.startswith("numpy.random.") for m in sys.modules)
print(f"fresh import_mb={imported:.2f} verify_mb={rss_mb():.2f} numpy_random={int(loaded)}")
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for n in SIZES:
            phase_peaks(n, Path(tmp))
            peaks = phase_peaks(n, Path(tmp))
            print(f"n={n} " + " ".join(f"{k}={v / 1e6:.3f}" for k, v in zip(PHASES, peaks)))
        launch = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
        fresh = [sys.executable, "-c", FRESH, str(CONFIG), str(Path(tmp) / "fresh")]
        argv = [sys.executable, "-c", launch, *fresh]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        print(subprocess.run(argv, env=env, check=True, capture_output=True, text=True).stdout, end="")


if __name__ == "__main__":
    main()
