"""wallflock benchmark: time to verdict on the canonical, large_n and sweep workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload canonical --seed 0 --seconds 30 --trace 0

One run is one fresh process and one workload.  With --trace 0 it times set-up
in fresh child interpreters, then repeats passes over the workload's inputs
through `wallflock.cli.main` for --seconds, checking every operation's outputs
against perfbench/reference.json, and prints the end-to-end metrics.  With
--trace 1 it records spans at the layer boundaries (perfbench/spans.py), runs
the per-layer microbenchmarks (perfbench/micro.py) and prints the per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Spans, samples and provenance
go to .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120
MIN_PASSES = 3
TRACE_MIN_PASSES = 2
MAX_REASONS = 20

sys.path.insert(0, str(SRC))

import inputs as wl  # noqa: E402
import micro  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


class CheckoutError(RuntimeError):
    """The directory does not hold a wallflock source tree to benchmark."""


def pin_to_one_cpu() -> int:
    """Keep this process, its threads and its children on its lowest allowed CPU.

    The vCPUs of a shared VM change speed independently of each other, so a
    probe only reads the speed of the operations when both run on one CPU.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _check_checkout() -> None:
    if not (SRC / "wallflock" / "__init__.py").is_file():
        raise CheckoutError(f"no wallflock package under {SRC}")
    import wallflock

    if Path(wallflock.__file__).resolve().parent != (SRC / "wallflock").resolve():
        raise CheckoutError(f"imported wallflock from {wallflock.__file__}, not from {SRC}")


class Workload:
    """Runs one workload's operations and checks each one's outputs."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.inputs = wl.make_inputs(name, seed)
        self.reference = wl.load_reference(HERE / "reference.json")[name][str(wl.variant(seed))]
        self.work = work
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.oracle_error = None
        self.op_times: list[float] = []  # wall seconds of each operation, in order
        self.slowness: list[float] = []  # the CPU probe right after each operation
        for inp in self.inputs:
            (work / inp.name).mkdir(parents=True, exist_ok=True)
            (work / f"{inp.name}.yaml").write_text(inp.text, encoding="utf-8")
        self.setup_config = work / "setup.yaml"
        self.setup_config.write_text(wl.setup_config(self.inputs[0]), encoding="utf-8")
        if name == "large_n":
            self.oracle_error = wl.acceleration_oracle_error(self.inputs[0].text, seed)

    def _artifact(self, inp: wl.Input) -> Path:
        return self.work / inp.name / ("report.json" if inp.kind == "verify" else "sweep.csv")

    def run_op(self, inp: wl.Input, tracer: spans.Tracer | None = None) -> float:
        """One `wallflock verify|sweep` call; returns its wall time in seconds."""
        from wallflock import cli

        argv = [inp.kind, "--config", str(self.work / f"{inp.name}.yaml"),
                "--out", str(self.work / inp.name), "--quiet"]
        artifact = self._artifact(inp)
        artifact.unlink(missing_ok=True)
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("op"):
                    code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # any exception is a failed operation
            code, error = None, exc
        elapsed = time.perf_counter() - start
        self.op_times.append(elapsed)
        self.slowness.append(speed.slowness())
        self._check(inp, code, error)
        return elapsed

    def fail(self, count: int, reasons) -> None:
        self.failed += count
        self.reasons += list(reasons)[: max(0, MAX_REASONS - len(self.reasons))]

    def _check(self, inp: wl.Input, code, error) -> None:
        ref = self.reference[inp.name]
        ops = 1 if inp.kind == "verify" else len(ref["rows"])
        self.attempted += ops
        where = f"{inp.name}: "
        if error is not None:
            return self.fail(ops, [f"{where}raised {error!r}"])
        try:
            data = self._artifact(inp).read_bytes()
        except OSError as exc:
            return self.fail(ops, [f"{where}no artifact: {exc}"])
        if self.digests.setdefault(inp.name, wl.digest(data)) != wl.digest(data):
            return self.fail(ops, [f"{where}artifact bytes differ from this input's first run"])
        if inp.kind == "verify":
            why = wl.report_mismatches(ref, wl.summarize_report(code, data.decode()))
            if self.oracle_error is not None and not self.oracle_error <= wl.ORACLE_RTOL:
                why.append(f"acceleration differs from the dense formula by {self.oracle_error:.3g}")
            if why:
                self.fail(1, [where + w for w in why])
        else:
            failed, why = wl.sweep_row_failures(ref, wl.summarize_sweep(code, data.decode()))
            if failed:
                self.fail(failed, [where + w for w in why])

    def run_pass(self, tracer: spans.Tracer | None = None) -> dict:
        """Each input once; {input name: wall seconds}."""
        return {inp.name: self.run_op(inp, tracer) for inp in self.inputs}


def _passes(workload: Workload, seconds: float, min_passes: int, tracer=None, on_pass=None):
    """At least `min_passes` passes, then more while one still fits into `seconds`.

    A pass is started only if half of the last pass's time is left, so the
    run overshoots `seconds` by less than half a pass on average.  Returns
    the passes with their times scaled to the reference speed.
    """
    passes = []
    first_probe = len(workload.slowness)
    start = time.perf_counter()
    last = 0.0
    while len(passes) < min_passes or time.perf_counter() - start + last / 2 < seconds:
        mark = len(tracer.spans) if tracer is not None else 0
        begin = time.perf_counter()
        passes.append(workload.run_pass(tracer))
        last = time.perf_counter() - begin
        if on_pass is not None:
            on_pass(tracer.spans[mark:])
    return scale(passes, workload.slowness[first_probe:])


def scale(passes, slowness) -> list[dict]:
    """Divide each operation's time by the median slowness of the four probes around it.

    Probe j runs right after operation j, so the window is the two probes
    before the operation and the two after it (fewer at the ends).
    """
    out, j = [], 0
    for p in passes:
        out.append({})
        for name, elapsed in p.items():
            out[-1][name] = elapsed / statistics.median(slowness[max(0, j - 2): j + 2])
            j += 1
    return out


def pass_time(passes) -> float:
    """Time of one pass: the sum over inputs of each input's median over passes."""
    return sum(statistics.median(p[name] for p in passes) for name in passes[0])


def tail_percentile(samples) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def measure_setup(config: Path) -> list[dict]:
    """Set-up timed in SETUP_RUNS fresh interpreters, one after another."""
    runs = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), str(config)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(child["wallflock"]).resolve().parent != (SRC / "wallflock").resolve():
            raise CheckoutError(f"set-up child imported wallflock from {child['wallflock']}")
        runs.append(child)
    return runs


def run_untraced(workload: Workload, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup(workload.setup_config)
    passes = _passes(workload, seconds, MIN_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "verify_s": {"value": pass_time(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] / r["slowness"] for r in setup),
                    "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    detail = {
        "passes": passes,
        "op_times": workload.op_times,
        "slowness": workload.slowness,
        "verify_s_tail": tail_percentile([sum(p.values()) for p in passes]),
        "setup": setup,
        "setup_s_unscaled": statistics.median(r["setup_s"] for r in setup),
    }
    return metrics, detail


def run_traced(workload: Workload, seconds: float) -> tuple[dict, dict]:
    untraced = _passes(workload, 0.35 * seconds, TRACE_MIN_PASSES)
    tracer = spans.Tracer()
    per_pass = []
    with spans.instrument(tracer) as missing:
        traced = _passes(
            workload, 0.35 * seconds, TRACE_MIN_PASSES, tracer,
            on_pass=lambda s: per_pass.append(spans.pass_metrics(s, missing)),
        )
    first = per_pass[0]
    for i, m in enumerate(per_pass[1:], 2):
        differing = [k for k in spans.COUNT_METRICS & first.keys() if m[k] != first[k]]
        if differing:
            workload.fail(1, [f"traced pass {i}: counts differ from pass 1: {differing}"])
    values = {}
    for name, (unit, _) in spans.LAYER_METRICS.items():
        if name in first:
            v = first[name] if name in spans.COUNT_METRICS else statistics.median(
                m[name] for m in per_pass)
            values[name] = {"value": v, "unit": unit}
    micro_values, micro_absent = micro.run(workload.seed)
    for name, v in micro_values.items():
        values[name] = {"value": v, "unit": "us"}
    overhead = pass_time(traced) - pass_time(untraced)
    values["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    absent = [n for n in spans.LAYER_METRICS if n not in first] + [n for n, _ in micro_absent]
    detail = {
        "untraced_passes": untraced,
        "traced_passes": traced,
        "op_times": workload.op_times,
        "slowness": workload.slowness,
        "per_pass": per_pass,
        "missing_boundaries": missing,
        "absent_metrics": absent,
        "micro_absent": micro_absent,
    }
    path = OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.error, s.size]) + "\n")
    detail["spans_file"] = str(path.relative_to(ROOT))
    return values, detail


def _blas_threads():
    """OpenBLAS's thread count as loaded by NumPy, left at its default; None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    import yaml

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src_files = sorted((SRC / "wallflock").glob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "variant": wl.variant(seed),
        "git_commit": commit,
        "src_sha256": wl.digest(b"".join(p.name.encode() + p.read_bytes() for p in src_files)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    try:
        _check_checkout()
    except (CheckoutError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    work = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = Workload(args.workload, args.seed, work)
        run = run_traced if args.trace else run_untraced
        metrics, detail = run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    record = dict(result, provenance=dict(provenance(args.workload, args.seed), pinned_cpu=cpu),
                  failures=workload.reasons, oracle_error=workload.oracle_error, detail=detail)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for reason in workload.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    if not args.trace:
        tail = detail["verify_s_tail"]
        print(
            f"# {args.workload} seed={args.seed}: verify_s {metrics['verify_s']['value']:.4g} s"
            f" (sum of per-input medians over {len(detail['passes'])} passes)"
            + (f", pass total p{tail[0]} {tail[1]:.4g} s" if tail else
               ", too few passes for a tail percentile")
            + f"; median probe slowness {statistics.median(workload.slowness):.3f}"
        )
    elif detail["absent_metrics"]:
        print(f"# absent (boundary missing): {', '.join(detail['absent_metrics'])}")
    print(f"# details: {(OUT / name).relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
