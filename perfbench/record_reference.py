"""Records perfbench/reference.json: the expected outputs of every workload variant.

Usage, from the repository root:

    python3 perfbench/record_reference.py

Runs each input of each of the POOL variants of every workload once and
stores its exit code, claim verdicts and pinned values (see inputs.py).  The
file is recorded once, at the commit whose behaviour is the reference; the
benchmark then counts any operation that departs from it as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs as wl  # noqa: E402


def record_variant(workload: str, k: int, work: Path) -> dict:
    from wallflock import cli

    out = {}
    for inp in wl.make_inputs(workload, k):
        config = work / f"{inp.name}.yaml"
        config.write_text(inp.text, encoding="utf-8")
        code = cli.main([inp.kind, "--config", str(config), "--out", str(work / inp.name), "--quiet"])
        if inp.kind == "verify":
            text = (work / inp.name / "report.json").read_text(encoding="utf-8")
            out[inp.name] = wl.summarize_report(code, text)
        else:
            text = (work / inp.name / "sweep.csv").read_text(encoding="utf-8")
            out[inp.name] = wl.summarize_sweep(code, text)
    return out


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    reference = {"recorded_at": commit, "pool": wl.POOL, "rtol": wl.RTOL, "atol": wl.ATOL}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in wl.WORKLOADS:
            reference[workload] = {}
            for k in range(wl.POOL):
                reference[workload][str(k)] = record_variant(workload, k, Path(tmp))
                print(f"{workload} variant {k}: recorded", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
