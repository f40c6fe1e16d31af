"""Exit codes and sha256 digests of the artifacts of the shipped configs.

Usage, from the repository root:

    python3 tools/artifact_digest.py > digest.txt

Runs `wallflock verify`, `wallflock simulate` and `wallflock plot-data` on
configs/{halfline,interval,settle,control_nowall}.yaml and `wallflock sweep` on
configs/sweep_beta.yaml, each into its own directory under a temporary
directory, and prints one line per run (`<command> <config> exit=<code>`)
followed by `<sha256>  <command>/<config>/<file>` for every file the run
wrote.  wallflock is imported from the src/ tree next to this script, so two
checkouts give two digests whose diff is the byte-identity check of a change.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from wallflock.cli import main  # noqa: E402

RUNS = [
    (command, name)
    for name in ("halfline", "interval", "settle", "control_nowall")
    for command in ("verify", "simulate", "plot-data")
] + [("sweep", "sweep_beta")]


def print_digest() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for command, name in RUNS:
            out = Path(tmp) / command / name
            config = ROOT / "configs" / f"{name}.yaml"
            code = main([command, "--config", str(config), "--out", str(out), "--quiet"])
            print(f"{command} {name} exit={code}")
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {command}/{name}/{path.name}")


if __name__ == "__main__":
    print_digest()
