"""The design numbers of the package: source lines, settable config and sweep keys, public names.

Usage, from the repository root:

    python3 tools/design_size.py

Prints the line count of each src/wallflock/*.py and their total (as
`wc -l` counts them), the number of settable config keys,
sum(len(v) for v in config._SCHEMA.values()), the number of settable keys
of a sweep document's sweep section, len(config._SWEEP_KEYS), and the
number of public names of the wallflock package: those without a leading
underscore that are not its submodules.  wallflock is imported from the
src/ tree next to this script, so two checkouts give two outputs to compare.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import wallflock  # noqa: E402
from wallflock import config  # noqa: E402


def print_sizes() -> None:
    total = 0
    for path in sorted((ROOT / "src" / "wallflock").glob("*.py")):
        lines = path.read_bytes().count(b"\n")
        total += lines
        print(f"{lines:6d} src/wallflock/{path.name}")
    print(f"{total:6d} total")
    print(f"config keys: {sum(len(v) for v in config._SCHEMA.values())}")
    print(f"sweep keys: {len(config._SWEEP_KEYS)}")
    public = [
        name for name, value in vars(wallflock).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    print(f"public names: {len(public)}")


if __name__ == "__main__":
    print_sizes()
