"""Python and C calls of one `wallflock verify` per canonical config, and of one sweep.

Usage, from the repository root:

    python3 tools/call_count.py [--top N]

Runs `wallflock verify --quiet` on configs/{halfline,interval,settle,control_nowall}.yaml
and `wallflock sweep --quiet` on configs/sweep_beta.yaml, whose runs are stepped
as one batch, each into its own temporary directory: once without a hook, so that imports
and first-call caches are out of the way, and once under a sys.setprofile hook
that counts every `call` event (a Python function) and `c_call` event (a
builtin function or method).  Prints one line per config, `<config> calls=<all>
python=<call events> c=<c_call events>`, and with --top N the N most frequent
functions of that run, most frequent first: `<count>  <file>:<qualname>` for a
Python function and `<count>  <module>.<qualname>` for a builtin.

The counts do not depend on timing, so two runs print the same numbers, and a
change to the per-step path shows in them exactly where a wall time would be
lost in the noise.  wallflock is imported from the src/ tree next to this
script, so two checkouts give two outputs to compare.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from wallflock.cli import main as wallflock  # noqa: E402

RUNS = (
    ("verify", "halfline"), ("verify", "interval"), ("verify", "settle"), ("verify", "control_nowall"),
    ("sweep", "sweep_beta"),
)


def count_calls(command: str, config: str) -> tuple:
    """(Python calls, C calls, Counter of calls by function name) of one run
    of command on configs/<config>.yaml."""
    argv = [command, "--config", str(ROOT / "configs" / f"{config}.yaml"), "--quiet", "--out"]
    python: Counter = Counter()  # by code object
    c: Counter = Counter()  # by (module, qualname); a bound method is a new object per call

    def hook(frame, event, arg):
        if event == "call":
            python[frame.f_code] += 1
        elif event == "c_call":
            c[getattr(arg, "__module__", None), arg.__qualname__] += 1

    with tempfile.TemporaryDirectory() as tmp:
        wallflock(argv + [str(Path(tmp) / "warm")])
        sys.setprofile(hook)
        try:
            wallflock(argv + [str(Path(tmp) / "counted")])
        finally:
            sys.setprofile(None)
    by_name: Counter = Counter()
    for code, n in python.items():
        by_name[f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_qualname}"] += n
    for (module, qualname), n in c.items():
        by_name[f"{module}.{qualname}" if module else qualname] += n
    return python.total(), c.total(), by_name


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=0, help="list the N most frequent functions")
    args = parser.parse_args(argv)
    for command, config in RUNS:
        python, c, by_name = count_calls(command, config)
        print(f"{config} calls={python + c} python={python} c={c}")
        if args.top > 0:
            for name, n in by_name.most_common(args.top):
                print(f"{n:10d}  {name}")


if __name__ == "__main__":
    main()
