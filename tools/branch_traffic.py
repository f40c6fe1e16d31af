"""Lines of src/wallflock that no benchmark input and no shipped config reaches.

Usage, from the repository root:

    python3 tools/branch_traffic.py [--seed N]

Runs, through wallflock.cli.main and each into its own temporary directory,
one pass of the inputs of every workload that BENCHMARK.json names, as
perfbench/inputs.make_inputs(workload, N) gives them (N defaults to 0; the
module is only read), and `wallflock verify`, `simulate` and `plot-data` of
each configs/*.yaml (`wallflock sweep` of a sweep document).  A sys.settrace
line tracer, limited to the frames of src/wallflock, records every line that
runs, imports included.  Prints one line per run, `<command> <input>
exit=<code>`, then per module the executable lines inside functions that no
run reached, as `<module>:<first>-<last> <function>: <source of the first>`
for each run of consecutive unreached lines, and a `<module>: <unreached> of
<lines> lines in functions unreached` total.

Under the tracer one call took 15 s on a 2-vCPU AVX-512 VM.  It answers
"which branches does the measured traffic verify?" and is not part of the
test suite.  wallflock is imported from the src/ tree next to this script.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import tempfile
import types
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wallflock"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)


def runs(seed: int, tmp: Path) -> list:
    """(command line, name) of every run: the benchmark inputs, then the shipped configs."""
    out = []
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for inp in inputs.make_inputs(workload["name"], seed):
            config = tmp / f"{workload['name']}.{inp.name}.yaml"
            config.write_text(inp.text, encoding="utf-8")
            out.append(([inp.kind, "--config", str(config)], f"{workload['name']}/{inp.name}"))
    for config in sorted((ROOT / "configs").glob("*.yaml")):
        sweep = "sweep" in yaml.safe_load(config.read_text())
        for command in ("sweep",) if sweep else ("verify", "simulate", "plot-data"):
            out.append(([command, "--config", str(config)], f"configs/{config.name}"))
    return out


def function_lines(path: Path) -> dict:
    """{line: qualified name of the innermost function holding it} for the
    executable lines of every function, lambda and comprehension in path."""
    lines: dict = {}

    def walk(code, in_function):
        # a function's body is optimized, a module's or a class's is not
        in_function = in_function or bool(code.co_flags & inspect.CO_OPTIMIZED)
        if in_function:
            name = getattr(code, "co_qualname", code.co_name)
            lines.update((line, name) for _, _, line in code.co_lines() if line is not None)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, in_function)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), False)
    return lines


def trace_runs(seed: int) -> set:
    """The (file, line) pairs of src/wallflock that the runs execute."""
    prefix = str(PACKAGE) + "/"
    reached: set = set()

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.settrace(tracer)
        try:
            from wallflock.cli import main

            for i, (argv, name) in enumerate(runs(seed, tmp)):
                code = main(argv + ["--out", str(tmp / "out" / str(i)), "--quiet"])
                print(f"{argv[0]} {name} exit={code}", flush=True)
        finally:
            sys.settrace(None)
    return reached


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="the perfbench workload seed")
    args = parser.parse_args(argv)
    reached = trace_runs(args.seed)
    for path in sorted(PACKAGE.glob("*.py")):
        lines = function_lines(path)
        missed = sorted(line for line in lines if (str(path), line) not in reached)
        source = path.read_text(encoding="utf-8").splitlines()
        groups: list = []
        for line in missed:
            if groups and line == groups[-1][1] + 1 and lines[line] == lines[groups[-1][0]]:
                groups[-1][1] = line
            else:
                groups.append([line, line])
        for first, last in groups:
            print(f"{path.name}:{first}-{last} {lines[first]}: {source[first - 1].strip()}")
        print(f"{path.name}: {len(missed)} of {len(lines)} lines in functions unreached")


if __name__ == "__main__":
    main()
