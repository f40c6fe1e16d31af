"""Alternating perfbench pairs of two revisions: every pair's values, each
side's median and quartiles, and the change's wins, per end-to-end metric.

Usage, from the repository root:

    python3 tools/bench_pairs.py PARENT_REV CHANGE_REV --workload sweep \\
        --pairs 10 --seconds 30 --seed0 500 [--json pairs.json]

Each revision is `git archive`d into a temporary directory, which is removed
afterwards, and measured by that tree's own perfbench/run.py at --trace 0.
Pair i runs both trees on seed seed0 + i, the parent first in even pairs and
the change first in odd ones, so a drift of the machine's speed falls on both
sides alike.  A pair is won by the side with the better value, in the
direction that the change tree's BENCHMARK.json gives (lower where it names
none).  Quartiles are statistics.quantiles(..., n=4, method="inclusive").
A working tree with uncommitted changes can be measured as the revision that
`git stash create` prints.  The runs are sequential; perfbench pins each one
to a single CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The tree of rev, as git archive writes it, under into."""
    into.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object, the last line of perfbench/run.py's output, of one run in tree."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: each side's values in pair order, their spread, and the change's wins."""
    summary = {}
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = sum(sign * c < sign * p for p, c in zip(values["parent"], values["change"]))
        stats = {side: spread(values[side]) for side in SIDES}
        summary[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": "higher" if sign < 0 else "lower",
            **values,
            **{f"{side}_stats": stats[side] for side in SIDES},
            "change_wins": wins,
            "median_change": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev")
    parser.add_argument("change_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--json", type=Path, help="also write every run and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
            for side, rev in zip(SIDES, (args.parent_rev, args.change_rev))}

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        bench = trees["change"] / "BENCHMARK.json"
        better = {}
        if bench.is_file():
            better = {m["name"]: m["better"] for m in json.loads(bench.read_text())["end_to_end"]}
        pairs = []
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = perfbench(trees[side], args.workload, seed, args.seconds)
            pairs.append(pair)
            print(f"pair {i} seed {seed} ({order[0]} first): " + "; ".join(
                f"{side} {pair[side]['metrics']['verify_s']['value']:.4g} s verify_s,"
                f" {pair[side]['failed']} failed" for side in SIDES), flush=True)

    summary = summarize(pairs, better)
    print(f"\n{args.workload}: {args.pairs} pairs at --seconds {args.seconds:g}, seeds "
          f"{args.seed0}-{args.seed0 + args.pairs - 1}; parent {revs['parent'][:12]}, "
          f"change {revs['change'][:12]}")
    for name, s in summary.items():
        print(f"{name} ({s['unit']}, {s['better']} is better)")
        for side in SIDES:
            st = s[f"{side}_stats"]
            print(f"  {side:6s} " + " ".join(f"{v:.4g}" for v in s[side])
                  + f"  median {st['median']:.4g}, quartiles {st['q1']:.4g} / {st['q3']:.4g}")
        print(f"  change wins {s['change_wins']} of {args.pairs}, median {s['median_change']:+.1%}")
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    print(f"failed operations: parent {failed['parent']}, change {failed['change']}")
    if args.json:
        record = {"workload": args.workload, "seconds": args.seconds, "revisions": revs,
                  "pairs": pairs, "summary": summary, "failed": failed}
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
