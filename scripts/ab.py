#!/usr/bin/env python3
"""A/B of two source trees on one perfbench workload.

Usage: python scripts/ab.py PARENT_DIR [CHILD_DIR] --workload W [--seed N]
           [--pairs P] [--seconds S]

Runs each tree's own perfbench/run.py --trace 0 on workload W, P pairs of
runs of S seconds each (CHILD_DIR defaults to this checkout). The parent
runs first in even pairs and the child in odd ones. Both trees are
byte-compiled before the first run, so that every run starts from the same
__pycache__ state: with PYTHONDONTWRITEBYTECODE=1, a tree without one reads
its setup_s 17-22% high.

For every end-to-end metric of BENCHMARK.json it prints the parent's median
and quartiles, the child's median and quartiles, the median over the pairs
of child / parent, and in how many pairs the child was better (ties count
for neither). A gain may be claimed where the child wins at least 9 of 10
pairs and the medians differ by more than the parent's quartile distance.
Exits 1 when a run fails.
"""
import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_tree(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """{metric: value} of one end-to-end run of tree's own benchmark."""
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench/run.py exited {proc.returncode}\n{proc.stderr}")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def spread(values: list[float]) -> str:
    """The median and quartiles of the runs, as "median [q1, q3]"."""
    q1, q3 = (values[0], values[0]) if len(values) < 2 else statistics.quantiles(
        values, n=4, method="inclusive")[::2]
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def summarise(metrics: list[dict], parent: list[dict], child: list[dict]) -> list[str]:
    """One line per metric (name and better, BENCHMARK.json's end_to_end)."""
    lines = [f"{'metric':<20} {'better':<6} {'parent median [q1, q3]':>34} "
             f"{'child median [q1, q3]':>34} {'ratio':>7}  child wins"]
    for metric in metrics:
        name = metric["name"]
        a, b = [run[name] for run in parent], [run[name] for run in child]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (y - x) > 0.0 for x, y in zip(a, b))
        ratio = statistics.median(y / x if x else float("nan") for x, y in zip(a, b))
        lines.append(f"{name:<20} {metric['better']:<6} {spread(a):>34} {spread(b):>34} "
                     f"{ratio:7.4f}  {wins} of {len(a)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="A/B of two trees on one perfbench workload")
    ap.add_argument("parent")
    ap.add_argument("child", nargs="?", default=ROOT)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args(argv)
    trees = [os.path.abspath(args.parent), os.path.abspath(args.child)]
    with open(os.path.join(trees[1], "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    for tree in trees:
        for part in ("src", "perfbench"):
            compileall.compile_dir(os.path.join(tree, part), quiet=1)
    runs: list[list[dict]] = [[], []]
    try:
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                runs[side].append(run_tree(trees[side], args.workload, args.seed,
                                           args.seconds))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s runs")
    print("\n".join(summarise(metrics, *runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
