#!/usr/bin/env python3
"""Compare the outcomes of benchmark ops on two source trees.

Usage: python scripts/compare_outcomes.py PARENT_DIR [CHILD_DIR]
           [--workload point_mix|discord_map] [--seeds S ...] [--blocks B]
           [--rtol R]

Draws the ops of a perfbench workload with CHILD_DIR's perfbench/workload.py
(CHILD_DIR defaults to this checkout): B blocks for each seed S, edge probes
included. Each tree runs every op in a fresh interpreter of its own, with
its src first on the path. Prints, per result field, how many values differ
and the largest relative difference |a - b| / max(|a|, |b|). Exits 1 when
an op fails on one tree only, when an error's type or text differs, or when
a number differs by more than R. The default R = 0 asks for identical
numbers.
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in each tree's interpreter: argv is src, perfbench dir, workload,
# blocks, seeds. Prints where gqi came from, then [op, outcome] per op.
_RUN = """
import json, sys
src, bench, name, blocks, *seeds = sys.argv[1:]
sys.path[:0] = [src, bench]
import gqi, workload
out = []
for seed in map(int, seeds):
    load = workload.make_workload(name, seed)
    for _ in range(int(blocks)):
        out += [[op, workload.execute(load, op)[0]["outcome"]] for op in load.block()]
print(gqi.__file__)
print(json.dumps(out))
"""


def run_tree(tree: str, bench: str, workload: str, seeds: list[int], blocks: int) -> list:
    """[op, outcome] of every op, run against tree's src."""
    src = os.path.join(os.path.abspath(tree), "src")
    proc = subprocess.run([sys.executable, "-c", _RUN, src, bench, workload,
                           str(blocks), *map(str, seeds)],
                          capture_output=True, text=True, check=True)
    origin, records = proc.stdout.splitlines()[-2:]
    if not origin.startswith(src + os.sep):
        raise RuntimeError(f"{tree}: gqi was imported from {origin}")
    return json.loads(records)


def rel_diff(a, b) -> float:
    if a == b or (a != a and b != b):  # equal, or both NaN
        return 0.0
    if not (isinstance(a, float) and isinstance(b, float)
            and math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _describe(outcome: dict) -> str:
    if outcome["ok"]:
        return "ok"
    return f"{outcome['error']}: {outcome['message']}"


def compare(parent: list, child: list, rtol: float) -> tuple[list[str], bool]:
    """Report lines and whether the two runs agree: the same ops, failing
    alike, and every number within rtol."""
    if [op for op, _ in parent] != [op for op, _ in child]:
        return ["the trees drew different ops"], False
    lines, ok = [], True
    differ: dict[str, int] = {}
    worst: dict[str, float] = {}
    seen: dict[str, int] = {}
    for i, ((op, a), (_, b)) in enumerate(zip(parent, child)):
        if a["ok"] != b["ok"] or (not a["ok"] and _describe(a) != _describe(b)):
            lines.append(f"op {i} {json.dumps(op['spec'])}: {_describe(a)} | {_describe(b)}")
            ok = False
            continue
        for field, x in (a.get("result") or {}).items():
            d = rel_diff(x, b["result"][field])
            seen[field] = seen.get(field, 0) + 1
            differ[field] = differ.get(field, 0) + (d > 0.0)
            worst[field] = max(worst.get(field, 0.0), d)
    errors = sum(not a["ok"] for _, a in parent)
    lines.append(f"{len(parent)} ops, {errors} failing on the parent")
    for field in seen:
        lines.append(f"{field}: {differ[field]} of {seen[field]} values differ, "
                     f"largest relative difference {worst[field]:.3g}")
        ok = ok and worst[field] <= rtol
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("child", nargs="?", default=ROOT)
    parser.add_argument("--workload", choices=("point_mix", "discord_map"),
                        default="point_mix")
    parser.add_argument("--seeds", type=int, nargs="+", default=[5])
    parser.add_argument("--blocks", type=int, default=40)
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference accepted (default 0)")
    args = parser.parse_args(argv)

    bench = os.path.join(os.path.abspath(args.child), "perfbench")
    parent, child = (run_tree(tree, bench, args.workload, args.seeds, args.blocks)
                     for tree in (args.parent, args.child))
    lines, ok = compare(parent, child, args.rtol)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
