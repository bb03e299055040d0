#!/usr/bin/env python3
"""In-process A/B of two source trees on one perfbench workload.

Usage: python scripts/ab_inprocess.py PARENT_DIR [CHILD_DIR]
           --workload point_mix|figure_sweeps|discord_map [--seed N] [--rounds R]

Loads each tree's src/gqi into one interpreter under its own package name
(gqi_parent, gqi_child), and CHILD_DIR's perfbench/workload.py (CHILD_DIR
defaults to this checkout) once against each, read only, so that both sides
run the workload's own ops. Each of R rounds draws the next block of ops
from the workload's seeded generator and runs it on both sides, the parent
first in even rounds and the child first in odd ones: both meet the same
host phase, which two processes run seconds apart do not. A block's edge
probes run on both sides but are not timed, as in perfbench.

Prints each side's per-op latency in ms (median and quartiles, as
scripts/ab.py prints them), the median over rounds of child / parent block
time, in how many rounds the child was faster, and whether every op's
outcome was bit-identical on the two sides. Exits 1 when one differs.
"""
import argparse
import importlib.util
import json
import os
import statistics
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab import ROOT, spread  # noqa: E402


def load_package(tree: str, name: str):
    """tree's src/gqi as the package name."""
    src = os.path.join(os.path.abspath(tree), "src", "gqi")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def load_workload(bench: str, package, name: str, out_dir: str):
    """bench's workload.py as the module name, with package as its gqi;
    figure_sweeps writes its CSVs under out_dir."""
    saved, path = sys.modules.get("gqi"), list(sys.path)
    sys.modules["gqi"] = package
    sys.path.insert(0, bench)  # its tracer
    try:
        spec = importlib.util.spec_from_file_location(name, os.path.join(bench, "workload.py"))
        workload = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workload)
    finally:
        sys.path[:] = path
        if saved is None:
            del sys.modules["gqi"]
        else:
            sys.modules["gqi"] = saved
    workload.OUT_DIR = out_dir
    return workload


def run_block(workload, runner, block: list[dict]) -> tuple[list[float], list[str]]:
    """The latency in ms of each timed op of block, and every op's outcome
    as JSON text."""
    records = [workload.execute(runner, op) for op in block]
    timed = [dt * 1e3 for (_, dt), op in zip(records, block) if not op.get("panel")]
    return timed, [json.dumps(record["outcome"], sort_keys=True) for record, _ in records]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="In-process A/B of two trees on one workload")
    ap.add_argument("parent")
    ap.add_argument("child", nargs="?", default=ROOT)
    ap.add_argument("--workload", required=True,
                    choices=("point_mix", "figure_sweeps", "discord_map"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=100)
    args = ap.parse_args(argv)
    bench = os.path.join(os.path.abspath(args.child), "perfbench")
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as out_dir:
        workloads = [load_workload(bench, load_package(tree, f"gqi_{side}"),
                                   f"workload_{side}", out_dir)
                     for tree, side in ((args.parent, "parent"), (args.child, "child"))]
        runners = [w.make_workload(args.workload, args.seed) for w in workloads]
        try:
            for w, runner in zip(workloads, runners):
                w.execute(runner, runner.warmup_op())
            latencies, ratios, wins, ops, differ = ([], []), [], 0, 0, 0
            for k in range(args.rounds):
                block = runners[0].block()
                totals, outcomes = [0.0, 0.0], [None, None]
                for side in (0, 1) if k % 2 == 0 else (1, 0):
                    timed, outcomes[side] = run_block(workloads[side], runners[side], block)
                    latencies[side].extend(timed)
                    totals[side] = sum(timed)
                ratios.append(totals[1] / totals[0])
                wins += totals[1] < totals[0]
                ops += len(block)
                differ += sum(a != b for a, b in zip(*outcomes))
        finally:
            for runner in runners:
                runner.close()
    print(f"{args.workload}, seed {args.seed}: {args.rounds} rounds of one block, "
          "in one process")
    for name, values in zip(("parent", "child"), latencies):
        print(f"{name} op ms: {spread(values)}")
    print(f"child / parent block time: median {statistics.median(ratios):.4f}, "
          f"child faster in {wins} of {args.rounds} rounds")
    print(f"outputs: {'bit-identical' if not differ else f'{differ} differ'} of {ops} ops")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
