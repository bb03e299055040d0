"""Smoke test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Runs each workload at a tiny size, checks that every metric named in
BENCHMARK.json is emitted with its unit, and that the reference checker
flags results perturbed by a relative 1e-6.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [PERFBENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

IMPORTS = {"scipy": 0.3, "gqi": 0.03}


def tiny(name: str):
    """The workload and a few ops of its first block, edge probe included."""
    wl, first = workload.setup(name, seed=3)
    if name == "figure_sweeps":
        return wl, [first[0], first[-1]]  # fig2a and one slope pair
    return wl, first[:3] + first[-2:]


def assert_metrics(metrics: dict, spec: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
        assert math.isfinite(metrics[m["name"]]), m["name"]


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name):
    wl, ops = tiny(name)
    out = workload.timed_loop(wl, ops, seconds=0.0, max_checked=100)
    metrics, verdict = run.end_to_end_metrics(name, [0.5], out)
    assert_metrics(metrics, BENCH["end_to_end"])
    assert verdict["timed_failed"] == 0

    timed = [op for op in ops if not op.get("panel")]
    traced, _ = workload.trace_ops(wl, timed)
    metrics, _ = run.per_layer_metrics(name, traced, IMPORTS)
    assert_metrics(metrics, BENCH["per_layer"])
    if name != "discord_map":
        assert metrics["chernoff.q_s.calls_per_point"] > 0
    if name == "figure_sweeps":
        wl.close()


def test_call_counts_repeat_exactly():
    wl, ops = tiny("point_mix")
    timed = [op for op in ops if not op.get("panel")]
    counts = []
    for _ in range(2):
        traced, _ = workload.trace_ops(wl, timed)
        metrics, _ = run.per_layer_metrics("point_mix", traced, IMPORTS)
        counts.append({k: v for k, v in metrics.items()
                       if k.endswith("calls_per_point")})
    assert counts[0] == counts[1]


PERTURBED = [
    ("point_mix", {"type": "point", "spec": dict(
        kind="astm", n0=1.0, n1=1.0, n2=0.5, kappa=0.01, nb=30.0, M=1e7)},
     ("snr", "discord")),
    ("point_mix", {"type": "point", "spec": dict(
        kind="coherent", ns=2.0, kappa=0.01, nb=30.0, M=1e7)}, ("snr",)),
    ("discord_map", {"type": "discord", "spec": dict(
        kind="astm", n0=1.0, n1=1.0, n2=0.5, kappa=0.01, nb=30.0, M=1e7)},
     ("probe_discord", "discord")),
]


@pytest.mark.parametrize("name,op,keys", PERTURBED)
def test_checker_flags_a_relative_1e_6_perturbation(name, op, keys):
    wl = workload.make_workload(name, seed=3)
    record, _ = workload.execute(wl, op)
    assert check.check_records(name, [record])[0].ok
    for key in keys:
        bad = copy.deepcopy(record)
        bad["outcome"]["result"][key] *= 1.0 + 1e-6
        assert not check.check_records(name, [bad])[0].ok, key


def test_checker_flags_a_perturbed_figure_row():
    wl = workload.make_workload("figure_sweeps", seed=3)
    record, _ = workload.execute(wl, {"type": "figure", "figure": "fig2a"})
    wl.close()
    assert check.check_records("figure_sweeps", [record])[0].ok
    bad = copy.deepcopy(record)
    row = next(iter(bad["outcome"]["result"]["tables"].values()))[5]
    row["snr"] = repr(float(row["snr"]) * (1.0 + 1e-6))
    assert not check.check_records("figure_sweeps", [bad])[0].ok


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace,spec", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_by_name_and_unit(trace, spec):
    proc = _bench("--workload", "discord_map", "--seed", "5",
                  "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for m in BENCH[spec]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines[:-1]), m["name"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "point_mix", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checked_records_stay_bounded():
    wl, first = workload.setup("discord_map", seed=3)
    out = workload.timed_loop(wl, first, seconds=0.5, max_checked=60)
    assert out["checked_block_stride"] > 1
    assert len(out["records"]) <= 60 + workload.BLOCK < out["timed_ops"]
    assert any(r.get("panel") for r in out["records"])
