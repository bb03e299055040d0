"""Outside-in benchmark for gqi.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload runs in fresh interpreters
(BLAS/OpenMP pinned to one thread) started from perfbench/workload.py:

  point_mix      independent run_scenario(with_discord=True) ops (`gqi snr`),
                 plus one ROADMAP item 3 edge probe per 20 ops, untimed;
  figure_sweeps  one reproduce_figure table per op (all but fig4b), plus
                 three fig4b slope pairs per cycle of figures;
  discord_map    gaussian_discord(astm_state(p)) + remained_discord(p, sc)
                 (`gqi discord`) over a seeded cloud of two-mode points.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed list of ops
untraced and traced, prints the per-layer metrics and writes the spans to
perfbench/out/spans-<workload>-seed<seed>.npz. Every kept result is then
judged by the mpmath reference checker (check.py); each failure is printed
as a `defect:` line. The line before the last holds informational fields
(HEAD commit, src/gqi line count). The last line of standard output is one
JSON object: correct, attempted, failed, metrics; attempted and failed count
the timed ops that were checked, never the edge probes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_records  # noqa: E402

WORKLOADS = ("point_mix", "figure_sweeps", "discord_map")
LAYERS = ("symplectic", "probes", "chernoff", "discord", "sweeps")

# Fresh interpreters whose set-up time is measured; setup_s is their median.
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 170

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "points_per_s": "1/s", "op_p50_ms": "ms",
    "op_p90_ms": "ms", "pass_frac": "ratio", "correct_digits_min": "digits",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S
              ) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout,
                          check=False)


def workload_child(name: str, seed: int, mode: str, seconds: float) -> dict:
    proc = run_child([os.path.join(HERE, "workload.py"), "--workload", name,
                      "--seed", str(seed), "--mode", mode,
                      "--seconds", repr(seconds)])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload {name} ({mode}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times() -> dict:
    """Median self time of scipy's and gqi's own modules in `import gqi`."""
    samples = {"scipy": [], "gqi": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = run_child(["-X", "importtime", "-c", "import gqi"], timeout=60)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("import gqi failed")
        totals = {"scipy": 0, "gqi": 0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue  # the header line
            top = fields[2].strip().split(".")[0]
            if top in totals:
                totals[top] += int(fields[0])
        for key, us in totals.items():
            samples[key].append(us / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------
# Metrics

def _describe(record: dict) -> str:
    if record.get("label"):
        return record["label"]
    if "spec" in record:
        return " ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in record["spec"].items())
    return record.get("figure") or f"slopes n0={record.get('n0')}"


def judge(name: str, records: list[dict], probe_share: float = 0.0) -> dict:
    """Check every record; pass fraction, worst digits and the failure list.

    The pass fraction is that of a stream in which probe_share of the ops
    are edge probes: timed ops weigh 1 - probe_share, and each distinct edge
    probe an equal part of probe_share, whatever number of blocks ran.
    """
    verdicts = check_records(name, records)
    digits = [d for v in verdicts for d in v.digits]
    failures = {}
    probes = {}
    for record, verdict in zip(records, verdicts):
        for reason in verdict.reasons:
            key = (_describe(record), reason)
            failures[key] = failures.get(key, 0) + 1
        if record.get("panel"):
            probes[record["label"]] = probes.get(record["label"], True) and verdict.ok
    timed = [v for r, v in zip(records, verdicts) if not r.get("panel")]
    timed_failed = sum(not v.ok for v in timed)
    pass_frac = 1.0 - timed_failed / len(timed)
    if probes:
        pass_frac = ((1.0 - probe_share) * pass_frac
                     + probe_share * sum(probes.values()) / len(probes))
    return {
        "pass_frac": pass_frac,
        "probes_passed": (f"{sum(probes.values())} of {len(probes)}"
                          if probes else ""),
        "timed": len(timed),
        "timed_failed": timed_failed,
        "digits_min": min(digits, default=0.0),
        "failures": failures,
    }


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = [workload_child(name, seed, "setup", seconds)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    main = workload_child(name, seed, "run", seconds)
    return end_to_end_metrics(name, setups + [main["setup_s"]], main)


def end_to_end_metrics(name: str, setups: list[float], main: dict
                       ) -> tuple[dict, dict]:
    """End-to-end metrics from set-up times and an untraced run's output."""
    verdict = judge(name, main["records"], main["probe_share"])
    metrics = {
        "setup_s": statistics.median(setups),
        "points_per_s": main["points"] / main["busy_s"],
        "op_p50_ms": main["op_p50_ms"],
        "op_p90_ms": main["op_p90_ms"],
        "pass_frac": verdict["pass_frac"],
        "correct_digits_min": verdict["digits_min"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    verdict["samples"] = {"ops": main["timed_ops"], "busy_s": main["busy_s"],
                          "checked_block_stride": main["checked_block_stride"],
                          "setup_runs": len(setups)}
    return metrics, verdict


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    main = workload_child(name, seed, "trace", seconds)
    return per_layer_metrics(name, main, import_times())


def per_layer_metrics(name: str, main: dict, imports: dict
                      ) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run's output and import times."""
    records = main["records"]
    spans = main["spans"]
    points = sum(r["points"] for r in records) or 1

    def calls(fn):
        return spans.get(fn, {}).get("calls", 0)

    def total(fn):
        return spans.get(fn, {}).get("total_s", 0.0)

    def own(fn):
        return spans.get(fn, {}).get("self_s", 0.0)

    def per_call(fn, seconds_of):
        return seconds_of(fn) / calls(fn) if calls(fn) else 0.0

    op_s = total("op")
    metrics = {
        "chernoff.q_s.calls_per_point": calls("chernoff.q_s") / points,
        "chernoff.q_s.us_per_call": per_call("chernoff.q_s", total) * 1e6,
        "chernoff.chernoff_infimum.self_ms_per_point":
            own("chernoff.chernoff_infimum") / points * 1e3,
        "symplectic.williamson.calls_per_point":
            calls("symplectic.williamson") / points,
        "symplectic.williamson.ms_per_point":
            total("symplectic.williamson") / points * 1e3,
        "symplectic.symplectic_eigenvalues.calls_per_point":
            calls("symplectic.symplectic_eigenvalues") / points,
        "probes.make_hypotheses.us_per_call":
            per_call("probes.make_hypotheses", total) * 1e6,
        "discord.gaussian_discord.us_per_call":
            per_call("discord.gaussian_discord", total) * 1e6,
        "discord.remained_discord.self_us_per_call":
            per_call("discord.remained_discord", own) * 1e6,
        "sweeps.sweep.self_ms_per_point": own("sweeps.sweep") / points * 1e3,
        "sweeps.write_table.ms_per_call":
            per_call("sweeps.write_table", total) * 1e3,
    }
    for layer in LAYERS:
        layer_self = sum(s["self_s"] for fn, s in spans.items()
                         if fn.startswith(layer + "."))
        metrics[f"{layer}.share_of_op"] = layer_self / op_s if op_s else 0.0
    metrics["setup.import_scipy_s"] = imports["scipy"]
    metrics["setup.import_gqi_own_s"] = imports["gqi"]
    metrics["trace.overhead_frac"] = 1.0 - main["untraced_s"] / main["traced_s"]
    verdict = judge(name, records)
    verdict["samples"] = {"ops": len(records), "points": points,
                          "spans": sum(s["calls"] for s in spans.values())}
    return metrics, verdict


# ---------------------------------------------------------------------------
# Output

PER_LAYER_UNITS = {
    "calls_per_point": "count", "us_per_call": "us", "self_us_per_call": "us",
    "ms_per_point": "ms", "self_ms_per_point": "ms", "ms_per_call": "ms",
    "share_of_op": "ratio", "overhead_frac": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.startswith("setup."):
        return "s"
    return PER_LAYER_UNITS[metric.rsplit(".", 1)[1]]


def head_commit():
    """HEAD of the checkout's git metadata, when there is any (informational)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_path = os.path.join(git, ref_name)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    pkg = os.path.join(ROOT, "src", "gqi")
    count = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                count += sum(1 for _ in fh)
    return count


def report(name: str, seed: int, metrics: dict, verdict: dict) -> None:
    print(f"workload {name}  seed {seed}  " + "  ".join(
        f"{k} {v:.4g}" if isinstance(v, float) else f"{k} {v}"
        for k, v in verdict["samples"].items()))
    for metric, value in metrics.items():
        print(f"  {metric:<48} {value:>14.6g} {unit_of(metric)}")
    probes = (f"; edge probes passed: {verdict['probes_passed']}"
              if verdict["probes_passed"] else "")
    print(f"  timed ops failed: {verdict['timed_failed']} of {verdict['timed']}"
          + probes)
    for (what, reason), n in sorted(verdict["failures"].items()):
        print(f"  defect: {what}: {reason} (x{n})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Outside-in benchmark for gqi")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gqi", "__init__.py")):
        print(f"error: no gqi sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    results = {}
    for name in names:
        metrics, verdict = measure(name, args.seed, args.seconds)
        report(name, args.seed, metrics, verdict)
        results[name] = (metrics, verdict)

    prefix = len(names) > 1
    out_metrics = {}
    for name, (metrics, _) in results.items():
        for metric, value in metrics.items():
            key = f"{name}.{metric}" if prefix else metric
            out_metrics[key] = {"value": value, "unit": unit_of(metric)}
    failed = sum(v["timed_failed"] for _, v in results.values())
    print(json.dumps({"info": {"head_commit": head_commit(),
                               "src_gqi_lines": src_lines()}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(v["timed"] for _, v in results.values()),
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
