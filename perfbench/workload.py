"""One benchmark workload in a fresh interpreter (started by run.py).

    python perfbench/workload.py --workload point_mix --seed 1 --mode run --seconds 15

Modes:
  setup  import gqi, build the inputs, finish one warm-up op; print setup_s.
  run    setup, then closed-loop ops with one client for --seconds, in whole
         blocks; print every op record for the reference checker.
  trace  setup, then a fixed list of blocks run once untraced and once under
         the outside-in tracer; print the per-layer span summary.

The last line of standard output is one JSON object. gqi receives only
ProbeSpec/TargetScenario objects built from the seeded parameter draws.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from array import array  # noqa: E402

import numpy as np  # noqa: E402

import gqi  # noqa: E402,F401
from gqi import discord, probes, sweeps  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("point_mix", "figure_sweeps", "discord_map")

# Blocks each trace-mode run evaluates, so that span counts repeat exactly.
TRACE_BLOCKS = {"point_mix": 10, "figure_sweeps": 1, "discord_map": 100}

# Timed ops whose results are kept for the checker, about 20 s of checking.
MAX_CHECKED_OPS = {"point_mix": 1500, "figure_sweeps": 36, "discord_map": 15000}

# ---------------------------------------------------------------------------
# Parameter draws
#
# Timed draws stay inside the domain where gqi 0.1.0 meets the checker's
# relative tolerance (reference.RTOL) with a wide margin, so that no timed op
# fails. Beyond it, as measured against the mpmath reference:
#   * SNR loses about 1e-15 / (1 - Q) relative, so high noise (N_B >> 1) or a
#     weak signal (small N_S) loses digits;
#   * remained discord loses about 5e-15 N_B^2 / kappa relative, and goes
#     negative (ValidationError) near N_B = 1e7;
#   * idler squeezing beyond ~1e4 photons loses probe-discord digits, and
#     beyond ~5e5 photons it is falsely rejected;
#   * a noise-free channel (N_B = 0) can put s* on the wrong boundary.
# Those inputs are the EDGES below, probed in every point_mix and discord_map
# run.
# A block is 20 ops: one edge probe plus 19 draws (point_mix: 18 draws and
# the n2-twin of one of them, which must give the same SNR).
BLOCK = 20
N_DRAWS = 18
NB_LOG10 = (0.0, math.log10(30.0))
KAPPA_LOG10 = (math.log10(1e-3), math.log10(0.3))
M_LOG10 = (4.0, 12.0)
N0_RANGE = (0.1, 4.0)
N_MAX = 4.0
N2_LOG10 = (-3.0, 3.0)

NAN, INF = float("nan"), float("inf")

# ROADMAP item 3 inputs: the known defects, rank-deficient pairs and invalid
# input. One is probed, untimed, per block of point_mix (SNR_PANEL) and of
# discord_map (DISCORD_PANEL), in this order.
EDGES = {
    "strong idler squeezing n2=1e6":
        dict(kind="astm", n0=1.0, n1=1.0, n2=1e6, kappa=0.01, nb=3.8e3, M=1e7),
    "probe discord at idler squeezing n2=8e4":
        dict(kind="astm", n0=3.7614462458241293, n1=2.67089304626055,
             n2=79815.16583773255, kappa=0.11516155946899281,
             nb=5.441236033789128, M=1e7),
    "NaN noise nb=nan":
        dict(kind="astm", n0=1.0, n1=1.0, n2=0.0, kappa=0.01, nb=NAN, M=1e7),
    "infinite n0=inf":
        dict(kind="astm", n0=INF, n1=1.0, n2=0.0, kappa=0.01, nb=30.0, M=1e7),
    "coherent at nb=1e10":
        dict(kind="coherent", ns=2.0, kappa=0.01, nb=1e10, M=1e12),
    "rank-deficient n0=0":
        dict(kind="astm", n0=0.0, n1=1.0, n2=0.0, kappa=0.01, nb=30.0, M=1e7),
    "the MICROWAVE preset":
        dict(kind="astm", n0=1.0, n1=1.0, n2=0.0, kappa=0.01, nb=3.8e3, M=1e7),
    "high noise nb=1e8":
        dict(kind="tmsv", n0=1.0, kappa=0.01, nb=1e8, M=1e12),
    "noise-free nb=0":
        dict(kind="tmsv", n0=1.0, kappa=0.01, nb=0.0, M=1e7),
    "noise-free nb=0 with s* on the boundary":
        dict(kind="tmsv", n0=1.0, kappa=0.1, nb=0.0, M=1e7),
    "noise-free nb=0 with idler squeezing":
        dict(kind="astm", n0=3.0, n1=0.2, n2=3e3, kappa=0.006, nb=0.0, M=2e5),
    "negative n1=-1":
        dict(kind="astm", n0=1.0, n1=-1.0, n2=0.0, kappa=0.01, nb=30.0, M=1e7),
    "kappa=1":
        dict(kind="astm", n0=1.0, n1=1.0, n2=0.0, kappa=1.0, nb=30.0, M=1e7),
    "no copies M=0":
        dict(kind="coherent", ns=1.0, kappa=0.01, nb=30.0, M=0.0),
    "infinite noise nb=inf":
        dict(kind="astm", n0=1.0, n1=1.0, n2=0.0, kappa=0.01, nb=INF, M=1e7),
    "NaN squeezing n1=nan":
        dict(kind="astm", n0=1.0, n1=NAN, n2=0.0, kappa=0.01, nb=30.0, M=1e7),
    "NaN reflectivity kappa=nan":
        dict(kind="astm", n0=1.0, n1=1.0, n2=0.0, kappa=NAN, nb=30.0, M=1e7),
}
SNR_PANEL = (
    "strong idler squeezing n2=1e6", "NaN noise nb=nan", "infinite n0=inf",
    "coherent at nb=1e10", "rank-deficient n0=0", "the MICROWAVE preset",
    "high noise nb=1e8", "noise-free nb=0",
    "noise-free nb=0 with s* on the boundary",
    "noise-free nb=0 with idler squeezing", "negative n1=-1", "kappa=1",
    "no copies M=0", "infinite noise nb=inf", "NaN squeezing n1=nan",
    "NaN reflectivity kappa=nan",
)
DISCORD_PANEL = (
    "strong idler squeezing n2=1e6", "probe discord at idler squeezing n2=8e4",
    "NaN noise nb=nan", "rank-deficient n0=0", "the MICROWAVE preset",
    "high noise nb=1e8", "noise-free nb=0", "negative n1=-1", "kappa=1",
    "infinite noise nb=inf",
)

# fig4b's N0 grid; SLOPES_PER_CYCLE seeded values per figure_sweeps cycle.
# Three 64-point slope ops put the median op of a 9-op cycle among equals.
FIG4B_N0 = np.linspace(0.05, 1.0, 20)
SLOPES_PER_CYCLE = 3
FIGURES = ("fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig5")
# Hypothesis pairs each figure op evaluates (run_scenario calls).
FIGURE_POINTS = {"fig2a": 34, "fig2b": 80, "fig3a": 96, "fig3b": 60,
                 "fig4a": 96, "fig5": 96, "slopes": 64}


def is_valid(spec: dict) -> bool:
    """The benchmark's own input contract, independent of gqi."""
    values = [spec[k] for k in ("n0", "n1", "n2", "ns", "kappa", "nb", "M")
              if k in spec]
    if not all(math.isfinite(v) for v in values):
        return False
    if any(spec.get(k, 0.0) < 0 for k in ("n0", "n1", "n2", "ns", "nb")):
        return False
    return 0.0 <= spec["kappa"] < 1.0 and spec["M"] > 0.0


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n draws, one per equal-width stratum of [lo, hi), in random order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n


def draw_points(rng, n: int, kinds: list[str]) -> list[dict]:
    nb = 10.0 ** _stratified(rng, *NB_LOG10, n)
    kappa = 10.0 ** _stratified(rng, *KAPPA_LOG10, n)
    m = 10.0 ** _stratified(rng, *M_LOG10, n)
    n0 = _stratified(rng, *N0_RANGE, n)
    n1 = rng.uniform(0.0, N_MAX, n)
    n2 = 10.0 ** _stratified(rng, *N2_LOG10, n)
    specs = []
    for i, kind in enumerate(kinds):
        base = dict(kind=kind, kappa=float(kappa[i]), nb=float(nb[i]),
                    M=float(m[i]))
        if kind == "coherent":
            base["ns"] = float(n0[i] + 2.0 * n0[i] * n1[i] + n1[i])
        elif kind == "tmsv":
            base.update(n0=float(n0[i]), n1=0.0, n2=0.0)
        else:
            base.update(n0=float(n0[i]), n1=float(n1[i]), n2=float(n2[i]))
        specs.append(base)
    return specs


def make_objects(spec: dict):
    kind = probes.ProbeKind(spec["kind"])
    if kind is probes.ProbeKind.COHERENT:
        probe = probes.ProbeSpec(kind=kind, ns=spec["ns"])
    else:
        probe = probes.ProbeSpec(kind=kind, n0=spec["n0"],
                                 n1=spec.get("n1", 0.0), n2=spec.get("n2", 0.0))
    return probe, probes.TargetScenario(kappa=spec["kappa"], nb=spec["nb"],
                                        ensembles=spec["M"])


def panel_op(workload, k: int) -> dict:
    label = workload.panel[k % len(workload.panel)]
    return {"type": workload.op_type, "spec": dict(EDGES[label]),
            "panel": True, "label": label}


# ---------------------------------------------------------------------------
# Workloads: inputs, one op, warm-up

class Workload:
    """A seeded op stream: block() makes the next ops, run() executes one."""

    op_type = ""
    panel: tuple = ()  # edge probes, one appended to each block in turn

    def collect(self, op: dict, result: dict) -> dict:
        """Plain, JSON-ready result records (called outside the timed region)."""
        return result

    def points(self, op: dict) -> int:
        """Hypothesis pairs a successful op evaluates."""
        return 1

    def close(self) -> None:
        pass


class PointMix(Workload):
    """Independent run_scenario(..., with_discord=True) ops, as `gqi snr`."""

    op_type = "point"
    panel = SNR_PANEL

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0])
        self.blocks_made = 0

    def warmup_op(self):
        return {"type": "point", "spec": dict(kind="astm", n0=1.0, n1=1.0,
                                              n2=0.0, kappa=0.01, nb=3.8e3,
                                              M=1e7)}

    def block(self) -> list[dict]:
        kinds = [str(k) for k in
                 self.rng.permutation(["astm", "tmsv", "coherent"] * 6)]
        specs = draw_points(self.rng, N_DRAWS, kinds)
        ops = [{"type": "point", "spec": s} for s in specs]
        first = kinds.index("astm")
        twin = dict(specs[first])
        twin["n2"] = float(10.0 ** self.rng.uniform(*N2_LOG10))
        group = f"b{self.blocks_made}"
        ops[first]["group"] = group
        ops.append({"type": "point", "spec": twin, "group": group})
        ops.append(panel_op(self, self.blocks_made))
        self.blocks_made += 1
        return ops

    @staticmethod
    def run(op: dict) -> dict:
        probe, scenario = make_objects(op["spec"])
        row = sweeps.run_scenario(probe, scenario, with_discord=True)
        return {"s_star": row.s_star, "q_min": row.q_min, "snr": row.snr,
                "discord": None if row.discord is None else float(row.discord)}


class DiscordMap(Workload):
    """gaussian_discord(astm_state(p)) + remained_discord(p, sc), as `gqi discord`."""

    op_type = "discord"
    panel = DISCORD_PANEL

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        self.blocks_made = 0

    def warmup_op(self):
        return {"type": "discord", "spec": dict(kind="astm", n0=1.0, n1=1.0,
                                                n2=0.5, kappa=0.01, nb=30.0,
                                                M=1.0)}

    def block(self) -> list[dict]:
        specs = draw_points(self.rng, BLOCK - 1, ["astm"] * (BLOCK - 1))
        ops = [{"type": "discord", "spec": s} for s in specs]
        ops.append(panel_op(self, self.blocks_made))
        self.blocks_made += 1
        return ops

    @staticmethod
    def run(op: dict) -> dict:
        probe, scenario = make_objects(op["spec"])
        before = discord.gaussian_discord(probes.astm_state(probe))
        after = discord.remained_discord(probe, scenario)
        return {"probe_discord": float(before.value),
                "discord": float(after.value)}


class FigureSweeps(Workload):
    """One figure table per op, plus fig4b slope pairs, in cycles."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.n0_order = [float(FIG4B_N0[i]) for i in rng.permutation(20)]
        self.cycles = 0
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="figures-", dir=OUT_DIR)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def warmup_op(self):
        return {"type": "figure", "figure": "fig2a"}

    def block(self) -> list[dict]:
        ops = [{"type": "figure", "figure": f} for f in FIGURES]
        for k in range(SLOPES_PER_CYCLE):
            i = (self.cycles * SLOPES_PER_CYCLE + k) % len(self.n0_order)
            ops.append({"type": "slopes", "n0": self.n0_order[i]})
        self.cycles += 1
        return ops

    def run(self, op: dict) -> dict:
        if op["type"] == "slopes":
            n0 = op["n0"]
            grid = np.linspace(n0, sweeps.FIT_TO_DEFAULT, sweeps.FIT_POINTS_DEFAULT)
            astm = sweeps.sweep("ns", grid,
                                probes.ProbeSpec(kind="astm", n0=n0),
                                sweeps.LOW_NOISE, compare=False)
            ci = sweeps.sweep("ns", grid, probes.ProbeSpec(kind="coherent"),
                              sweeps.LOW_NOISE)
            slopes = (sweeps.slope_fit(astm), sweeps.slope_fit(ci))
            return {"tables": {"astm": astm, "coherent": ci}, "slopes": slopes}
        out = os.path.join(self.tmp, op["figure"])
        return {"paths": sweeps.reproduce_figure(op["figure"], out)}

    def collect(self, op: dict, result: dict) -> dict:
        if op["type"] == "slopes":
            tables = {}
            for name, table in result["tables"].items():
                tables[name] = [
                    {k: getattr(r, k) for k in ("kind", "n0", "n1", "n2", "ns",
                                                "kappa", "nb", "ensembles",
                                                "s_star", "q_min", "snr")}
                    for r in table.rows]
            return {"tables": tables, "slopes": list(result["slopes"])}
        tables = {}
        for path in result["paths"]:
            with open(path, newline="") as fh:
                tables[os.path.basename(path)] = list(csv.DictReader(fh))
            os.remove(path)
        return {"tables": tables}

    def points(self, op: dict) -> int:
        return FIGURE_POINTS[op["figure"] if op["type"] == "figure" else "slopes"]


def make_workload(name: str, seed: int):
    return {"point_mix": PointMix, "figure_sweeps": FigureSweeps,
            "discord_map": DiscordMap}[name](seed)


# ---------------------------------------------------------------------------
# Executing ops

def execute(workload, op: dict) -> tuple[dict, float]:
    """Run one op; returns (record, seconds). Exceptions become outcomes."""
    t = time.perf_counter()
    try:
        result = workload.run(op)
        outcome = {"ok": True}
    except Exception as exc:  # every failure is recorded for the checker
        result = None
        outcome = {"ok": False, "error": type(exc).__name__,
                   "validation": isinstance(exc, gqi.ValidationError),
                   "message": str(exc)[:200]}
    dt = time.perf_counter() - t
    if result is not None:
        outcome["result"] = workload.collect(op, result)
    record = dict(op)
    record["valid"] = is_valid(op["spec"]) if "spec" in op else True
    record["outcome"] = outcome
    record["ms"] = dt * 1e3
    record["points"] = workload.points(op) if outcome["ok"] else 0
    return record, dt


def setup(name: str, seed: int):
    """Build the inputs and finish one warm-up op; returns (workload, block)."""
    workload = make_workload(name, seed)
    first = workload.block()
    record, _ = execute(workload, workload.warmup_op())
    if not record["outcome"]["ok"]:
        raise RuntimeError(f"warm-up op failed: {record['outcome']}")
    return workload, first


def timed_loop(workload, first_block: list[dict], seconds: float,
               max_checked: int) -> dict:
    """Closed loop with one client over whole blocks; timings and records.

    Another block starts while the elapsed time plus the mean block time stays
    within the budget; at least one block runs. Edge probes run in the loop
    but stay out of the timings; those the loop did not reach run after it,
    so that each is judged in every run. Records of every block are kept for
    the checker until they exceed max_checked ops; from then on every second
    kept block is dropped and the stride between kept blocks doubles, so that
    memory and checking time stay bounded however fast the program gets.
    """
    latencies = array("d")
    points = 0
    kept: list[list[str]] = []
    stride = 1
    done = 0
    block = first_block
    start = time.perf_counter()
    while True:
        records = [execute(workload, op)[0] for op in block]
        for r in records:
            if not r.get("panel"):
                latencies.append(r["ms"])
                points += r["points"]
        if done % stride == 0:
            kept.append([json.dumps(r) for r in records])
            if sum(map(len, kept)) > max_checked and len(kept) > 1:
                kept = kept[::2]
                stride *= 2
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > seconds:
            break
        block = workload.block()
    peak = peak_rss_mb()
    checked = [json.loads(r) for b in kept for r in b]
    probed = {r.get("label") for r in checked}
    checked += [execute(workload, panel_op(workload, k))[0]
                for k, label in enumerate(workload.panel) if label not in probed]
    return {
        "peak_rss_mb": peak,
        "probe_share": 1.0 / BLOCK if workload.panel else 0.0,
        "timed_ops": len(latencies),
        "points": points,
        "busy_s": sum(latencies) / 1e3,
        "op_p50_ms": statistics.median(latencies),
        # Inclusive interpolation: a run of figure_sweeps has only 9 ops.
        "op_p90_ms": statistics.quantiles(latencies, n=10,
                                          method="inclusive")[8],
        "checked_block_stride": stride,
        "records": checked,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args(argv)

    workload, first = setup(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s}
    try:
        if args.mode == "run":
            out.update(timed_loop(workload, first, args.seconds,
                                  MAX_CHECKED_OPS[args.workload]))
        elif args.mode == "trace":
            out.update(trace_run(workload, first, args))
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


def trace_run(workload, first, args) -> dict:
    blocks = [first] + [workload.block()
                        for _ in range(TRACE_BLOCKS[args.workload] - 1)]
    ops = [op for b in blocks for op in b if not op.get("panel")]
    out, tracer = trace_ops(workload, ops)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR,
                              f"spans-{args.workload}-seed{args.seed}.npz"))
    return out


def trace_ops(workload, ops: list[dict]) -> tuple[dict, Tracer]:
    """Run ops once untraced, then once traced with one root span per op."""
    untraced = sum(execute(workload, op)[1] for op in ops)
    tracer = Tracer()
    tracer.install()
    records = []
    traced = 0.0
    try:
        for op in ops:
            with tracer.span("op"):
                record, dt = execute(workload, op)
            records.append(record)
            traced += dt
    finally:
        tracer.uninstall()
    return ({"records": records, "untraced_s": untraced, "traced_s": traced,
             "spans": tracer.summary()}, tracer)


if __name__ == "__main__":
    sys.exit(main())
