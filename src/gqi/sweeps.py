"""Parameter sweeps, slope analysis, advantage threshold, figure presets, CSV."""

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .chernoff import DiscriminationResult, discriminate_many, snr
from .discord import remained_discord
from .probes import ProbeKind, ProbeSpec, TargetScenario
from .symplectic import ValidationError

CSV_COLUMNS = [
    "axis_value", "n0", "n1", "n2", "ns", "kappa", "nb", "ensembles",
    "kind", "s_star", "q_min", "log_error_prob", "snr", "discord",
]

SWEEP_AXES = ("n0", "n1", "n2", "ns", "kappa", "nb")

# Slope-fit defaults: N_S up to 4 on 32 uniform points, starting at the
# smallest energy the probe can emit.
FIT_TO_DEFAULT = 4.0
FIT_POINTS_DEFAULT = 32


@dataclass
class SweepRow:
    """One fully evaluated (probe, scenario) point."""

    axis_value: float
    n0: float
    n1: float
    n2: float
    ns: float
    kappa: float
    nb: float
    ensembles: float
    kind: str
    s_star: float
    q_min: float
    log_error_prob: float
    snr: float
    discord: float | None = None


@dataclass
class SweepTable:
    axis: str
    grid: list[float]
    rows: list[SweepRow] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def column(self, name: str, kind: str | None = None) -> np.ndarray:
        rows = self.rows if kind is None else [r for r in self.rows if r.kind == kind]
        return np.array([getattr(r, name) for r in rows], dtype=float)


def solve_n1_for_signal_energy(ns: float, n0: float) -> float:
    """Invert N_S = N0 + 2 N0 N1 + N1 for the signal squeezer N1."""
    if ns < n0:
        raise ValidationError(
            f"target signal energy {ns} is below the probe floor N0 = {n0}"
        )
    return (ns - n0) / (2.0 * n0 + 1.0)


def _row(probe: ProbeSpec, scenario: TargetScenario,
         result: DiscriminationResult, with_discord: bool,
         axis_value: float) -> SweepRow:
    discord_value = None
    if with_discord and probe.kind is not ProbeKind.COHERENT:
        discord_value = remained_discord(probe, scenario).value
    return SweepRow(
        axis_value=axis_value,
        n0=probe.n0, n1=probe.n1, n2=probe.n2,
        ns=probe.signal_energy,
        kappa=scenario.kappa, nb=scenario.nb, ensembles=scenario.ensembles,
        kind=probe.kind.value,
        s_star=result.s_star, q_min=result.q_min,
        log_error_prob=result.log_error_prob, snr=result.snr,
        discord=discord_value,
    )


def run_scenario(probe: ProbeSpec, scenario: TargetScenario,
                 with_discord: bool = False,
                 axis_value: float = float("nan")) -> SweepRow:
    """Evaluate one probe/scenario pair into a sweep row.

    The discord is that of rho_A, the state remained_discord measures.
    """
    return _row(probe, scenario, snr(probe, scenario), with_discord, axis_value)


def _with_axis(probe: ProbeSpec, scenario: TargetScenario, axis: str,
               value: float) -> tuple[ProbeSpec, TargetScenario]:
    p = {"kind": probe.kind, "n0": probe.n0, "n1": probe.n1,
         "n2": probe.n2, "ns": probe.ns}
    s = {"kappa": scenario.kappa, "nb": scenario.nb,
         "ensembles": scenario.ensembles}
    if axis in ("kappa", "nb"):
        s[axis] = value
    elif axis == "ns" and probe.kind is not ProbeKind.COHERENT:
        p["n1"] = solve_n1_for_signal_energy(value, probe.n0)
    else:
        p[axis] = value
    return ProbeSpec(**p), TargetScenario(**s)


def sweep(axis: str, grid, probe: ProbeSpec, scenario: TargetScenario,
          with_discord: bool = False, compare: bool | None = None) -> SweepTable:
    """Evaluate one row per grid point along the chosen axis.

    For axis="ns" on a two-mode probe, N1 is solved from the signal-energy
    closed form at fixed N0, and matched TMSV (N0 = N_S) and coherent
    (|alpha|^2 = N_S) comparison rows are emitted alongside each ASTM row
    unless compare=False.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    emit_compare = (
        axis == "ns" and probe.kind is not ProbeKind.COHERENT
        if compare is None else compare
    )
    table = SweepTable(axis=axis, grid=[float(v) for v in grid])
    if not table.grid:
        raise ValidationError("grid has no points")
    # (grid index, probe, scenario, with_discord) of every row, in order; a
    # grid value whose inputs cannot be built gets its error instead.
    points, failed = [], {}
    for j, value in enumerate(table.grid):
        try:
            p, s = _with_axis(probe, scenario, axis, value)
            rows = [(j, p, s, with_discord)]
            if emit_compare:
                rows += [(j, ProbeSpec(kind=ProbeKind.TMSV, n0=value), s,
                          with_discord),
                         (j, ProbeSpec(kind=ProbeKind.COHERENT, ns=value), s,
                          False)]
        except ValidationError as exc:
            failed[j] = exc
            continue
        points += rows
    results = discriminate_many([pt[1] for pt in points], [pt[2] for pt in points])
    # A grid value's rows stop at its first error, which is reported.
    for (j, p, s, discord), result in zip(points, results):
        if j in failed:
            continue
        if isinstance(result, ValidationError):
            failed[j] = result
            continue
        try:
            table.rows.append(_row(p, s, result, discord, table.grid[j]))
        except ValidationError as exc:
            failed[j] = exc
    messages = [f"{axis}={table.grid[j]}: {failed[j]}" for j in sorted(failed)]
    if messages and not table.rows:
        raise ValidationError("every grid point failed: " + "; ".join(messages))
    table.errors.extend(messages)
    return table


def slope_fit(table: SweepTable, kind: str | None = None) -> float:
    """Least-squares slope of SNR against signal energy N_S."""
    x = table.column("ns", kind)
    y = table.column("snr", kind)
    if len(x) < 2 or np.ptp(x) == 0.0:
        raise ValidationError("slope fit needs >= 2 rows spanning an N_S range")
    return float(np.polyfit(x, y, 1)[0])


def _astm_ci_slopes(n0: float, scenario: TargetScenario, fit_from: float | None,
                    fit_to: float, points: int) -> tuple[float, float]:
    """Fitted SNR-vs-N_S slopes of the ASTM probe at fixed N0 and of the CI.

    The CI (classical illumination) benchmark is the coherent probe with
    |alpha|^2 = N_S run through the same Chernoff pipeline; its error
    exponent per copy is kappa*N_S*(sqrt(NB+1)-sqrt(NB))^2.
    """
    lo = n0 if fit_from is None else max(fit_from, n0)
    grid = np.linspace(lo, fit_to, points)
    base = ProbeSpec(kind=ProbeKind.ASTM, n0=n0)
    astm_rows = sweep("ns", grid, base, scenario, compare=False)
    ci_rows = sweep("ns", grid, ProbeSpec(kind=ProbeKind.COHERENT), scenario)
    return slope_fit(astm_rows), slope_fit(ci_rows)


def advantage_threshold(scenario: TargetScenario,
                        bracket: tuple[float, float] = (0.02, 1.0),
                        fit_from: float | None = None,
                        fit_to: float = FIT_TO_DEFAULT,
                        points: int = FIT_POINTS_DEFAULT,
                        tol: float = 0.005) -> float:
    """Smallest initial TMSV energy N0 whose fitted SNR slope matches the CI.

    The CI benchmark is the coherent probe with |alpha|^2 = N_S run through
    the same Chernoff pipeline, with error exponent per copy
    kappa*N_S*(sqrt(NB+1)-sqrt(NB))^2.  Bisection on
    slope_ASTM(N0) - slope_CI over the bracket; raises when the bracket shows
    no sign change rather than guessing.  On the figure presets the ASTM
    slope stays below this benchmark, so the search raises.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValidationError(f"N0 bracket must have lo < hi, got [{lo}, {hi}]")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be > 0 and finite, got {tol}")
    if points < 2:
        raise ValidationError(f"slope fit needs points >= 2, got {points}")

    def gap(n0: float) -> float:
        slope_astm, slope_ci = _astm_ci_slopes(
            n0, scenario, fit_from, fit_to, points)
        return slope_astm - slope_ci

    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo * g_hi > 0.0:
        raise ValidationError(
            f"no slope crossing on N0 bracket [{lo}, {hi}]: "
            f"gap({lo}) = {g_lo:.4g}, gap({hi}) = {g_hi:.4g}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_lo * g_mid <= 0.0:
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# CSV persistence

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    return str(value)


def table_to_csv(table: SweepTable, stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(CSV_COLUMNS)
    for row in table.rows:
        writer.writerow([_fmt(getattr(row, c)) for c in CSV_COLUMNS])


def write_table(table: SweepTable, path: str) -> None:
    with open(path, "w", newline="") as fh:
        table_to_csv(table, fh)


def table_from_csv(stream, axis: str = "", grid=None) -> SweepTable:
    reader = csv.reader(stream)
    header = next(reader)
    if header != CSV_COLUMNS:
        raise ValidationError(f"unexpected CSV header: {header}")
    rows = []
    for rec in reader:
        values = dict(zip(CSV_COLUMNS, rec))
        kind = values.pop("kind")
        discord = values.pop("discord")
        rows.append(SweepRow(
            kind=kind,
            discord=None if discord == "" else float(discord),
            **{k: float(v) for k, v in values.items()},
        ))
    return SweepTable(axis=axis, grid=list(grid or []), rows=rows)


def read_table(path: str) -> SweepTable:
    with open(path, newline="") as fh:
        return table_from_csv(fh)


def table_to_string(table: SweepTable) -> str:
    buf = io.StringIO()
    table_to_csv(table, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Figure-reproduction presets

MICROWAVE = TargetScenario(kappa=0.01, nb=3.8e3, ensembles=1e7)
LOW_NOISE = TargetScenario(kappa=0.01, nb=30.0, ensembles=1e7)


def _sweep_csv(name: str, axis: str, grid, probe: ProbeSpec,
               scenario: TargetScenario):
    """One figure table: a sweep of one probe along one axis, as one CSV."""
    def write(out_dir: str) -> str:
        path = os.path.join(out_dir, name)
        write_table(sweep(axis, grid, probe, scenario, compare=False), path)
        return path
    return write


def _write_rows(out_dir: str, name: str, header: list[str], rows) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + [[_fmt(v) for v in r] for r in rows])
    return path


def _fig4b(out_dir: str) -> str:
    """Fitted SNR slopes of the ASTM probe and of the CI benchmark against N0."""
    rows = [(n0, *_astm_ci_slopes(n0, LOW_NOISE, None, FIT_TO_DEFAULT,
                                  FIT_POINTS_DEFAULT))
            for n0 in map(float, np.linspace(0.05, 1.0, 20))]
    return _write_rows(out_dir, "fig4b_slopes.csv",
                       ["n0", "slope_astm", "slope_ci"], rows)


def _fig5(out_dir: str) -> str:
    """SNR advantage of the ASTM probe over the coherent one, and its discord."""
    grid = np.linspace(0.1, 4.0, 32)
    astm = sweep("ns", grid, ProbeSpec(kind=ProbeKind.ASTM, n0=0.1), LOW_NOISE,
                 with_discord=True, compare=False)
    ci = {r.axis_value: r.snr for r in
          sweep("ns", grid, ProbeSpec(kind=ProbeKind.COHERENT), LOW_NOISE).rows}
    return _write_rows(out_dir, "fig5_advantage_discord.csv",
                       ["ns", "advantage", "discord"],
                       [(r.axis_value, r.snr / ci[r.axis_value], r.discord)
                        for r in astm.rows])


def _ns_comparison(figure_id: str, n0: float, scenario: TargetScenario):
    """ASTM at fixed N0 against TMSV (N0 = N_S) and coherent (|alpha|^2 = N_S)."""
    grid = np.linspace(n0, 4.0, 32)
    return tuple(
        _sweep_csv(f"{figure_id}_{p.kind.value}.csv", axis, grid, p, scenario)
        for axis, p in (("ns", ProbeSpec(kind=ProbeKind.ASTM, n0=n0)),
                        ("n0", ProbeSpec(kind=ProbeKind.TMSV)),
                        ("ns", ProbeSpec(kind=ProbeKind.COHERENT))))


_ASTM_NS2 = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0,
                      n1=solve_n1_for_signal_energy(2.0, 1.0))  # N_S = 2

# Figure id -> its tables, in the order reproduce_figure writes them. Each
# entry takes the output directory and returns the path it wrote.
_FIGURES = {
    # SNR vs idler squeezing at fixed signal energy; flat curves.
    "fig2a": tuple(
        _sweep_csv(f"fig2a_{tag}.csv", "n2", np.linspace(0.0, 4.0, 17), probe,
                   MICROWAVE)
        for tag, probe in (("ns1", ProbeSpec(kind=ProbeKind.ASTM, n0=1.0)),
                           ("ns2", _ASTM_NS2))),
    "fig2b": tuple(
        _sweep_csv(f"fig2b_n1_{n1:g}.csv", "n0", np.linspace(0.1, 2.0, 20),
                   ProbeSpec(kind=ProbeKind.ASTM, n1=n1), MICROWAVE)
        for n1 in (0.0, 1.0, 2.0, 3.0)),
    "fig3a": _ns_comparison("fig3a", 1.0, MICROWAVE),
    "fig3b": tuple(
        _sweep_csv(f"fig3b_{p.kind.value}.csv", "kappa",
                   np.linspace(0.005, 0.1, 20), p, MICROWAVE)
        for p in (_ASTM_NS2, ProbeSpec(kind=ProbeKind.TMSV, n0=2.0),
                  ProbeSpec(kind=ProbeKind.COHERENT, ns=2.0))),
    "fig4a": _ns_comparison("fig4a", 0.1, LOW_NOISE),
    "fig4b": (_fig4b,),
    "fig5": (_fig5,),
}

FIGURE_IDS = tuple(_FIGURES)


def reproduce_figure(figure_id: str, out_dir: str) -> list[str]:
    """Write the CSV tables behind one figure; returns the file paths."""
    if figure_id not in _FIGURES:
        raise ValidationError(f"unknown figure id {figure_id!r}")
    os.makedirs(out_dir, exist_ok=True)
    return [write(out_dir) for write in _FIGURES[figure_id]]


def gnuplot_script(csv_paths: list[str], out_path: str) -> str:
    """Convenience gnuplot script plotting SNR against the sweep axis."""
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'axis value'",
        "set ylabel 'SNR'",
    ]
    plots = ", ".join(
        f"'{os.path.basename(p)}' using 1:13 with lines title '{os.path.basename(p)}'"
        for p in csv_paths
    )
    lines.append(f"plot {plots}")
    script = "\n".join(lines) + "\n"
    with open(out_path, "w") as fh:
        fh.write(script)
    return script
