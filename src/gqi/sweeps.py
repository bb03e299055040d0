"""Parameter sweeps, slope analysis, advantage threshold, figure presets, CSV.

A sweep varies one parameter of a frozen probe and scenario, so each grid
value is checked in floats against the table the two classes admit by
(_axis_column); only a value that fails is built as objects, for its error.
The valid points of every sweep in a batch go to one discriminate_columns
call (_evaluate): a figure is one batch, and sweep the one-table case. A
figure preset is data, one _Table per sweep. Tables are written column by
column, byte for byte what csv.writer wrote (_csv_text).
"""

import csv
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .chernoff import DiscriminationResult, discriminate_columns, snr
from .discord import _remained, remained_discord
from .probes import (_ADMITTED, _FIELDS, _READS, ProbeKind, ProbeSpec, TargetScenario,
                     _energy)
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


def _row(axis_value: float, kind: ProbeKind, params, result: DiscriminationResult,
         discord: float | None) -> SweepRow:
    """A row from its point's n0, n1, n2, ns, kappa, N_B and M (params)."""
    n0, n1, n2, ns, kappa, nb, ensembles = params
    return SweepRow(axis_value, n0, n1, n2,
                    ns if kind is ProbeKind.COHERENT else _energy(n0, n1),
                    kappa, nb, ensembles, kind.value, result.s_star, result.q_min,
                    result.log_error_prob, result.snr, discord)


def run_scenario(probe: ProbeSpec, scenario: TargetScenario,
                 with_discord: bool = False) -> SweepRow:
    """Evaluate one probe/scenario pair into a sweep row, through snr.

    The row has no sweep axis, so its axis_value is NaN. The discord is
    that of rho_A, the state remained_discord measures.
    """
    result = snr(probe, scenario)
    discord = (remained_discord(probe, scenario).value
               if with_discord and probe.kind is not ProbeKind.COHERENT else None)
    return _row(math.nan, probe.kind,
                (probe.n0, probe.n1, probe.n2, probe.ns, scenario.kappa,
                 scenario.nb, scenario.ensembles), result, discord)


def _with_axis(probe: ProbeSpec, scenario: TargetScenario, axis: str,
               value: float) -> tuple[ProbeSpec, TargetScenario]:
    """(probe, scenario) with the axis set to value, the changed one validated."""
    if axis in ("kappa", "nb"):
        return probe, replace(scenario, **{axis: value})
    if axis == "ns" and probe.kind is ProbeKind.ASTM:
        return replace(probe, n1=solve_n1_for_signal_energy(value, probe.n0)), scenario
    if axis == "ns" and probe.kind is ProbeKind.TMSV:
        axis = "n0"  # N_S = N0 without squeezers
    return replace(probe, **{axis: value}), scenario


class _Table(NamedTuple):
    """One sweep as data; name is the CSV a figure writes it to, or None."""

    name: str | None
    axis: str
    grid: Sequence[float]
    probe: ProbeSpec
    scenario: TargetScenario
    with_discord: bool = False
    compare: bool = False


def _axis_column(axis: str, probe: ProbeSpec, values: np.ndarray) -> tuple:
    """The parameter a grid sets, as its row in a batch's columns (n0, n1,
    n2, ns, kappa, N_B, M), its column, and where _with_axis would build
    the point: where the parameter is admitted and, if the probe's kind does
    not read it (_READS), 0."""
    name = "n0" if axis == "ns" and probe.kind is ProbeKind.TMSV else axis
    if axis == "ns" and probe.kind is ProbeKind.ASTM:
        # solve_n1_for_signal_energy: N1 < 0 exactly where N_S < N0.
        name, values = "n1", (values - probe.n0) / (2.0 * probe.n0 + 1.0)
    lo, hi, _ = _ADMITTED[name]
    valid = (lo <= values) & (values < hi)
    if name in _FIELDS and name not in _READS[probe.kind]:
        valid &= values == 0.0
    return ("n0", "n1", "n2", "ns", "kappa", "nb").index(name), values, valid


def _evaluate(tables: Sequence[_Table]) -> list[SweepTable]:
    """Each table's rows and errors, as sweep documents, from one
    discriminate_columns batch. Only a grid value that fails _axis_column is
    built by _with_axis, for its error; no row depends on its batch."""
    plans, coherent, columns = [], [], []
    for t in tables:
        if t.axis not in SWEEP_AXES:
            raise ValidationError(f"axis must be one of {SWEEP_AXES}, got {t.axis!r}")
        if t.compare and t.axis != "ns":
            raise ValidationError(f"compare needs axis 'ns' (N_S), got {t.axis!r}")
        table = SweepTable(axis=t.axis, grid=[float(v) for v in t.grid])
        if not table.grid:
            raise ValidationError("grid has no points")
        values = np.array(table.grid)
        row, column, valid = _axis_column(t.axis, t.probe, values)
        failed = {}
        for j in np.flatnonzero(~valid).tolist():
            try:
                _with_axis(t.probe, t.scenario, t.axis, table.grid[j])
            except ValidationError as exc:
                failed[j] = exc
        good = np.flatnonzero(valid)
        p, s = t.probe, t.scenario
        main = np.array([p.n0, p.n1, p.n2, p.ns, s.kappa, s.nb, s.ensembles],
                        dtype=float)[:, None].repeat(good.size, axis=1)
        main[row] = column[good]
        kinds, blocks = [p.kind], [main]
        if t.compare:
            v, zero = values[good], np.zeros(good.size)
            if p.kind is not ProbeKind.TMSV:  # a TMSV probe's row is the TMSV one
                kinds.append(ProbeKind.TMSV)
                blocks.append(np.vstack([v, zero, zero, zero, main[4:]]))
            kinds.append(ProbeKind.COHERENT)
            blocks.append(np.vstack([zero, zero, zero, v, main[4:]]))
        # A grid value's rows follow one another, in the order of kinds.
        columns.append(np.stack(blocks, axis=2).reshape(len(main), -1))
        coherent += [k is ProbeKind.COHERENT for k in kinds] * good.size
        plans.append((t, table, failed, np.repeat(good, len(kinds)).tolist(),
                      kinds * good.size))
    batch = np.concatenate(columns, axis=1)
    results = discriminate_columns(coherent, *batch)
    out, end = [], 0
    for t, table, failed, index, kinds in plans:
        start, end = end, end + len(index)
        # A grid value's rows stop at its first error, which is reported.
        for j, kind, params, result in zip(index, kinds, batch[:, start:end].T.tolist(),
                                           results[start:end]):
            if j in failed:
                continue
            if isinstance(result, ValidationError):
                failed[j] = result
                continue
            try:
                discord = (_remained(*params[:3], *params[4:6]).value
                           if t.with_discord and kind is not ProbeKind.COHERENT
                           else None)
            except ValidationError as exc:
                failed[j] = exc
                continue
            table.rows.append(_row(table.grid[j], kind, params, result, discord))
        messages = [f"{t.axis}={table.grid[j]}: {failed[j]}" for j in sorted(failed)]
        if messages and not table.rows:
            raise ValidationError("every grid point failed: " + "; ".join(messages))
        table.errors.extend(messages)
        out.append(table)
    return out


def sweep(axis: str, grid, probe: ProbeSpec, scenario: TargetScenario,
          with_discord: bool = False, compare: bool | None = None) -> SweepTable:
    """Evaluate one row per grid point along the chosen axis.

    For axis="ns" on an ASTM probe, N1 is solved from the signal-energy
    closed form at fixed N0, and matched TMSV (N0 = N_S) and coherent
    (|alpha|^2 = N_S) comparison rows are emitted alongside each ASTM row
    unless compare=False. On a TMSV probe the axis sets N0 = N_S, and that
    row is the TMSV comparison: only the coherent row comes with it.
    compare=True on another axis raises: comparison rows match N_S.

    Each grid value is checked in floats against the rules ProbeSpec,
    TargetScenario and solve_n1_for_signal_energy apply to the parameter it
    sets; one that fails, and a value's rows after its first error, are
    skipped and reported in errors. The rest are one batch, as a figure's
    tables are (reproduce_figure). If every value fails, it raises.
    """
    if compare is None:
        compare = axis == "ns" and probe.kind is not ProbeKind.COHERENT
    return _evaluate([_Table(None, axis, grid, probe, scenario, with_discord,
                             compare)])[0]


def slope_fit(table: SweepTable, kind: str | None = None) -> float:
    """Least-squares slope of SNR against signal energy N_S."""
    x = table.column("ns", kind)
    y = table.column("snr", kind)
    if len(x) < 2 or np.ptp(x) == 0.0:
        raise ValidationError("slope fit needs >= 2 rows spanning an N_S range")
    return float(np.polyfit(x, y, 1)[0])


def _slope_tables(n0: float, scenario: TargetScenario, fit_from: float | None,
                  fit_to: float, points: int) -> tuple[_Table, _Table]:
    """The ASTM sweep at fixed N0 and the CI sweep that _astm_ci_slopes fits."""
    lo = n0 if fit_from is None else max(fit_from, n0)
    grid = np.linspace(lo, fit_to, points)
    return (_Table(None, "ns", grid, ProbeSpec(kind=ProbeKind.ASTM, n0=n0), scenario),
            _Table(None, "ns", grid, ProbeSpec(kind=ProbeKind.COHERENT), scenario))


def _astm_ci_slopes(n0: float, scenario: TargetScenario, fit_from: float | None,
                    fit_to: float, points: int) -> tuple[float, float]:
    """Fitted SNR-vs-N_S slopes of the ASTM probe at fixed N0 and of the CI.

    The CI (classical illumination) benchmark is the coherent probe with
    |alpha|^2 = N_S run through the same Chernoff pipeline; its error
    exponent per copy is kappa*N_S*(sqrt(NB+1)-sqrt(NB))^2.
    """
    astm, ci = _evaluate(_slope_tables(n0, scenario, fit_from, fit_to, points))
    return slope_fit(astm), slope_fit(ci)


def advantage_threshold(scenario: TargetScenario,
                        bracket: tuple[float, float] = (0.02, 1.0),
                        fit_from: float | None = None,
                        fit_to: float = FIT_TO_DEFAULT,
                        points: int = FIT_POINTS_DEFAULT) -> float:
    """Smallest initial TMSV energy N0 whose fitted SNR slope matches the CI.

    The CI benchmark is the coherent probe with |alpha|^2 = N_S run through
    the same Chernoff pipeline, with error exponent per copy
    kappa*N_S*(sqrt(NB+1)-sqrt(NB))^2.  Bisection on
    slope_ASTM(N0) - slope_CI over the bracket, down to a width of 0.005;
    raises when the bracket shows no sign change rather than guessing.  On
    the figure presets the ASTM slope stays below this benchmark, so the
    search raises.
    """
    lo, hi = bracket
    if not lo < hi:
        raise ValidationError(f"N0 bracket must have lo < hi, got [{lo}, {hi}]")
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
    while hi - lo > 0.005:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_lo * g_mid <= 0.0:
            hi, g_hi = mid, g_mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# CSV persistence

def _csv_text(header: Sequence[str], columns) -> str:
    """A header and its columns as csv.writer writes them: "\\r\\n" line
    ends, repr(float(v)) for a number (numpy scalars too), an empty cell for
    None, and text as it is (no cell here needs quoting)."""
    cells = [[v if isinstance(v, str) else "" if v is None else repr(float(v))
              for v in column] for column in columns]
    return "\r\n".join(map(",".join, [header, *zip(*cells)])) + "\r\n"


_ROW_CELLS = attrgetter(*CSV_COLUMNS)


def write_table(table: SweepTable, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(table_to_string(table))


def table_from_csv(stream) -> SweepTable:
    """The rows of a CSV that write_table wrote; a CSV keeps no axis or grid.
    Any other input raises ValidationError, naming the row and the field."""
    reader = csv.reader(stream)
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise ValidationError("CSV row 1: no header" if header is None
                              else f"CSV row 1: unexpected header {header}")
    rows = []
    for rec in reader:
        where = f"CSV row {reader.line_num}"
        if len(rec) != len(CSV_COLUMNS):
            raise ValidationError(f"{where}: {len(rec)} fields, expected {len(CSV_COLUMNS)}")
        row = {}
        for name, cell in zip(CSV_COLUMNS, rec):
            try:
                row[name] = (cell if name == "kind" else
                             None if name == "discord" and cell == "" else float(cell))
            except ValueError:
                raise ValidationError(f"{where}, field {name}: {cell!r} is not a number") from None
        rows.append(SweepRow(**row))
    return SweepTable(axis="", grid=[], rows=rows)


def read_table(path: str) -> SweepTable:
    with open(path, newline="") as fh:
        return table_from_csv(fh)


def table_to_string(table: SweepTable) -> str:
    return _csv_text(CSV_COLUMNS, zip(*map(_ROW_CELLS, table.rows)))


# ---------------------------------------------------------------------------
# Figure-reproduction presets

MICROWAVE = TargetScenario(kappa=0.01, nb=3.8e3, ensembles=1e7)
LOW_NOISE = TargetScenario(kappa=0.01, nb=30.0, ensembles=1e7)


def _write_rows(out_dir: str, name: str, header: list[str], rows) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(header, zip(*rows)))
    return path


def _ns_comparison(figure_id: str, n0: float, scenario: TargetScenario):
    """ASTM at fixed N0 against TMSV (N0 = N_S) and coherent (|alpha|^2 = N_S)."""
    grid = np.linspace(n0, 4.0, 32)
    return tuple(
        _Table(f"{figure_id}_{p.kind.value}.csv", axis, grid, p, scenario)
        for axis, p in (("ns", ProbeSpec(kind=ProbeKind.ASTM, n0=n0)),
                        ("n0", ProbeSpec(kind=ProbeKind.TMSV)),
                        ("ns", ProbeSpec(kind=ProbeKind.COHERENT))))


def _slope_rows(tables: list[SweepTable]) -> list[tuple]:
    """fig4b: per N0, the fitted SNR slopes of the ASTM probe and of the CI."""
    return [(n0, slope_fit(astm), slope_fit(ci))
            for n0, astm, ci in zip(_FIG4B_N0, tables[::2], tables[1::2])]


def _advantage_rows(tables: list[SweepTable]) -> list[tuple]:
    """fig5: the ASTM probe's SNR advantage over the coherent one, and its discord."""
    snr_ci = {r.axis_value: r.snr for r in tables[1].rows}
    return [(r.axis_value, r.snr / snr_ci[r.axis_value], r.discord) for r in tables[0].rows]


_ASTM_NS2 = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0,
                      n1=solve_n1_for_signal_energy(2.0, 1.0))  # N_S = 2
_FIG4B_N0 = [float(n0) for n0 in np.linspace(0.05, 1.0, 20)]
_FIG5_NS = np.linspace(0.1, 4.0, 32)

# Figure id -> (its sweeps, in the order reproduce_figure writes them, and
# the CSV derived from their tables as (name, header, rows function), or
# None). A sweep with a name is written as its own table.
_FIGURES = {
    # SNR vs idler squeezing at fixed signal energy; flat curves.
    "fig2a": (tuple(
        _Table(f"fig2a_{tag}.csv", "n2", np.linspace(0.0, 4.0, 17), probe, MICROWAVE)
        for tag, probe in (("ns1", ProbeSpec(kind=ProbeKind.ASTM, n0=1.0)),
                           ("ns2", _ASTM_NS2))), None),
    "fig2b": (tuple(
        _Table(f"fig2b_n1_{n1:g}.csv", "n0", np.linspace(0.1, 2.0, 20),
               ProbeSpec(kind=ProbeKind.ASTM, n1=n1), MICROWAVE)
        for n1 in (0.0, 1.0, 2.0, 3.0)), None),
    "fig3a": (_ns_comparison("fig3a", 1.0, MICROWAVE), None),
    "fig3b": (tuple(
        _Table(f"fig3b_{p.kind.value}.csv", "kappa", np.linspace(0.005, 0.1, 20),
               p, MICROWAVE)
        for p in (_ASTM_NS2, ProbeSpec(kind=ProbeKind.TMSV, n0=2.0),
                  ProbeSpec(kind=ProbeKind.COHERENT, ns=2.0))), None),
    "fig4a": (_ns_comparison("fig4a", 0.1, LOW_NOISE), None),
    "fig4b": (sum((_slope_tables(n0, LOW_NOISE, None, FIT_TO_DEFAULT, FIT_POINTS_DEFAULT)
                   for n0 in _FIG4B_N0), ()),
              ("fig4b_slopes.csv", ["n0", "slope_astm", "slope_ci"], _slope_rows)),
    "fig5": ((_Table(None, "ns", _FIG5_NS, ProbeSpec(kind=ProbeKind.ASTM, n0=0.1),
                     LOW_NOISE, with_discord=True),
              _Table(None, "ns", _FIG5_NS, ProbeSpec(kind=ProbeKind.COHERENT), LOW_NOISE)),
             ("fig5_advantage_discord.csv", ["ns", "advantage", "discord"],
              _advantage_rows)),
}

FIGURE_IDS = tuple(_FIGURES)


def reproduce_figure(figure_id: str, out_dir: str) -> list[str]:
    """Write the CSV tables behind one figure; returns the file paths.

    Every sweep of the figure is evaluated in one batch, which gives each
    table the rows sweep gives it alone, and each named table is written
    through write_table. fig4b fits its slopes and fig5 its advantage from
    tables of the same batch. If a table's every grid value fails, it
    raises before any file is written.
    """
    if figure_id not in _FIGURES:
        raise ValidationError(f"unknown figure id {figure_id!r}")
    specs, derived = _FIGURES[figure_id]
    tables = _evaluate(specs)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for spec, table in zip(specs, tables):
        if spec.name is not None:
            paths.append(os.path.join(out_dir, spec.name))
            write_table(table, paths[-1])
    if derived is not None:
        name, header, rows = derived
        paths.append(_write_rows(out_dir, name, header, rows(tables)))
    return paths


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
