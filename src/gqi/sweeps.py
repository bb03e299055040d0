"""Parameter sweeps, slope analysis, advantage threshold, figure presets, CSV.

A table (_Table) is one probe on one axis: one parameter of a frozen probe
and scenario varies along its grid. Each grid value is checked in floats
against the rules the two classes admit by (_axis_column), and a value that
fails is explained by the rule that rejected it, with no object built. On
the N_S axis the probe's kind names the field that carries N_S
(probes._carrier). The admitted points of every table in a batch go to one
discriminate_columns call (_evaluate), which gives each grid value its row
or its error. Probes compared at equal N_S are matched tables on one grid
(_ns_tables): sweep(compare=True) interleaves their rows per grid value. A
figure preset is data, one _Table per sweep, and is one batch. Tables are
written column by column, byte for byte what csv.writer wrote (_csv_text).
"""

import csv
import math
import numbers
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .chernoff import DiscriminationResult, discriminate_columns, snr
from .discord import _remained, remained_discord
from .probes import (_ADMITTED, _FIELDS, _READS, ProbeKind, ProbeSpec, TargetScenario,
                     _admit, _carrier, _energy, _unread)
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
    """Invert N_S = N0 + 2 N0 N1 + N1 for the signal squeezer N1. n0 and ns
    are admitted as a probe's are, and ns must reach the floor N0."""
    n0 = _admit("n0", n0)
    # A real ns below the floor, -inf included, gets the floor's text;
    # _admit then rejects NaN, inf and what is not a real number.
    if isinstance(ns, numbers.Real) and ns < n0:
        raise ValidationError(f"target signal energy {ns} is below the probe floor N0 = {n0}")
    return _carrier(ProbeKind.ASTM, _admit("ns", ns), n0)[1]


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


class _Table(NamedTuple):
    """One probe swept along one axis; name is the CSV a figure writes it
    to, or None."""

    name: str | None
    axis: str
    grid: list[float]
    probe: ProbeSpec
    scenario: TargetScenario
    with_discord: bool = False


def _ns_tables(probes: Sequence[ProbeSpec], grid: list[float], scenario: TargetScenario,
               with_discord: bool = False, figure: str | None = None) -> tuple:
    """The probes at equal signal energy N_S, one table each on the grid of
    N_S; a figure's are named <figure>_<kind>.csv."""
    return tuple(_Table(figure and f"{figure}_{p.kind.value}.csv", "ns", grid, p,
                        scenario, with_discord) for p in probes)


# The probes an N_S comparison matches: TMSV (N0 = N_S) and coherent
# (|alpha|^2 = N_S).
_TMSV, _COHERENT = ProbeSpec(kind=ProbeKind.TMSV), ProbeSpec(kind=ProbeKind.COHERENT)


def _axis_column(axis: str, probe: ProbeSpec, grid: list[float]) -> tuple:
    """The parameter a grid sets, as its row in a batch's columns (n0, n1,
    n2, ns, kappa, N_B, M), its column, and per grid value the error of
    ProbeSpec, TargetScenario or solve_n1_for_signal_energy, or None where
    they admit it. The grid is checked in floats, and only a rejected value
    is explained, by the rule that rejected it: _admit's or the kind's read
    rule (_unread)."""
    name, values = axis, np.array(grid)
    if axis == "ns":
        name, values = _carrier(probe.kind, values, probe.n0)
    lo, hi, _ = _ADMITTED[name]
    valid = (lo <= values) & (values < hi)
    if name in _FIELDS and name not in _READS[probe.kind]:
        valid &= values == 0.0
    errors = [None] * len(grid)
    for j in np.flatnonzero(~valid).tolist():
        try:
            if axis == "ns" and probe.kind is ProbeKind.ASTM:
                solve_n1_for_signal_energy(grid[j], probe.n0)
            _admit(name, values[j])
            errors[j] = _unread(probe.kind, name)
        except ValidationError as exc:
            errors[j] = exc
    return ("n0", "n1", "n2", "ns", "kappa", "nb").index(name), values, errors


def _evaluate(tables: Sequence[_Table]) -> list[list]:
    """Each table's outcome per grid value, its SweepRow or the
    ValidationError that rejected it, from one discriminate_columns batch of
    the values _axis_column admits. No outcome depends on its batch."""
    outcomes, points, columns = [], [], []
    for t in tables:
        row, column, outcome = _axis_column(t.axis, t.probe, t.grid)
        good = [j for j, error in enumerate(outcome) if error is None]
        p, s = t.probe, t.scenario
        block = np.array([p.n0, p.n1, p.n2, p.ns, s.kappa, s.nb, s.ensembles],
                         dtype=float)[:, None].repeat(len(good), axis=1)
        block[row] = column[good]
        columns.append(block)
        outcomes.append(outcome)
        points += [(t, outcome, j) for j in good]
    batch = np.concatenate(columns, axis=1)
    results = discriminate_columns([t.probe.kind is ProbeKind.COHERENT for t, _, _ in points],
                                   *batch)
    for (t, outcome, j), params, result in zip(points, batch.T.tolist(), results):
        if not isinstance(result, ValidationError):
            try:
                discord = (_remained(*params[:3], *params[4:6]).value
                           if t.with_discord and t.probe.kind is not ProbeKind.COHERENT
                           else None)
                result = _row(t.grid[j], t.probe.kind, params, result, discord)
            except ValidationError as exc:
                result = exc
        outcome[j] = result
    return outcomes


def _document(axis: str, grid: list[float], outcomes) -> SweepTable:
    """A sweep document from each grid value's outcomes, one per table in
    order: a value's rows stop at its first error, which is reported. If
    every value fails, it raises."""
    table = SweepTable(axis=axis, grid=list(grid))
    for value, results in zip(grid, outcomes):
        for result in results:
            if isinstance(result, ValidationError):
                table.errors.append(f"{axis}={value}: {result}")
                break
            table.rows.append(result)
    if table.errors and not table.rows:
        raise ValidationError("every grid point failed: " + "; ".join(table.errors))
    return table


def _documents(tables: Sequence[_Table]) -> list[SweepTable]:
    """Each table's sweep document, from one batch."""
    return [_document(t.axis, t.grid, zip(outcomes))
            for t, outcomes in zip(tables, _evaluate(tables))]


def sweep(axis: str, grid, probe: ProbeSpec, scenario: TargetScenario,
          with_discord: bool = False, compare: bool | None = None) -> SweepTable:
    """Evaluate one row per grid point along the chosen axis.

    For axis="ns" on an ASTM probe, N1 is solved from the signal-energy
    closed form at fixed N0, and matched TMSV (N0 = N_S) and coherent
    (|alpha|^2 = N_S) comparison rows are emitted alongside each ASTM row
    unless compare=False: the rows of matched tables on the same grid. On
    a TMSV probe the axis sets N0 = N_S, and that row is the TMSV
    comparison: only the coherent row comes with it. compare=True on
    another axis raises: comparison rows match N_S.

    Each grid value is checked in floats against the rules ProbeSpec,
    TargetScenario and solve_n1_for_signal_energy apply to the parameter it
    sets; one that fails, and a value's rows after its first error, are
    skipped and reported in errors. The rest are one batch, as a figure's
    tables are (reproduce_figure). If every value fails, it raises.
    """
    if axis not in SWEEP_AXES:
        raise ValidationError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if compare is None:
        compare = axis == "ns" and probe.kind is not ProbeKind.COHERENT
    if compare and axis != "ns":
        raise ValidationError(f"compare needs axis 'ns' (N_S), got {axis!r}")
    grid = [float(v) for v in grid]
    if not grid:
        raise ValidationError("grid has no points")
    tables = [_Table(None, axis, grid, probe, scenario, with_discord)]
    if compare:  # a TMSV probe's own rows are the TMSV ones
        tables += _ns_tables((_COHERENT,) if probe.kind is ProbeKind.TMSV
                             else (_TMSV, _COHERENT), grid, scenario, with_discord)
    return _document(axis, grid, zip(*_evaluate(tables)))


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
    return _ns_tables((ProbeSpec(kind=ProbeKind.ASTM, n0=n0), _COHERENT),
                      np.linspace(lo, fit_to, points).tolist(), scenario)


def _astm_ci_slopes(n0: float, scenario: TargetScenario, fit_from: float | None,
                    fit_to: float, points: int) -> tuple[float, float]:
    """Fitted SNR-vs-N_S slopes of the ASTM probe at fixed N0 and of the CI.

    The CI (classical illumination) benchmark is the coherent probe with
    |alpha|^2 = N_S run through the same Chernoff pipeline; its error
    exponent per copy is kappa*N_S*(sqrt(NB+1)-sqrt(NB))^2.
    """
    astm, ci = _documents(_slope_tables(n0, scenario, fit_from, fit_to, points))
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
    if not isinstance(points, numbers.Integral):
        raise ValidationError(f"points must be an integer, got {points!r}")
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
    return _ns_tables((ProbeSpec(kind=ProbeKind.ASTM, n0=n0), _TMSV, _COHERENT),
                      np.linspace(n0, 4.0, 32).tolist(), scenario, figure=figure_id)


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
_FIG5_NS = np.linspace(0.1, 4.0, 32).tolist()

# Figure id -> (its sweeps, in the order reproduce_figure writes them, and
# the CSV derived from their tables as (name, header, rows function), or
# None). A sweep with a name is written as its own table.
_FIGURES = {
    # SNR vs idler squeezing at fixed signal energy; flat curves.
    "fig2a": (tuple(
        _Table(f"fig2a_{tag}.csv", "n2", np.linspace(0.0, 4.0, 17).tolist(), probe, MICROWAVE)
        for tag, probe in (("ns1", ProbeSpec(kind=ProbeKind.ASTM, n0=1.0)),
                           ("ns2", _ASTM_NS2))), None),
    "fig2b": (tuple(
        _Table(f"fig2b_n1_{n1:g}.csv", "n0", np.linspace(0.1, 2.0, 20).tolist(),
               ProbeSpec(kind=ProbeKind.ASTM, n1=n1), MICROWAVE)
        for n1 in (0.0, 1.0, 2.0, 3.0)), None),
    "fig3a": (_ns_comparison("fig3a", 1.0, MICROWAVE), None),
    "fig3b": (tuple(
        _Table(f"fig3b_{p.kind.value}.csv", "kappa", np.linspace(0.005, 0.1, 20).tolist(),
               p, MICROWAVE)
        for p in (_ASTM_NS2, ProbeSpec(kind=ProbeKind.TMSV, n0=2.0),
                  ProbeSpec(kind=ProbeKind.COHERENT, ns=2.0))), None),
    "fig4a": (_ns_comparison("fig4a", 0.1, LOW_NOISE), None),
    "fig4b": (sum((_slope_tables(n0, LOW_NOISE, None, FIT_TO_DEFAULT, FIT_POINTS_DEFAULT)
                   for n0 in _FIG4B_N0), ()),
              ("fig4b_slopes.csv", ["n0", "slope_astm", "slope_ci"], _slope_rows)),
    "fig5": (_ns_tables((ProbeSpec(kind=ProbeKind.ASTM, n0=0.1), _COHERENT), _FIG5_NS,
                        LOW_NOISE, with_discord=True),
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
    tables = _documents(specs)
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
    """Convenience gnuplot script plotting each CSV's y columns against its
    first, found by its header: the SNR of a sweep table, and every column
    after the first of a derived one (fig4b's slopes, fig5's advantage and
    discord)."""
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'axis value'",
        "set ylabel 'SNR'",
    ]
    plots = []
    for path in csv_paths:
        name = os.path.basename(path)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        for y in ["snr"] if header == CSV_COLUMNS else header[1:]:
            title = name if header == CSV_COLUMNS else y
            plots.append(f"'{name}' using 1:{header.index(y) + 1} with lines title '{title}'")
    lines.append(f"plot {', '.join(plots)}")
    script = "\n".join(lines) + "\n"
    with open(out_path, "w") as fh:
        fh.write(script)
    return script
