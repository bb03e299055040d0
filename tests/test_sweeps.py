import csv
import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gqi import (
    ProbeKind,
    ProbeSpec,
    TargetScenario,
    ValidationError,
    advantage_threshold,
    remained_discord,
    run_scenario,
    slope_fit,
    snr,
    solve_n1_for_signal_energy,
    sweep,
)
from gqi.sweeps import (
    CSV_COLUMNS,
    FIGURE_IDS,
    FIT_POINTS_DEFAULT,
    FIT_TO_DEFAULT,
    LOW_NOISE,
    SWEEP_AXES,
    SweepRow,
    SweepTable,
    _evaluate,
    _FIGURES,
    gnuplot_script,
    reproduce_figure,
    table_from_csv,
    table_to_string,
)

MICROWAVE = TargetScenario(kappa=0.01, nb=3.8e3, ensembles=1e7)


def reference_csv(header, rows) -> str:
    """The CSV text of csv.writer, with "" for None, text as it is and
    repr(float(v)) for a number."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header] + [
        ["" if v is None else v if isinstance(v, str) else repr(float(v)) for v in row]
        for row in rows])
    return buf.getvalue()


def sweep_alone(spec) -> SweepTable:
    """A figure's sweep, evaluated by sweep on its own."""
    return sweep(spec.axis, spec.grid, spec.probe, spec.scenario,
                 with_discord=spec.with_discord, compare=False)


def with_axis(probe: ProbeSpec, scenario: TargetScenario, axis: str,
              value: float) -> tuple[ProbeSpec, TargetScenario]:
    """(probe, scenario) with the axis set to value, built as objects, so
    that the classes and solve_n1_for_signal_energy validate it: the
    reference a sweep's check in floats must agree with."""
    if axis in ("kappa", "nb"):
        return probe, replace(scenario, **{axis: value})
    if axis == "ns" and probe.kind is ProbeKind.ASTM:
        return replace(probe, n1=solve_n1_for_signal_energy(value, probe.n0)), scenario
    if axis == "ns" and probe.kind is ProbeKind.TMSV:
        axis = "n0"  # N_S = N0 without squeezers
    return replace(probe, **{axis: value}), scenario


class TestRunScenario:
    def test_tmsv_row_is_complete(self):
        row = run_scenario(ProbeSpec(kind=ProbeKind.TMSV, n0=1.0), MICROWAVE)
        assert row.kind == "tmsv"
        assert row.ns == pytest.approx(1.0)
        assert row.snr == pytest.approx(7.0, rel=0.10)
        assert row.discord is None

    def test_discord_flag(self):
        row = run_scenario(
            ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=0.5),
            TargetScenario(0.01, 30.0, 1e7),
            with_discord=True,
        )
        assert row.discord is not None and row.discord > 0.0

    def test_coherent_never_reports_discord(self):
        row = run_scenario(
            ProbeSpec(kind=ProbeKind.COHERENT, ns=1.0), MICROWAVE,
            with_discord=True,
        )
        assert row.discord is None

    @pytest.mark.parametrize("probe", [
        ProbeSpec(kind=ProbeKind.ASTM, n0=0.5, n1=1.2, n2=0.3),
        ProbeSpec(kind=ProbeKind.TMSV, n0=2.0),
        ProbeSpec(kind=ProbeKind.COHERENT, ns=1.5),
    ])
    def test_shared_pair_matches_separate_calls(self, probe):
        # run_scenario builds one pair for the Chernoff step and the discord
        scenario = TargetScenario(0.05, 12.0, 1e6)
        row = run_scenario(probe, scenario, with_discord=True)
        ref = snr(probe, scenario)
        assert (row.s_star, row.q_min, row.log_error_prob, row.snr) == (
            ref.s_star, ref.q_min, ref.log_error_prob, ref.snr)
        if probe.kind is not ProbeKind.COHERENT:
            assert row.discord == remained_discord(probe, scenario).value

    def test_deterministic_rerun(self):
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.7, n1=0.3)
        first = run_scenario(probe, MICROWAVE, with_discord=True)
        second = run_scenario(probe, MICROWAVE, with_discord=True)
        assert first == second


class TestSolveN1:
    def test_round_trip(self):
        n1 = solve_n1_for_signal_energy(2.0, 1.0)
        assert ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=n1).signal_energy == (
            pytest.approx(2.0)
        )

    def test_rejects_energy_below_floor(self):
        with pytest.raises(ValidationError) as info:
            solve_n1_for_signal_energy(0.5, 1.0)
        assert str(info.value) == "target signal energy 0.5 is below the probe floor N0 = 1.0"

    # (nan, 1.0) returned nan, (inf, 1.0) inf and (5.0, -3.0) -1.6.
    @pytest.mark.parametrize("ns, n0, message", [
        (math.nan, 1.0, "ns must be finite, got nan"),
        (math.inf, 1.0, "ns must be finite, got inf"),
        (-math.inf, 1.0, "target signal energy -inf is below the probe floor N0 = 1.0"),
        (5.0, -3.0, "probe parameter n0 must be >= 0, got -3.0"),
        (5.0, math.nan, "n0 must be finite, got nan"),
        ("5", 1.0, "ns must be a real number, got '5'"),
    ])
    def test_admits_its_arguments(self, ns, n0, message):
        with pytest.raises(ValidationError) as info:
            solve_n1_for_signal_energy(ns, n0)
        assert str(info.value) == message


class TestSweep:
    def test_rows_ordered_by_grid(self):
        table = sweep(
            "n1", [0.0, 1.0, 2.0], ProbeSpec(kind=ProbeKind.ASTM, n0=1.0),
            MICROWAVE,
        )
        assert [r.axis_value for r in table.rows] == [0.0, 1.0, 2.0]
        snrs = [r.snr for r in table.rows]
        assert snrs == sorted(snrs)

    def test_ns_axis_emits_comparison_rows(self):
        table = sweep(
            "ns", [2.0, 4.0], ProbeSpec(kind=ProbeKind.ASTM, n0=1.0), MICROWAVE,
        )
        kinds = [r.kind for r in table.rows]
        assert kinds == ["astm", "tmsv", "coherent"] * 2
        for row in table.rows:
            assert row.ns == pytest.approx(row.axis_value)

    def test_ns_axis_of_a_tmsv_probe_sets_n0(self):
        # It solved n1 = 0.25 at N_S = 1 (an ASTM probe labelled tmsv, SNR
        # 6.37) and added the TMSV comparison row (7.40): two tmsv rows.
        table = sweep("ns", [1.0, 2.0, 3.0], ProbeSpec(kind=ProbeKind.TMSV, n0=0.5),
                      MICROWAVE)
        assert [r.kind for r in table.rows] == ["tmsv", "coherent"] * 3
        for row in table.rows[::2]:
            assert (row.n0, row.n1, row.n2, row.ns) == (row.axis_value, 0.0, 0.0,
                                                       row.axis_value)
            assert row.snr == run_scenario(
                ProbeSpec(kind=ProbeKind.TMSV, n0=row.axis_value), MICROWAVE).snr

    def test_squeezer_axis_of_a_tmsv_probe_is_reported(self):
        table = sweep("n1", [0.0, 1.0], ProbeSpec(kind=ProbeKind.TMSV, n0=0.5),
                      MICROWAVE)
        assert [r.axis_value for r in table.rows] == [0.0]
        assert table.errors == ["n1=1.0: a tmsv probe has no squeezers n1, n2: "
                                "use kind astm"]

    @pytest.mark.parametrize("axis, kind", [
        ("n0", ProbeKind.COHERENT), ("n1", ProbeKind.COHERENT),
        ("n2", ProbeKind.COHERENT), ("n2", ProbeKind.TMSV)])
    def test_axis_the_kind_does_not_read_is_reported(self, axis, kind):
        # A coherent probe swept over n0 gave rows that differed only in
        # their n0 column.
        table = sweep(axis, [0.0, 1.0, 2.0], SWEPT_PROBES[kind], MICROWAVE)
        assert [r.axis_value for r in table.rows] == [0.0]
        assert [e.split(": ")[0] for e in table.errors] == [f"{axis}=1.0", f"{axis}=2.0"]
        assert all(f"{kind.value} probe has no" in e for e in table.errors)

    def test_ns_axis_of_a_tmsv_probe_reports_n0s_rule(self):
        table = sweep("ns", [-1.0, 1.0], ProbeSpec(kind=ProbeKind.TMSV, n0=0.5), MICROWAVE)
        assert [r.kind for r in table.rows] == ["tmsv", "coherent"]
        assert table.errors == ["ns=-1.0: probe parameter n0 must be >= 0, got -1.0"]

    def test_discord_that_raises_is_reported(self):
        # The Chernoff step passes at every N_B; the discord of the weakly
        # correlated return state does not, beyond N_B = 30.
        table = sweep("nb", [30.0, 1e6, 1e8], ProbeSpec(kind=ProbeKind.TMSV, n0=1.0),
                      TargetScenario(0.01, 0.0, 1e7), with_discord=True)
        assert [r.axis_value for r in table.rows] == [30.0]
        assert [e.split(": ")[0] for e in table.errors] == ["nb=1000000.0", "nb=100000000.0"]
        assert all("may be off by" in e for e in table.errors)

    def test_discord_beyond_float64_is_reported(self):
        # n1 = 1e300 raised OverflowError out of the sweep.
        table = sweep("n1", [2.5, 1e300], ProbeSpec(kind=ProbeKind.ASTM, n0=1.0),
                      TargetScenario(0.05, 10.0, 1e6), with_discord=True)
        assert [r.axis_value for r in table.rows] == [2.5]
        assert table.errors == ["n1=1e+300: covariance entries span too wide a range"]

    def test_bad_grid_points_skipped_and_reported(self):
        table = sweep(
            "ns", [0.5, 2.0], ProbeSpec(kind=ProbeKind.ASTM, n0=1.0), MICROWAVE,
        )
        assert len(table.errors) == 1
        assert {r.axis_value for r in table.rows} == {2.0}

    def test_bad_points_inside_the_batch_are_reported(self):
        # -1 fails when its probe is built, 1e300 inside the batch (its
        # covariance overflows); the points around them are evaluated.
        grid = [0.5, -1.0, 1.0, 1e300, 2.0]
        table = sweep("n0", grid, ProbeSpec(kind=ProbeKind.ASTM, n1=0.5), MICROWAVE)
        assert [r.axis_value for r in table.rows] == [0.5, 1.0, 2.0]
        assert len(table.errors) == 2
        assert table.errors[0].startswith("n0=-1.0: ")
        assert table.errors[1] == "n0=1e+300: covariance has a non-finite entry"

    def test_bad_point_drops_its_comparison_rows(self):
        table = sweep("ns", [2.0, 0.5, 3.0],
                      ProbeSpec(kind=ProbeKind.ASTM, n0=1.0), MICROWAVE)
        assert [r.axis_value for r in table.rows] == [2.0] * 3 + [3.0] * 3
        assert len(table.errors) == 1 and table.errors[0].startswith("ns=0.5: ")

    def test_rows_agree_with_run_scenario(self):
        # Each row is evaluated in a batch of 3 x 16 points, alone in
        # run_scenario. The arithmetic is elementwise per point, so only a
        # vector kernel that rounds by position could split them; on x86-64
        # with numpy 2 they agree bit for bit.
        table = sweep("ns", np.linspace(1.0, 4.0, 16),
                      ProbeSpec(kind=ProbeKind.ASTM, n0=1.0), MICROWAVE)
        for row in table.rows:
            probe = ProbeSpec(kind=ProbeKind(row.kind), n0=row.n0, n1=row.n1,
                              n2=row.n2, ns=row.ns if row.kind == "coherent" else 0.0)
            alone = run_scenario(probe, MICROWAVE)
            assert row.snr == pytest.approx(alone.snr, rel=1e-12)
            assert row.log_error_prob == pytest.approx(alone.log_error_prob, rel=1e-12)
            assert row.q_min == pytest.approx(alone.q_min, abs=4e-16)
            assert row.s_star == pytest.approx(alone.s_star, abs=1e-4)

    def test_empty_grid(self):
        # an empty table would be written as a header-only CSV
        with pytest.raises(ValidationError, match="no points"):
            sweep("ns", [], ProbeSpec(kind="astm", n0=1.0), MICROWAVE)

    @pytest.mark.parametrize("probe", [
        ProbeSpec(kind=ProbeKind.ASTM, n0=1.0),
        ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=solve_n1_for_signal_energy(2.0, 1.0)),
    ])
    def test_fig2a_is_flat_in_idler_squeezing(self, probe):
        # The idler squeezer acts on the mode that never meets the target,
        # so fig2a's SNRs agree to rounding.
        snrs = sweep("n2", np.linspace(0.0, 4.0, 17), probe, MICROWAVE).column("snr")
        assert (snrs.max() - snrs.min()) / snrs.min() <= 1e-11

    def test_unknown_axis(self):
        with pytest.raises(ValidationError):
            sweep("phi", [0.1], ProbeSpec(kind=ProbeKind.TMSV, n0=1.0), MICROWAVE)


class TestSlopeFit:
    def test_exact_linear_input(self):
        rows = [
            SweepRow(x, 0, 0, 0, x, 0.01, 1.0, 1.0, "coherent",
                     0.5, 0.9, -1.0, 2.5 * x + 0.3)
            for x in (0.5, 1.0, 1.5, 2.0)
        ]
        table = SweepTable("ns", [r.ns for r in rows], rows)
        assert slope_fit(table) == pytest.approx(2.5, rel=1e-12)

    def test_constant_column_gives_zero(self):
        rows = [
            SweepRow(x, 0, 0, 0, x, 0.01, 1.0, 1.0, "coherent",
                     0.5, 0.9, -1.0, 7.0)
            for x in (1.0, 2.0, 3.0)
        ]
        assert slope_fit(SweepTable("ns", [], rows)) == pytest.approx(0.0, abs=1e-12)

    def test_kind_filter(self):
        table = sweep(
            "ns", np.linspace(1.0, 3.0, 5),
            ProbeSpec(kind=ProbeKind.ASTM, n0=1.0), MICROWAVE,
        )
        assert slope_fit(table, kind="coherent") > 0.0
        assert slope_fit(table, kind="astm") > 0.0
        # the per-kind fits must really be filtered, not pooled
        assert slope_fit(table, kind="astm") != pytest.approx(
            slope_fit(table, kind="coherent"), rel=1e-3
        )

    def test_degenerate_grid(self):
        rows = [SweepRow(1, 0, 0, 0, 1.0, 0.01, 1, 1, "tmsv", 0.5, 0.9, -1, 5.0)]
        with pytest.raises(ValidationError):
            slope_fit(SweepTable("ns", [], rows))


class TestCsvRoundTrip:
    def test_header_matches_schema(self):
        table = SweepTable("ns", [], [])
        assert table_to_string(table).strip() == ",".join(CSV_COLUMNS)

    def test_full_precision_round_trip(self):
        table = sweep(
            "ns", [1.0, 2.0, np.pi], ProbeSpec(kind=ProbeKind.ASTM, n0=1.0),
            MICROWAVE, with_discord=True,
        )
        text = table_to_string(table)
        back = table_from_csv(io.StringIO(text))
        assert back.rows == table.rows

    def test_rejects_wrong_header(self):
        with pytest.raises(ValidationError):
            table_from_csv(io.StringIO("a,b,c\n1,2,3\n"))

    def test_rejects_empty_stream(self):
        # An empty stream raised StopIteration.
        with pytest.raises(ValidationError, match="CSV row 1: no header"):
            table_from_csv(io.StringIO(""))

    def test_rejects_short_row(self):
        # A row with too few cells raised KeyError: 'kind'.
        text = ",".join(CSV_COLUMNS) + "\n1,2,3\n"
        with pytest.raises(ValidationError, match="CSV row 2: 3 fields, expected 14"):
            table_from_csv(io.StringIO(text))

    def test_rejects_non_numeric_cell(self):
        # A cell that is not a number raised ValueError.
        table = sweep("ns", [1.0, 2.0], ProbeSpec(kind=ProbeKind.ASTM, n0=1.0), MICROWAVE)
        lines = table_to_string(table).splitlines()
        cells = lines[2].split(",")
        cells[CSV_COLUMNS.index("q_min")] = "abc"
        lines[2] = ",".join(cells)
        with pytest.raises(ValidationError, match="CSV row 3, field q_min: 'abc' is not a number"):
            table_from_csv(io.StringIO("\n".join(lines) + "\n"))


class TestCsvWriter:
    def test_matches_csv_writer(self):
        # Under numpy 2, csv.writer would print a numpy scalar as
        # np.float64(...); the writer prints every number as a float.
        probe = ProbeSpec(kind=ProbeKind.ASTM, n0=0.5, n1=0.25)
        scenario = TargetScenario(0.01, 30.0, 1e7)
        rows = [run_scenario(probe, scenario, with_discord=True),
                run_scenario(ProbeSpec(kind=ProbeKind.COHERENT, ns=1.0), MICROWAVE)]
        rows += sweep("n1", np.linspace(0.0, 1.0, 3), probe, scenario).rows
        # A row's fields are Python floats, so numpy scalars go in by hand.
        numpy_row = SweepRow(**{name: np.float64(v) if isinstance(v, float) else v
                                for name, v in vars(rows[0]).items()})
        rows += [numpy_row,
                 SweepRow(-0.0, 0.0, -0.0, 0.0, 1.0, 0.01, 30.0, 1.0, "tmsv",
                          0.5, 1.0, -0.0, math.inf, None),
                 SweepRow(1e-300, 1.0, 0.0, 0.0, 1.0, 0.01, 30.0, 1.0, "astm",
                          math.nan, math.nan, -math.inf, math.nan, -0.0)]
        assert all(isinstance(v, np.float64) for v in vars(numpy_row).values()
                   if v is not numpy_row.kind)
        table = SweepTable("n1", [], rows)
        expected = reference_csv(CSV_COLUMNS,
                                 [[getattr(r, c) for c in CSV_COLUMNS] for r in rows])
        assert table_to_string(table) == expected
        assert "np.float64" not in expected and expected.endswith("\r\n")

    def test_derived_rows_match_csv_writer(self, tmp_path):
        from gqi.sweeps import _write_rows

        rows = [(np.float64(0.1), 1.5, None), (0.2, math.inf, -0.0), (0.3, math.nan, 2.0)]
        path = _write_rows(str(tmp_path), "t.csv", ["ns", "advantage", "discord"], rows)
        with open(path, newline="") as fh:
            assert fh.read() == reference_csv(["ns", "advantage", "discord"], rows)


# Axis values every rule of ProbeSpec, TargetScenario and
# solve_n1_for_signal_energy rejects somewhere, and values they admit.
axis_value = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e300,
                     0.2, 0.5, 1.0, 1.5, 3.0]),
    st.floats(-1.0, 5.0))
SWEPT_PROBES = {ProbeKind.ASTM: ProbeSpec(kind=ProbeKind.ASTM, n0=0.5, n1=0.3, n2=0.2),
                ProbeKind.TMSV: ProbeSpec(kind=ProbeKind.TMSV, n0=0.5),
                ProbeKind.COHERENT: ProbeSpec(kind=ProbeKind.COHERENT, ns=1.0)}


class TestBatchInvariant:
    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_figure_batch_is_its_tables_alone(self, figure_id, tmp_path):
        specs, derived = _FIGURES[figure_id]
        alone = [sweep_alone(spec) for spec in specs]
        for outcomes, ref in zip(_evaluate(specs), alone):
            # No figure has a grid value that fails: each outcome is its row.
            assert (outcomes, ref.errors) == (ref.rows, [])
        paths = reproduce_figure(figure_id, str(tmp_path))
        texts = []
        for path in paths:
            with open(path, newline="") as fh:
                texts.append(fh.read())
        if derived is None:
            assert texts == [table_to_string(ref) for ref in alone]
        elif figure_id == "fig4b":
            rows = []
            for n0 in np.linspace(0.05, 1.0, 20):
                grid = np.linspace(n0, FIT_TO_DEFAULT, FIT_POINTS_DEFAULT)
                astm = sweep("ns", grid, ProbeSpec(kind=ProbeKind.ASTM, n0=n0), LOW_NOISE,
                             compare=False)
                ci = sweep("ns", grid, ProbeSpec(kind=ProbeKind.COHERENT), LOW_NOISE)
                rows.append((n0, slope_fit(astm), slope_fit(ci)))
            assert texts == [reference_csv(["n0", "slope_astm", "slope_ci"], rows)]
        else:
            grid = np.linspace(0.1, 4.0, 32)
            astm = sweep("ns", grid, ProbeSpec(kind=ProbeKind.ASTM, n0=0.1), LOW_NOISE,
                         with_discord=True, compare=False)
            ci = sweep("ns", grid, ProbeSpec(kind=ProbeKind.COHERENT), LOW_NOISE)
            assert [r.axis_value for r in astm.rows] == [r.axis_value for r in ci.rows]
            rows = [(a.axis_value, a.snr / c.snr, a.discord)
                    for a, c in zip(astm.rows, ci.rows)]
            assert texts == [reference_csv(["ns", "advantage", "discord"], rows)]

    @given(axis=st.sampled_from(SWEEP_AXES), kind=st.sampled_from(list(ProbeKind)),
           values=st.lists(axis_value, min_size=1, max_size=5),
           with_discord=st.booleans(), compare=st.booleans())
    @example(axis="ns", kind=ProbeKind.ASTM, values=[0.2, math.nan, math.inf, 1.0],
             with_discord=True, compare=True)
    @example(axis="n1", kind=ProbeKind.TMSV, values=[0.0, -0.0, 0.5],
             with_discord=False, compare=False)
    @example(axis="n0", kind=ProbeKind.COHERENT, values=[0.5, -0.0, math.nan],
             with_discord=True, compare=False)
    @example(axis="kappa", kind=ProbeKind.ASTM, values=[1.0, 0.999, -0.0, 1.5],
             with_discord=True, compare=False)
    @example(axis="n0", kind=ProbeKind.ASTM, values=[1e300, 0.5], with_discord=True,
             compare=True)
    @example(axis="ns", kind=ProbeKind.ASTM, values=[1e300, 0.5], with_discord=True,
             compare=True)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_sweep_is_each_point_alone(self, axis, kind, values, with_discord, compare):
        # Every value is built by with_axis and evaluated by run_scenario
        # on its own; sweep checks the values in floats and evaluates them
        # in one batch, and must give the same rows and errors.
        probe, scenario = SWEPT_PROBES[kind], TargetScenario(0.05, 10.0, 1e6)
        if compare and axis != "ns":
            # Comparison rows take N0 = N_S and |alpha|^2 = N_S: on another
            # axis they would compare probes of different energies.
            with pytest.raises(ValidationError, match="compare needs axis 'ns'"):
                sweep(axis, values, probe, scenario, with_discord, compare)
            return
        rows, errors = [], []
        for value in values:
            try:
                p, s = with_axis(probe, scenario, axis, value)
            except ValidationError as exc:
                errors.append(f"{axis}={value}: {exc}")
                continue
            points = [(p, with_discord)]
            if compare:
                if kind is not ProbeKind.TMSV:
                    points.append((ProbeSpec(kind=ProbeKind.TMSV, n0=value), with_discord))
                points.append((ProbeSpec(kind=ProbeKind.COHERENT, ns=value), False))
            for q, discord in points:
                try:
                    rows.append(replace(run_scenario(q, s, discord), axis_value=value))
                except ValidationError as exc:
                    errors.append(f"{axis}={value}: {exc}")
                    break
        if not rows:
            with pytest.raises(ValidationError) as info:
                sweep(axis, values, probe, scenario, with_discord, compare)
            assert str(info.value) == "every grid point failed: " + "; ".join(errors)
            return
        table = sweep(axis, values, probe, scenario, with_discord, compare)
        assert table.rows == rows
        assert table.errors == errors


class TestAdvantageThreshold:
    def test_reports_missing_sign_change(self):
        # the ASTM slope stays below the coherent benchmark on this preset,
        # so the slope gap is negative on every bracket; a tiny one is cheap
        with pytest.raises(ValidationError, match="no slope crossing"):
            advantage_threshold(
                TargetScenario(0.01, 30.0, 1e7), bracket=(0.05, 0.06),
                points=8,
            )

    def test_astm_slope_below_ci_at_low_n0(self):
        from gqi.sweeps import _astm_ci_slopes

        slope_astm, slope_ci = _astm_ci_slopes(
            0.1, TargetScenario(0.01, 30.0, 1e7), None, 4.0, 16)
        assert slope_astm < slope_ci

    def test_bisects_to_known_crossing(self, monkeypatch):
        # gap = 1000*N0 - 150 crosses zero at N0 = 0.15
        monkeypatch.setattr(
            "gqi.sweeps._astm_ci_slopes",
            lambda n0, scenario, fit_from, fit_to, points: (1000.0 * n0, 150.0),
        )
        n0_star = advantage_threshold(TargetScenario(0.01, 30.0, 1e7))
        assert abs(n0_star - 0.15) <= 0.005

    # The ids are those the cases had after four tol cases, which went with
    # the parameter, so that each case keeps its name.
    @pytest.mark.parametrize("kwargs, match", [
        # a reversed bracket returned 0.51
        ({"bracket": (1.0, 0.02)}, "lo < hi"), ({"bracket": (0.3, 0.3)}, "lo < hi"),
        ({"points": 1}, "points"), ({"points": -1}, "points"),
        # 2.5 went on to np.linspace, "32" raised TypeError
        ({"points": 2.5}, "points must be an integer"), ({"points": "32"}, "points must be an integer"),
    ], ids=["kwargs4-lo < hi", "kwargs5-lo < hi", "kwargs6-points", "kwargs7-points",
            "points-float", "points-str"])
    def test_rejects_bad_search_inputs(self, monkeypatch, kwargs, match):
        # gap = 1000*N0 - 300 crosses zero at N0 = 0.3
        monkeypatch.setattr(
            "gqi.sweeps._astm_ci_slopes",
            lambda n0, scenario, fit_from, fit_to, points: (1000.0 * n0, 300.0),
        )
        with pytest.raises(ValidationError, match=match):
            advantage_threshold(TargetScenario(0.01, 30.0, 1e7), **kwargs)


SWEEP_HEADER = ["axis_value", "n0", "n1", "n2", "ns", "kappa", "nb", "ensembles",
                "kind", "s_star", "q_min", "log_error_prob", "snr", "discord"]
# Figure id -> (file name, header, data rows) of each table, in written order.
FIGURE_TABLES = {
    "fig2a": [("fig2a_ns1.csv", SWEEP_HEADER, 17),
              ("fig2a_ns2.csv", SWEEP_HEADER, 17)],
    "fig2b": [(f"fig2b_n1_{n1}.csv", SWEEP_HEADER, 20) for n1 in range(4)],
    "fig3a": [(f"fig3a_{kind}.csv", SWEEP_HEADER, 32)
              for kind in ("astm", "tmsv", "coherent")],
    "fig3b": [(f"fig3b_{kind}.csv", SWEEP_HEADER, 20)
              for kind in ("astm", "tmsv", "coherent")],
    "fig4a": [(f"fig4a_{kind}.csv", SWEEP_HEADER, 32)
              for kind in ("astm", "tmsv", "coherent")],
    "fig4b": [("fig4b_slopes.csv", ["n0", "slope_astm", "slope_ci"], 20)],
    "fig5": [("fig5_advantage_discord.csv", ["ns", "advantage", "discord"], 32)],
}


class TestReproduceFigure:
    def test_every_figure_is_pinned(self):
        assert FIGURE_IDS == tuple(FIGURE_TABLES)
        assert sum(len(t) for t in FIGURE_TABLES.values()) == 17

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_files_headers_and_row_counts(self, figure_id, tmp_path):
        paths = reproduce_figure(figure_id, str(tmp_path))
        expected = FIGURE_TABLES[figure_id]
        assert paths == [str(tmp_path / name) for name, _, _ in expected]
        for path, (_, header, rows) in zip(paths, expected):
            with open(path, newline="") as fh:
                records = list(csv.reader(fh))
            assert records[0] == header
            assert len(records) - 1 == rows

    def test_unknown_figure(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown figure id"):
            reproduce_figure("fig9", str(tmp_path))

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_gnuplot_plots_columns_that_exist(self, figure_id, tmp_path):
        # Every script plotted column 13, which fig4b's and fig5's
        # three-column tables do not have.
        paths = reproduce_figure(figure_id, str(tmp_path))
        script = gnuplot_script(paths, str(tmp_path / f"{figure_id}.gp"))
        plotted = []
        for name, k in re.findall(r"'([^']+)' using 1:(\d+) ", script):
            with open(tmp_path / name, newline="") as fh:
                header = next(csv.reader(fh))
            assert 2 <= int(k) <= len(header)
            plotted.append((name, header[int(k) - 1]))
        assert plotted == [(name, y) for name, header, _ in FIGURE_TABLES[figure_id]
                           for y in (["snr"] if header == SWEEP_HEADER else header[1:])]
