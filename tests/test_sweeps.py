import csv
import io
import math

import numpy as np
import pytest

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
    SweepRow,
    SweepTable,
    reproduce_figure,
    table_from_csv,
    table_to_string,
)

MICROWAVE = TargetScenario(kappa=0.01, nb=3.8e3, ensembles=1e7)

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
        with pytest.raises(ValidationError):
            solve_n1_for_signal_energy(0.5, 1.0)


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
            alone = run_scenario(probe, MICROWAVE, axis_value=row.axis_value)
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
        back = table_from_csv(io.StringIO(text), axis=table.axis, grid=table.grid)
        assert back.rows == table.rows

    def test_rejects_wrong_header(self):
        with pytest.raises(ValidationError):
            table_from_csv(io.StringIO("a,b,c\n1,2,3\n"))


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
        n0_star = advantage_threshold(TargetScenario(0.01, 30.0, 1e7), tol=0.005)
        assert abs(n0_star - 0.15) <= 0.005

    @pytest.mark.parametrize("kwargs, match", [
        # tol = 0 stalled the bisection on adjacent floats
        ({"tol": 0.0}, "tol"), ({"tol": -1.0}, "tol"),
        ({"tol": math.nan}, "tol"), ({"tol": math.inf}, "tol"),
        # a reversed bracket returned 0.51
        ({"bracket": (1.0, 0.02)}, "lo < hi"), ({"bracket": (0.3, 0.3)}, "lo < hi"),
        ({"points": 1}, "points"), ({"points": -1}, "points"),
    ])
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
