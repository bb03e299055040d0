import io

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
    SweepRow,
    SweepTable,
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

    def test_bad_grid_points_skipped_and_reported(self):
        table = sweep(
            "ns", [0.5, 2.0], ProbeSpec(kind=ProbeKind.ASTM, n0=1.0), MICROWAVE,
        )
        assert len(table.errors) == 1
        assert {r.axis_value for r in table.rows} == {2.0}

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
