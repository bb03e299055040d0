import argparse
import os

import pytest

from gqi import ProbeSpec, TargetScenario, remained_discord
from gqi.cli import build_parser, load_config, main
from gqi.sweeps import read_table
from gqi.symplectic import ValidationError


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_parse_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text(
            "# microwave preset\n"
            "probe.kind = tmsv\n"
            "probe.n0 = 1.0\n"
            "scenario.kappa = 0.01\n"
            "scenario.nb = 3800\n"
            "scenario.ensembles = 1e7\n"
        )
        code, out, _ = run(["snr", "--config", str(cfg)], capsys)
        assert code == 0
        base = float(out.split("snr=")[1].split()[0])
        assert base == pytest.approx(7.0, rel=0.10)

        # flags win over the file
        code, out, _ = run(
            ["snr", "--config", str(cfg), "--kind", "astm", "--n1", "1"], capsys
        )
        assert float(out.split("snr=")[1].split()[0]) == pytest.approx(25.0, rel=0.10)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("probe.phase = 0.3\n")
        with pytest.raises(ValidationError):
            load_config(str(cfg))

    def test_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("probe.n0 1.0\n")
        code, _, err = run(["snr", "--config", str(cfg)], capsys)
        assert code == 2
        assert err == f"error: {cfg}:1: expected key = value\n"

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("probe.n0 = two\n")
        with pytest.raises(ValidationError):
            load_config(str(cfg))


class TestSnrCommand:
    def test_basic_run(self, capsys):
        code, out, _ = run(
            ["snr", "--kind", "tmsv", "--n0", "1", "--kappa", "0.01",
             "--nb", "3800", "--ensembles", "1e7"],
            capsys,
        )
        assert code == 0
        assert "snr=" in out and "q_min=" in out

    def test_with_discord_prints_the_remained_discord(self, capsys):
        code, out, _ = run(
            ["snr", "--kind", "astm", "--n0", "0.1", "--n1", "0.5", "--kappa", "0.01",
             "--nb", "30", "--ensembles", "1e7", "--with-discord"],
            capsys,
        )
        discord = remained_discord(ProbeSpec(kind="astm", n0=0.1, n1=0.5),
                                   TargetScenario(0.01, 30.0, 1e7)).value
        assert code == 0
        assert out.endswith(f" discord={discord!r}\n")

    def test_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "row.csv"
        code, _, _ = run(
            ["snr", "--kind", "coherent", "--ns", "1", "--kappa", "0.1",
             "--nb", "2", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        table = read_table(str(out_path))
        assert len(table.rows) == 1
        assert table.rows[0].kind == "coherent"

    def test_validation_error_exit_code(self, capsys):
        code, _, err = run(["snr", "--n0", "-1"], capsys)
        assert code == 2
        assert "n0" in err

    def test_squeezers_need_kind_astm(self, capsys):
        # The default kind is tmsv, which has no squeezers.
        code, _, err = run(["snr", "--n0", "1", "--n1", "1"], capsys)
        assert code == 2
        assert "use kind astm" in err


    @pytest.mark.parametrize("flag, value", [
        ("--nb", "nan"), ("--n0", "inf"), ("--n1", "nan"), ("--nb", "inf"),
        ("--kappa", "nan"), ("--ensembles", "-inf"),
    ])
    def test_non_finite_input_exit_code(self, flag, value, capsys):
        code, _, err = run(["snr", "--kind", "astm", f"{flag}={value}"], capsys)
        assert code == 2
        assert "finite" in err


class TestSweepCommand:
    def test_sweep_writes_table(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run(
            ["sweep", "--axis", "n1", "--from", "0", "--to", "2", "--steps", "3",
             "--kind", "astm", "--n0", "1", "--kappa", "0.01", "--nb", "3800",
             "--ensembles", "1e7", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        table = read_table(str(out_path))
        assert [r.axis_value for r in table.rows] == [0.0, 1.0, 2.0]

    def test_skipped_values_reported_on_stderr(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, err = run(
            ["sweep", "--axis", "ns", "--from", "0.2", "--to", "2", "--steps", "3",
             "--kind", "astm", "--n0", "0.5", "--kappa", "0.01", "--nb", "30",
             "--ensembles", "1e7", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert err == ("skipped ns=0.2: target signal energy 0.2 is below the "
                       "probe floor N0 = 0.5\n")
        assert out == f"wrote {out_path} (6 rows)\n"

    def test_plot_script_emitted(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep", "--axis", "kappa", "--from", "0.01", "--to", "0.05",
             "--steps", "2", "--kind", "coherent", "--ns", "1", "--nb", "2",
             "--out", str(out_path), "--plot"],
            capsys,
        )
        assert code == 0
        script = out_path.with_suffix(".gp")
        assert script.exists()
        assert "plot" in script.read_text()


    @pytest.mark.parametrize("steps", ["-1", "0"])
    def test_bad_step_count_exit_code(self, steps, tmp_path, capsys):
        # -1 exited 1 with numpy's error; 0 wrote a header-only CSV
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(
            ["sweep", "--axis", "ns", "--from", "1", "--to", "4", "--steps",
             steps, "--kind", "astm", "--n0", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and "--steps" in err
        assert not out_path.exists()

    def test_unknown_probe_kind_in_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("probe.kind = foo\n")
        out_path = tmp_path / "sweep.csv"
        code, _, err = run(
            ["sweep", "--config", str(cfg), "--axis", "nb", "--from", "1",
             "--to", "2", "--steps", "2", "--out", str(out_path)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:") and "'foo'" in err
        assert not out_path.exists()


class TestDiscordCommand:
    def test_reports_both_values(self, capsys):
        code, out, _ = run(
            ["discord", "--kind", "astm", "--n0", "0.1", "--n1", "0.5",
             "--kappa", "0.01", "--nb", "30"],
            capsys,
        )
        assert code == 0
        assert "probe_discord=" in out and "remained_discord=" in out

    def test_discord_beyond_float64_exits_2(self, capsys):
        # (delta - alpha beta)^2 overflowed: "internal error" and exit 1.
        code, _, err = run(["discord", "--kind", "astm", "--n0", "1", "--n1", "1e300",
                            "--kappa", "0.05", "--nb", "10"], capsys)
        assert (code, err) == (2, "error: covariance entries span too wide a range\n")

    def test_coherent_probe_rejected(self, tmp_path, capsys):
        # It exited 2 naming astm_state, an internal function.
        with pytest.raises(SystemExit) as exc:
            main(["discord", "--kind", "coherent", "--nb", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # Python versions quote the choices differently.
        assert "argument --kind: invalid choice: 'coherent' (choose from " in err
        assert err.split("(choose from ")[1].replace("'", "") == "tmsv, astm)\n"
        cfg = tmp_path / "coherent.cfg"
        cfg.write_text("probe.kind = coherent\n")
        code, out, err = run(["discord", "--config", str(cfg), "--nb", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: probe.kind = coherent: discord takes a tmsv or astm probe\n"


class TestThresholdCommand:
    def test_no_crossing_reported_as_validation_error(self, capsys):
        code, _, err = run(
            ["threshold", "--kappa", "0.01", "--nb", "30", "--ensembles", "1e7",
             "--n0-min", "0.05", "--n0-max", "0.06", "--fit-points", "8"],
            capsys,
        )
        assert code == 2
        assert "no slope crossing" in err

    def test_bad_fit_points_exit_code(self, capsys):
        # leaked numpy's ValueError and exited 1
        code, _, err = run(["threshold", "--kappa", "0.01", "--nb", "30",
                            "--fit-points", "-1"], capsys)
        assert code == 2
        assert err.startswith("error:") and "points" in err

    def test_crossing_reported(self, monkeypatch, capsys):
        # gap = 1000*N0 - 150 crosses zero at N0 = 0.15
        monkeypatch.setattr(
            "gqi.sweeps._astm_ci_slopes",
            lambda n0, scenario, fit_from, fit_to, points: (1000.0 * n0, 150.0),
        )
        code, out, _ = run(
            ["threshold", "--kappa", "0.01", "--nb", "30", "--ensembles", "1e7"],
            capsys,
        )
        assert code == 0
        assert float(out.split("n0_threshold=")[1]) == pytest.approx(0.15, abs=0.005)


class TestThresholdConfig:
    def test_probe_keys_build_no_probe(self, tmp_path, monkeypatch, capsys):
        # A shared config file may hold a probe; threshold takes none, so it
        # neither reads nor validates one (n1 = 1 on kind tmsv would raise).
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probe.kind = tmsv\nprobe.n1 = 1\nprobe.ns = 9\n"
                       "scenario.kappa = 0.01\nscenario.nb = 30\n")
        monkeypatch.setattr("gqi.cli.ProbeSpec", None)  # a probe would be a TypeError
        monkeypatch.setattr(
            "gqi.sweeps._astm_ci_slopes",
            lambda n0, scenario, fit_from, fit_to, points: (1000.0 * n0, 150.0),
        )
        code, out, _ = run(["threshold", "--config", str(cfg)], capsys)
        assert code == 0 and out.startswith("n0_threshold=")


# The options of each subcommand: exactly those its command reads.
OPTIONS = {
    "snr": {"--config", "--kind", "--n0", "--n1", "--n2", "--ns", "--kappa", "--nb",
            "--ensembles", "--out", "--with-discord"},
    "sweep": {"--config", "--kind", "--n0", "--n1", "--n2", "--ns", "--kappa", "--nb",
              "--ensembles", "--out", "--plot", "--axis", "--from", "--to", "--steps",
              "--with-discord"},
    "discord": {"--config", "--kind", "--n0", "--n1", "--n2", "--kappa", "--nb"},
    "threshold": {"--config", "--kappa", "--nb", "--ensembles", "--n0-min", "--n0-max",
                  "--fit-from", "--fit-to", "--fit-points"},
    "reproduce": {"figure", "--out", "--plot"},
}


class ReadLog(argparse.Namespace):
    """A namespace that logs which of its attributes are read."""

    def __getattribute__(self, name):
        value = super().__getattribute__(name)
        if not name.startswith("_") and name not in ("func", "command"):
            super().__getattribute__("_read").add(name)
        return value


class TestParser:
    def test_each_command_registers_what_it_reads(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            "gqi.sweeps._astm_ci_slopes",
            lambda n0, scenario, fit_from, fit_to, points: (1000.0 * n0, 150.0),
        )
        commands = {
            "snr": ["snr", "--kind", "astm", "--n0", "1", "--nb", "30"],
            "sweep": ["sweep", "--axis", "nb", "--from", "1", "--to", "2", "--steps", "2",
                      "--kind", "astm", "--n0", "1"],
            "discord": ["discord", "--kind", "astm", "--n0", "1", "--nb", "30"],
            "threshold": ["threshold", "--nb", "30"],
            "reproduce": ["reproduce", "fig2a"],
        }
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        assert set(subparsers) == set(OPTIONS)
        registered = 0
        for name, sub in subparsers.items():
            actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            assert {a.option_strings[0] if a.option_strings else a.dest
                    for a in actions} == OPTIONS[name]
            registered += len(actions)
            args = ReadLog()
            object.__setattr__(args, "_read", set())
            parser.parse_args(commands[name], namespace=args)
            args._read.clear()
            assert args.func(args) == 0
            assert args._read == {a.dest for a in actions}, name
        assert registered == 46

    @pytest.mark.parametrize("command", [
        "threshold --n0 5 --kappa 0.01 --nb 30 --ensembles 1e7",
        "discord --kind astm --n0 1 --kappa 0.01 --nb 30 --ensembles 1e7",
        "snr --plot --kind astm --n0 1 --kappa 0.01 --nb 30",
        "sweep --axis nb --from 1 --to 2 --steps 2 --kind astm --n0 1 --n0-min 1",
        "reproduce fig2a --kind astm",
    ])
    def test_flag_not_read_exits_2(self, command):
        with pytest.raises(SystemExit) as err:
            main(command.split())
        assert err.value.code == 2

    def test_probe_field_not_read_exits_2(self, capsys):
        # It printed ns=4.0, the ASTM probe's own energy, and exited 0.
        code, out, err = run("snr --kind astm --n0 1 --n1 1 --ns 9 --kappa 0.01 "
                             "--nb 30 --ensembles 1e7".split(), capsys)
        assert (code, out) == (2, "")
        assert err == "error: an astm probe has no coherent photons ns: use kind coherent\n"


class TestReproduceCommand:
    def test_fig2a_flat_curves(self, tmp_path, capsys):
        code, out, _ = run(
            ["reproduce", "fig2a", "--out", str(tmp_path), "--plot"], capsys
        )
        assert code == 0
        files = sorted(os.listdir(tmp_path))
        assert "fig2a_ns1.csv" in files and "fig2a_ns2.csv" in files
        assert "fig2a.gp" in files
        table = read_table(str(tmp_path / "fig2a_ns1.csv"))
        snrs = table.column("snr")
        assert (snrs.max() - snrs.min()) / snrs.min() < 1e-6

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reproduce", "fig9"])
        assert err.value.code == 2

    def test_config_is_not_an_option(self, capsys):
        # reproduce takes no parameters: a figure preset fixes them all
        with pytest.raises(SystemExit) as err:
            main(["reproduce", "fig2a", "--config", "x"])
        assert err.value.code == 2
        assert "--config" in capsys.readouterr().err
