import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "ab.py")
_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [{"name": "points_per_s", "better": "higher"},
           {"name": "op_p50_ms", "better": "lower"}]


def test_tree_against_itself(capsys):
    # One pair of short discord_map runs: the exact metrics tie, the timed
    # ones read a ratio near 1.
    assert ab.main([ab.ROOT, ab.ROOT, "--workload", "discord_map", "--seed", "5",
                    "--pairs", "1", "--seconds", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "discord_map, seed 5: 1 pairs of 0.1 s runs"
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    assert set(rows) == {"setup_s", "points_per_s", "op_p50_ms", "op_p90_ms",
                         "pass_frac", "correct_digits_min", "peak_rss_mb"}
    for name in ("pass_frac", "correct_digits_min"):
        assert rows[name][-4:] == ["1.0000", "0", "of", "1"]
    assert 0.5 < float(rows["points_per_s"][-4]) < 2.0


def test_wins_follow_the_better_direction():
    parent = [{"points_per_s": 100.0, "op_p50_ms": 2.0},
              {"points_per_s": 110.0, "op_p50_ms": 2.0},
              {"points_per_s": 90.0, "op_p50_ms": 1.0}]
    child = [{"points_per_s": 120.0, "op_p50_ms": 1.0},
             {"points_per_s": 110.0, "op_p50_ms": 3.0},
             {"points_per_s": 99.0, "op_p50_ms": 0.5}]
    rows = ab.summarise(METRICS, parent, child)[1:]
    # points_per_s: pair ratios 1.2, 1.0 (a tie), 1.1; op_p50_ms: 0.5, 1.5, 0.5
    assert rows[0].split() == ["points_per_s", "higher", "100", "[95,", "105]",
                               "110", "[104.5,", "115]", "1.1000", "2", "of", "3"]
    assert rows[1].split()[-4:] == ["0.5000", "2", "of", "3"]


def test_failing_run_exits_1(tmp_path, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
    assert ab.main([str(tmp_path), ab.ROOT, "--workload", "discord_map",
                    "--pairs", "1", "--seconds", "0.1"]) == 1
    assert "exited 3" in capsys.readouterr().err
