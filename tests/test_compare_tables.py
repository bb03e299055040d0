import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "compare_tables.py")
_spec = importlib.util.spec_from_file_location("compare_tables", SCRIPT)
compare_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_tables)

TABLE = "n0,kind,snr,discord\n0.1,astm,7.25,0.5\n0.2,coherent,8.0,\n"


def write_dirs(tmp_path, text_b, name_b="t.csv"):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    (dir_a / "t.csv").write_text(TABLE)
    (dir_b / name_b).write_text(text_b)
    (dir_b / "notes.gp").write_text("plot\n")  # only CSV files are compared
    return str(dir_a), str(dir_b)


def test_identical_tables_pass(tmp_path, capsys):
    assert compare_tables.main(write_dirs(tmp_path, TABLE)) == 0
    out = capsys.readouterr().out
    assert "t.csv snr 0\n" in out and "t.csv discord 0\n" in out


def test_reports_largest_difference_per_column(tmp_path, capsys):
    changed = TABLE.replace("7.25", "7.25000001").replace("8.0", "8.000001")
    dirs = write_dirs(tmp_path, changed)
    assert compare_tables.main(dirs) == 1
    assert "t.csv snr 1.25e-07\n" in capsys.readouterr().out
    assert compare_tables.main([*dirs, "--rtol", "1e-6"]) == 0
    assert compare_tables.main([*dirs, "--rtol", "1e-8"]) == 1


@pytest.mark.parametrize("text_b, message", [
    (TABLE.replace("astm", "tmsv"), "t.csv kind inf"),
    (TABLE.replace(",0.5", ","), "t.csv discord inf"),
    (TABLE.rsplit("0.2", 1)[0], "2 rows against 1"),
    (TABLE.replace("snr", "SNR"), "headers differ"),
])
def test_mismatches_fail(tmp_path, capsys, text_b, message):
    assert compare_tables.main(write_dirs(tmp_path, text_b)) == 1
    assert message in capsys.readouterr().out


def test_missing_file_fails(tmp_path, capsys):
    dirs = write_dirs(tmp_path, TABLE, name_b="other.csv")
    assert compare_tables.main(dirs) == 1
    out = capsys.readouterr().out
    assert "t.csv: missing from" in out and "other.csv: missing from" in out

