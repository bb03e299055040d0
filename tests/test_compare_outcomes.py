import copy
import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "compare_outcomes.py")
_spec = importlib.util.spec_from_file_location("compare_outcomes", SCRIPT)
compare_outcomes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outcomes)

ROOT = compare_outcomes.ROOT


def test_tree_against_itself(capsys):
    # Two blocks of point_mix: 38 draws and two edge probes, one of which fails.
    assert compare_outcomes.main([ROOT, ROOT, "--blocks", "2"]) == 0
    out = capsys.readouterr().out
    assert "40 ops, 1 failing on the parent\n" in out
    for field in ("s_star", "q_min", "snr", "discord"):
        assert f"{field}: 0 of 39 values differ, largest relative difference 0\n" in out


def perturbed_run(change):
    """run_tree whose every second call (the child's) changes the records with change."""
    calls = []
    run = compare_outcomes.run_tree

    def fake(*args):
        records = run(*args)
        calls.append(args)
        if len(calls) % 2 == 0:
            records = copy.deepcopy(records)
            change(records)
        return records
    return fake


def test_perturbed_record_fails(monkeypatch, capsys):
    def nudge(records):
        ok = next(outcome for _, outcome in records if outcome["ok"])
        ok["result"]["snr"] *= 1.0 + 1e-9

    monkeypatch.setattr(compare_outcomes, "run_tree", perturbed_run(nudge))
    assert compare_outcomes.main([ROOT, ROOT, "--blocks", "2"]) == 1
    assert "snr: 1 of 39 values differ, largest relative difference 1e-09\n" in capsys.readouterr().out
    assert compare_outcomes.main([ROOT, ROOT, "--blocks", "2", "--rtol", "1e-8"]) == 0


def test_error_text_must_match(monkeypatch, capsys):
    def reword(records):
        failed = next(outcome for _, outcome in records if not outcome["ok"])
        failed["message"] += "!"

    monkeypatch.setattr(compare_outcomes, "run_tree", perturbed_run(reword))
    assert compare_outcomes.main([ROOT, ROOT, "--blocks", "2", "--rtol", "1"]) == 1
    out = capsys.readouterr().out
    assert "ValidationError" in out and out.splitlines()[0].endswith("!")


def test_rel_diff():
    rel_diff = compare_outcomes.rel_diff
    assert rel_diff(2.0, 2.0) == rel_diff(None, None) == rel_diff(float("nan"), float("nan")) == 0.0
    assert rel_diff(1.0, None) == rel_diff(1.0, float("inf")) == float("inf")
    assert rel_diff(4.0, 3.0) == 0.25
