"""gqi needs numpy alone: neither `import gqi` nor any CLI command or
evaluation path loads scipy, and every public name resolves."""

import json
import os
import subprocess
import sys

import pytest

import gqi

# Run in a fresh interpreter: the tests' own oracles have long since loaded
# scipy in this one.
_PROBE = """
import json, sys
import gqi
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "missing": [n for n in gqi.__all__ if not hasattr(gqi, n)],
}))
"""

# Every CLI command, then every path the package's own pairs take, then two
# pairs that are neither in standard form nor coherent: signal mode turned by
# a phase, so that both hypotheses carry x-p correlations that the local
# frame removes, and the same pair beam split, which keeps them for the
# general analysis.
_PATHS = """
import contextlib, io, json, math, os, sys
import numpy as np
from gqi import (MICROWAVE, GaussianState, HypothesisPair, ProbeKind, ProbeSpec,
                 TargetScenario, chernoff_infimum, discriminate, make_hypotheses,
                 q_s, run_scenario, snr, sweep)
from gqi.cli import main

out = sys.argv[1]
commands = {
    "snr": ["snr", "--kind", "astm", "--n0", "1", "--n1", "1", "--kappa", "0.01",
            "--nb", "3800", "--ensembles", "1e7", "--with-discord"],
    "sweep": ["sweep", "--axis", "ns", "--from", "1", "--to", "4", "--steps", "8",
              "--kind", "astm", "--n0", "1", "--nb", "3800", "--kappa", "0.01",
              "--ensembles", "1e7", "--out", os.path.join(out, "s.csv")],
    "discord": ["discord", "--kind", "astm", "--n0", "0.1", "--n1", "0.5",
                "--kappa", "0.01", "--nb", "30"],
    "threshold": ["threshold", "--kappa", "0.01", "--nb", "30", "--ensembles", "1e7"],
}
for figure in ("fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "fig5"):
    commands[figure] = ["reproduce", figure, "--out", out]

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

codes, loaded = {}, {}
for name, args in commands.items():
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes[name] = main(args)
    loaded[name] = scipy_modules()

probe = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0)
snr(probe, MICROWAVE)
sweep("ns", np.linspace(1.0, 4.0, 8), probe, MICROWAVE)
run_scenario(probe, MICROWAVE, with_discord=True)
pair = make_hypotheses(probe, MICROWAVE)
q_s(pair, 0.3), chernoff_infimum(pair), discriminate(pair, 1e7)
discriminate(make_hypotheses(ProbeSpec(kind=ProbeKind.COHERENT, ns=2.0),
                             MICROWAVE), 1e7)

pair = make_hypotheses(ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=0.5),
                       TargetScenario(0.3, 0.4))
rot = np.eye(4)
rot[:2, :2] = [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]]
turned = HypothesisPair(*(GaussianState(2, rot @ v.mean, rot @ v.cov @ rot.T)
                          for v in (pair.rho_a, pair.rho_b)))
turned_q = q_s(turned, 0.3)
chernoff_infimum(turned), discriminate(turned, 1e7)
split = np.kron([[0.8, 0.6], [-0.6, 0.8]], np.eye(2))
split = HypothesisPair(*(GaussianState(2, split @ v.mean, split @ v.cov @ split.T)
                         for v in (turned.rho_a, turned.rho_b)))
q_s(split, 0.3), chernoff_infimum(split), discriminate(split, 1e7)
loaded["library"] = scipy_modules()
print(json.dumps({
    "codes": codes,
    "loaded": loaded,
    "turned": turned_q,
    "standard": q_s(pair, 0.3),
}))
"""


def _run_fresh(code: str, *args: str) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(gqi.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def fresh_import() -> dict:
    return _run_fresh(_PROBE)


@pytest.fixture(scope="module")
def fresh_paths(tmp_path_factory) -> dict:
    return _run_fresh(_PATHS, str(tmp_path_factory.mktemp("cli")))


def test_import_loads_no_scipy(fresh_import):
    assert fresh_import["scipy"] == []


def test_every_public_name_resolves(fresh_import):
    assert fresh_import["missing"] == []


def test_unknown_name_raises_attribute_error():
    assert not hasattr(gqi, "no_such_name")


def test_cli_commands_load_no_scipy(fresh_paths):
    codes = fresh_paths["codes"]
    assert codes.pop("threshold") == 2  # no slope crossing on these presets
    assert set(codes.values()) == {0}
    assert fresh_paths["loaded"] == {name: [] for name in fresh_paths["loaded"]}


def test_turned_pair_takes_the_general_path(fresh_paths):
    # The turned pair's value, which the general analysis gave in every
    # earlier layout and the local frame now gives through the standard one.
    assert fresh_paths["turned"] == pytest.approx(0.9673763105060349, rel=1e-13)
    # A phase on one mode of both hypotheses leaves Q_s as it was.
    assert fresh_paths["turned"] == pytest.approx(fresh_paths["standard"], rel=1e-14)
