"""What `import gqi` loads, and that every public name still resolves."""

import json
import os
import subprocess
import sys

import pytest

import gqi

# Run in a fresh interpreter: the rest of the suite has long since loaded
# gqi.reference, gqi.fock and scipy.linalg in this one.
_PROBE = """
import json, sys
import gqi
heavy = ("scipy.linalg", "gqi.reference", "gqi.fock")
loaded_by_import = [m for m in heavy if m in sys.modules]
missing = [n for n in gqi.__all__ if not hasattr(gqi, n)]
print(json.dumps({
    "loaded_by_import": loaded_by_import,
    "missing": missing,
    "williamson_is_reference": gqi.williamson is gqi.reference.williamson,
    "fock_oracle_is_fock": gqi.fock_oracle_q_s is gqi.fock.fock_oracle_q_s,
}))
"""


@pytest.fixture(scope="module")
def fresh_import() -> dict:
    return _run_fresh(_PROBE)


# Every path the package's own pairs take, then one pair that is neither in
# standard form nor coherent: signal mode turned by a phase, so that both
# hypotheses carry x-p correlations.
_PATHS = """
import json, math, sys
import numpy as np
from gqi import (MICROWAVE, GaussianState, HypothesisPair, ProbeKind, ProbeSpec,
                 TargetScenario, chernoff_infimum, discriminate, make_hypotheses,
                 q_s, run_scenario, snr, sweep)
probe = ProbeSpec(kind=ProbeKind.ASTM, n0=1.0, n1=1.0)
snr(probe, MICROWAVE)
sweep("ns", np.linspace(1.0, 4.0, 8), probe, MICROWAVE)
run_scenario(probe, MICROWAVE, with_discord=True)
pair = make_hypotheses(probe, MICROWAVE)
q_s(pair, 0.3), chernoff_infimum(pair), discriminate(pair, 1e7)
discriminate(make_hypotheses(ProbeSpec(kind=ProbeKind.COHERENT, ns=2.0),
                             MICROWAVE), 1e7)
loaded_by_hot_path = [m for m in ("gqi.reference", "scipy.linalg")
                      if m in sys.modules]

pair = make_hypotheses(ProbeSpec(kind=ProbeKind.ASTM, n0=0.1, n1=0.5),
                       TargetScenario(0.3, 0.4))
rot = np.eye(4)
rot[:2, :2] = [[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]]
turned = HypothesisPair(*(GaussianState(2, rot @ v.mean, rot @ v.cov @ rot.T)
                          for v in (pair.rho_a, pair.rho_b)))
print(json.dumps({
    "loaded_by_hot_path": loaded_by_hot_path,
    "turned": q_s(turned, 0.3),
    "turned_loads_reference": "gqi.reference" in sys.modules,
    "standard": q_s(pair, 0.3),
}))
"""


def _run_fresh(code: str) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(gqi.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_leaves_reference_toolkit_and_scipy_linalg_unloaded(fresh_import):
    assert fresh_import["loaded_by_import"] == []


def test_every_public_name_resolves(fresh_import):
    assert fresh_import["missing"] == []
    assert fresh_import["williamson_is_reference"]
    assert fresh_import["fock_oracle_is_fock"]


def test_unknown_name_raises_attribute_error():
    assert not hasattr(gqi, "no_such_name")


def test_built_pairs_never_load_the_general_path():
    result = _run_fresh(_PATHS)
    assert result["loaded_by_hot_path"] == []
    # The general path loads for the turned pair and gives the value it gave
    # when it lived in gqi.chernoff.
    assert result["turned_loads_reference"]
    assert result["turned"] == pytest.approx(0.9673763105060349, rel=1e-13)
    # A phase on one mode of both hypotheses leaves Q_s as it was.
    assert result["turned"] == pytest.approx(result["standard"], rel=1e-14)
