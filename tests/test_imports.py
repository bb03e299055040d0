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
    src = os.path.dirname(os.path.dirname(os.path.abspath(gqi.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
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
