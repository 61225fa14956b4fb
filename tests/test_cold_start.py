"""Which scipy modules a fresh process loads.  scipy serves only phi's
``erfc``, imported at the first chain evaluation, so importing the package
and running SVRC on a synthetic sum load no scipy at all.  The checks read
``sys.modules``; nothing here is timed."""
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy."))

loaded = {}
import hardsum, hardsum.cli, hardsum.verify
loaded["import"] = scipy_modules()

from hardsum import SvrcParams, quadratic_cosine_sum, svrc_run
params = SvrcParams(M=1.0, b_g=4, b_h=4, S=2, T=3, eps=1e-3, Delta=1.0,
                    L2=1.0, seed=0)
_, trajectory = svrc_run(quadratic_cosine_sum(16, 6, seed=0), params)
loaded["steps"] = len(trajectory)
loaded["svrc_run"] = scipy_modules()

hardsum.phi(0.0)
loaded["phi"] = scipy_modules()
print(json.dumps(loaded))
"""


def _loaded() -> dict:
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=SRC,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def test_scipy_loads_only_for_phi():
    loaded = _loaded()
    assert loaded["import"] == []
    assert loaded["steps"] > 0
    assert loaded["svrc_run"] == []
    assert "scipy.special" in loaded["phi"]
    assert not any(m.startswith(("scipy.optimize", "scipy.linalg"))
                   for m in loaded["phi"])
