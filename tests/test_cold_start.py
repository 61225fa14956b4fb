"""Which scipy modules a fresh process loads: none.  phi's ``erfc`` is the
standard library's ``math.erfc`` (see ``chains._phi_table``), so importing
the package, running SVRC on a synthetic sum, evaluating phi, a small
verification battery and a CLI run against the resisting oracle load no
scipy at all.
The checks read ``sys.modules``; nothing here is timed."""
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys, tempfile, warnings
from pathlib import Path

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
hardsum.phi([-40.0, -3.0, 0.5, 9.0], 2)
loaded["phi"] = scipy_modules()

with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # the battery's small-d notice
    checks = hardsum.verify.run_battery(num_points=1, zero_chain_samples=10,
                                        pairs=6, trials=1000, starts=1,
                                        seed=0)
loaded["checks"] = [c.status for c in checks]
loaded["run_battery"] = scipy_modules()

with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "adversary.ini"
    config.write_text(
        "[instance]\\nmode = deterministic\\np = 1\\nn = 2\\n"
        f"delta = 960.0\\nL = {hardsum.ell_p(1)!r}\\neps = 1.0\\n"
        "[optimizer]\\noptimizer = cubic\\n")
    loaded["cli_code"] = hardsum.cli.main(
        ["run", "--config", str(config), "--seed", "1",
         "--out", str(Path(tmp) / "run.jsonl"), "--quiet"])
loaded["cli_run"] = scipy_modules()
print(json.dumps(loaded))
"""


def _loaded() -> dict:
    out = subprocess.run([sys.executable, "-c", SCRIPT], cwd=SRC,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


def test_no_scipy_module_loads():
    loaded = _loaded()
    assert loaded["steps"] > 0
    assert loaded["checks"] and "failed" not in loaded["checks"]
    assert loaded["cli_code"] == 0
    for stage in ("import", "svrc_run", "phi", "run_battery", "cli_run"):
        assert loaded[stage] == [], stage
