#!/usr/bin/env python3
"""Shows that the correctness gate is not vacuous.

Runs every workload briefly with ``--break-gate``, which makes each gate
expect an off-by-one answer (one extra ledger query, 177 adversary queries
instead of 176, an eleventh battery check).  Every op must then fail: the
run must print ``"correct": false`` with ``failed == attempted`` and exit
with a non-zero code.  Run from the repository root:

    python3 bench/selfcheck.py

Exits 0 when every workload's gate caught the wrong expectation.
"""
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("svrc-synthetic", "adversary-cubic", "verify-battery")


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--break-gate"],
            capture_output=True, text=True, timeout=170)
        result = json.loads(proc.stdout.splitlines()[-1])
        caught = (proc.returncode != 0 and result["correct"] is False
                  and result["failed"] == result["attempted"] > 0)
        ok &= caught
        print(f"{workload}: exit {proc.returncode}, correct "
              f"{result['correct']}, failed_frac "
              f"{result['failed']}/{result['attempted']} -> "
              f"{'gate caught it' if caught else 'GATE MISSED IT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
