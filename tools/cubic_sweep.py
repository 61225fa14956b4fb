"""Print the cubic solver's seeded robustness sweep.

    python tools/cubic_sweep.py [ROOT]

ROOT is a checkout of the repository (default: the one holding this file);
the sweep solves with ROOT's ``hardsum``.  For each range R in (150, 300),
3,000 models are drawn by :func:`_model_at_scales` from a fresh
``default_rng(12345)``: a seed, d from 2 to 8, dense or factored U, and
|v| and M in 10^[-R, R].  Each is solved with warnings as errors.

Prints one line per range: the count of each outcome, ``certified`` or the
refusal's message with its numbers written ``#``, most frequent first, and
the first 16 hex digits of the sha256 of the certified steps' bytes, in
draw order.  Two trees that print the same lines certify the same models
with the same bits and refuse the rest alike.
"""
from __future__ import annotations

import hashlib
import re
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

RANGES = (150, 300)
MODELS = 3000
SEED = 12345

#: a number inside a refusal's message
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _model_at_scales(seed, d, factored, log_v, log_m):
    """A model with |v| = 10^log_v, M = 10^log_m and an N(0, 1) spectrum:
    U dense, or factored as V S V^T with V of rank 1 to d."""
    # imported on use: main puts ROOT's src first on the path
    from hardsum.cubic import CubicModel
    from hardsum.linalg import _Factored, sample_orthonormal_columns

    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, d + 1)) if factored else d
    R = sample_orthonormal_columns(k, k, seed=rng).columns
    S = (R * rng.standard_normal(k)) @ R.T
    v = rng.standard_normal(d)
    v *= 10.0 ** log_v / np.linalg.norm(v)
    U = (_Factored(sample_orthonormal_columns(d, k, seed=rng).columns, S)
         if factored else S)
    return CubicModel(v=v, U=U, M=10.0 ** log_m)


def sweep(scale: int) -> tuple[Counter, str]:
    """The outcome counts and the certified steps' digest at 10^±scale."""
    from hardsum.cubic import solve

    rng = np.random.default_rng(SEED)
    outcomes, digest = Counter(), hashlib.sha256()
    for _ in range(MODELS):
        args = (int(rng.integers(0, 2 ** 32)), int(rng.integers(2, 9)),
                bool(rng.integers(0, 2)), float(rng.uniform(-scale, scale)),
                float(rng.uniform(-scale, scale)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sol = solve(_model_at_scales(*args))
            except (ArithmeticError, np.linalg.LinAlgError, Warning) as err:
                outcomes[NUMBER.sub("#", str(err))] += 1
                continue
        outcomes["certified"] += 1
        digest.update(sol.h.tobytes())
    return outcomes, digest.hexdigest()[:16]


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    for scale in RANGES:
        outcomes, digest = sweep(scale)
        counts = ", ".join(f"{count} {label!r}" for label, count in
                           sorted(outcomes.items(),
                                  key=lambda item: (-item[1], item[0])))
        print(f"10^±{scale}: {counts}; steps sha256 {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
