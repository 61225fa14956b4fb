"""The benchmark's three workloads, driven through hardsum's public API.

Every workload is a fixed list of ops: op ``i`` of a run with seed ``s``
uses seed ``s + i``, and the warm-up uses a seed outside that list.  Each
workload also owns its correctness gate: :meth:`check` returns the problems
found in one op's output (an empty list means the op passed) plus counters
for the traced run, and :meth:`finish` runs end-of-run checks.

Package functions are looked up as attributes at call time
(``hardsum.svrc_run``), so the traced run's wrappers see these calls too.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np

import hardsum
import hardsum.cli
import hardsum.verify

#: added to the run seed for the warm-up op, so warm-up never runs a timed op
WARM_UP_SEED_OFFSET = 1_000_000


class Workload:
    name: str
    #: seconds per op on the reference machine; fixes the op count of a run
    #: from ``--seconds`` so that parent and change run the same op list
    nominal_op_s: float
    min_ops = 2

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def op_count(self, seconds: float) -> int:
        return max(self.min_ops, round(seconds / self.nominal_op_s))

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> tuple[list[str], dict[str, float]]:
        raise NotImplementedError

    def finish(self) -> dict[int, list[str]]:
        return {}


class SvrcSynthetic(Workload):
    """One op: ``svrc_run`` on a fresh ``quadratic_cosine_sum(256, 20)``
    under the acceptance-08 theory schedule."""

    name = "svrc-synthetic"
    nominal_op_s = 0.25
    N, D = 256, 20
    SCHEDULE = {"S": 1, "T": 4, "b_g": 423, "b_h": 741185, "M": 900.0}

    def __init__(self, seed, workdir, broken_gate=False):
        super().__init__(seed, workdir)
        self.params = hardsum.svrc_default_params(
            n=self.N, d=self.D, Delta=0.005, L2=6.0, eps=1e7)
        got = {k: getattr(self.params, k) for k in self.SCHEDULE}
        if got != self.SCHEDULE:
            raise RuntimeError(f"svrc schedule {got} differs from the "
                               f"benchmark's input size {self.SCHEDULE}")
        S, T, b_g, b_h = (self.SCHEDULE[k] for k in ("S", "T", "b_g", "b_h"))
        self.expected = {
            "total": S * self.N + S * T * (2 * b_g + b_h) + int(broken_gate),
            "adjusted_total": S * self.N + S * T * (b_g + b_h),
            "cache_hits": S * T * b_h,
        }
        self.rows = S * T

    def _run(self, seed: int):
        F = hardsum.quadratic_cosine_sum(self.N, self.D, seed=seed)
        ledger = hardsum.OracleLedger(n=self.N)
        x_out, trajectory = hardsum.svrc_run(
            F, dataclasses.replace(self.params, seed=seed),
            x0=np.zeros(self.D), ledger=ledger)
        return ledger.counters(), x_out, trajectory

    def warm_up(self):
        self._run(self.seed + WARM_UP_SEED_OFFSET)

    def op(self, i):
        return self._run(self.seed + i)

    def check(self, i, result):
        counters, x_out, trajectory = result
        problems = [f"ledger {key} = {counters[key]}, expected {want}"
                    for key, want in self.expected.items()
                    if counters[key] != want]
        if len(trajectory) != self.rows:
            problems.append(f"trajectory has {len(trajectory)} rows, "
                            f"expected {self.rows}")
        if not np.all(np.isfinite(x_out)):
            problems.append("x_out is not finite")
        return problems, {}


class AdversaryCubic(Workload):
    """One op: ``hardsum run`` of the cubic baseline against the resisting
    oracle (deterministic mode, p=1, n=4, K=20, d=197), through the CLI
    entry point, ending with ``finalize`` and the certificate."""

    name = "adversary-cubic"
    nominal_op_s = 0.25
    P, N, DELTA, EPS = 1, 4, 4040.0, 1.0
    K, D = 20, 197

    def __init__(self, seed, workdir, broken_gate=False):
        super().__init__(seed, workdir)
        spec = hardsum.deterministic_params(self.P, self.N, self.DELTA,
                                            hardsum.ell_p(self.P), self.EPS)
        if (spec.K, spec.d) != (self.K, self.D):
            raise RuntimeError(f"adversary has K={spec.K}, d={spec.d}; the "
                               f"benchmark's input size is K={self.K}, "
                               f"d={self.D}")
        # the CLI's default budget: 2 n (K + 2) queries
        self.expected_total = 2 * self.N * (self.K + 2) + int(broken_gate)
        self.config = workdir / "adversary-cubic.ini"
        self.config.write_text(
            "[instance]\n"
            "mode = deterministic\n"
            f"p = {self.P}\n"
            f"n = {self.N}\n"
            f"delta = {self.DELTA!r}\n"
            f"L = {hardsum.ell_p(self.P)!r}\n"
            f"eps = {self.EPS!r}\n"
            "[optimizer]\n"
            "optimizer = cubic\n", encoding="utf-8")
        self.out = workdir / "adversary-cubic.jsonl"
        self.first_output: bytes | None = None

    def _run(self, seed: int, out) -> int:
        return hardsum.cli.main(["run", "--config", str(self.config),
                                 "--seed", str(seed), "--out", str(out),
                                 "--quiet"])

    def warm_up(self):
        self._run(self.seed + WARM_UP_SEED_OFFSET, self.out)

    def op(self, i):
        return self._run(self.seed + i, self.out)

    def check(self, i, code):
        data = self.out.read_bytes()
        if i == 0:
            self.first_output = data
        problems = [] if code == 0 else [f"exit code {code}"]
        summary = json.loads(data.splitlines()[-1])["summary"]
        if summary.get("certificate", {}).get("passed") is not True:
            problems.append("certificate did not pass")
        if summary.get("final_first_hit") is not None:
            problems.append(f"final_first_hit = {summary['final_first_hit']}")
        total = summary["totals"]["total"]
        if total != self.expected_total:
            problems.append(f"totals.total = {total}, "
                            f"expected {self.expected_total}")
        return problems, {"cli.jsonl_bytes": len(data)}

    def finish(self):
        """Re-run op 0's seed; its output must repeat byte for byte."""
        if self.first_output is None:
            return {}
        rerun = self.workdir / "adversary-cubic.rerun.jsonl"
        code = self._run(self.seed, rerun)
        if code != 0 or rerun.read_bytes() != self.first_output:
            return {0: [f"re-run of seed {self.seed} is not byte-identical"]}
        return {}


class VerifyBattery(Workload):
    """One op: ``run_battery(seed=s)`` at the README ``[verify]`` defaults,
    which is what ``hardsum verify`` runs."""

    name = "verify-battery"
    nominal_op_s = 5.0
    CHECKS = ("check_derivatives", "check_derivatives_chain",
              "check_derivatives_composite", "check_zero_chain_K2",
              "check_zero_chain_K4", "check_zero_chain_K8",
              "smoothness_power_mean", "estimator_bounds", "large_gradient",
              "suboptimality")

    def __init__(self, seed, workdir, broken_gate=False):
        super().__init__(seed, workdir)
        self.expected = self.CHECKS + (("unlisted_check",) if broken_gate
                                       else ())

    def warm_up(self):
        # the lru_cached smoothness probe, then the cheap checks at tiny
        # sizes; the estimator-bound and multistart checks are skipped
        # because their warm-up cost (at least 1000 trials, a seed-dependent
        # number of descent steps) would swamp and scatter setup_s
        hardsum.verify.default_ell_hat(2)
        hardsum.verify.run_battery(num_points=1, zero_chain_samples=10,
                                   pairs=6, trials=0, starts=0,
                                   seed=self.seed + WARM_UP_SEED_OFFSET)

    def op(self, i):
        return hardsum.verify.run_battery(seed=self.seed + i)

    def check(self, i, checks):
        names = tuple(c.name for c in checks)
        not_passed = [c.name for c in checks if c.status != "passed"]
        problems = []
        if names != self.expected:
            problems.append(f"checks {names}, expected {self.expected}")
        if not_passed:
            problems.append("not passed: " + ", ".join(not_passed))
        return problems, {"verify.checks_failed": len(not_passed)}


WORKLOADS = {w.name: w for w in (SvrcSynthetic, AdversaryCubic, VerifyBattery)}
