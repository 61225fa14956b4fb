"""In-memory span tracing of hardsum's public entry points, from outside.

A :class:`Tracer` wraps the package's public functions and methods while a
traced op runs and restores the originals afterwards, so untraced ops run the
unmodified package.  hardsum modules import each other's functions by name
(``from .oracle import query``), so a function is wrapped at *every* module
attribute of the package that refers to it, not only where it is defined.

Each span records its name, start, end, parent span and op id in flat arrays;
nothing is written until :meth:`Tracer.save` at the end of a run.  A span's
self time is its duration minus the time covered by its direct children;
its total time is the whole duration.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: root span opened around every traced op; its self time is the share of
#: the op that no layer span covers
OP_SPAN = "bench.op"
#: root span around the traced warm-up (op id -1)
SETUP_SPAN = "bench.setup"

#: (span name, defining module, function name)
FUNCTIONS = [
    ("linalg.sym_matrix", "hardsum.linalg", "sym_matrix"),
    ("linalg.eig_sym", "hardsum.linalg", "eig_sym"),
    ("linalg.finite_diff_gradient", "hardsum.linalg", "finite_diff_gradient"),
    ("linalg.finite_diff_jacobian", "hardsum.linalg", "finite_diff_jacobian"),
    ("chains.chain_eval", "hardsum.chains", "chain_eval"),
    ("chains.hat_f_eval", "hardsum.chains", "hat_f_eval"),
    ("chains.soft_clamp", "hardsum.chains", "soft_clamp"),
    ("oracle.query", "hardsum.oracle", "query"),
    ("oracle.quadratic_cosine_sum", "hardsum.oracle", "quadratic_cosine_sum"),
    ("cubic.solve", "hardsum.cubic", "solve"),
    ("optim.svrc_gradient_estimator", "hardsum.optim",
     "svrc_gradient_estimator"),
    ("optim.svrc_hessian_estimator", "hardsum.optim",
     "svrc_hessian_estimator"),
    ("optim.svrc_run", "hardsum.optim", "svrc_run"),
    ("optim.baseline_full_cubic", "hardsum.optim", "baseline_full_cubic"),
    ("optim.mu", "hardsum.optim", "mu"),
    ("instances.params.deterministic_params", "hardsum.instances.params",
     "deterministic_params"),
    ("instances.params.randomized_params", "hardsum.instances.params",
     "randomized_params"),
    ("instances.randomized.sample_randomized_instance",
     "hardsum.instances.randomized", "sample_randomized_instance"),
    ("verify.check_derivatives", "hardsum.verify", "check_derivatives"),
    ("verify.check_zero_chain", "hardsum.verify", "check_zero_chain"),
    ("verify.estimate_smoothness", "hardsum.verify", "estimate_smoothness"),
    ("verify.verify_estimator_bounds", "hardsum.verify",
     "verify_estimator_bounds"),
    ("verify.verify_large_gradient", "hardsum.verify",
     "verify_large_gradient"),
    ("verify.verify_suboptimality", "hardsum.verify", "verify_suboptimality"),
    ("verify.default_ell_hat", "hardsum.verify", "default_ell_hat"),
    ("cli.cmd_run", "hardsum.cli.main", "cmd_run"),
]

#: (span name, defining module, class, method)
METHODS = [
    ("oracle.callable.component", "hardsum.oracle", "CallableFiniteSum",
     "component"),
    ("oracle.full", "hardsum.oracle", "FiniteSumFunction", "full"),
    ("oracle.full", "hardsum.instances.resisting", "ResistingOracle", "full"),
    ("instances.randomized.component", "hardsum.instances.randomized",
     "RandomizedHardInstance", "component"),
    ("instances.resisting.component", "hardsum.instances.resisting",
     "ResistingOracle", "component"),
    ("instances.resisting.certificate", "hardsum.instances.resisting",
     "ResistingOracle", "certificate"),
    ("oracle.record_cache_hit", "hardsum.oracle", "OracleLedger",
     "record_cache_hit"),
]

#: spans whose sum is reported as ``oracle.component`` (every
#: FiniteSumFunction.component override)
COMPONENT_SPANS = ("oracle.callable.component", "instances.randomized.component",
                   "instances.resisting.component")

SPAN_NAMES = sorted({name for name, *_ in FUNCTIONS + METHODS}
                    - set(COMPONENT_SPANS)) + ["oracle.component"]

#: counters summed over traced ops, with their units
COUNTERS = {
    "oracle.charged_queries": "count/op",
    "oracle.requeries": "count/op",
    "oracle.cache_hits": "count/op",
    "oracle.hess_bytes_computed": "B/op",
    "oracle.grad_bytes_computed": "B/op",
    "linalg.eig_sym.flops_computed": "flop/op",
    "cubic.solve.failures": "count/op",
    "instances.resisting.archived": "count/op",
    "verify.checks_failed": "count/op",
    "cli.jsonl_bytes": "B/op",
}


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _query_hook(counts, args, kwargs, der):
    # query(ledger, F, i, x, order=2, *, count=1, requery=False)
    count = int(kwargs.get("count", 1))
    counts["oracle.charged_queries"] += count
    if kwargs.get("requery", False):
        counts["oracle.requeries"] += count
    d = args[1].d
    if der.grad is not None:
        counts["oracle.grad_bytes_computed"] += 8 * d
    if der.hess is not None:
        counts["oracle.hess_bytes_computed"] += 8 * d * d


def _cache_hit_hook(counts, args, kwargs, _):
    # OracleLedger.record_cache_hit(self, count=1)
    counts["oracle.cache_hits"] += int(_arg(args, kwargs, 1, "count", 1))


def _eig_hook(counts, args, kwargs, _):
    # symmetric eigendecomposition costs about 9 d^3 flops
    d = np.shape(_arg(args, kwargs, 0, "A", None))[0]
    counts["linalg.eig_sym.flops_computed"] += 9 * d ** 3


def _certificate_hook(counts, args, kwargs, cert):
    counts["instances.resisting.archived"] += cert.num_queries


HOOKS = {
    "oracle.query": _query_hook,
    "linalg.eig_sym": _eig_hook,
    "instances.resisting.certificate": _certificate_hook,
    "oracle.record_cache_hit": _cache_hit_hook,
}


class Tracer:
    """Span recorder plus the table of patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self._patches = self._build_patches()

    # -- recording ---------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        counts = self.counts
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                self._close(sid)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return functools.wraps(fn)(traced)

    # -- patching ------------------------------------------------------------
    def _build_patches(self):
        """(owner, attribute, original, wrapper) for every binding."""
        package = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "hardsum"
                                         or key.startswith("hardsum."))]
        patches = []
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, HOOKS.get(name))
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original, wrapper))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original,
                            self._wrap(name, original, HOOKS.get(name))))
        return patches

    @contextmanager
    def active(self, op_id: int, root: str = OP_SPAN):
        """Patch the package, open a root span, restore on exit."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._op = op_id
        sid = self._open(self._name_id(root))
        try:
            yield
        finally:
            self._close(sid)
            self._op = -1
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def reset_counters(self) -> None:
        """Drop counts so far (those of the traced warm-up)."""
        self.counts.clear()
        self.raised.clear()

    # -- reporting -------------------------------------------------------------
    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name, parent, op, start, end

    def _self_times(self):
        """(name id, op id, duration, self seconds) for every span."""
        name, parent, op, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return name, op, dur, dur - covered

    def _per_name(self, keep_ops) -> dict[str, tuple[int, float, float]]:
        """Calls, summed self time and summed duration per span name, over
        the spans whose op id passes the ``keep_ops`` array predicate."""
        name, op, dur, self_s = self._self_times()
        keep = keep_ops(op)
        size = len(self.names)
        calls = np.bincount(name[keep], minlength=size)
        busy = np.bincount(name[keep], weights=self_s[keep], minlength=size)
        total = np.bincount(name[keep], weights=dur[keep], minlength=size)
        return {n: (int(calls[k]), float(busy[k]), float(total[k]))
                for k, n in enumerate(self.names)}

    def layer_metrics(self, num_ops: int) -> dict[str, tuple[float, str]]:
        """Per-op means of calls, self time, duration and counters over
        traced ops, plus the traced warm-up's time in ``default_ell_hat``."""
        per_name = self._per_name(lambda op: op >= 0)
        spans = sum(c for c, _, _ in per_name.values())
        none = (0, 0.0, 0.0)
        per_name["oracle.component"] = tuple(
            sum(per_name.get(n, none)[j] for n in COMPONENT_SPANS)
            for j in range(3))
        out = {}
        for n in SPAN_NAMES:
            c, s, t = per_name.get(n, none)
            out[f"{n}.calls"] = (c / num_ops, "count/op")
            out[f"{n}.self_s"] = (s / num_ops, "s/op")
            out[f"{n}.total_s"] = (t / num_ops, "s/op")
        counts = dict(self.counts)
        counts["cubic.solve.failures"] = self.raised.get("cubic.solve", 0)
        for n, unit in COUNTERS.items():
            out[n] = (counts.get(n, 0) / num_ops, unit)
        charged = counts.get("oracle.charged_queries", 0)
        queries = per_name.get("oracle.query", none)[0]
        out["oracle.evals_per_charged"] = (
            queries / charged if charged else 0.0, "ratio")
        out["trace.spans"] = (spans / num_ops, "count/op")
        setup = self._per_name(lambda op: op < 0)
        out["verify.default_ell_hat.setup_s"] = (
            setup.get("verify.default_ell_hat", none)[2], "s")
        return out

    def uncovered_shares(self) -> list[float]:
        """Per traced op: the share of its time that no layer span covers."""
        name, _, dur, self_s = self._self_times()
        root = name == self._ids[OP_SPAN]
        return list(self_s[root] / dur[root])

    def save(self, path) -> None:
        name, parent, op, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 op=op, start=start, end=end)
