"""The benchmark's span tracer still finds every binding it patches, and its
spans and ledger counters read what a small SVRC run, a small adversary
game, the estimator-bound cross-check and a small battery actually did."""
import importlib
import importlib.util
from pathlib import Path

import pytest

import hardsum
import hardsum.cli  # noqa: F401  (the tracer patches hardsum.cli.main)
from hardsum.instances import deterministic_params, ell_p
from hardsum.oracle import OracleLedger
from hardsum.optim import C_M, SvrcParams
from hardsum.verify import run_battery, verify_estimator_bounds

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

TOUCHED_SPANS = ("oracle.query", "optim.svrc_run",
                 "optim.svrc_gradient_estimator",
                 "optim.svrc_hessian_estimator", "optim.baseline_full_cubic",
                 "oracle.full", "optim.mu", "linalg.eig_sym", "cubic.solve",
                 "instances.resisting.certificate")


@pytest.fixture(scope="module")
def tracing():
    importlib.import_module("hardsum.cli.main")
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_builds_every_patch(tracing):
    # raises if a listed function or method is no longer defined where the
    # tracer looks for it
    tracer = tracing.Tracer()
    assert len(tracer._patches) >= len(tracing.FUNCTIONS) + len(tracing.METHODS)


def test_traced_runs_touch_every_layer(tracing):
    tracer = tracing.Tracer()
    ledgers = []
    with tracer.active(0):
        # package functions are looked up at call time, so the patched
        # bindings are the ones that run
        F = hardsum.quadratic_cosine_sum(6, 4, seed=1)
        params = SvrcParams(M=15.0, b_g=4, b_h=9, S=1, T=2, eps=1e-4,
                            Delta=10.0, L2=0.1, seed=0)
        ledgers.append(OracleLedger(n=F.n))
        hardsum.svrc_run(F, params, ledger=ledgers[-1])

        L = ell_p(1)
        spec = deterministic_params(1, 4, 960.0, L, 1.0)
        adversary = hardsum.ResistingOracle(spec, seed=0)
        ledgers.append(OracleLedger(n=spec.n, eps=1.0))
        hardsum.baseline_full_cubic(adversary, C_M * L, 2 * spec.n * (spec.K + 2),
                                    ledger=ledgers[-1], L2=L)
        adversary.finalize()
        assert adversary.certificate().passed

    metrics = tracer.layer_metrics(num_ops=1)
    for name in TOUCHED_SPANS:
        assert metrics[f"{name}.calls"][0] > 0, name
    for counter, key in (("oracle.charged_queries", "total"),
                         ("oracle.requeries", "requeries"),
                         ("oracle.cache_hits", "cache_hits")):
        want = sum(led.counters()[key] for led in ledgers)
        assert metrics[counter][0] == want, counter
    # untraced calls after the context exits run the original functions
    assert hardsum.svrc_run.__module__ == "hardsum.optim"
    assert not hasattr(hardsum.svrc_run, "__wrapped__")


def test_traced_cross_check_counters(tracing):
    # 8 metered trials, each with b_g = 8 charges at x, 8 charged snapshot
    # re-reads and b_h = 32 Hessians at x whose snapshot reads are cache hits
    params = SvrcParams(M=1.0, b_g=8, b_h=32, S=1, T=1, eps=1.0, Delta=1.0,
                        L2=1.0)
    tracer = tracing.Tracer()
    with tracer.active(0):
        verify_estimator_bounds(hardsum.quadratic_cosine_sum(16, 5, seed=1),
                                [0.5, -1, 0, 2, 1], [0.9, -0.6, 0.4, 2.4, 1.4],
                                params, trials=1000, L2_hat=2.0)
    metrics = tracer.layer_metrics(num_ops=1)
    assert [metrics[f"oracle.{name}"][0] for name in (
        "charged_queries", "requeries", "cache_hits")] == [384, 64, 256]


def test_a_traced_battery_counts_its_cross_checks_charges(tracing):
    # the battery's one charging check runs in the calling process, so the
    # tracer reads its closed form: 8 metered trials of b_g = 16 charges at
    # x, 16 charged snapshot re-reads and b_h = 64 Hessians at x whose
    # snapshot reads are cache hits, 8 (2 b_g + b_h) charges in all
    b_g, b_h = 16, 64
    tracer = tracing.Tracer()
    with pytest.warns(UserWarning), tracer.active(0):
        checks = run_battery(num_points=1, zero_chain_samples=2, pairs=2,
                             trials=1, starts=2)
    assert all(c.status == "passed" for c in checks)
    metrics = tracer.layer_metrics(num_ops=1)
    assert [metrics[f"oracle.{name}"][0] for name in (
        "charged_queries", "requeries", "cache_hits")] == [
        8 * (2 * b_g + b_h), 8 * b_g, 8 * b_h]
