"""The benchmark's correctness gates pass on op 0 of the two metered
workloads, so a schedule or accounting slip fails here without a bench run.

``bench/workloads.py`` is loaded unedited.  Its gates check the ledger's
closed forms for SVRC, and for the adversary game the certificate, the
2 n (K + 2) = 176 query budget and a byte-identical re-run of op 0.
"""
import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
SEED = 1


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_gated(workload_cls, tmp_path):
    workload = workload_cls(SEED, tmp_path)
    result = workload.op(0)
    problems, _ = workload.check(0, result)
    assert problems == []
    assert workload.finish() == {}
    # the same output fails a gate that expects one query too many
    broken = workload_cls(SEED, tmp_path, broken_gate=True)
    assert broken.check(0, result)[0]
    return workload


def test_svrc_synthetic_op0_passes_its_gate(workloads, tmp_path):
    workload = _run_gated(workloads.SvrcSynthetic, tmp_path)
    assert workload.expected["total"] == 256 + 4 * (2 * 423 + 741185)


def test_adversary_cubic_op0_passes_its_gate(workloads, tmp_path):
    workload = _run_gated(workloads.AdversaryCubic, tmp_path)
    assert workload.expected_total == 176
