import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from hardsum.chains import Derivatives
from hardsum.linalg import rel_err
from hardsum.oracle import CallableFiniteSum

# deterministic, CI-friendly hypothesis defaults
settings.register_profile(
    "suite", max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def same_bits(a, b) -> bool:
    """Equal shapes and bytes (so -0.0 and 0.0 differ), or both None."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_answer(a: Derivatives, b: Derivatives) -> bool:
    """Equal bits in value, gradient and Hessian."""
    return all(map(same_bits, (a.value, a.grad, a.hess),
                   (b.value, b.grad, b.hess)))


def assert_shapes(der: Derivatives, lead: tuple, d: int, order: int):
    """Shapes lead, lead + (d,), lead + (d, d) up to ``order``; one point's
    value is a float."""
    assert lead or isinstance(der.value, float)
    for part, tail in zip((der.value, der.grad, der.hess),
                          ((), (d,), (d, d))):
        assert (part is None) == (len(tail) > order)
        assert part is None or np.shape(part) == lead + tail


def assert_rows(stack: Derivatives, answers: list, tol: float = 0.0):
    """Each row of a stacked answer against the one-point answer in its place:
    values bit for bit, derivatives bit for bit or to ``tol`` relative."""
    for k, one in enumerate(answers):
        assert same_bits(stack.value[k], one.value)
        for a, b in ((stack.grad, one.grad), (stack.hess, one.hess)):
            assert (a is None) == (b is None)
            assert b is None or (same_bits(a[k], b) if tol == 0.0
                                 else rel_err(b, a[k]) <= tol)


def chain_points(F, rng, P):
    """P points of a resisting oracle's game spread along its committed
    directions, where every chain term of the current game can be active."""
    V = F.directions
    return (F.spec.sigma * rng.uniform(-2.0, 2.0, (P, V.shape[1])) @ V.T
            + 0.1 * rng.standard_normal((P, F.d)))


def good_and_short(d=3, n=2):
    """Component 0 is 0.5 |x|^2; every other component answers a gradient of
    shape (1,) and a Hessian of shape (1, 1), which numpy would broadcast."""
    def good(x, order=2):
        return Derivatives(0.5 * float(x @ x), x.copy() if order >= 1 else None,
                           np.eye(x.size) if order >= 2 else None)

    def short(x, order=2):
        return Derivatives(1.0, np.ones(1) if order >= 1 else None,
                           np.ones((1, 1)) if order >= 2 else None)

    return CallableFiniteSum([good] + [short] * (n - 1), d=d)


def counted_forks(monkeypatch, cpus: int = 2) -> list:
    """``cpus`` usable CPUs, and an ``os.fork`` that records the caller's
    process id in the returned list at each call."""
    calls, fork = [], os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counted)
    return calls


def no_child_left():
    """No child process of this one is left, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: verdict lines recorded by the acceptance tests, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
