"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed changes by up
to about 1.7x every few seconds, as other tenants load it, and whose share
of slow time drifts over minutes.  A timing taken alone then says as much
about the neighbours as about hardsum.
The benchmark therefore times this kernel around every op, and during the
op on an interval timer, and scales each timing to the host's quiet speed:

    scaled seconds = measured seconds * mean(QUIET_S / kernel seconds)

over the kernel passes from the one before the op to the one after it.  The
host's speed changes every few seconds, so ops that take seconds need the
passes taken during them; the timer's passes are subtracted from the op's
measured seconds.

The kernel mixes the three kinds of work hardsum's layers do: interpreted
Python calls, many small numpy calls, and one LAPACK symmetric
eigendecomposition.  It never imports hardsum, so a change to the package
cannot change the yardstick.  Raw seconds are reported next to the scaled
ones.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: the kernel's time in the fast mode of a 2.1 GHz Xeon vCPU with one BLAS
#: thread (5th percentile of 2260 passes); scaled seconds are seconds there
QUIET_S = 0.0061


class _Counter:
    def __init__(self, step: float):
        self.step = step

    def next(self, x: float) -> float:
        return self.step * x + 1.0


class ReferenceKernel:
    """Fixed inputs built once; :meth:`seconds` times one pass over them."""

    PY_ROUNDS = 400
    NUMPY_CALLS = 600
    EIG_DIM = 197

    def __init__(self):
        rng = np.random.default_rng(20210309)
        self._objects = [_Counter(float(k)) for k in range(50)]
        self._vector = rng.standard_normal(20)
        self._matrix = rng.standard_normal((20, 20))
        sym = rng.standard_normal((self.EIG_DIM, self.EIG_DIM))
        self._sym = sym + sym.T
        self.seconds()  # first pass loads LAPACK and fills caches

    def _work(self) -> float:
        total = 0.0
        for _ in range(self.PY_ROUNDS):
            for obj in self._objects:
                total += obj.next(0.5)
        for _ in range(self.NUMPY_CALLS):
            total += float(np.cos(self._matrix @ self._vector).sum())
        total += float(np.linalg.eigh(self._sym)[0][0])
        return total

    def seconds(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def factor(self, kernel_seconds: float) -> float:
        """Multiplier from measured seconds to quiet-host seconds."""
        return QUIET_S / kernel_seconds


class HostSampler:
    """Kernel passes taken between ops and, on a timer, during them."""

    def __init__(self, kernel: ReferenceKernel, interval_s: float):
        self.kernel = kernel
        self.interval_s = interval_s
        self.factors: list[float] = []
        #: seconds the timer's passes took out of the ops they interrupted
        self.stolen_s = 0.0

    def sample(self) -> None:
        self.factors.append(self.kernel.factor(self.kernel.seconds()))

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.stolen_s += time.perf_counter() - start

    @contextmanager
    def during(self):
        """Sample every ``interval_s`` seconds of wall time until exit."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def mean_factor(self, since: int) -> float:
        """Mean multiplier over the passes from index ``since`` on."""
        return statistics.fmean(self.factors[since:])
