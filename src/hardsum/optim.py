"""Variance-reduced cubic regularization (SVRC) and full-information baselines.

The SVRC loop runs S epochs of T steps.  Each epoch anchors at a snapshot
where the exact full gradient and Hessian are computed (and every component's
answer at the snapshot is kept); each step builds semi-stochastic estimators
of the gradient and Hessian from fresh i.i.d. batches, then moves by the
global minimizer of the cubic-regularized second-order model.

Oracle accounting follows the "charge every access, then credit snapshot
re-reads" convention: the ledger's raw total for a full run is
S*n + S*T*(b_g + b_h) + S*T*b_g, and its adjusted total (re-reads credited)
is S*n + S*T*(b_g + b_h).  Hessian-estimator reads at the snapshot are served
from the snapshot cache and recorded as zero-cost cache hits; the gradient
estimator's snapshot re-reads are served from the same cache but charged.

Every SVRC pass asks for each (point, order) once, as a stack of
components (``F.components``; :func:`~hardsum.oracle.quadratic_cosine_sum`
answers a step's estimators from the previous step's measurement at the
same point), and checks it as it is built with the check
``query`` makes of one answer (shapes, finite values and gradients,
symmetric Hessians).  The estimators work on the stacks; what is left per
row is the charge, one ``query`` per distinct drawn index in index order,
through a read-only view of the checked stack, which the snapshot pass
keeps for the epoch.  A baseline pass evaluates and checks all of its rows,
one at a time, before it charges any of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._fork import streamed
from .chains import Derivatives
from .cubic import CubicModel, _check_penalty, solve
from .instances.params import _check_positive, _real_count
from .linalg import (_lambda_min, _norm, _shifted_pd, as_vector, row_matvec,
                     sym_matrix)
from .oracle import (FiniteSumFunction, OracleLedger, _check_ledger, _count,
                     _Evaluated, _indices, _integer, mean_derivatives, query,
                     record_iterate)

__all__ = [
    "C_M",
    "SvrcParams",
    "TrajectoryRecord",
    "svrc_default_params",
    "svrc_gradient_estimator",
    "svrc_hessian_estimator",
    "svrc_run",
    "mu",
    "baseline_full_gd",
    "baseline_full_cubic",
]

#: cubic regularization strength in units of the Hessian-smoothness constant
C_M = 150.0


def _iceil(x: float) -> int:
    """Ceil with a guard against float noise pushing exact integers up."""
    return int(math.ceil(x - 1e-9 * max(1.0, abs(x))))


@dataclass(frozen=True)
class SvrcParams:
    """Schedule and batch sizes for one SVRC run."""

    M: float
    b_g: int
    b_h: int
    S: int
    T: int
    eps: float
    Delta: float
    L2: float
    seed: int = 0
    #: deterministic one-pass-over-all-n batches instead of i.i.d. sampling
    full_batch: bool = False

    def __post_init__(self):
        _check_penalty(self.M)
        # stored as Python ints: they size the draws, and the seed makes
        # svrc_run's generator default_rng's PCG64, which its draws read
        for name in ("b_g", "b_h", "S", "T", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.b_g < 1 or self.b_h < 1:
            raise ValueError("batch sizes must be at least 1")
        if self.S < 1 or self.T < 1:
            raise ValueError("S and T must be at least 1")
        if not (self.eps > 0 and self.Delta > 0):
            raise ValueError("eps and Delta must be positive")
        _check_l2(self.L2)

    def batch_sizes(self, n: int) -> tuple[int, int]:
        """(b_g, b_h) as drawn over n components: a full-batch schedule reads
        every index once, so both are n there."""
        return (n, n) if self.full_batch else (self.b_g, self.b_h)

    def step_cost(self, n: int) -> int:
        """Raw queries one step charges: b_g at x, b_g snapshot re-reads and
        b_h Hessians at x."""
        b_g, b_h = self.batch_sizes(n)
        return 2 * b_g + b_h


@dataclass(frozen=True)
class TrajectoryRecord:
    """One optimizer iteration: position stats plus cumulative query counts."""

    epoch: int
    step: int
    f: float
    grad_norm: float
    mu: float | None
    h_norm: float
    counters: dict = field(repr=False)


def svrc_default_params(n: int, d: int, Delta: float, L2: float,
                        eps: float, seed: int = 0) -> SvrcParams:
    """The theory schedule, with fractional counts rounded up.

    M = 150 L2;  T = max(2, n^(1/5));  S = max(1, 240 C_M^2 sqrt(L2) Delta
    n^(-1/5) eps^(-3/2));  b_g = 5 max(n^(4/5), 16);
    b_h = 3000 max(4, n^(2/5)) log^3 d.
    """
    n, d = _integer(n, "n"), _integer(d, "d")
    _check_positive(n=n, d=d, Delta=Delta, L2=L2, eps=eps)
    T = _iceil(max(2.0, float(n) ** 0.2))
    S = _iceil(max(1.0, _real_count("the epoch count S", lambda: (
        240.0 * C_M ** 2 * math.sqrt(L2) * Delta * float(n) ** -0.2
        * eps ** -1.5))))
    b_g = _iceil(5.0 * max(float(n) ** 0.8, 16.0))
    b_h = max(1, _iceil(3000.0 * max(4.0, float(n) ** 0.4)
                        * math.log(d) ** 3))
    return SvrcParams(M=150.0 * L2, b_g=b_g, b_h=b_h, S=S, T=T,
                      eps=eps, Delta=Delta, L2=L2, seed=seed)


def _draw_batches(params: SvrcParams, n: int, rng: np.random.Generator,
                  steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The (gradient, Hessian) batches of ``steps`` steps, shapes
    (steps, b_g) and (steps, b_h): views of one (steps, b_g + b_h)
    ``integers`` draw of i.i.d. uniform indices, or every index once per
    batch under a full-batch schedule.  numpy draws bounded 32-bit integers
    through the bit generator's buffered ``next_uint32``, so the rows are
    the values, and leave the state, of two draws per step, gradient batch
    first; a test pins this.  It serves the Monte-Carlo check
    (:func:`~hardsum.verify.verify_estimator_bounds`), whose blocks count
    every trial's row; :func:`svrc_run` draws through :func:`_draw_counts`
    instead."""
    b_g, _ = params.batch_sizes(n)
    draws = (np.tile(np.arange(n), (steps, 2)) if params.full_batch
             else rng.integers(0, n, size=(steps, params.b_g + params.b_h)))
    return draws[:, :b_g], draws[:, b_g:]


#: most indices one chunk of :func:`_drawn_counts` draws and counts: its
#: raw words (128 kB) and their 64-bit products (256 kB) stay in L2 between
#: the passes over them, where a whole batch's (8.9 MB at b_h = 741,185)
#: would stream through memory on each pass; rebuilt whole, the draw ran
#: slower than ``integers``
_DRAW_CHUNK = 1 << 15


class _Counts(NamedTuple):
    """A drawn batch as the draw count of every component 0..n-1 and the
    batch size, what :func:`_batch_counts` makes of an index batch."""

    counts: np.ndarray
    size: int


def _bounded_indices(u: np.ndarray, n: int,
                     products: np.ndarray) -> np.ndarray:
    """numpy's bounded draws below n, 2 <= n <= 2^32, from the 32-bit words
    u, in the uint64 buffer ``products``: Lemire's multiply-shift
    (u n) >> 32 of every word whose product's low half is not below
    (2^32 - n) mod n, which numpy drops for the next word."""
    idx = np.multiply(u, np.uint64(n), out=products[:u.size])
    threshold = (2 ** 32 - n) % n       # 0 for a power of two
    if threshold:
        # the products' low halves, as uint32 arithmetic wraps
        low = np.multiply(u, np.uint32(n))
        if low.min() < threshold:
            idx = idx[low >= threshold]
    return np.right_shift(idx, 32, out=idx)


def _drawn_counts(rng: np.random.Generator, n: int, size: int) -> _Counts:
    """``size`` i.i.d. uniform indices below n, counted: the counts of
    ``rng.integers(0, n, size=size)``, leaving the state it leaves.

    numpy draws an index below n >= 2 from the bit generator's
    ``next_uint32`` stream (:func:`_bounded_indices`).  PCG64 hands out
    each 64-bit word's low half and buffers its high half, so a chunk of
    ``random_raw`` words, both halves of each, is that stream, and is
    reduced and counted here, up to ``_DRAW_CHUNK`` indices at a time with
    one ``bincount`` each (so at n far above the chunk each chunk still
    costs O(n)); a chunk's order does not change its counts.  A buffered
    half-word left by an earlier draw, and the last one or two indices, go
    through ``integers`` itself, so the buffer is left as numpy leaves it.
    n = 1 draws nothing, as in numpy.  The stream is PCG64's
    (``default_rng``'s): another bit generator raises TypeError.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise TypeError("drawn counts read PCG64 words, got a "
                        f"{type(bitgen).__name__} generator")
    counts = np.zeros(n, dtype=np.intp)
    if n == 1:
        counts[0] = size
        return _Counts(counts, size)
    left = size
    while left and bitgen.state["has_uint32"]:
        counts[rng.integers(0, n)] += 1
        left -= 1
    products = np.empty(min(_DRAW_CHUNK, left), dtype=np.uint64)
    while left > 2:
        # at most left - 1 half-words, so that integers draws the last index
        u = bitgen.random_raw(min(_DRAW_CHUNK, left - 1) // 2).view(
            np.uint32)
        idx = _bounded_indices(u, n, products)
        counts += np.bincount(idx.view(np.int64), minlength=n)
        left -= idx.size
    if left:
        counts += np.bincount(rng.integers(0, n, size=left), minlength=n)
    return _Counts(counts, size)


def _draw_counts(params: SvrcParams, n: int, rng: np.random.Generator):
    """One step's gradient batch, then its Hessian batch, as draw counts,
    each drawn when it is asked for; ones under a full-batch schedule.
    Each batch is counted by :func:`_drawn_counts`, whose draws give the
    values, and leave the state, of ``_draw_batches(params, n, rng, 1)``
    (numpy keeps the buffered 32-bit word in the bit generator between
    calls), so the counts are those of its batches; tests pin this."""
    for size in params.batch_sizes(n):
        yield (_Counts(np.ones(n, dtype=np.intp), n) if params.full_batch
               else _drawn_counts(rng, n, size))


def _step_draws(params: SvrcParams, n: int):
    """Every step's gradient and Hessian batches as draw counts, in
    schedule order (:func:`_draw_counts`), each with the state its
    generator, ``default_rng(params.seed)``, is left in after it."""
    rng = np.random.default_rng(params.seed)
    for _ in range(params.S * params.T):
        for drawn in _draw_counts(params, n, rng):
            yield drawn, rng.bit_generator.state


def _fork_pays(params: SvrcParams, n: int, budget) -> bool:
    """Whether :func:`svrc_run`'s draws over n components, under a raw-query
    budget left (``math.inf`` for none), are worth a forked child: the steps
    draw i.i.d. batches, at least 2^16 indices a step, and the steps after
    the first that the schedule and the budget allow, whose draws the run
    need not wait for, at least 2^20 in all.  Below that the fork and the
    caller's copy-on-write faults cost more than the draws they move off
    it.  Paired runs on a 2-CPU host (n = 256, b_g = 423, S = 1): the fork
    lost at T = 1 up to b_h = 1,500,000; at T = 2 it lost at 524,288 and
    won at 741,185; at T = 4 it lost up to 260,000 and won from 400,000
    (broke even there at n = 1,024); at T = 8 it won from 150,000; at
    S = 25, T = 4 it lost at 30,000 and won at 65,000.  The benchmark's
    schedule with a budget of one step ran 2.1 times as long forked."""
    per_step, cost = params.b_g + params.b_h, params.step_cost(n)
    steps = params.S * params.T
    if budget < math.inf:
        # whole epochs, then the steps that fit after a last snapshot
        epochs, left = divmod(budget, n + params.T * cost)
        steps = min(steps, epochs * params.T + max(0, (left - n) // cost))
    return (not params.full_batch and per_step >= 1 << 16
            and (steps - 1) * per_step >= 1 << 20)


def _batch_counts(batch, n: int) -> _Counts:
    """Draw count of every component index 0..n-1 in a batch, and the batch
    size; a :class:`_Counts` record is returned as it is."""
    if isinstance(batch, _Counts):
        return batch
    idx = np.asarray(batch).ravel()
    if idx.size == 0:
        raise ValueError("batch must be non-empty")
    idx = _indices(idx, n).astype(int, copy=False)
    return _Counts(np.bincount(idx, minlength=n), idx.size)


def _weighted_rows(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_i w_i rows_i for weights (r,), or for each weight row of a
    stack (T, r): one unit-row product per weight row, the BLAS call the
    product of one weight vector makes, so a stack's rows equal the
    one-vector answers bit for bit."""
    return (w[..., None, :] @ rows)[..., 0, :]


def _gradient_estimate(counts, dG, Hdx, b, g_s, H_s, dx) -> np.ndarray:
    """v = sum_i (c_i/b) dG_i + g_s - (sum_i (c_i/b) Hdx_i - H_s dx) over
    rows drawn c_i times, with dG_i = grad f_i(x) - grad f_i(xh) and
    Hdx_i = hess f_i(xh) dx.  ``counts`` is (r,), or (T, r) for T
    estimates at once, shape (T, d)."""
    w = counts / b
    return _weighted_rows(w, dG) + g_s - (_weighted_rows(w, Hdx) - H_s @ dx)


def _hessian_estimate(counts, dH, b, H_s) -> np.ndarray:
    """U = sum_i (c_i/b) dH_i + H_s with dH_i = hess f_i(x) - hess f_i(xh).
    ``counts`` is (r,), or (T, r) for T estimates at once, shape
    (T, d, d)."""
    r, d, _ = dH.shape
    U = _weighted_rows(counts / b, dH.reshape(r, d * d))
    return U.reshape(U.shape[:-1] + (d, d)) + H_s


def _estimator_pass(ledger: OracleLedger, x, batch, order: int, snapshot):
    """The estimators' shared prologue: ``snapshot`` checked to be the
    snapshot pass's view (else TypeError) holding every component of its
    sum F in index order up to order 2 (else ValueError), the ledger
    checked to count F's components, x validated, the batch counted once.
    Returns (x, rows, their counts, b, the rows' index into the snapshot's
    stack, their view at x up to ``order``); the index is the slice of the
    whole stack, which reads it without a copy, when every row is drawn.
    Nothing is evaluated at x or charged before the checks."""
    if not isinstance(snapshot, _Evaluated):
        raise TypeError("snapshot must be the snapshot pass's answers, got "
                        f"{type(snapshot).__name__}")
    if not (snapshot.whole and snapshot._order == 2):
        raise ValueError("snapshot must hold every component, in index "
                         "order, up to order 2")
    F = snapshot.source
    _check_ledger(ledger, F)
    x = as_vector(x, dim=F.d)
    counts, b = _batch_counts(batch, F.n)
    rows = np.flatnonzero(counts)
    return (x, rows, counts[rows], b,
            slice(None) if rows.size == F.n else rows,
            _Evaluated.evaluate(F, rows, x, order))


def svrc_gradient_estimator(ledger: OracleLedger, x, batch,
                            snapshot: _Evaluated) -> np.ndarray:
    """Semi-stochastic gradient with first-order (Hessian) correction:

    v = (1/b) sum_i [grad f_i(x) - grad f_i(xh)] + g_s
        - ((1/b) sum_i hess f_i(xh) - H_s)(x - xh)

    at the point xh of ``snapshot``, the view that :func:`svrc_run`'s
    snapshot pass builds, whose ``mean`` holds g_s and H_s.  Charges b
    gradient queries at x and b (order-2, re-read) queries at the
    snapshot, served from it but charged; repeated indices in the batch
    are charged per draw but evaluated once.
    """
    x, rows, counts, b, k, at_x = _estimator_pass(ledger, x, batch, 1,
                                                  snapshot)
    x_hat, hat, mean = snapshot.x, snapshot.stack, snapshot.mean
    dx = x - x_hat
    for i, c in zip(rows.tolist(), counts.tolist()):
        query(ledger, at_x, i, x, order=1, count=c)
        query(ledger, snapshot, i, x_hat, order=2, count=c, requery=True)
    # every component's product, then the drawn ones: a row's product is
    # the same per-row BLAS call either way, and no Hessian is copied
    return _gradient_estimate(counts, at_x.stack.grad - hat.grad[k],
                              row_matvec(hat.hess, dx)[k], b, mean.grad,
                              mean.hess, dx)


def svrc_hessian_estimator(ledger: OracleLedger, x, batch,
                           snapshot: _Evaluated) -> np.ndarray:
    """Semi-stochastic Hessian:  U = (1/b) sum_j [hess f_j(x) - hess f_j(xh)]
    + H_s.

    Charges b Hessian queries at x; the Hessians at xh and their mean H_s
    come from ``snapshot``, as for :func:`svrc_gradient_estimator`, the
    Hessians as b zero-cost cache hits.
    """
    x, rows, counts, b, k, at_x = _estimator_pass(ledger, x, batch, 2,
                                                  snapshot)
    for j, c in zip(rows.tolist(), counts.tolist()):
        query(ledger, at_x, j, x, order=2, count=c)
    ledger.record_cache_hit(b)
    return _hessian_estimate(counts, at_x.stack.hess - snapshot.stack.hess[k],
                             b, snapshot.mean.hess)


def _stationarity(der: Derivatives, L2: float) -> tuple[float, float]:
    """(|grad F|, mu) from one order-2 measurement of F; see :func:`mu`.
    A non-finite measured value or gradient raises ValueError.

    The curvature term beats the floor |grad F|^(3/2) only when
    lambda_min <= -sqrt(|grad F| L2); a Cholesky screen that rules this out
    returns the floor without an eigendecomposition.
    """
    if not (math.isfinite(der.value) and np.isfinite(der.grad).all()):
        raise ValueError("the measured full sum is not finite")
    gnorm = _norm(der.grad)
    H = sym_matrix(der.hess)
    if _shifted_pd(H, math.sqrt(gnorm * L2)):
        return gnorm, gnorm ** 1.5
    return gnorm, max(gnorm ** 1.5, -(_lambda_min(H) ** 3) / L2 ** 1.5)


def _check_l2(L2) -> None:
    """The check of a Hessian-Lipschitz constant L2 wherever one enters:
    positive and finite, else ValueError."""
    if not 0 < L2 < math.inf:
        raise ValueError("L2 must be positive and finite")


def mu(F: FiniteSumFunction, x, L2: float) -> float:
    """Combined stationarity measure:
    max(|grad F|^(3/2), -lambda_min(hess F)^3 / L2^(3/2)).

    Uses the free measurement channel: the mean of ``F._answers`` that
    ``F.full`` answers, before a factored Hessian is lifted; zero iff x is
    an exact second-order stationary point.  Raises ValueError if the
    measured value or gradient is not finite, and before any evaluation if
    L2 is not positive and finite.
    """
    _check_l2(L2)
    x = as_vector(x, dim=F.d)
    return _stationarity(mean_derivatives(F._answers(x, 2), x.shape, 2),
                         L2)[1]


def _run_ledger(F: FiniteSumFunction, ledger: OracleLedger | None,
                eps: float | None) -> OracleLedger:
    """``ledger``, or a new one for F, its first-hit threshold defaulting
    to ``eps``; one of another size than F raises before any evaluation."""
    if ledger is None:
        ledger = OracleLedger(n=F.n)
    _check_ledger(ledger, F)
    if ledger.eps is None:
        ledger.eps = eps
    return ledger


def svrc_run(F: FiniteSumFunction, params: SvrcParams, x0=None,
             ledger: OracleLedger | None = None, budget: int | None = None
             ) -> tuple[np.ndarray, list[TrajectoryRecord]]:
    """Run the full S x T schedule; returns (x_out, trajectory).

    x_out is drawn uniformly from all post-step iterates with the run's own
    seeded RNG.  A cubic-solver failure aborts with the partial trajectory;
    an optional raw-query budget stops the run before a step that would
    exceed it, and before a snapshot pass unless one step fits after it (a
    snapshot alone buys no iterate).  Stats in the trajectory (f, gradient
    norm, mu) come from the free measurement channel and charge nothing; a
    non-finite measurement raises ValueError before its row is recorded.
    The ledger's first-hit threshold defaults to ``params.eps``; a budget
    that is not an integer of at least 1 raises ValueError before any
    charge.

    Each step's batches are read, as draw counts with the generator state
    after each, from a stream of :func:`_step_draws`: where
    :func:`_fork_pays` and a fork can help (:func:`hardsum._fork.streamed`),
    a forked child draws them ahead while the run evaluates, no further
    than the pipe's buffer holds; elsewhere they are drawn inline.  Before
    it draws x_out the run takes the state left by the last batch it read,
    so every output is the same either way, and no child outlives the run.
    A tracer or profiler of the caller does not see a forked child's draws.
    """
    budget = math.inf if budget is None else _count(budget, "budget", 1)
    n, d = F.n, F.d
    ledger = _run_ledger(F, ledger, params.eps)
    rng = np.random.default_rng(params.seed)
    x = np.zeros(d) if x0 is None else as_vector(x0, dim=d).copy()

    trajectory: list[TrajectoryRecord] = []
    iterates: list[np.ndarray] = []
    step_cost = params.step_cost(n)
    # t = -1 is each epoch's snapshot pass, which anchors the epoch at the
    # current iterate; t = 0..T-1 are its steps.  The schedule is generated
    # lazily: S can be far larger than any run gets through.
    schedule = ((s, t) for s in range(params.S) for t in range(-1, params.T))
    with streamed(lambda: _step_draws(params, n),
                  _fork_pays(params, n, budget - ledger.total)) as draws:
        for s, t in schedule:
            # a snapshot pass is only worth paying if a step can follow it
            cost = n + step_cost if t < 0 else step_cost
            if ledger.total + cost > budget:
                break
            if t < 0:
                # the epoch's checked snapshot answers; the estimators read
                # the exact g and H from their mean
                x_hat = x.copy()
                snapshot = _Evaluated.evaluate(F, np.arange(n), x_hat, 2)
                for i in range(n):
                    query(ledger, snapshot, i, x_hat, order=2)
                continue
            # a step reads both batches before it can stop the run, so
            # x_out draws from the state its Hessian batch left
            batch_g, _ = next(draws)
            v = svrc_gradient_estimator(ledger, x, batch_g, snapshot)
            batch_h, rng.bit_generator.state = next(draws)
            U = svrc_hessian_estimator(ledger, x, batch_h, snapshot)
            try:
                sol = solve(CubicModel(v=v, U=U, M=params.M))
            except ArithmeticError:
                break
            x = x + sol.h
            iterates.append(x.copy())
            measured = F.full(x, order=2)
            gnorm, m = _stationarity(measured, params.L2)
            record_iterate(ledger, gnorm)
            trajectory.append(TrajectoryRecord(
                epoch=s, step=t, f=float(measured.value), grad_norm=gnorm,
                mu=m, h_norm=_norm(sol.h),
                counters=ledger.counters()))

    if iterates:
        x_out = iterates[int(rng.integers(0, len(iterates)))].copy()
    else:
        x_out = x.copy()
    return x_out, trajectory


def _exact_information_run(F: FiniteSumFunction, p: int, step, budget: int,
                           x0, ledger: OracleLedger | None,
                           L2: float | None) -> list[TrajectoryRecord]:
    """The p-th order method with exact full-sum derivatives.

    Each iteration pays one charged pass over all n components per
    derivative order 1..p (p*n queries, order 1 first), records the iterate
    with the gradient norm of that first pass, measures mu when L2 is given
    and moves by ``step(t, x, grad, hess) -> h`` (``hess`` is None for
    p = 1).  A step of None ends the run without a row.  Runs until the next
    iteration would exceed the query budget, an integer of at least 1.
    Every row of a pass answers and is checked, in row order (a game's
    moves), before any is charged.  A budget that is not an integer of at
    least 1, or an L2 that is not positive and finite, raises ValueError
    before the first pass.
    """
    budget = _count(budget, "budget", 1)
    if L2 is not None:
        _check_l2(L2)
    n, d = F.n, F.d
    ledger = _run_ledger(F, ledger, None)
    x = np.zeros(d) if x0 is None else as_vector(x0, dim=d).copy()
    trajectory: list[TrajectoryRecord] = []
    while ledger.total + p * n <= budget:
        passes = []
        for order in range(1, p + 1):
            view = _Evaluated(F, x, order,
                              [F._checked(i, x, order) for i in range(n)])
            for i in range(n):
                query(ledger, view, i, x, order=order)
            passes.append(mean_derivatives(view.answers, (d,), order))
        grad = passes[0].grad
        gnorm = _norm(grad)
        record_iterate(ledger, gnorm)
        m = mu(F, x, L2) if L2 is not None else None
        t = len(trajectory)
        h = step(t, x, grad, passes[-1].hess)
        if h is None:
            break
        trajectory.append(TrajectoryRecord(
            epoch=0, step=t, f=passes[0].value, grad_norm=gnorm, mu=m,
            h_norm=_norm(h), counters=ledger.counters()))
        x = x + h
    return trajectory


def baseline_full_gd(F: FiniteSumFunction, step_rule, budget: int,
                     x0=None, ledger: OracleLedger | None = None,
                     L2: float | None = None) -> list[TrajectoryRecord]:
    """Full gradient descent; each iteration pays one order-1 pass (n queries).

    ``step_rule`` is a constant or a callable (t, x, grad) -> step size; a
    non-finite constant raises ValueError before the first pass, and a
    non-finite step from the callable raises it before the iterate moves,
    and an L2 that is given and is not positive and finite raises it before
    the first pass.  Runs until the next pass would exceed the query
    budget.
    """
    if not callable(step_rule) and not math.isfinite(float(step_rule)):
        raise ValueError(f"non-finite step {step_rule}")

    def gd_step(t, x, grad, _):
        size = float(step_rule(t, x, grad) if callable(step_rule)
                     else step_rule)
        if not math.isfinite(size):
            raise ValueError(f"non-finite step {size} from step_rule at "
                             f"t = {t}")
        return -size * grad

    return _exact_information_run(F, 1, gd_step, budget, x0, ledger, L2)


def baseline_full_cubic(F: FiniteSumFunction, M: float, budget: int,
                        x0=None, ledger: OracleLedger | None = None,
                        L2: float | None = None) -> list[TrajectoryRecord]:
    """Cubic-regularized Newton with exact derivatives; one order-1 pass plus
    one order-2 pass (2n queries) per iteration.  An M, or an L2 that is
    given, that is not positive and finite raises ValueError before the
    first pass."""
    _check_penalty(M)

    def cubic_step(t, x, grad, hess):
        try:
            return solve(CubicModel(v=grad, U=hess, M=M)).h
        except ArithmeticError:
            return None

    return _exact_information_run(F, 2, cubic_step, budget, x0, ledger, L2)
