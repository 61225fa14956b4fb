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

Every pass evaluates each (point, order) once, as a stack of components
(``F.components``), and checks the stack once as it is built: finite values
and gradients, symmetric Hessians.  The estimators work on the stacks; what
is left per row is the charge, one ``query`` per distinct drawn index in
index order, through a read-only view of the checked stack.  The snapshot
pass keeps its checked (n, d, d) stack for the epoch, and the estimators
read their snapshot rows out of it by index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf

from .chains import Derivatives
from .cubic import CubicModel, solve
from .linalg import as_rng, as_vector, eig_sym, row_matvec, sym_matrix
from .oracle import (FiniteSumFunction, OracleLedger, _Evaluated,
                     _row_answers, mean_derivatives, query, record_iterate)

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
        if not self.M > 0:
            raise ValueError("M must be positive")
        if self.b_g < 1 or self.b_h < 1:
            raise ValueError("batch sizes must be at least 1")
        if self.S < 1 or self.T < 1:
            raise ValueError("S and T must be at least 1")
        if not (self.eps > 0 and self.Delta > 0 and self.L2 > 0):
            raise ValueError("eps, Delta and L2 must be positive")

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
    for name, v in (("n", n), ("d", d), ("Delta", Delta), ("L2", L2),
                    ("eps", eps)):
        if not v > 0:
            raise ValueError(f"{name} must be positive")
    T = _iceil(max(2.0, float(n) ** 0.2))
    S = _iceil(max(1.0, 240.0 * C_M ** 2 * math.sqrt(L2) * Delta
                   * float(n) ** -0.2 * eps ** -1.5))
    b_g = _iceil(5.0 * max(float(n) ** 0.8, 16.0))
    b_h = max(1, _iceil(3000.0 * max(4.0, float(n) ** 0.4)
                        * math.log(d) ** 3))
    return SvrcParams(M=150.0 * L2, b_g=b_g, b_h=b_h, S=S, T=T,
                      eps=eps, Delta=Delta, L2=L2, seed=seed)


def _draw_batches(params: SvrcParams, n: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One step's (gradient, Hessian) batches: i.i.d. uniform indices drawn
    gradient batch first, or every index once under a full-batch schedule."""
    if params.full_batch:
        return np.arange(n), np.arange(n)
    batch_g = rng.integers(0, n, size=params.b_g)
    return batch_g, rng.integers(0, n, size=params.b_h)


def _batch_counts(batch, n: int) -> tuple[np.ndarray, int]:
    """Draw count of every component index 0..n-1 in a batch, and the batch
    size."""
    idx = np.asarray(batch).ravel()
    if idx.size == 0:
        raise ValueError("batch must be non-empty")
    if idx.dtype.kind not in "iu":
        raise ValueError(f"batch indices must be integers, got {idx.dtype}")
    idx = idx.astype(int, copy=False)
    # bincount scans the range itself: it refuses a negative index, and an
    # index >= n gives it more than n bins
    try:
        counts = np.bincount(idx, minlength=n)
    except ValueError:
        counts = None
    if counts is None or counts.size > n:
        lo, hi = int(idx.min()), int(idx.max())
        raise ValueError(f"component index {lo if lo < 0 else hi} out of "
                         f"range [0, {n})")
    return counts, idx.size


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


def _estimator_pass(F: FiniteSumFunction, x, x_hat, batch, order: int,
                    snapshot_cache):
    """The estimators' shared prologue: x and xh validated, the batch
    counted once, its distinct rows evaluated at x up to ``order``, then at
    xh up to order 2 unless ``snapshot_cache`` (None, or the view that
    :func:`svrc_run`'s snapshot pass builds; else TypeError) holds them.
    Returns (x, xh, rows, their counts, b, view at x, view at xh); the
    estimators take the xh rows before they charge, so a view that lacks
    them raises uncharged."""
    if not isinstance(snapshot_cache, (_Evaluated, type(None))):
        raise TypeError("snapshot_cache must be None or the snapshot pass's "
                        f"answers, got {type(snapshot_cache).__name__}")
    x = as_vector(x, dim=F.d)
    x_hat = as_vector(x_hat, dim=F.d)
    counts, b = _batch_counts(batch, F.n)
    rows = np.flatnonzero(counts)
    at_x = _Evaluated.evaluate(F, rows, x, order)
    at_hat = (_Evaluated.evaluate(F, rows, x_hat, 2) if snapshot_cache is None
              else snapshot_cache)
    return x, x_hat, rows, counts[rows], b, at_x, at_hat


def svrc_gradient_estimator(F: FiniteSumFunction, ledger: OracleLedger,
                            x, x_hat, g_s, H_s, batch,
                            snapshot_cache: _Evaluated | None = None
                            ) -> np.ndarray:
    """Semi-stochastic gradient with first-order (Hessian) correction:

    v = (1/b) sum_i [grad f_i(x) - grad f_i(xh)] + g_s
        - ((1/b) sum_i hess f_i(xh) - H_s)(x - xh)

    Charges b gradient queries at x and b (order-2, re-read) queries at the
    snapshot; repeated indices in the batch are charged per draw but
    evaluated once.  The re-reads are served from ``snapshot_cache``, the
    snapshot pass's answers that :func:`svrc_run` passes, when it is given,
    else evaluated; they are charged either way.
    """
    x, x_hat, rows, counts, b, at_x, at_hat = _estimator_pass(
        F, x, x_hat, batch, 1, snapshot_cache)
    hat, dx = at_hat.take(rows, x_hat), x - x_hat
    for i, c in zip(rows.tolist(), counts.tolist()):
        query(ledger, at_x, i, x, order=1, count=c)
        query(ledger, at_hat, i, x_hat, order=2, count=c, requery=True)
    return _gradient_estimate(counts, at_x.stack.grad - hat.grad,
                              row_matvec(hat.hess, dx), b, g_s, H_s, dx)


def svrc_hessian_estimator(F: FiniteSumFunction, ledger: OracleLedger,
                           x, x_hat, H_s, batch,
                           snapshot_cache: _Evaluated | None = None
                           ) -> np.ndarray:
    """Semi-stochastic Hessian:  U = (1/b) sum_j [hess f_j(x) - hess f_j(xh)]
    + H_s.

    Charges b Hessian queries at x; snapshot-point Hessians come from
    ``snapshot_cache``, as for :func:`svrc_gradient_estimator`, as b
    zero-cost cache hits when it is given, else are charged as re-reads.
    """
    x, x_hat, rows, counts, b, at_x, at_hat = _estimator_pass(
        F, x, x_hat, batch, 2, snapshot_cache)
    hess_hat = at_hat.take(rows, x_hat).hess
    for j, c in zip(rows.tolist(), counts.tolist()):
        query(ledger, at_x, j, x, order=2, count=c)
        if snapshot_cache is None:
            query(ledger, at_hat, j, x_hat, order=2, count=c, requery=True)
    if snapshot_cache is not None:
        ledger.record_cache_hit(b)
    return _hessian_estimate(counts, at_x.stack.hess - hess_hat, b, H_s)


def _floor_wins(H: np.ndarray, c0: float) -> bool:
    """Whether a Cholesky factorization of H + c I, c just below c0, proves
    that eigh's lambda_min(H) is above -c0.

    The margin below c0 covers the factorization's backward error (at most
    about (d+1) d eps max_i A_ii), eigh's (about d eps |H|_2 <= d^2 eps
    max|H|) and, through its c0 term, the rounding of the mu formula.
    """
    d = H.shape[0]
    c = c0 - 4.0 * d * (d + 1) * np.finfo(float).eps * (np.abs(H).max() + c0)
    if not c > 0:
        return False
    A = H.copy()
    A.flat[::d + 1] += c
    return dpotrf(A, lower=True, clean=False, overwrite_a=True)[1] == 0


def _stationarity(der: Derivatives, L2: float) -> tuple[float, float]:
    """(|grad F|, mu) from one order-2 measurement of F; see :func:`mu`.
    A non-finite measured value or gradient raises ValueError.

    The curvature term beats the floor |grad F|^(3/2) only when
    lambda_min <= -sqrt(|grad F| L2); a Cholesky screen that rules this out
    returns the floor without an eigendecomposition.
    """
    if not (math.isfinite(der.value) and np.isfinite(der.grad).all()):
        raise ValueError("the measured full sum is not finite")
    gnorm = float(np.linalg.norm(der.grad))
    H = sym_matrix(der.hess)
    if _floor_wins(H, math.sqrt(gnorm * L2)):
        return gnorm, gnorm ** 1.5
    lam_min = float(eig_sym(H)[0][0])
    return gnorm, max(gnorm ** 1.5, -(lam_min ** 3) / L2 ** 1.5)


def mu(F: FiniteSumFunction, x, L2: float) -> float:
    """Combined stationarity measure:
    max(|grad F|^(3/2), -lambda_min(hess F)^3 / L2^(3/2)).

    Uses the free measurement channel; zero iff x is an exact second-order
    stationary point.  Raises ValueError if the measured value or gradient
    is not finite.
    """
    if not L2 > 0:
        raise ValueError("L2 must be positive")
    return _stationarity(F.full(x, order=2), L2)[1]


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
    The ledger's first-hit threshold defaults to ``params.eps``.
    """
    n, d = F.n, F.d
    if ledger is None:
        ledger = OracleLedger(n=n, eps=params.eps)
    elif ledger.eps is None:
        ledger.eps = params.eps
    rng = as_rng(params.seed)
    x = np.zeros(d) if x0 is None else as_vector(x0, dim=d).copy()

    trajectory: list[TrajectoryRecord] = []
    iterates: list[np.ndarray] = []
    step_cost = params.step_cost(n)
    # t = -1 is each epoch's snapshot pass, which anchors the epoch at the
    # current iterate; t = 0..T-1 are its steps.  The schedule is generated
    # lazily: S can be far larger than any run gets through.
    schedule = ((s, t) for s in range(params.S) for t in range(-1, params.T))
    for s, t in schedule:
        # a snapshot pass is only worth paying if a step can follow it
        cost = n + step_cost if t < 0 else step_cost
        if budget is not None and ledger.total + cost > budget:
            break
        if t < 0:
            # exact g, H and the epoch's checked snapshot answers
            x_hat = x.copy()
            snapshot = _Evaluated.evaluate(F, np.arange(n), x_hat, 2)
            for i in range(n):
                query(ledger, snapshot, i, x_hat, order=2)
            mean = mean_derivatives(_row_answers(snapshot.stack, 2), (d,), 2)
            g_s, H_s = mean.grad, mean.hess
            continue
        batch_g, batch_h = _draw_batches(params, n, rng)
        v = svrc_gradient_estimator(F, ledger, x, x_hat, g_s, H_s, batch_g,
                                    snapshot_cache=snapshot)
        U = svrc_hessian_estimator(F, ledger, x, x_hat, H_s, batch_h,
                                   snapshot_cache=snapshot)
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
            mu=m, h_norm=float(np.linalg.norm(sol.h)),
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
    iteration would exceed the query budget.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    n, d = F.n, F.d
    if ledger is None:
        ledger = OracleLedger(n=n)
    x = np.zeros(d) if x0 is None else as_vector(x0, dim=d).copy()
    trajectory: list[TrajectoryRecord] = []
    while ledger.total + p * n <= budget:
        passes = [mean_derivatives(
            (query(ledger, F, i, x, order=order) for i in range(n)), (d,), order)
            for order in range(1, p + 1)]
        grad = passes[0].grad
        gnorm = float(np.linalg.norm(grad))
        record_iterate(ledger, gnorm)
        m = mu(F, x, L2) if L2 is not None else None
        t = len(trajectory)
        h = step(t, x, grad, passes[-1].hess)
        if h is None:
            break
        trajectory.append(TrajectoryRecord(
            epoch=0, step=t, f=passes[0].value, grad_norm=gnorm, mu=m,
            h_norm=float(np.linalg.norm(h)), counters=ledger.counters()))
        x = x + h
    return trajectory


def baseline_full_gd(F: FiniteSumFunction, step_rule, budget: int,
                     x0=None, ledger: OracleLedger | None = None,
                     L2: float | None = None) -> list[TrajectoryRecord]:
    """Full gradient descent; each iteration pays one order-1 pass (n queries).

    ``step_rule`` is a constant or a callable (t, x, grad) -> step size.
    Runs until the next pass would exceed the query budget.
    """
    def gd_step(t, x, grad, _):
        size = step_rule(t, x, grad) if callable(step_rule) else step_rule
        return -float(size) * grad

    return _exact_information_run(F, 1, gd_step, budget, x0, ledger, L2)


def baseline_full_cubic(F: FiniteSumFunction, M: float, budget: int,
                        x0=None, ledger: OracleLedger | None = None,
                        L2: float | None = None) -> list[TrajectoryRecord]:
    """Cubic-regularized Newton with exact derivatives; one order-1 pass plus
    one order-2 pass (2n queries) per iteration."""
    if not M > 0:
        raise ValueError("M must be positive")

    def cubic_step(t, x, grad, hess):
        try:
            return solve(CubicModel(v=grad, U=hess, M=M)).h
        except ArithmeticError:
            return None

    return _exact_information_run(F, 2, cubic_step, budget, x0, ledger, L2)
