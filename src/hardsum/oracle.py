"""The incremental component oracle: finite-sum objectives queried one
component at a time, with exact per-index / per-derivative-order accounting
and first-hit tracking for the query-complexity measure.

Monitoring quantities (the full gradient norm logged every iteration, the
stationarity measure, trajectory rows) are computed through a separate
"measurement" path that never touches the counters: the ledger measures what
the *algorithm* consumed, not what the experimenter looked at.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import Derivatives
from .linalg import as_points, as_rng, row_dot, row_matvec, sym_matrix

__all__ = [
    "FiniteSumFunction",
    "CallableFiniteSum",
    "mean_derivatives",
    "quadratic_cosine_sum",
    "OracleLedger",
    "query",
    "record_iterate",
]


class FiniteSumFunction:
    """A finite sum F = (1/n) * sum_i f_i with components on R^d answering
    value/gradient/Hessian queries.

    Subclasses implement :meth:`component`, which answers one point x of
    shape (d,) or a stack of P points of shape (P, d); a stack's answer
    holds values (P,), gradients (P, d) and Hessians (P, d, d).  Component
    indices are 0-based.
    """

    n: int
    d: int

    def component(self, i: int, x, order: int = 2) -> Derivatives:
        raise NotImplementedError

    def check_index(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.n:
            raise ValueError(f"component index {i} out of range [0, {self.n})")
        return i

    def full(self, x, order: int = 1) -> Derivatives:
        """Average of all components -- the free measurement side channel.

        ``x`` is one point or a stack of points, answered as
        :meth:`component` answers it.  Never goes through a ledger; use
        :func:`query` for charged access.
        """
        x = as_points(x, dim=self.d)
        return mean_derivatives(
            (self.component(i, x, order) for i in range(self.n)),
            x.shape, order)


def mean_derivatives(answers, shape: tuple, order: int) -> Derivatives:
    """Mean of component answers, summed in the order given (component
    index order everywhere in the package), then divided by their count.
    ``shape`` is the gradients' shape: (d,) for answers at one point,
    (P, d) for answers at a stack of P points.

    The one averaging pass behind every full-sum quantity: the free
    measurement channel and the charged snapshot and baseline passes.
    """
    val, count = 0.0, 0
    grad = np.zeros(shape) if order >= 1 else None
    hess = np.zeros(shape + shape[-1:]) if order >= 2 else None
    for der in answers:
        count += 1
        val += der.value
        if order >= 1:
            grad += der.grad
        if order >= 2:
            hess += der.hess
    return Derivatives(val / count,
                       None if grad is None else grad / count,
                       None if hess is None else hess / count)


class CallableFiniteSum(FiniteSumFunction):
    """Finite sum built from a list of ``f(x, order) -> Derivatives``.

    The callables take one point; a stack of points is answered point by
    point and the answers stacked.
    """

    def __init__(self, components, d: int):
        self._components = list(components)
        self.n = len(self._components)
        self.d = int(d)
        if self.n < 1:
            raise ValueError("need at least one component")

    def component(self, i: int, x, order: int = 2) -> Derivatives:
        i = self.check_index(i)
        x = as_points(x, dim=self.d)
        f = self._components[i]
        if x.ndim == 1:
            return f(x, order)
        answers = [f(point, order) for point in x]
        return Derivatives(
            np.array([der.value for der in answers]),
            np.stack([der.grad for der in answers]) if order >= 1 else None,
            np.stack([der.hess for der in answers]) if order >= 2 else None)


class _QuadraticCosineSum(FiniteSumFunction):
    """The components of :func:`quadratic_cosine_sum`, held as stacked
    arrays: A (n, d, d), b (n, d), c (n,), r (n, d) and b b^T (n, d, d).

    One point is answered with plain products (charged access is one point
    per call, and the plain products cost less per call there); a stack is
    answered in one vectorized evaluation whose products go through
    ``row_dot`` / ``row_matvec``, so each row equals the answer at that
    point bit for bit.
    """

    def __init__(self, A, b, c, r):
        self._A, self._b, self._c, self._r = A, b, c, r
        self._bbT = b[:, :, None] * b[:, None, :]
        self.n, self.d = b.shape

    def component(self, i: int, x, order: int = 2) -> Derivatives:
        i = self.check_index(i)
        x = as_points(x, dim=self.d)
        A, b, c, r = self._A[i], self._b[i], self._c[i], self._r[i]
        if x.ndim == 1:
            t, Ax, rx = b @ x, A @ x, r @ x
            xAx = x @ Ax
        else:
            t, Ax, rx = row_dot(x, b), row_matvec(A, x), row_dot(x, r)
            xAx = row_dot(x, Ax)
        val = 0.5 * xAx + c * np.cos(t) + rx
        if order == 0:
            return Derivatives(val)
        grad = Ax - (c * np.sin(t))[..., None] * b + r
        if order == 1:
            return Derivatives(val, grad)
        hess = A - (c * np.cos(t))[..., None, None] * self._bbT[i]
        return Derivatives(val, grad, hess)


def quadratic_cosine_sum(n: int, d: int, seed, *, curvature: float = 1.0,
                         ripple: float = 1.0) -> FiniteSumFunction:
    """A smooth non-convex synthetic benchmark sum.

    Component i is  0.5 x^T A_i x + c_i * cos(<b_i, x>) + <r_i, x>  with a
    positive-semidefinite A_i.  Every derivative of order >= 3 lives in the
    cosine term, so the Hessian-difference Lipschitz constant of component i
    is exactly |c_i| * |b_i|^3, which makes the sum a convenient target for
    smoothness estimation with a known ground truth.

    Components answer one point or a stack of points (one vectorized
    evaluation per stack).
    """
    if n < 1:
        raise ValueError("need at least one component")
    rng = as_rng(seed)
    A, b, c, r = [], [], [], []
    for _ in range(n):
        G = rng.standard_normal((d, d)) / np.sqrt(d)
        A.append(curvature * (G @ G.T))
        b_i = rng.standard_normal(d)
        b_i *= rng.uniform(0.5, 1.5) / np.linalg.norm(b_i)
        b.append(b_i)
        c.append(ripple * rng.uniform(0.5, 1.5))
        r.append(0.3 * rng.standard_normal(d))
    return _QuadraticCosineSum(np.array(A), np.array(b), np.array(c),
                               np.array(r))


@dataclass
class OracleLedger:
    """Exact query accounting for one run.

    ``per_index[i]`` counts queries to component i (one per draw, so batched
    repetitions of the same index all count); the per-order counters count
    the derivative orders actually returned (every query returns a value, so
    the value count is ``total``).  ``cache_hits`` counts
    snapshot-cache lookups that were served at zero query cost.  First-hit
    tracking records the first recorded iterate whose (externally measured)
    full-gradient norm fell to ``eps`` or below.
    """

    n: int
    eps: float | None = None
    per_index: np.ndarray = field(default=None, repr=False)
    grad_queries: int = 0
    hess_queries: int = 0
    cache_hits: int = 0
    requery_queries: int = 0
    first_hit: int | None = None
    first_hit_queries: int | None = None
    iterates_recorded: int = 0

    def __post_init__(self):
        if self.per_index is None:
            self.per_index = np.zeros(self.n, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.per_index.sum())

    @property
    def adjusted_total(self) -> int:
        """Query count with snapshot-point re-queries treated as free.

        ``total`` charges every oracle access, including re-reading component
        data at the snapshot point inside an estimator; this view instead
        credits those against the full pass the snapshot already paid for.
        """
        return self.total - self.requery_queries

    def charge(self, i: int, order: int, count: int = 1,
               requery: bool = False) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        self.per_index[i] += count
        if order >= 1:
            self.grad_queries += count
        if order >= 2:
            self.hess_queries += count
        if requery:
            self.requery_queries += count

    def record_cache_hit(self, count: int = 1) -> None:
        """A lookup served from a snapshot cache at zero query cost."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.cache_hits += count

    def counters(self) -> dict:
        return {
            "total": self.total,
            "adjusted_total": self.adjusted_total,
            "value": self.total,
            "grad": self.grad_queries,
            "hess": self.hess_queries,
            "cache_hits": self.cache_hits,
            "requeries": self.requery_queries,
        }


def query(ledger: OracleLedger, F: FiniteSumFunction, i: int, x,
          order: int = 2, *, count: int = 1,
          requery: bool = False) -> Derivatives:
    """Charged oracle access to component i of F at one point x.

    Returns f_i(x) and derivatives up to ``order`` and charges the ledger.
    A stack of points is rejected: charged access is one point per call.
    A returned Hessian has passed the symmetry check and is exactly
    symmetric, so callers never re-symmetrize.
    ``count > 1`` records `count` i.i.d. repetitions of the identical query
    (the answer is deterministic, so it is evaluated once); this keeps the
    accounting exact while letting batch samplers aggregate repeated draws.
    ``requery`` marks the charge as a snapshot-point re-read so the ledger
    can report both raw and cache-adjusted totals.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be in 0..2, got {order}")
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError(f"query takes one point, got shape {x.shape}")
    i = F.check_index(i)
    der = F.component(i, x, order)
    if der.hess is not None:
        der = Derivatives(der.value, der.grad, sym_matrix(der.hess))
    ledger.charge(i, order, count, requery=requery)
    return der


def record_iterate(ledger: OracleLedger, full_gradient_norm: float,
                   t: int | None = None) -> OracleLedger:
    """Record one produced iterate and its externally measured full-gradient
    norm; latches the first index at which the norm reached eps.

    The measurement itself consumes no oracle budget.  Idempotent after the
    first hit.
    """
    if t is None:
        t = ledger.iterates_recorded
    ledger.iterates_recorded = max(ledger.iterates_recorded, t + 1)
    if ledger.eps is not None and ledger.first_hit is None \
            and full_gradient_norm <= ledger.eps:
        ledger.first_hit = t
        ledger.first_hit_queries = ledger.total
    return ledger
