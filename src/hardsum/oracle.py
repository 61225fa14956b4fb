"""The incremental component oracle: finite-sum objectives queried one
component at a time, with exact per-index / per-derivative-order accounting
and first-hit tracking for the query-complexity measure.

Monitoring quantities (the full gradient norm logged every iteration, the
stationarity measure, trajectory rows) are computed through a separate
"measurement" path that never touches the counters: the ledger measures what
the *algorithm* consumed, not what the experimenter looked at.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import Derivatives
from .linalg import (_added, _dense, _symmetrized, as_points, as_rng,
                     as_vector, row_dot, row_matvec)

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

    Subclasses implement :meth:`component`.  :meth:`full` answers one point
    x of shape (d,) or a stack of P points of shape (P, d), and so does
    :meth:`component` of every sum in the package except the resisting
    oracle's, a game move of one point, which refuses a stack; a stack's
    answer holds values (P,), gradients (P, d) and Hessians (P, d, d).
    :meth:`components` answers several components at one point as the same
    kind of stack, one row per component, and :func:`query` one component
    at one point.  Component indices are 0-based.  A sum that answers all
    components at once may also override :meth:`_answers`, the one private
    hook behind :meth:`full` and :func:`~hardsum.optim.mu`.  Charged
    answers are checked by :func:`_check_answer`, which refuses other
    shapes.
    """

    n: int
    d: int

    def component(self, i: int, x, order: int = 2) -> Derivatives:
        raise NotImplementedError

    def components(self, rows, x, order: int = 2) -> Derivatives:
        """Components ``rows`` (indices, repeats allowed) at one point x:
        values (r,), gradients (r, d) and Hessians (r, d, d), row k
        answering component ``rows[k]``.

        The default asks :meth:`component` once per row, in row order, so a
        stateful sum sees the calls that a loop over the rows makes.
        """
        rows = self.check_rows(rows).tolist()
        return _stacked([self.component(i, x, order) for i in rows], rows,
                        order, self.d)

    def _checked(self, i: int, x: np.ndarray, order: int) -> Derivatives:
        """Component i at x up to ``order``, checked by :func:`_check_answer`;
        :func:`query` answers with it (a view of checked answers: its row)."""
        return _check_answer(self.component(i, x, order), i, order, self.d)

    def check_index(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.n:
            raise ValueError(f"component index {i} out of range [0, {self.n})")
        return i

    def check_rows(self, rows) -> np.ndarray:
        """Validate a non-empty sequence of component indices; returns them
        as an integer array."""
        idx = np.asarray(rows)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("rows must be a non-empty sequence of indices, "
                             f"got shape {idx.shape}")
        if idx.dtype.kind not in "iu":
            raise ValueError(f"component indices must be integers, got "
                             f"{idx.dtype}")
        lo, hi = int(idx.min()), int(idx.max())
        if lo < 0 or hi >= self.n:
            raise ValueError(f"component index {lo if lo < 0 else hi} out of "
                             f"range [0, {self.n})")
        return idx

    def full(self, x, order: int = 1) -> Derivatives:
        """Average of all components -- the free measurement side channel.

        ``x`` is one point or a stack of points, answered as
        :meth:`component` answers it, or in one call by a sum that overrides
        :meth:`_answers`.  Its Hessian is dense.  Never goes through a
        ledger; use :func:`query` for charged access.
        """
        x = as_points(x, dim=self.d)
        mean = mean_derivatives(self._answers(x, order), x.shape, order)
        return Derivatives(mean.value, mean.grad, _dense(mean.hess))

    def _answers(self, x: np.ndarray, order: int):
        """Every component at a validated point or stack of points x, one
        :class:`Derivatives` per component in index order: what :meth:`full`
        sums.  The default asks :meth:`component` once per component as the
        answers are consumed, so no stack of n Hessians is held; a sum that
        evaluates all components at once overrides it."""
        return (self.component(i, x, order) for i in range(self.n))


def _stacked(answers: list, rows, order: int, d: int) -> Derivatives:
    """One answer whose rows are the given answers (up to ``order``) of
    components ``rows``; a shape that does not stack raises its error."""
    try:
        return Derivatives(
            np.array([der.value for der in answers]),
            np.stack([der.grad for der in answers]) if order >= 1 else None,
            np.stack([der.hess for der in answers]) if order >= 2 else None)
    except ValueError:
        for i, der in zip(rows, answers):
            _check_answer(der, i, order, d)
        raise


def _check_answer(der: Derivatives, rows, order: int, d: int) -> Derivatives:
    """The check of every charged answer, of component ``rows`` (an index)
    or of a stack of components ``rows`` (an array of shape lead): up to
    ``order``, shapes lead, lead + (d,), lead + (d, d); finite values and
    gradients; Hessians that pass ``sym_matrix``'s test, returned
    symmetrized (a factored ``V S V^T`` one through its S).  A stack passes
    or fails as its first failing row would."""
    lead = getattr(rows, "shape", ())
    parts = (der.value, der.grad, der.hess)[:order + 1]
    try:
        # a float (one answer's value) skips numpy's conversion of a scalar
        for part, name, tail in zip(parts, ("value", "gradient", "Hessian"),
                                    ((), (d,), (d, d))):
            shape = () if isinstance(part, float) else np.shape(part)
            if shape != lead + tail:
                raise ValueError(f"component {rows} answered a {name} of shape "
                                 f"{shape}, not {lead + tail} (order {order})")
        for part, name in zip(parts[:2], ("value", "gradient")):
            if not (math.isfinite(part) if isinstance(part, float)
                    else np.isfinite(part).all()):
                raise ValueError(f"component {rows} answered a non-finite "
                                 f"{name} (order {order})")
        if order < 2:
            return der
        try:
            hess = _symmetrized(der.hess)
        except ValueError as err:
            raise ValueError(f"component {rows} answered a Hessian: {err} "
                             f"(order {order})") from None
    except ValueError:
        if lead:    # a stack raises the error of its first failing row
            for i, row in zip(rows.tolist(), _row_answers(der, order)):
                _check_answer(row, i, order, d)
        raise
    return Derivatives(der.value, der.grad, hess)


def _row_answers(stack: Derivatives, order: int):
    """The rows of a stacked answer, one :class:`Derivatives` each, up to
    ``order``."""
    none = itertools.repeat(None)
    return itertools.starmap(Derivatives, zip(
        stack.value, stack.grad if order >= 1 else none,
        stack.hess if order >= 2 else none))


def mean_derivatives(answers, shape: tuple, order: int) -> Derivatives:
    """Mean of component answers, summed in the order given (component
    index order everywhere in the package), then divided by their count.
    ``shape`` is the gradients' shape: (d,) for answers at one point,
    (P, d) for answers at a stack of P points; an answer whose value,
    gradient or Hessian has another shape raises.  Hessians are dense, or
    all factored as ``V S V^T`` (the resisting oracle's private form):
    their S are summed, padded to the widest V, since a round can close
    mid-pass, and the mean is factored too.

    The one averaging pass behind every full-sum quantity: the free
    measurement channel and the charged snapshot and baseline passes.
    """
    val, count, hess = 0.0, 0, None
    grad = np.zeros(shape) if order >= 1 else None
    hess_shape = shape + shape[-1:]
    for der in answers:
        if (getattr(der.value, "shape", ()) != shape[:-1]
                or order >= 1 and getattr(der.grad, "shape", None) != shape
                or order >= 2
                and getattr(der.hess, "shape", None) != hess_shape):
            _check_answer(der, np.full(shape[:-1], count), order, shape[-1])
        count += 1
        val += der.value
        if order >= 1:
            grad += der.grad
        if order >= 2:
            hess = _added(hess, der.hess)
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
        return _stacked([f(p, order) for p in x], [i] * len(x), order, self.d)


class _QuadraticCosineSum(FiniteSumFunction):
    """The components of :func:`quadratic_cosine_sum`, held as stacked
    arrays: A (n, d, d), b (n, d), c (n,), r (n, d) and b b^T (n, d, d).

    One component at one point, a stack of points, or a stack of
    components at one point (:meth:`components`) is answered in one
    evaluation whose products go through ``row_dot`` / ``row_matvec``, so
    each row of a stack equals the one-point answer of its component at its
    point bit for bit.
    """

    def __init__(self, A, b, c, r):
        self._A, self._b, self._c, self._r = A, b, c, r
        self._bbT = b[:, :, None] * b[:, None, :]
        self.n, self.d = b.shape

    def component(self, i: int, x, order: int = 2) -> Derivatives:
        return self._evaluate(self.check_index(i), as_points(x, dim=self.d),
                              order)

    def components(self, rows, x, order: int = 2) -> Derivatives:
        return self._evaluate(self.check_rows(rows),
                              as_vector(x, dim=self.d), order)

    def _answers(self, x: np.ndarray, order: int):
        """At one point, every component in one vectorized evaluation."""
        if x.ndim == 1:
            return _row_answers(self._evaluate(np.arange(self.n), x, order),
                                order)
        return super()._answers(x, order)

    def _evaluate(self, i, x, order: int) -> Derivatives:
        """Component i (an index or an index array) at x (a point or, for
        one index, a stack of points)."""
        A, b, c, r = self._A[i], self._b[i], self._c[i], self._r[i]
        t, Ax, rx = row_dot(b, x), row_matvec(A, x), row_dot(r, x)
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

    Components answer one point or a stack of points, and any set of
    components answers one point (one vectorized evaluation per stack).
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
    # running state: set only by charge, record_cache_hit and record_iterate
    per_index: np.ndarray = field(init=False, repr=False)
    grad_queries: int = field(default=0, init=False)
    hess_queries: int = field(default=0, init=False)
    cache_hits: int = field(default=0, init=False)
    requery_queries: int = field(default=0, init=False)
    first_hit: int | None = field(default=None, init=False)
    first_hit_queries: int | None = field(default=None, init=False)
    iterates_recorded: int = field(default=0, init=False)

    def __post_init__(self):
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
    The answer is checked before the charge (:func:`_check_answer`): a
    wrong shape, a non-finite value or gradient, or an asymmetric Hessian
    raises ValueError naming i and the order, and charges nothing.  A
    returned Hessian is exactly symmetric, so callers never re-symmetrize.
    F may be a read-only view of answers already checked at x (the SVRC
    passes charge through one), which answers without evaluating or
    checking again.  A stack of points is rejected: charged access is one
    point per call.
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
    der = F._checked(i, x, order)
    ledger.charge(i, order, count, requery=requery)
    return der


class _Evaluated(FiniteSumFunction):
    """Answers of some components of a sum at one point x, up to one
    derivative order, held as one stack: a read-only view that
    :func:`query` charges rows through without evaluating or checking them
    again.

    ``stack`` holds the answers, row k answering component ``rows[k]``;
    ``where[i]`` is the row of component i, -1 where the view does not
    hold it.  Building the view checks the whole stack as :func:`query`
    checks one answer (:func:`_check_answer`: a bad row raises the error it
    would raise alone; Hessians are kept symmetrized), so each row is
    checked once however often it is charged.  The view refuses another
    point, a higher order and an index it does not hold.
    """

    def __init__(self, F: FiniteSumFunction, x: np.ndarray, order: int,
                 rows, stack: Derivatives):
        rows = np.asarray(rows)
        self.n, self.d = F.n, F.d
        self._x, self._order = x, order
        self.where = np.full(F.n, -1)
        self.where[rows] = np.arange(rows.size)
        self.stack = _check_answer(stack, rows, order, F.d)

    @classmethod
    def evaluate(cls, F: FiniteSumFunction, rows, x: np.ndarray,
                 order: int) -> _Evaluated:
        """Components ``rows`` of F at x, evaluated in one
        :meth:`~FiniteSumFunction.components` call."""
        return cls(F, x, order, rows, F.components(rows, x, order))

    def take(self, rows: np.ndarray, x: np.ndarray) -> Derivatives:
        """The gradients and Hessians of held components ``rows`` at x,
        stacked in that order; refused as :meth:`_checked` refuses."""
        self._refuse(x, 2)
        k = self.where[rows]
        if k.min() < 0:
            raise ValueError(f"component {rows[k.argmin()]} was not "
                             "evaluated here")
        return Derivatives(None, self.stack.grad[k], self.stack.hess[k])

    def _refuse(self, x: np.ndarray, order: int) -> None:
        """Raise unless these answers were evaluated at x up to ``order``."""
        if x is not self._x and not np.array_equal(x, self._x):
            raise ValueError("these answers were evaluated at another point")
        if order > self._order:
            raise ValueError(f"these answers go up to order {self._order}, "
                             f"not {order}")

    def _checked(self, i: int, x: np.ndarray, order: int) -> Derivatives:
        self._refuse(x, order)
        k = self.where[i]
        if k < 0:
            raise ValueError(f"component {i} was not evaluated here")
        value, grad, hess = self.stack.value, self.stack.grad, self.stack.hess
        return Derivatives(value[k], grad[k] if order >= 1 else None,
                           hess[k] if order >= 2 else None)


def record_iterate(ledger: OracleLedger,
                   full_gradient_norm: float) -> OracleLedger:
    """Record the next iterate and its externally measured full-gradient
    norm; latches the first index at which the norm reached eps.

    The measurement itself consumes no oracle budget.  Idempotent after the
    first hit.
    """
    t = ledger.iterates_recorded
    ledger.iterates_recorded = t + 1
    if ledger.eps is not None and ledger.first_hit is None \
            and full_gradient_norm <= ledger.eps:
        ledger.first_hit = t
        ledger.first_hit_queries = ledger.total
    return ledger
