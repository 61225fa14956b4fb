"""The incremental component oracle: finite-sum objectives queried one
component at a time, with exact per-index / per-derivative-order accounting
and first-hit tracking for the query-complexity measure.

Monitoring quantities (the full gradient norm logged every iteration, the
stationarity measure, trajectory rows) are computed through a separate
"measurement" path that never touches the counters: the ledger measures what
the *algorithm* consumed, not what the experimenter looked at.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chains import Derivatives, _as_value, _check_order
from .linalg import (_added, _dense, _Factored, _norms, _symmetrized,
                     as_points, as_rng, as_vector, row_dot, row_matvec)

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

    Subclasses write one private hook, :meth:`_evaluate`, component i at
    checked points; the base derives :meth:`component` (order, index and
    points checked, then :meth:`_evaluate`), :meth:`full` (the mean of
    :meth:`_answers`, one evaluation per component by default) and
    :meth:`_evaluate_all`.  :meth:`full` and :meth:`component` answer one
    point x of shape (d,) or a stack of P points of shape (P, d), except
    the resisting oracle's game move, which refuses a stack; a stack's
    answer holds values (P,), gradients (P, d) and Hessians (P, d, d).
    :meth:`components` answers several components at one point as the same
    kind of stack, one row per component, and :func:`query` one component
    at one point.  Component indices are 0-based.  A sum that keeps a table
    or stacks its answers overrides :meth:`components` or :meth:`_answers`.
    Charged answers are checked by :func:`_check_answer`.
    """

    n: int
    d: int
    _table_key = None       # the bytes of the point _table holds, or None

    def component(self, i: int, x, order: int = 2) -> Derivatives:
        _check_order(order)
        return self._evaluate(self.check_index(i), as_points(x, dim=self.d),
                              order)

    def _evaluate(self, i, x: np.ndarray, order: int) -> Derivatives:
        """Component i at checked points x, (d,) or (P, d), up to ``order``:
        the one hook a sum writes.  i is a checked index, or ``slice(None)``
        for every component at once (:meth:`_evaluate_all`)."""
        raise NotImplementedError

    def components(self, rows, x, order: int = 2) -> Derivatives:
        """Components ``rows`` (indices, repeats allowed) at one point x:
        values (r,), gradients (r, d) and Hessians (r, d, d), row k
        answering component ``rows[k]``.

        The default asks :meth:`component` once per row, in row order, so a
        stateful sum sees the calls that a loop over the rows makes.
        """
        _check_order(order)
        rows = self.check_rows(rows).tolist()
        return _stacked([self.component(i, x, order) for i in rows], rows,
                        order, self.d)

    def _checked(self, i: int, x: np.ndarray, order: int) -> Derivatives:
        """What :func:`query` answers: component i at x, checked."""
        return _check_answer(self.component(i, x, order), i, order, self.d)

    def check_index(self, i: int) -> int:
        return _index(i, self.n)

    def check_rows(self, rows) -> np.ndarray:
        idx = np.asarray(rows)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("rows must be a non-empty sequence of indices, "
                             f"got shape {idx.shape}")
        return _indices(idx, self.n)

    def full(self, x, order: int = 1) -> Derivatives:
        """Average of all components -- the free measurement side channel.

        ``x`` is one point or a stack of points, answered as
        :meth:`component` answers it, or in one call by a sum that overrides
        :meth:`_answers`.  Its Hessian is dense.  Never goes through a
        ledger; use :func:`query` for charged access.
        """
        _check_order(order)
        x = as_points(x, dim=self.d)
        mean = mean_derivatives(self._answers(x, order), x.shape, order)
        return Derivatives(mean.value, mean.grad, _dense(mean.hess))

    def _answers(self, x: np.ndarray, order: int):
        """Every component at a validated point or stack of points x, one
        :class:`Derivatives` per component in index order, or one stack of
        them (rows in index order): what :meth:`full` sums up to ``order``
        (a stack's higher parts are not read).  The default
        evaluates one component at a time as the answers are consumed, so
        no stack of n Hessians is held; a sum that evaluates all components
        at once overrides it."""
        return (self._evaluate(i, x, order) for i in range(self.n))

    def _table(self, x: np.ndarray) -> Derivatives:
        """:meth:`_evaluate_all` at one point x, read only, kept until a
        point of other bytes asks or ``_table_key`` is set to None."""
        key = x.tobytes()
        if key != self._table_key:
            # the old table goes before the new one is filled, so the two
            # are never held at once
            self._table_key = self._table_value = None
            table = self._evaluate_all(x)
            for part in (table.value, table.grad, table.hess):
                part.flags.writeable = False
            self._table_key, self._table_value = key, table
        return self._table_value

    def _evaluate_all(self, x: np.ndarray) -> Derivatives:
        """Every component's order-2 answer at one point x as one stack;
        each row, up to any order, has the bits of that row's evaluation."""
        return self._evaluate(slice(None), x, 2)


def _index(i, n: int) -> int:
    """Component index i of a sum of n as a Python int; ValueError for a
    bool (which ``operator.index`` reads as 0 or 1), a non-integer or an
    index outside [0, n)."""
    if type(i) is bool:
        raise ValueError("component indices must be integers, got bool")
    try:
        i = operator.index(i)
    except TypeError:
        raise ValueError(f"component indices must be integers, got "
                         f"{type(i).__name__}") from None
    if not 0 <= i < n:
        raise ValueError(f"component index {i} out of range [0, {n})")
    return i


def _indices(idx: np.ndarray, n: int) -> np.ndarray:
    """A non-empty array of component indices, checked as :func:`_index`
    checks one; out of range names the smallest if negative, else the
    largest."""
    if idx.dtype.kind not in "iu":
        raise ValueError(f"component indices must be integers, got "
                         f"{idx.dtype}")
    lo, hi = int(idx.min()), int(idx.max())
    if lo < 0 or hi >= n:
        raise ValueError(f"component index {lo if lo < 0 else hi} out of "
                         f"range [0, {n})")
    return idx


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
    symmetrized (a factored ``V S V^T`` one through its S): as they are,
    with no copy, when they equal their transposes bit for bit.  A stack
    passes or fails as its first failing row would."""
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


def _row(stack: Derivatives, k: int, order: int) -> Derivatives:
    """Row k of a stack of answers up to ``order``, its value a float."""
    return Derivatives(_as_value(stack.value[k]),
                       stack.grad[k] if order >= 1 else None,
                       stack.hess[k] if order >= 2 else None)


def _row_answers(stack: Derivatives, order: int):
    """A stack's rows up to ``order``, as far as its shortest part goes."""
    parts = (stack.value, stack.grad, stack.hess)[:order + 1]
    return (_row(stack, k, order) for k in range(min(map(len, parts))))


def mean_derivatives(answers, shape: tuple, order: int) -> Derivatives:
    """Mean of component answers, summed in the order given (component
    index order everywhere in the package), then divided by their count.
    ``shape`` is the gradients' shape: (d,) for answers at one point,
    (P, d) for answers at a stack of P points; an answer whose value,
    gradient or Hessian has another shape raises.  Hessians are dense, or
    all factored as ``V S V^T`` (the resisting oracle's private form):
    their S are summed, padded to the widest V, since a round can close
    mid-pass, and the mean is factored too.

    ``answers`` is an iterable of answers or one stack of them: a
    :class:`Derivatives` whose parts have a leading axis of one row per
    answer, its Hessians dense or one factored stack (S with that leading
    axis).  A stack is summed in one numpy pass with the bits of the loop
    over its rows, and a stack with a bad row raises the loop's error.

    The one averaging pass behind every full-sum quantity: the free
    measurement channel and the charged snapshot and baseline passes.
    """
    if isinstance(answers, Derivatives):
        return _stack_mean(answers, shape, order)
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


def _stack_mean(stack: Derivatives, shape: tuple, order: int) -> Derivatives:
    """:func:`mean_derivatives` of a stack, bit for bit."""
    parts = (stack.value, stack.grad, stack.hess)[:order + 1]
    shapes = [np.shape(part) for part in parts]
    lead = shapes[0][:1]
    tails = [shape[:-1], shape, shape + shape[-1:]][:order + 1]
    if not lead or shapes != [lead + tail for tail in tails]:
        if lead:    # the loop raises the error of its first bad row
            mean_derivatives(_row_answers(stack, order), shape, order)
        raise ValueError(f"a stack of answers has parts of shapes {shapes}, "
                         f"not one row each of shapes {tails}")
    return Derivatives(*[_row_sum(part) / lead[0] for part in parts])


def _row_sum(part):
    """The sum of a stack's rows, added in order as the loop of
    :func:`mean_derivatives` adds them: a dense stack from +0.0, a factored
    one through its S from a copy of the first S.

    numpy adds the rows of a C-ordered (r, m) array in order when m > 1,
    but pairwise when m == 1, where the summed axis is the fast one; there
    ``np.add.accumulate`` adds them in order, from the first row.  A dense
    total then adds 0.0: an all -0.0 total becomes the loop's +0.0 and any
    other is unchanged.  A factored total is accumulated, so an all -0.0
    entry keeps its sign, as in the loop.
    """
    factored = isinstance(part, _Factored)
    stack = part.S if factored else part
    rows = np.ascontiguousarray(stack).reshape(len(stack), -1)
    total = (np.add.accumulate(rows, axis=0)[-1]
             if factored or rows.shape[1] == 1
             else np.add.reduce(rows, axis=0)).reshape(np.shape(stack)[1:])
    return _Factored(part.V, total) if factored else total + 0.0


class CallableFiniteSum(FiniteSumFunction):
    """Finite sum built from a list of ``f(x, order) -> Derivatives``.

    Its :meth:`_evaluate` hands one point to callable i; a stack of points
    is answered point by point and the answers stacked.
    """

    def __init__(self, components, d: int):
        self._components = list(components)
        self.n = len(self._components)
        self.d = _count(d, "d", 1)
        if self.n < 1:
            raise ValueError("need at least one component")

    # bound here, not inherited, for the benchmark's tracer to patch
    component = FiniteSumFunction.component

    def _evaluate(self, i: int, x: np.ndarray, order: int) -> Derivatives:
        f = self._components[i]
        if x.ndim == 1:
            return f(x, order)
        return _stacked([f(p, order) for p in x], [i] * len(x), order, self.d)


class _QuadraticCosineSum(FiniteSumFunction):
    """The components of :func:`quadratic_cosine_sum`, held as stacked
    arrays: A (n, d, d), b (n, d), c (n,) and r (n, d).

    One component at one point, a stack of points, or a stack of
    components at one point (:meth:`components`) is answered in one
    evaluation whose products go through ``row_dot`` / ``row_matvec``, so
    each row of a stack equals the one-point answer of its component at its
    point bit for bit.

    One-point :meth:`components` and :meth:`full` calls read the answer
    table (:meth:`~FiniteSumFunction._table`), which the first of them at a
    point fills: an SVRC step's measurement ``full(x, 2)`` and the next
    step's estimators at x share one evaluation.  :meth:`component` and
    stacks of points never touch it.
    """

    def __init__(self, A, b, c, r):
        self._A, self._b, self._c, self._r = A, b, c, r
        self.n, self.d = b.shape

    def components(self, rows, x, order: int = 2) -> Derivatives:
        _check_order(order)
        rows = self.check_rows(rows)
        if rows.size == self.n and (rows == np.arange(self.n)).all():
            rows = slice(None)
        table = self._table(as_vector(x, dim=self.d))
        return Derivatives(*(part[rows] for part in
                             (table.value, table.grad, table.hess)[:order + 1]))

    def _answers(self, x: np.ndarray, order: int):
        """At one point, the answer table; at a stack of points, one answer
        per component as they are consumed."""
        return self._table(x) if x.ndim == 1 else super()._answers(x, order)

    def _evaluate(self, i, x, order: int) -> Derivatives:
        """Component i (an index, an index array, or the slice of every
        component in order, which reads the arrays without copying them)
        at x (a point or, for one index, a stack of points)."""
        A, b, c, r = self._A[i], self._b[i], self._c[i], self._r[i]
        t, Ax, rx = row_dot(b, x), row_matvec(A, x), row_dot(r, x)
        xAx = row_dot(x, Ax)
        val = 0.5 * xAx + c * np.cos(t) + rx
        if order == 0:
            return Derivatives(val)
        grad = Ax - (c * np.sin(t))[..., None] * b + r
        if order == 1:
            return Derivatives(val, grad)
        # b b^T is formed per evaluation, for a stack of components by
        # einsum (half the broadcast product's time at n = 256, d = 20,
        # with its bits), and scaled in place, s (b_j b_k) having the bits
        # of (b_j b_k) s; one component at a stack of points needs a new
        # (P, d, d) array
        s = (c * np.cos(t))[..., None, None]
        hess = np.einsum("ij,ik->ijk", b, b) if b.ndim == 2 else b[:, None] * b
        if x.ndim > b.ndim:
            hess = s * hess
        else:
            hess *= s
        return Derivatives(val, grad, np.subtract(A, hess, out=hess))


def quadratic_cosine_sum(n: int, d: int, seed, *, curvature: float = 1.0,
                         ripple: float = 1.0) -> FiniteSumFunction:
    """A smooth non-convex synthetic benchmark sum.

    Component i is  0.5 x^T A_i x + c_i * cos(<b_i, x>) + <r_i, x>  with a
    positive-semidefinite A_i.  Every derivative of order >= 3 lives in the
    cosine term, so the Hessian-difference Lipschitz constant of component i
    is exactly |c_i| * |b_i|^3, which makes the sum a convenient target for
    smoothness estimation with a known ground truth.
    """
    n, d = _integer(n, "n"), _integer(d, "d")
    if min(n, d) < 1:
        raise ValueError(f"n and d must be at least one, got {n} and {d}")
    rng = as_rng(seed)
    # component i draws G_i (d x d normals), b_i (d normals), scale_i and c_i
    # (uniform on [0.5, 1.5)) and r_i (d normals), in this order.  Row i of
    # ``normals`` holds G_i, b_i, r_i, so r_{i-1}, G_i and b_i are one run
    # of the buffer and one call fills them; uniform(0.5, 1.5) is
    # 0.5 + 1.0 * u, and 1.0 * u is u.  Then the arithmetic on the stacks;
    # row i equals the one-component products bit for bit.
    width = d * d + 2 * d
    normals, uniforms = np.empty(n * width), np.empty((n, 2))
    start = 0
    for i in range(n):
        stop = i * width + d * d + d
        rng.standard_normal(out=normals[start:stop])
        rng.random(out=uniforms[i])
        start = stop
    rng.standard_normal(out=normals[start:])
    normals = normals.reshape(n, width)
    G = normals[:, :d * d].reshape(n, d, d)
    b, r = normals[:, d * d:].reshape(n, 2, d).swapaxes(0, 1).copy()
    scale, c = uniforms[:, 0] + 0.5, uniforms[:, 1] + 0.5
    G /= np.sqrt(d)
    b *= (scale / _norms(b))[:, None]
    c *= ripple
    r *= 0.3
    A = G @ G.swapaxes(-1, -2)
    A *= curvature
    return _QuadraticCosineSum(A, b, c, r)


def _integer(value, name: str) -> int:
    """``value`` as a Python int; ValueError naming it for a bool (which
    ``operator.index`` reads as 0 or 1) or a non-integer.  numpy integers
    are accepted."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got bool")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got "
                         f"{type(value).__name__}") from None


def _count(count, name: str = "count", least: int = 0) -> int:
    """A count (a ledger's, a check's sample count or an instance size) as
    a Python int: a bool, a non-integer or a count below ``least`` raises
    ValueError naming it, so every counter stays an exact int."""
    count = _integer(count, name)
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


@dataclass
class OracleLedger:
    """Exact query accounting for one run of a sum of ``n`` components
    (a count of at least one, checked by :func:`_count`).

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
        self.n = _count(self.n, "n", 1)
        self.per_index = np.zeros(self.n, dtype=np.int64)
        # per_index's slots as Python ints: a charge books without a numpy
        # scalar round trip
        self._slots = memoryview(self.per_index)

    def __getstate__(self) -> dict:
        # a copy or a pickle rebuilds the memoryview, which neither takes
        return {k: v for k, v in vars(self).items() if k != "_slots"}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._slots = memoryview(self.per_index)

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
        """Book ``count`` queries to component i up to ``order``; an index
        that is not an integer in [0, n) (see :func:`_index`), an order
        outside 0..2 (see :func:`_check_order`) or a count that is not a
        non-negative integer (see :func:`_count`) raises ValueError and
        books nothing."""
        _check_order(order)
        self._book(_index(i, self.n), order, count, requery)

    def _book(self, i: int, order: int, count, requery) -> None:
        """:meth:`charge` of a checked index i: every charge lands here."""
        if type(count) is not int or count < 0:
            count = _count(count)
        self._slots[i] += count
        if order >= 1:
            self.grad_queries += count
        if order >= 2:
            self.hess_queries += count
        if requery:
            self.requery_queries += count

    def record_cache_hit(self, count: int = 1) -> None:
        """Record ``count`` lookups served from a snapshot cache at zero
        query cost; the count is checked as :meth:`charge` checks it."""
        self.cache_hits += _count(count)

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


def _check_ledger(ledger: OracleLedger, F) -> None:
    """The check that ``ledger`` counts the components of F, a sum or a
    view of one, before anything is evaluated or charged."""
    if ledger.n != F.n:
        raise ValueError(f"the ledger counts {ledger.n} components, not the "
                         f"{F.n} of this sum")


def query(ledger: OracleLedger, F: FiniteSumFunction | _Evaluated, i: int,
          x, order: int = 2, *, count: int = 1,
          requery: bool = False) -> Derivatives:
    """Charged oracle access to component i of F at one point x.

    Returns f_i(x) and derivatives up to ``order`` and charges the ledger.
    The answer is checked before the charge (:func:`_check_answer`): a
    wrong shape, a non-finite value or gradient, or an asymmetric Hessian
    raises ValueError naming i and the order, and charges nothing.  A
    returned Hessian is exactly symmetric, so callers never re-symmetrize.
    F may be a read-only view of answers already checked at x (the SVRC
    and baseline passes charge through one), which answers without
    evaluating or checking again; its answer to a component at the order
    it holds is one object, returned to every such query, so a caller must
    not assign to an answer's fields.  A stack of points is rejected: charged access
    is one point per call.  A ledger of another size than F raises
    ValueError (:func:`_check_ledger`) before anything is evaluated.
    ``count > 1`` records `count` i.i.d. repetitions of the identical query
    (the answer is deterministic, so it is evaluated once); this keeps the
    accounting exact while letting batch samplers aggregate repeated draws.
    ``requery`` marks the charge as a snapshot-point re-read so the ledger
    can report both raw and cache-adjusted totals.
    """
    # the common case by type tests alone; anything else takes the checks
    # that name what is wrong, in this order
    if not (type(order) is int and 0 <= order <= 2 and type(x) is np.ndarray
            and x.ndim == 1 and type(i) is int and 0 <= i < F.n
            and ledger.n == F.n):
        _check_ledger(ledger, F)
        _check_order(order)
        x = np.asarray(x)
        if x.ndim != 1:
            raise ValueError(f"query takes one point, got shape {x.shape}")
        i = _index(i, F.n)
    der = F._checked(i, x, order)
    ledger._book(i, order, count, requery)
    return der


class _Evaluated:
    """Checked answers of some components of a sum F (``source``) at one
    point ``x`` up to one order: not a sum but a read-only view, with F's
    ``n`` and ``d``, that :func:`query` charges rows through without
    evaluating or checking them again.
    ``answers[i]`` is component i's answer, None where not held, one object
    to every charge of it: a baseline pass's rows (a resisting oracle's
    round can close mid-pass, leaving them factored over bases of two
    widths) or one stack's (:meth:`from_stack`).  The view refuses another
    point, a higher order and an index it does not hold.  A view of one
    stack keeps it (``stack``, else None), and is ``whole`` when its rows
    are every component, in index order: an SVRC snapshot is a whole view
    of order 2, and the SVRC estimators refuse any other."""

    stack: Derivatives | None = None
    whole = False

    @cached_property
    def mean(self) -> Derivatives:
        """The mean of a view's stack, its rows summed in order
        (:func:`mean_derivatives`): for a snapshot, the full sum's value,
        gradient and Hessian at x.  Computed when first read, once."""
        return mean_derivatives(self.stack, (self.d,), self._order)

    def __init__(self, F: FiniteSumFunction, x: np.ndarray, order: int,
                 answers: list):
        self.source, self.n, self.d = F, F.n, F.d
        self.x, self._order, self.answers = x, order, answers

    @classmethod
    def from_stack(cls, F: FiniteSumFunction, rows, x: np.ndarray,
                   order: int, stack: Derivatives) -> _Evaluated:
        """The view of ``stack``, row k answering component ``rows[k]``,
        checked once as :func:`query` checks one answer (a bad row raises
        its own error; Hessians are kept symmetrized), its arrays made
        read-only, and split into one answer per row, its value a numpy
        float.  It is ``whole`` when ``rows`` are every component in index
        order, so that row i of the stack answers component i."""
        rows = np.asarray(rows)
        stack = _check_answer(stack, rows, order, F.d)
        parts = (stack.value, stack.grad, stack.hess)[:order + 1]
        # before the split: a view takes its base's flag when it is made
        for part in parts:
            getattr(part, "S", part).flags.writeable = False
        answers = [None] * F.n
        for i, der in zip(rows.tolist(), map(Derivatives, *parts)):
            answers[i] = der
        view = cls(F, x, order, answers)
        view.stack, view.whole = stack, np.array_equal(rows, np.arange(F.n))
        return view

    @classmethod
    def evaluate(cls, F: FiniteSumFunction, rows, x: np.ndarray,
                 order: int) -> _Evaluated:
        return cls.from_stack(F, rows, x, order, F.components(rows, x, order))

    def _checked(self, i: int, x: np.ndarray, order: int) -> Derivatives:
        if x is not self.x and not np.array_equal(x, self.x):
            raise ValueError("these answers were evaluated at another point")
        if order > self._order:
            raise ValueError(f"these answers go up to order {self._order}, "
                             f"not {order}")
        der = self.answers[i]
        if der is None:
            raise ValueError(f"component {i} was not evaluated here")
        if order < self._order:
            der = Derivatives(der.value, der.grad if order >= 1 else None)
        return der


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
