"""The adaptive adversary for deterministic algorithms.

The adversary answers component queries with a *truncated* chain function
whose active terms only involve directions it has already committed to.
Play proceeds in rounds: a round ends once queries have touched ceil(n/2)
distinct component indices, at which point the adversary (a) marks the
components that were *not* queried this round as carrying the round's chain
term and (b) commits a fresh unit direction drawn orthogonal to every
direction committed so far *and* to every iterate archived so far.  Because
each response only ever depends on directions committed before the current
round, the finalized function reproduces every answer given during the game,
and the last committed direction is orthogonal to the entire query history.

After the final round the game is over; the function is frozen at its
finalized form and keeps answering consistently (queries are no longer
archived -- there is nothing left to certify about them).

Every answer lives in the span of the first ``active`` committed
directions V: component i is a scaled chain of w = V^T x / sigma, so its
gradient is V g and its Hessian V S V^T with g and S in chain coordinates
(``active`` <= K + 1, far below d).  Every Hessian is answered in that
factored form (``linalg._Factored``); the public ``component`` and
``full`` answer its lift, and the archive keeps each query's chain
coordinates, not a d x d matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..chains import Derivatives, _chain_eval, _check_order
from ..linalg import (_Factored, _dense, _norm, _norms, _rel_errs, as_rng,
                      as_vector, row_dot, row_matvec)
from ..oracle import FiniteSumFunction, _check_answer, _Evaluated, _row
from .params import HardInstanceSpec

__all__ = ["ResistingOracle", "ResistingCertificate", "NotFinalizedError"]

_ORTHO_TOL = 1e-10


class NotFinalizedError(RuntimeError):
    """Raised when a certificate is requested from an unfinished game."""


@dataclass
class _ArchivedQuery:
    """One answered query: component i at x up to ``order``, answered with
    the first ``active`` directions; ``response`` holds its value, and its
    gradient (active,) and Hessian (active, active) in chain coordinates."""

    i: int
    x: np.ndarray
    order: int
    active: int
    response: Derivatives

    @property
    def round(self) -> int:
        """The round the query was answered in."""
        return self.active + 1


@dataclass(frozen=True)
class ResistingCertificate:
    """Post-game audit of the adversary's play.

    For every archived query: the inner product of the iterate with the last
    committed direction, the finalized full-gradient norm at the iterate
    (against the lower bound lam * sigma^p / 4), and the worst relative
    deviation between the recorded response and a replay against the
    finalized function.  An empty game certifies vacuously.
    """

    num_queries: int
    rounds_closed: int
    bound: float
    inner_products: np.ndarray = field(repr=False)
    grad_norms: np.ndarray = field(repr=False)
    max_inner_product: float
    min_grad_norm: float
    all_orthogonal: bool
    all_above_bound: bool
    max_replay_rel_err: float
    replay_consistent: bool

    @property
    def passed(self) -> bool:
        return self.all_orthogonal and self.all_above_bound and self.replay_consistent

    def to_dict(self) -> dict:
        """The scalar fields, in field order, then ``passed``."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)
                   if f.repr}, "passed": self.passed}


class ResistingOracle(FiniteSumFunction):
    """Stateful adversary; also usable directly as a finite-sum objective.

    ``component`` answers *and* advances the game, so a single oracle
    instance serves exactly one algorithm run; a game move is one point, so
    it refuses a stack.  ``full`` is the measurement side channel: it
    averages the current responses at one point or a stack without
    archiving anything or advancing rounds.  During play these are the
    truncated responses (what the algorithm could reconstruct); after
    finalization they are the true finalized objective.

    A charged pass over the n components is n game moves in row order (so
    a round can close mid-pass) and one ledger charge per row.  A move is
    checked before it is archived and counted towards closing the round,
    so a refused move is neither.  The answers are read-only views of one
    order-2 stack per table, checked once, and the moves that read one
    row share its answer; :meth:`full` and ``mu`` at that point sum the
    same stack.
    The chain is evaluated once per point for all n components, into the
    answer table, which a round close drops: the moves of a pass, the
    order-1 and order-2 passes at one iterate and a measurement there read
    one evaluation.
    """

    def __init__(self, spec: HardInstanceSpec, seed):
        if spec.mode != "deterministic":
            raise ValueError("ResistingOracle requires a deterministic-mode spec")
        self.spec = spec
        self.n = spec.n
        self.d = spec.d
        self._K = spec.K
        self._rng = as_rng(seed)
        self._half = math.ceil(self.n / 2)

        self._V = np.zeros((self.d, self._K + 1))
        self._delta = np.zeros((self.n, self._K + 1))
        self._delta[: self._half, 0] = 1.0

        # orthonormal basis of span(committed directions + archived iterates)
        self._basis = np.zeros((self.d, self.d))
        self._nbasis = 0
        self._basis_key = None      # the bytes of the last point given
        # the table whose order-2 stack (unchecked) and checked answers
        # (None where its check failed) the moves read
        self._row_table = self._row_stack = self._row_answers = None

        self._rounds_closed = 0
        self._round_seen: set[int] = set()
        self._archive: list[_ArchivedQuery] = []

        self._V[:, 0] = self._draw_direction()

    # -- orthonormal bookkeeping ------------------------------------------

    def _project_out(self, x: np.ndarray) -> np.ndarray:
        r = x.astype(float, copy=True)
        B = self._basis[:, : self._nbasis]
        for _ in range(2):  # re-orthogonalize once for ~machine orthogonality
            if self._nbasis:
                r -= B @ (B.T @ r)
        return r

    def _insert_basis(self, x: np.ndarray) -> None:
        # the last iterate given already lies in the span, which only grows
        key = x.tobytes()
        if key == self._basis_key:
            return
        self._basis_key = key
        nx = _norm(x)
        if nx == 0.0:
            return
        r = self._project_out(x)
        nr = _norm(r)
        if nr > 1e-12 * nx:
            if self._nbasis >= self.d:
                raise RuntimeError(
                    "adversary ran out of dimensions while archiving an "
                    "iterate; rebuild the instance with a larger budget/d")
            self._basis[:, self._nbasis] = r / nr
            self._nbasis += 1

    def _draw_direction(self) -> np.ndarray:
        if self._nbasis >= self.d:
            raise RuntimeError(
                "orthogonal complement exhausted: every dimension is pinned "
                "by committed directions or archived iterates; rebuild the "
                "instance with a larger query budget (hence larger d)")
        for _ in range(8):
            g = self._rng.standard_normal(self.d)
            r = self._project_out(g)
            nr = _norm(r)
            if nr > 1e-8 * _norm(g):
                v = r / nr
                self._basis[:, self._nbasis] = v
                self._nbasis += 1
                return v
        raise RuntimeError("failed to draw a direction in the orthogonal "
                           "complement (d too small for the query volume)")

    # -- the masked, scaled chain ------------------------------------------

    def _chains(self, x: np.ndarray, order: int, active: int,
                masks: np.ndarray | None = None) -> Derivatives:
        """The unscaled chain answers in the coordinates of the first
        ``active`` directions, in one kernel call: of every component at one
        point x, shape (d,), as rows (n,); of every component at a stack of
        points, shape (P, d), as rows (n, P); or, given ``masks`` (one row
        per point), of each mask paired with its point of a stack.  Every
        row equals bit for bit the one-component answer at its point."""
        w = row_matvec(self._V[:, :active].T, x) / self.spec.sigma
        if masks is None:
            masks = self._delta[:, :active]
            if x.ndim == 2:
                masks = masks[:, None, :]
        return _chain_eval(active, masks, w, order)

    def _evaluate_all(self, x: np.ndarray) -> Derivatives:
        """The chain answers with the current directions, which a round
        close changes, so :meth:`_close_round` drops the table."""
        return self._chains(x, 2, self._active)

    def _scales(self) -> tuple[float, float, float]:
        """The factors of the value, gradient and Hessian of a chain answer
        in a component's answer."""
        spec = self.spec
        a = spec.lam * spec.sigma ** (spec.p + 1)
        return a, a / spec.sigma, a / spec.sigma ** 2

    def _answer(self, ch: Derivatives, order: int, active: int
                ) -> Derivatives:
        """The answer from a chain answer ch, one component's or a stack of
        them: value, gradient and Hessian, factored as V S V^T."""
        a, a_grad, a_hess = self._scales()
        Vk = self._V[:, :active]
        Vk.flags.writeable = False      # _V itself stays writeable
        val = a * ch.value
        if order == 0:
            return Derivatives(val)
        grad = a_grad * row_matvec(Vk, ch.grad)
        if order == 1:
            return Derivatives(val, grad)
        return Derivatives(val, grad, _Factored(Vk, a_hess * ch.hess))

    def _coordinates(self, ch: Derivatives) -> Derivatives:
        """A chain answer scaled into the component's, its gradient and
        Hessian left in chain coordinates (the answer is V g, V S V^T)."""
        a, a_grad, a_hess = self._scales()
        return Derivatives(a * ch.value,
                           None if ch.grad is None else a_grad * ch.grad,
                           None if ch.hess is None else a_hess * ch.hess)

    # -- game play -----------------------------------------------------------

    def component(self, i: int, x, order: int = 2) -> Derivatives:
        """Component i at one point x up to ``order``, its Hessian lifted to
        a dense one: the game move of :meth:`_checked`, so a stack raises."""
        der = self._checked(i, x, order)
        return Derivatives(der.value, der.grad, _dense(der.hess))

    def _checked(self, i: int, x, order: int) -> Derivatives:
        """One game move, component i at one point x up to ``order``, its
        Hessian factored: its row of the row set of its table, the table's
        order-2 stack checked once, truncated to ``order``.  The checked
        stack is read-only, so every move shares its rows; :meth:`_answers`
        at x reads the stack as it was before its check.  Where that check
        fails, the move's answer at ``order`` is checked alone, which raises
        its own error.  Only a checked move is archived (during play) and
        counted towards closing the round."""
        _check_order(order)
        i = self.check_index(i)
        if np.ndim(x) != 1:
            raise ValueError(f"a game move is one point: component takes x "
                             f"of shape ({self.d},), got {np.shape(x)}")
        x = as_vector(x, dim=self.d)
        active = self._active
        table = self._table(x)
        if self._row_table is not table:
            stack = self._answer(table, 2, active)
            try:
                # the view is not kept: its source is this oracle
                answers = _Evaluated.from_stack(self, np.arange(self.n), x,
                                                2, stack).answers
            except ValueError:
                answers = [None] * self.n
            self._row_table, self._row_stack = table, stack
            self._row_answers = answers
        der = self._row_answers[i]
        if der is None:
            der = _check_answer(self._answer(_row(table, i, order), order,
                                             active), i, order, self.d)
        elif order < 2:
            der = Derivatives(der.value, der.grad if order >= 1 else None)
        if self.finalized:
            return der
        self._archive.append(_ArchivedQuery(
            i, x.copy(), order, active,
            self._coordinates(_row(table, i, order))))
        self._insert_basis(x)
        if i not in self._round_seen:
            self._round_seen.add(i)
            if len(self._round_seen) == self._half:
                self._close_round()
        return der

    def _close_round(self) -> None:
        j = self._rounds_closed + 1   # the column this round commits
        unqueried = np.ones(self.n, dtype=bool)
        unqueried[list(self._round_seen)] = False
        self._delta[unqueried, j] = 1.0
        self._V[:, j] = self._draw_direction()
        self._rounds_closed = j
        self._round_seen = set()
        self._table_key = None

    def finalize(self) -> None:
        """Force-close all remaining rounds (e.g. after an early stop).

        Rounds never played mark every component and commit directions
        orthogonal to the whole archive, so the certificate's guarantees
        hold for whatever prefix of the game was actually played.
        """
        while not self.finalized:
            self._close_round()

    # bound in the class, not inherited: the benchmark's tracer patches
    # ResistingOracle.full itself
    full = FiniteSumFunction.full

    def _answers(self, x: np.ndarray, order: int) -> Derivatives:
        """Every component's current answer at x as one stack, rows in
        index order and Hessians factored: what :meth:`full` sums, from one
        chain evaluation; at the point of the moves' row set, its order-2
        stack as it was before its check."""
        active = self._active
        if x.ndim == 2:
            return self._answer(self._chains(x, order, active), order, active)
        table = self._table(x)
        if table is self._row_table:
            return self._row_stack
        return self._answer(table, order, active)

    @property
    def _active(self) -> int:
        """The number of directions the current answers use."""
        return self._rounds_closed + 1

    @property
    def rounds_closed(self) -> int:
        return self._rounds_closed

    @property
    def finalized(self) -> bool:
        """Whether all K rounds are closed: the game is over."""
        return self._rounds_closed == self._K

    @property
    def num_archived(self) -> int:
        return len(self._archive)

    @property
    def directions(self) -> np.ndarray:
        """A copy of the direction matrix, shape (d, K + 1): every column,
        committed or not.  Column j holds the j-th committed direction, and
        zeros until it is committed: during play, columns
        ``rounds_closed + 1`` onward are zero."""
        return self._V.copy()

    # -- certification ------------------------------------------------------

    def certificate(self) -> ResistingCertificate:
        if not self.finalized:
            raise NotFinalizedError(
                "certificate requested before the game was finalized")
        spec = self.spec
        bound = spec.lam * spec.sigma ** spec.p / 4.0
        v_last = self._V[:, self._K]

        # one pass over the archive for each: the inner products with v_last,
        # the finalized gradient norms, and the replay of every move in chain
        # coordinates against its answer, padded with zeros for the
        # directions committed after it
        archive = self._archive
        inner, gnorms, max_replay = np.empty(0), np.empty(0), 0.0
        if archive:
            X = np.stack([rec.x for rec in archive])
            inner = np.abs(row_dot(X, v_last))
            # the gradient once per distinct point (by its bytes; a stacked
            # row of full is its one-point answer), read back for each move
            _, first, where = np.unique(X.view(f"V{X.itemsize * self.d}"),
                                        return_index=True, return_inverse=True)
            gnorms = _norms(self.full(X[first], order=1).grad)[where.ravel()]
            top = self._K + 1
            replay = self._coordinates(self._chains(
                X, 2, top, self._delta[[rec.i for rec in archive]]))
            value = np.array([rec.response.value for rec in archive])
            grad = np.zeros((len(archive), top))
            hess = np.zeros((len(archive), top, top))
            for k, rec in enumerate(archive):
                a = rec.active
                if rec.order >= 1:
                    grad[k, :a] = rec.response.grad
                if rec.order == 2:
                    hess[k, :a, :a] = rec.response.hess
            orders = np.array([rec.order for rec in archive])
            g, h = orders >= 1, orders == 2
            max_replay = float(max(
                _rel_errs(replay.value, value).max(),
                _rel_errs(replay.grad[g], grad[g]).max(initial=0.0),
                _rel_errs(replay.hess[h], hess[h]).max(initial=0.0)))
        max_inner = float(inner.max(initial=0.0))
        min_gnorm = float(gnorms.min(initial=math.inf))
        return ResistingCertificate(
            num_queries=len(archive), rounds_closed=self._rounds_closed,
            bound=bound, inner_products=inner, grad_norms=gnorms,
            max_inner_product=max_inner, min_grad_norm=min_gnorm,
            all_orthogonal=max_inner <= _ORTHO_TOL,
            all_above_bound=min_gnorm > bound,
            max_replay_rel_err=max_replay,
            replay_consistent=max_replay <= _ORTHO_TOL)

