import dataclasses
import gc
import math
import os
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

from conftest import counted_forks, good_and_short, no_child_left

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardsum.chains import Derivatives
from hardsum.cubic import CubicModel, solve
from hardsum.instances import ResistingOracle, deterministic_params, ell_p
from hardsum.linalg import _lambda_min, sample_orthonormal_columns
from hardsum.oracle import (CallableFiniteSum, OracleLedger, _Evaluated,
                            mean_derivatives, quadratic_cosine_sum, query)
import hardsum.optim
from hardsum.optim import (
    C_M,
    SvrcParams,
    baseline_full_cubic,
    baseline_full_gd,
    mu,
    svrc_default_params,
    svrc_gradient_estimator,
    svrc_hessian_estimator,
    svrc_run,
    _batch_counts,
    _bounded_indices,
    _Counts,
    _draw_batches,
    _draw_counts,
    _drawn_counts,
    _estimator_pass,
    _fork_pays,
    _stationarity,
)


def _identity_quadratic(d=4, n=3):
    """n copies of 0.5|x|^2: gradient x, Hessian I; SOSP at the origin."""
    def f(x, order=2):
        v = 0.5 * float(x @ x)
        if order == 0:
            return Derivatives(v)
        if order == 1:
            return Derivatives(v, x.copy())
        return Derivatives(v, x.copy(), np.eye(x.size))
    return CallableFiniteSum([f] * n, d=d)


def _fail_solve_on_second_call(monkeypatch):
    """Patch the cubic solver the optimizers call so that its second call
    raises ArithmeticError; returns the list of steps it returned before."""
    real = solve
    steps = []

    def flaky(model):
        if steps:
            raise ArithmeticError("injected solver failure")
        sol = real(model)
        steps.append(sol.h)
        return sol

    monkeypatch.setattr("hardsum.optim.solve", flaky)
    return steps


class TestSchedule:
    def test_worked_example_n1024(self):
        p = svrc_default_params(n=1024, d=50, Delta=1.0, L2=1.0, eps=1.0)
        assert p.T == 4                      # ceil(1024^0.2) = 4
        assert p.b_g == 1280                 # 5 * 1024^0.8 = 5 * 256
        assert p.b_h == math.ceil(3000.0 * 1024 ** 0.4 * math.log(50) ** 3 - 1e-6)
        assert p.M == 150.0

    def test_worked_example_n1(self):
        p = svrc_default_params(n=1, d=3, Delta=1.0, L2=1.0, eps=1.0)
        assert p.T == 2                      # floor at 2
        assert p.b_g == 80                   # 5 * max(1, 16)
        assert p.b_h == math.ceil(12000.0 * math.log(3) ** 3 - 1e-6)

    def test_s_floors_at_one(self):
        p = svrc_default_params(n=8, d=5, Delta=1.0, L2=1.0, eps=1e9)
        assert p.S == 1

    def test_s_scaling(self):
        # S = 240 C_M^2 sqrt(L2) Delta n^(-1/5) eps^(-3/2), rounded up
        p = svrc_default_params(n=32, d=5, Delta=2.0, L2=4.0, eps=100.0)
        expected = 240.0 * C_M ** 2 * 2.0 * 2.0 * 32 ** -0.2 / 1000.0
        assert p.S == math.ceil(expected - 1e-9)

    def test_exact_integers_not_bumped(self):
        # 5 * 1024^0.8 is exactly 1280; the ceil guard must not push it to 1281
        p = svrc_default_params(n=1024, d=50, Delta=1.0, L2=1.0, eps=1.0)
        assert p.b_g == 1280

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SvrcParams(M=0.0, b_g=1, b_h=1, S=1, T=1, eps=1.0, Delta=1.0, L2=1.0)
        with pytest.raises(ValueError):
            SvrcParams(M=1.0, b_g=0, b_h=1, S=1, T=1, eps=1.0, Delta=1.0, L2=1.0)
        with pytest.raises(ValueError):
            svrc_default_params(n=0, d=3, Delta=1.0, L2=1.0, eps=1.0)

    @pytest.mark.parametrize("name", ["n", "d", "Delta", "L2", "eps"])
    @pytest.mark.parametrize("value", [0, -1.5, float("nan")])
    def test_default_params_name_the_refused_value(self, name, value):
        # a size is checked to be an integer first, as the spec checks it
        base = dict(n=8, d=3, Delta=1.0, L2=1.0, eps=1.0)
        match = (f"{name} must be an integer, got float"
                 if name in ("n", "d") and value != 0
                 else f"{name} must be positive, got {value}")
        with pytest.raises(ValueError, match=f"^{match}$"):
            svrc_default_params(**{**base, name: value})

    @pytest.mark.parametrize("name", ["n", "d"])
    @pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
    def test_default_params_refuse_a_size_that_is_no_integer(self, name,
                                                              value):
        base = dict(n=8, d=3, Delta=1.0, L2=1.0, eps=1.0)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            svrc_default_params(**{**base, name: value})

    @pytest.mark.parametrize("name", ["n", "d"])
    def test_default_params_refuse_a_size_given_as_a_string(self, name):
        # it was compared with 0 first: a bare TypeError naming nothing
        base = dict(n=8, d=3, Delta=1.0, L2=1.0, eps=1.0)
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer, got str$"):
            svrc_default_params(**{**base, name: "8"})

    @pytest.mark.parametrize("field", ["b_g", "b_h", "S", "T", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, np.float64(2.0), True,
                                       np.bool_(True), "2"])
    def test_counts_must_be_integers(self, field, value):
        base = dict(M=1.0, b_g=2, b_h=2, S=1, T=1, eps=1.0, Delta=1.0,
                    L2=1.0)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SvrcParams(**{**base, field: value})

    def test_a_non_integer_count_is_refused_before_any_charge(self):
        # it used to charge the snapshot pass, then fail at the first draw
        F = quadratic_cosine_sum(4, 3, seed=0)
        params = SvrcParams(M=1.0, b_g=2, b_h=2, S=1, T=1, eps=1.0,
                            Delta=1.0, L2=1.0)
        with pytest.raises(ValueError, match="b_g must be an integer"):
            svrc_run(F, dataclasses.replace(params, b_g=2.5))

    def test_numpy_integer_counts_are_kept_as_python_ints(self):
        p = SvrcParams(M=1.0, b_g=np.int64(3), b_h=np.uint16(5),
                       S=np.int32(1), T=np.int8(2), eps=1.0, Delta=1.0,
                       L2=1.0)
        assert [(type(v), v) for v in (p.b_g, p.b_h, p.S, p.T)] == [
            (int, 3), (int, 5), (int, 1), (int, 2)]

    def test_numpy_integer_seed_is_kept_as_a_python_int(self):
        base = dict(M=1.0, b_g=2, b_h=2, S=1, T=1, eps=1.0, Delta=1.0,
                    L2=1.0)
        p = SvrcParams(**base, seed=np.uint32(7))
        assert type(p.seed) is int and p.seed == 7
        F = quadratic_cosine_sum(4, 3, seed=0)
        (x_got, got), (x_want, want) = (svrc_run(F, q) for q in (
            p, SvrcParams(**base, seed=7)))
        assert x_got.tobytes() == x_want.tobytes() and got == want

    def test_a_generator_seed_is_refused(self):
        # svrc_run draws from default_rng(seed), whose PCG64 words its
        # batch counts read
        with pytest.raises(ValueError, match="^seed must be an integer"):
            SvrcParams(M=1.0, b_g=2, b_h=2, S=1, T=1, eps=1.0, Delta=1.0,
                       L2=1.0, seed=np.random.default_rng(0))


class TestEstimators:
    def _setup(self, n=6, d=5, seed=3):
        F = quadratic_cosine_sum(n, d, seed=seed)
        rng = np.random.default_rng(seed + 1)
        x_hat = rng.standard_normal(d)
        x = x_hat + 0.3 * rng.standard_normal(d)
        full = F.full(x_hat, order=2)
        snapshot = _Evaluated.evaluate(F, np.arange(F.n), x_hat, 2)
        return F, x, snapshot, full.grad, full.hess

    def test_at_snapshot_point_estimators_are_exact(self):
        F, _, snapshot, g_s, H_s = self._setup()
        led = OracleLedger(n=F.n)
        batch = np.array([0, 2, 2, 5])
        v = svrc_gradient_estimator(led, snapshot.x, batch, snapshot)
        U = svrc_hessian_estimator(led, snapshot.x, batch, snapshot)
        assert np.allclose(v, g_s, atol=1e-13)
        assert np.allclose(U, H_s, atol=1e-13)

    def test_full_batch_gradient_telescopes(self):
        # with the batch equal to {0..n-1} the correction terms cancel and
        # v equals the exact full gradient at x
        F, x, snapshot, g_s, H_s = self._setup()
        led = OracleLedger(n=F.n)
        v = svrc_gradient_estimator(led, x, np.arange(F.n), snapshot)
        assert np.allclose(v, F.full(x, 1).grad, atol=1e-12)

    def test_full_batch_hessian_telescopes(self):
        F, x, snapshot, g_s, H_s = self._setup()
        led = OracleLedger(n=F.n)
        U = svrc_hessian_estimator(led, x, np.arange(F.n), snapshot)
        assert np.allclose(U, F.full(x, 2).hess, atol=1e-12)

    def test_gradient_estimator_charging(self):
        F, x, snapshot, g_s, H_s = self._setup()
        led = OracleLedger(n=F.n)
        batch = np.array([1, 1, 1, 4])      # 4 draws, 2 unique
        svrc_gradient_estimator(led, x, batch, snapshot)
        # b charged at x (order 1) + b re-reads at the snapshot (order 2)
        assert led.total == 8
        assert led.requery_queries == 4
        assert led.adjusted_total == 4
        assert led.grad_queries == 8
        assert led.hess_queries == 4
        assert led.per_index[1] == 6

    def test_hessian_estimator_cache_hits(self):
        F, x, snapshot, g_s, H_s = self._setup()
        led = OracleLedger(n=F.n)
        batch = np.array([0, 3, 3])
        svrc_hessian_estimator(led, x, batch, snapshot)
        assert led.total == 3               # only the queries at x are charged
        assert led.cache_hits == 3
        assert led.requery_queries == 0

    def test_estimators_match_per_draw_reference(self):
        # a loop over the draws, one query per draw, against the estimators'
        # per-unique-index rows and count-weighted contractions: the
        # gradient estimator's snapshot re-reads are charged, the Hessian
        # estimator's snapshot reads are free cache hits
        F, x, snapshot, g_s, H_s = self._setup(n=7, d=5)
        x_hat = snapshot.x
        batch = np.array([3, 0, 3, 6, 3, 0, 2, 6, 6, 6])
        b, dx = batch.size, x - x_hat
        ref_g, ref_h = OracleLedger(n=F.n), OracleLedger(n=F.n)
        v_ref, U_ref = g_s + H_s @ dx, H_s.copy()
        for i in batch:
            at_x = query(ref_g, F, i, x, order=1)
            at_hat = query(ref_g, F, i, x_hat, order=2, requery=True)
            v_ref = v_ref + (at_x.grad - at_hat.grad - at_hat.hess @ dx) / b
            hess_x = query(ref_h, F, i, x, order=2).hess
            ref_h.record_cache_hit()
            U_ref = U_ref + (hess_x - at_hat.hess) / b
        led_g, led_h = OracleLedger(n=F.n), OracleLedger(n=F.n)
        v = svrc_gradient_estimator(led_g, x, batch, snapshot)
        U = svrc_hessian_estimator(led_h, x, batch, snapshot)
        for got, want, led, ref in ((v, v_ref, led_g, ref_g),
                                    (U, U_ref, led_h, ref_h)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert led.counters() == ref.counters()
            assert np.array_equal(led.per_index, ref.per_index)

    def test_a_batch_of_every_row_reads_the_snapshot_in_place(self):
        # the drawn rows index the whole snapshot's stack directly; when
        # every row is drawn, the index is the slice that reads it in place
        F, x, snapshot, _, _ = self._setup()
        hess = snapshot.stack.hess
        led = OracleLedger(n=F.n)
        k = _estimator_pass(led, x, [0, 4, 4], 2, snapshot)[4]
        assert np.array_equal(k, [0, 4])
        assert not np.shares_memory(hess[k], hess)
        k = _estimator_pass(led, x, np.arange(F.n).repeat(2), 2, snapshot)[4]
        assert k == slice(None) and np.shares_memory(hess[k], hess)

    def _refused_uncharged(self, batch, match, make_view=None,
                           error=ValueError, ledger_n=None):
        """Both estimators raise ``error`` matching ``match`` on ``batch``,
        at the setup's snapshot or ``make_view(F, xh)``, with a ledger of
        the sum's size or of ``ledger_n``, before they evaluate or charge
        anything."""
        F, x, snapshot, _, _ = self._setup()
        if make_view is not None:
            snapshot = make_view(F, snapshot.x)
        evaluations = []
        F.components = lambda *args: evaluations.append(args)
        led = OracleLedger(n=F.n if ledger_n is None else ledger_n)
        with pytest.raises(error, match=match):
            svrc_gradient_estimator(led, x, batch, snapshot)
        with pytest.raises(error, match=match):
            svrc_hessian_estimator(led, x, batch, snapshot)
        assert evaluations == []
        assert led.counters() == OracleLedger(n=led.n).counters()
        assert not led.per_index.any()

    @pytest.mark.parametrize("cache", [
        lambda F, x_hat: {i: (F.component(i, x_hat, 2).grad,
                              F.component(i, x_hat, 2).hess)
                          for i in range(F.n)},
        lambda F, x_hat: F.components(np.arange(F.n), x_hat, 2),
        lambda F, x_hat: [],
        lambda F, x_hat: None,
    ], ids=["dict", "stack", "list", "none"])
    def test_snapshot_cache_other_than_the_view_rejected(self, cache):
        # only the snapshot pass's checked view is accepted
        self._refused_uncharged([0, 4, 4], "snapshot", cache, TypeError)

    @pytest.mark.parametrize("rows, order", [
        (np.arange(6), 1),
        (np.array([0, 1, 2, 3, 5]), 2),
        (np.array([5, 4, 3, 2, 1, 0]), 2),
        (np.array([0, 1, 2, 3, 4, 4]), 2),
    ], ids=["order-1", "missing-row", "permuted", "repeated-row"])
    def test_snapshot_view_must_hold_the_drawn_rows_at_xh(self, rows, order):
        # a snapshot holds every component, in index order, at order 2;
        # any other view is refused, even one holding the drawn rows 0, 4
        self._refused_uncharged(
            [0, 4, 4], "^snapshot must hold every component, in index "
            "order, up to order 2$", lambda F, x_hat:
            _Evaluated.evaluate(F, rows, x_hat, order))

    @pytest.mark.parametrize("n", [5, 7], ids=["smaller", "larger"])
    def test_a_ledger_of_another_size_is_refused(self, n):
        # the ledger counts the snapshot's sum's 6 components: a smaller
        # one would be charged row 5 past its end, a larger one would book
        # a sum it does not count
        self._refused_uncharged(
            [0, 5, 5], rf"^the ledger counts {n} components, not the 6 of "
            "this sum$", ledger_n=n)

    def test_the_epoch_mean_is_the_snapshots_stack_mean(self):
        # g_s and H_s are the in-order mean of the snapshot's stack, read
        # once per view and only when an estimator asks
        F, x, snapshot, _, _ = self._setup()
        assert "mean" not in vars(snapshot)
        want = mean_derivatives(snapshot.stack, (F.d,), 2)
        svrc_hessian_estimator(OracleLedger(n=F.n), x, [1, 2], snapshot)
        mean = vars(snapshot)["mean"]
        assert snapshot.mean is mean
        for got, ref in zip((mean.value, mean.grad, mean.hess),
                            (want.value, want.grad, want.hess)):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    def test_out_of_range_batch_rejected_before_charging(self):
        # the error names the smallest index if it is negative, else the
        # largest one (n = 6)
        for batch, bad in (([0, 6], 6), ([-1, 0], -1), ([3, 11, 6, 2], 11),
                           ([9, -2, 0], -2)):
            self._refused_uncharged(
                batch, rf"component index {bad} out of range \[0, 6\)")

    def test_empty_batch_rejected(self):
        self._refused_uncharged([], "batch")

    @pytest.mark.parametrize("batch", [[1.5], [1.5, 2.7], [1.0, 2.0],
                                       [True, False]])
    def test_non_integer_batch_rejected_before_charging(self, batch):
        # a float index used to be truncated and charged to the wrong row
        self._refused_uncharged(batch, "integers")


class TestMu:
    def test_zero_at_sosp(self):
        F = _identity_quadratic()
        assert mu(F, np.zeros(4), L2=1.0) == 0.0

    def test_saddle_value(self):
        # F = 0.5(x0^2 - x1^2): at 0, grad = 0 and lambda_min = -1
        def f(x, order=2):
            v = 0.5 * (x[0] ** 2 - x[1] ** 2)
            g = np.array([x[0], -x[1]])
            H = np.diag([1.0, -1.0])
            return Derivatives(v, g if order >= 1 else None,
                               H if order >= 2 else None)
        F = CallableFiniteSum([f], d=2)
        assert mu(F, np.zeros(2), L2=1.0) == pytest.approx(1.0, rel=1e-12)
        # larger L2 discounts negative curvature
        assert mu(F, np.zeros(2), L2=4.0) == pytest.approx(0.125, rel=1e-12)

    def test_dominated_by_gradient_term(self, rng):
        F = quadratic_cosine_sum(3, 4, seed=1)
        for _ in range(10):
            x = rng.standard_normal(4)
            g = np.linalg.norm(F.full(x, 1).grad)
            assert mu(F, x, L2=2.0) >= g ** 1.5 - 1e-12

    def test_rejects_bad_l2(self):
        F = _identity_quadratic()
        with pytest.raises(ValueError):
            mu(F, np.zeros(4), L2=0.0)


def _eig_stationarity(der, L2):
    """The stationarity pair from a full eigendecomposition, as the formula
    reads: (|g|, max(|g|^1.5, -lambda_min^3 / L2^1.5))."""
    gnorm = float(np.linalg.norm(der.grad))
    lam_min = float(np.linalg.eigh(der.hess)[0][0])
    return gnorm, max(gnorm ** 1.5, -(lam_min ** 3) / L2 ** 1.5)


def _count_eig_calls(monkeypatch):
    """Count the eigendecompositions ``_stationarity`` falls back to."""
    calls = []

    def counted(A):
        calls.append(A.shape)
        return _lambda_min(A)

    monkeypatch.setattr("hardsum.optim._lambda_min", counted)
    return calls


class TestStationarityScreen:
    """The Cholesky screen returns the floor |g|^1.5 only where the
    eigenvalue formula does, bit for bit."""

    def test_random_hessians(self, rng, monkeypatch):
        calls = _count_eig_calls(monkeypatch)
        screened = 0
        for _ in range(200):
            d = int(rng.integers(1, 30))
            A = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-3, 3)
            der = Derivatives(0.0, rng.standard_normal(d)
                              * 10.0 ** rng.uniform(-3, 3), 0.5 * (A + A.T))
            L2 = float(10.0 ** rng.uniform(-2, 4))
            before = len(calls)
            assert _stationarity(der, L2) == _eig_stationarity(der, L2)
            screened += len(calls) == before
        # both branches are exercised
        assert 0 < screened < 200

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("d", [1, 5, 20, 60])
    def test_lambda_min_at_the_boundary(self, rng, monkeypatch, side, d):
        # the curvature term wins exactly when lambda_min <= -sqrt(|g| L2);
        # place lambda_min a relative 1e-10 inside (side -1) or outside
        # (side +1) that boundary
        calls = _count_eig_calls(monkeypatch)
        for _ in range(10):
            g = rng.standard_normal(d) * 10.0 ** rng.uniform(-2, 2)
            L2 = float(10.0 ** rng.uniform(-1, 3))
            edge = -math.sqrt(float(np.linalg.norm(g)) * L2)
            lam = rng.uniform(-abs(edge), 3.0 * abs(edge), d)
            lam[0] = edge * (1.0 + side * 1e-10)
            Q = sample_orthonormal_columns(d, d, seed=rng).columns
            H = Q @ np.diag(lam) @ Q.T
            der = Derivatives(0.0, g, 0.5 * (H + H.T))
            gnorm, m = _stationarity(der, L2)
            assert (gnorm, m) == _eig_stationarity(der, L2)
            assert (m == gnorm ** 1.5) == (side < 0)
        # a margin of 1e-10 is far outside the screen's: it proves every
        # floor and never a curvature win
        assert len(calls) == (10 if side > 0 else 0)

    def test_zero_gradient_takes_the_eigenvalue_path(self, monkeypatch):
        calls = _count_eig_calls(monkeypatch)
        der = Derivatives(0.0, np.zeros(3), np.diag([1.0, 2.0, 3.0]))
        assert _stationarity(der, 1.0) == (0.0, 0.0)
        assert len(calls) == 1

    def test_asymmetric_hessian_rejected(self):
        der = Derivatives(0.0, np.ones(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            _stationarity(der, 1.0)


class TestSvrcRun:
    def _params(self, n, S=2, T=3, **kw):
        base = dict(M=15.0, b_g=4, b_h=4, S=S, T=T, eps=1e-4, Delta=10.0,
                    L2=0.1, seed=0)
        base.update(kw)
        return SvrcParams(**base)

    def test_accounting_invariant_full_batch(self):
        F = quadratic_cosine_sum(5, 4, seed=7)
        n = F.n
        params = self._params(n, S=2, T=3, b_g=n, b_h=n, full_batch=True)
        led = OracleLedger(n=n)
        svrc_run(F, params, ledger=led)
        S, T, b_g, b_h = params.S, params.T, params.b_g, params.b_h
        assert led.total == S * n + S * T * (2 * b_g + b_h)
        assert led.adjusted_total == S * n + S * T * (b_g + b_h)
        assert led.cache_hits == S * T * b_h
        assert led.requery_queries == S * T * b_g

    def test_accounting_invariant_sampled(self):
        F = quadratic_cosine_sum(6, 4, seed=8)
        params = self._params(6, S=2, T=2, b_g=5, b_h=7)
        led = OracleLedger(n=6)
        svrc_run(F, params, ledger=led)
        S, T, b_g, b_h = params.S, params.T, params.b_g, params.b_h
        assert led.total == S * 6 + S * T * (2 * b_g + b_h)
        assert led.cache_hits == S * T * b_h

    def test_frozen_at_exact_sosp(self):
        F = _identity_quadratic(d=4, n=3)
        params = self._params(3, S=1, T=4, b_g=2, b_h=2, M=10.0)
        x_out, traj = svrc_run(F, params, x0=np.zeros(4))
        assert np.allclose(x_out, 0.0)
        assert all(rec.h_norm == 0.0 for rec in traj)

    def test_full_batch_monotone_decrease(self):
        F = quadratic_cosine_sum(6, 5, seed=11, curvature=0.5)
        n = F.n
        params = self._params(n, S=2, T=4, b_g=n, b_h=n, full_batch=True,
                              M=30.0, seed=5)
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(5)
        _, traj = svrc_run(F, params, x0=x0)
        f0 = F.full(x0, 0).value
        fs = [f0] + [rec.f for rec in traj]
        diffs = np.diff(fs)
        assert np.all(diffs <= 1e-12)
        # cumulative decrease dominates the step-norm certificates
        total_dec = fs[0] - fs[-1]
        cert = params.M / 12.0 * sum(rec.h_norm ** 3 for rec in traj)
        assert total_dec >= cert - 1e-8

    def test_x_out_is_a_recorded_iterate(self):
        F = quadratic_cosine_sum(4, 3, seed=13)
        params = self._params(4, S=1, T=5, b_g=2, b_h=2, seed=9)
        x_out, traj = svrc_run(F, params, x0=np.ones(3))
        assert len(traj) == 5
        # reproducible under the same seed
        x_out2, _ = svrc_run(F, params, x0=np.ones(3))
        assert np.array_equal(x_out, x_out2)

    def test_budget_stops_early(self):
        F = quadratic_cosine_sum(4, 3, seed=14)
        params = self._params(4, S=3, T=3, b_g=3, b_h=3)
        led = OracleLedger(n=4)
        budget = 4 + 2 * (2 * 3 + 3)     # one snapshot + two steps
        _, traj = svrc_run(F, params, ledger=led, budget=budget)
        assert led.total <= budget
        assert len(traj) == 2

    def test_snapshot_is_paid_only_if_a_step_fits_after_it(self):
        # n = 4, step cost 2*3 + 3 = 9: the second epoch's snapshot (4)
        # would take 22 queries to 26, where no step fits under 30, so the
        # run stops at 22 with the rows and x_out of a budget of 22
        F = quadratic_cosine_sum(4, 5, seed=3)
        params = self._params(4, S=2, T=2, b_g=3, b_h=3)
        runs = {}
        for budget in (22, 30, 40, 50, None):
            led = OracleLedger(n=4)
            x_out, traj = svrc_run(F, params, ledger=led, budget=budget)
            runs[budget] = (led.total, x_out, [r.f for r in traj])
        assert runs[30][0] == runs[22][0] == 22
        assert np.array_equal(runs[30][1], runs[22][1])
        assert runs[30][2] == runs[22][2] and len(runs[30][2]) == 2
        assert [runs[b][0] for b in (40, 50, None)] == [35, 44, 44]
        assert runs[50][2] == runs[None][2] and len(runs[None][2]) == 4

    @pytest.mark.parametrize("steps", [0, 2])
    def test_huge_schedule_runs_lazily(self, steps):
        # S is about 2.1e11: the schedule is never built, and the budget
        # (no snapshot at all, or one snapshot and two steps) stops the run
        params = svrc_default_params(n=2, d=3, Delta=1.0, L2=2.0, eps=1e-3)
        assert params.S > 10 ** 11
        F = quadratic_cosine_sum(2, 3, seed=4)
        led = OracleLedger(n=2)
        budget = 200 if steps == 0 else 2 + 2 * params.step_cost(2)
        _, traj = svrc_run(F, params, ledger=led, budget=budget)
        assert len(traj) == steps
        assert led.total == (0 if steps == 0 else budget)

    def test_full_batch_budget_counts_every_index(self):
        # a full-batch step reads all n indices: 3n raw queries, whatever
        # b_g and b_h say; snapshot 6 + two steps of 18 fit in 45, a third
        # step would overshoot to 60
        F = quadratic_cosine_sum(6, 4, seed=15)
        params = self._params(6, S=1, T=5, b_g=1, b_h=1, full_batch=True)
        led = OracleLedger(n=6)
        _, traj = svrc_run(F, params, ledger=led, budget=6 + 2 * 3 * 6 + 3)
        assert led.total == 42
        assert len(traj) == 2

    def test_batch_plan(self):
        sampled = self._params(6, b_g=5, b_h=7)
        assert sampled.batch_sizes(6) == (5, 7)
        assert sampled.step_cost(6) == 2 * 5 + 7
        full = dataclasses.replace(sampled, full_batch=True)
        assert full.batch_sizes(6) == (6, 6)
        assert full.step_cost(6) == 18

    def test_first_hit_recorded(self):
        F = _identity_quadratic(d=3, n=2)
        params = self._params(2, S=1, T=2, b_g=1, b_h=1)
        led = OracleLedger(n=2, eps=1e9)
        svrc_run(F, params, ledger=led)   # trivially hit at step 0
        assert led.first_hit == 0

    def test_solver_failure_ends_run_after_last_iterate(self, monkeypatch):
        F = quadratic_cosine_sum(4, 3, seed=16)
        params = self._params(4, S=1, T=3, b_g=2, b_h=3)
        steps = _fail_solve_on_second_call(monkeypatch)
        led = OracleLedger(n=4)
        x0 = np.ones(3)
        x_out, traj = svrc_run(F, params, x0=x0, ledger=led)
        assert len(traj) == 1
        # the snapshot and both steps' estimators were paid before the
        # second solve failed
        assert led.total == 4 + 2 * params.step_cost(4)
        assert led.iterates_recorded == 1
        assert np.array_equal(x_out, x0 + steps[0])


def _recording_query(monkeypatch):
    """Patch the query the optimizers call with one that records each
    call's (index, order, count, requery); returns the record."""
    calls = []

    def recording(ledger, F, i, x, order=2, *, count=1, requery=False):
        calls.append((int(i), order, count, requery))
        return query(ledger, F, i, x, order, count=count, requery=requery)

    monkeypatch.setattr("hardsum.optim.query", recording)
    return calls


def _per_row_svrc(F, params, x0):
    """Reference: the SVRC loop with every component evaluated by its own
    query, one row at a time (no budget).  Returns (x_out, step norms,
    ledger, calls)."""
    n, d = F.n, F.d
    ledger = OracleLedger(n=n, eps=params.eps)
    calls = []

    def q(i, x, order, count=1, requery=False):
        calls.append((int(i), order, count, requery))
        return query(ledger, F, i, x, order, count=count, requery=requery)

    rng = np.random.default_rng(params.seed)
    x, iterates, h_norms = x0.copy(), [], []
    for _ in range(params.S):
        x_hat = x.copy()
        answers = [q(i, x_hat, 2) for i in range(n)]
        g_s = sum((der.grad for der in answers), np.zeros(d)) / n
        H_s = sum((der.hess for der in answers), np.zeros((d, d))) / n
        for _ in range(params.T):
            batch_g = rng.integers(0, n, size=params.b_g)
            batch_h = rng.integers(0, n, size=params.b_h)
            dx = x - x_hat
            counts = np.bincount(batch_g, minlength=n)
            rows = np.flatnonzero(counts)
            dG, Hdx = np.empty((rows.size, d)), np.empty((rows.size, d))
            for k, i in enumerate(rows):
                at_x = q(i, x, 1, int(counts[i]))
                at_hat = q(i, x_hat, 2, int(counts[i]), True)
                dG[k] = at_x.grad - at_hat.grad
                Hdx[k] = at_hat.hess @ dx
            w = counts[rows] / params.b_g
            v = w @ dG + g_s - (w @ Hdx - H_s @ dx)
            counts = np.bincount(batch_h, minlength=n)
            rows = np.flatnonzero(counts)
            dH = np.empty((rows.size, d, d))
            for k, j in enumerate(rows):
                dH[k] = q(j, x, 2, int(counts[j])).hess - answers[j].hess
                ledger.record_cache_hit(int(counts[j]))
            U = np.tensordot(counts[rows] / params.b_h, dH, axes=1) + H_s
            h = solve(CubicModel(v=v, U=U, M=params.M)).h
            x = x + h
            iterates.append(x.copy())
            h_norms.append(float(np.linalg.norm(h)))
    x_out = iterates[int(rng.integers(0, len(iterates)))]
    return x_out, h_norms, ledger, calls


def _nearly_symmetric_sum(evaluations, n=5, d=3, seed=0):
    """Components 0.5 x^T A_i x + <g_i, x> whose Hessians A_i are off
    symmetry by 1e-13 relative, so the symmetrized Hessians a query returns
    differ from the raw ones; each evaluation appends its index to
    ``evaluations``."""
    rng = np.random.default_rng(seed)

    def comp(i, A, g):
        def f(x, order=2):
            evaluations.append(i)
            Ax = A @ x
            return Derivatives(0.5 * float(x @ Ax) + float(g @ x),
                               0.5 * (Ax + A.T @ x) + g if order >= 1 else None,
                               A if order >= 2 else None)
        return f

    comps = []
    for i in range(n):
        G = rng.standard_normal((d, d))
        A = G @ G.T + 0.5 * np.eye(d)
        A[0, 1] *= 1.0 + 1e-13
        comps.append(comp(i, A, rng.standard_normal(d)))
    return CallableFiniteSum(comps, d=d)


class TestSvrcChargingOrder:
    @staticmethod
    def _params():
        # b_g and b_h above n: every drawn index repeats
        return SvrcParams(M=20.0, b_g=9, b_h=13, S=2, T=2, eps=1e-4,
                          Delta=10.0, L2=1.0, seed=5)

    @pytest.mark.parametrize("make", [
        lambda: quadratic_cosine_sum(6, 4, seed=21),
        lambda: _nearly_symmetric_sum([]),
    ])
    def test_queries_match_the_per_row_loop(self, make, monkeypatch):
        F, params = make(), self._params()
        x0 = np.full(F.d, 0.7)
        x_ref, h_ref, led_ref, calls_ref = _per_row_svrc(F, params, x0)
        calls = _recording_query(monkeypatch)
        led = OracleLedger(n=F.n)
        x_out, traj = svrc_run(F, params, x0=x0, ledger=led)
        assert calls == calls_ref
        assert any(count > 1 for _, _, count, _ in calls)
        assert np.array_equal(led.per_index, led_ref.per_index)
        assert led.counters() == led_ref.counters()
        assert x_out.tobytes() == x_ref.tobytes()
        assert [rec.h_norm for rec in traj] == h_ref

    def test_snapshot_re_reads_are_charged_not_evaluated(self, monkeypatch):
        # every charge at a fresh point evaluates its row once; the
        # gradient estimator's re-reads and the cache hits evaluate nothing;
        # each step's full(x, 2) measurement evaluates all n
        evaluations = []
        F, params = _nearly_symmetric_sum(evaluations), self._params()
        calls = _recording_query(monkeypatch)
        svrc_run(F, params, x0=np.full(F.d, 0.7))
        fresh = sum(1 for *_, requery in calls if not requery)
        assert len(evaluations) == fresh + params.S * params.T * F.n

    def test_batches_drawn_in_several_chunks(self, monkeypatch):
        # b_g = 9 and b_h = 13 take three and four calls of 4 indices
        monkeypatch.setattr(hardsum.optim, "_DRAW_CHUNK", 4)
        F, params = quadratic_cosine_sum(6, 4, seed=21), self._params()
        x0 = np.full(F.d, 0.7)
        x_ref, h_ref, led_ref, calls_ref = _per_row_svrc(F, params, x0)
        calls = _recording_query(monkeypatch)
        led = OracleLedger(n=F.n)
        x_out, traj = svrc_run(F, params, x0=x0, ledger=led)
        assert calls == calls_ref
        assert led.counters() == led_ref.counters()
        assert x_out.tobytes() == x_ref.tobytes()
        assert [rec.h_norm for rec in traj] == h_ref


class TestDrawCounts:
    """svrc_run's batches, drawn as counts in chunks, are the counts of
    ``_draw_batches``' one draw per step, and leave the same stream."""

    @staticmethod
    def _agree(n, b_g, b_h, full_batch=False, seed=0, steps=3):
        params = SvrcParams(M=1.0, b_g=b_g, b_h=b_h, S=1, T=1, eps=1.0,
                            Delta=1.0, L2=1.0, full_batch=full_batch)
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        for _ in range(steps):
            got = _draw_counts(params, n, got_rng)
            want = [_batch_counts(batch, n)
                    for (batch,) in _draw_batches(params, n, want_rng, 1)]
            for drawn, counted in zip(got, want):
                assert isinstance(drawn, _Counts)
                assert drawn.size == counted.size
                assert type(drawn.size) is int
                assert drawn.counts.dtype == counted.counts.dtype
                assert drawn.counts.tobytes() == counted.counts.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("n", [1, 3, 255, 256, 1000, 2, 7, 100_003])
    @pytest.mark.parametrize("b_g, b_h", [
        (1, 1), (5, 8), (7, 9), (8, 29), (9, 32), (31, 5)])
    def test_small_chunks(self, monkeypatch, n, b_g, b_h):
        # chunks of 8: batches of 1, odd, exactly one chunk, one chunk
        # either side of it, and several chunks, whole or not
        monkeypatch.setattr(hardsum.optim, "_DRAW_CHUNK", 8)
        for seed in range(3):
            self._agree(n, b_g, b_h, seed=seed)

    @pytest.mark.parametrize("n", [3, 256])
    def test_the_default_chunk(self, n):
        chunk = hardsum.optim._DRAW_CHUNK
        assert 1 << 15 <= chunk <= 1 << 16
        self._agree(n, chunk - 1, 2 * chunk + 1, steps=2)
        self._agree(n, chunk, chunk + 1, steps=1)

    @pytest.mark.parametrize("n", [1, 3, 256])
    def test_full_batch_schedule(self, n):
        self._agree(n, 5, 9, full_batch=True)
        params = SvrcParams(M=1.0, b_g=5, b_h=9, S=1, T=1, eps=1.0,
                            Delta=1.0, L2=1.0, full_batch=True)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for drawn in _draw_counts(params, n, rng):
            assert drawn.size == n and (drawn.counts == 1).all()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [2, 7, 256, 1000])
    def test_a_batch_that_starts_on_a_buffered_half_word(self, n):
        # an odd draw before leaves the high half of its last word
        # buffered, which numpy hands out first
        for prefix in (1, 3):
            got_rng, want_rng = (np.random.default_rng(prefix)
                                 for _ in range(2))
            for rng in (got_rng, want_rng):
                rng.integers(0, n, size=prefix)
            assert got_rng.bit_generator.state["has_uint32"] == 1
            got = _drawn_counts(got_rng, n, 99)
            want = _batch_counts(want_rng.integers(0, n, size=99), n)
            assert got.counts.tobytes() == want.counts.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_dropped_draws_at_a_large_n(self):
        # at n = 5,000,011 numpy drops a 32-bit word whose product's low
        # half falls below (2^32 - n) mod n, about 0.12% of them
        n = 5_000_011
        chunk = hardsum.optim._DRAW_CHUNK
        spy = _WordSpy(0)
        got_rng, want_rng = np.random.Generator(spy), np.random.default_rng(0)
        for size in (3, 2 * chunk + 5):
            got = _drawn_counts(got_rng, n, size)
            want = _batch_counts(want_rng.integers(0, n, size=size), n)
            assert got.counts.tobytes() == want.counts.tobytes()
            assert _pcg64_state(got_rng) == _pcg64_state(want_rng)
        threshold = (2 ** 32 - n) % n
        dropped = [int(((words.view(np.uint32).astype(np.uint64) * n)
                        % 2 ** 32 < threshold).sum())
                   for words in spy.blocks]
        assert len(dropped) >= 2 and any(dropped), dropped

    @given(n=st.one_of(st.integers(1, 300),
                       st.sampled_from([1000, 100_003, 5_000_011]),
                       st.integers(1, 1 << 20)),
           b_g=st.integers(1, 70), b_h=st.integers(1, 70),
           prefix=st.integers(0, 3), chunk=st.sampled_from([2, 3, 8, 64]))
    def test_the_draws_of_draw_batches(self, n, b_g, b_h, prefix, chunk):
        params = SvrcParams(M=1.0, b_g=b_g, b_h=b_h, S=1, T=1, eps=1.0,
                            Delta=1.0, L2=1.0)
        got_rng, want_rng = (np.random.default_rng(n + prefix)
                             for _ in range(2))
        for rng in (got_rng, want_rng):
            rng.integers(0, n, size=prefix)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hardsum.optim, "_DRAW_CHUNK", chunk)
            got = list(_draw_counts(params, n, got_rng))
        want = [_batch_counts(batch, n)
                for (batch,) in _draw_batches(params, n, want_rng, 1)]
        for drawn, counted in zip(got, want):
            assert drawn.size == counted.size
            assert drawn.counts.tobytes() == counted.counts.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3, 5_000_011, 2 ** 31 + 1,
                                   3 << 30, 2 ** 32 - 1, 2 ** 32])
    def test_bounded_indices_are_numpys_draws(self, n):
        # up to half the words dropped near 2^31, none at 2^32, where
        # numpy returns the word itself; no count array of n is built
        u = np.random.PCG64(n).random_raw(500).view(np.uint32)
        got = _bounded_indices(u, n, np.empty(1000, np.uint64))
        want = np.random.default_rng(n).integers(0, n, size=got.size)
        assert got.dtype == np.uint64 and got.tolist() == want.tolist()
        if n == 2 ** 31 + 1:
            assert got.size < 600

    @pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.Philox,
                                        np.random.PCG64DXSM, np.random.SFC64])
    def test_another_bit_generator_is_refused(self, bitgen):
        rng = np.random.Generator(bitgen(0))
        with pytest.raises(TypeError, match=f"got a {bitgen.__name__} "):
            _drawn_counts(rng, 3, 10)
        # nothing drawn
        assert rng.random() == np.random.Generator(bitgen(0)).random()

    def test_a_count_record_passes_unchanged(self):
        drawn = _Counts(np.array([2, 0, 1]), 3)
        assert _batch_counts(drawn, 3) is drawn
        counts, size = _batch_counts(np.array([0, 2, 0]), 3)
        assert counts.tolist() == [2, 0, 1] and size == 3


def _traced_run(monkeypatch, F, params, **kwargs):
    """svrc_run's (x_out bytes, trajectory, ledger counters, the end state
    of the generator it draws x_out from)."""
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed))
                        or made[-1])
    led = OracleLedger(n=F.n)
    x_out, traj = svrc_run(F, params, ledger=led, **kwargs)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return (x_out.tobytes(), _rows(traj), led.counters(),
            made[0].bit_generator.state)


def _rows(traj):
    return [(r.epoch, r.step, np.float64(r.f).tobytes(),
             np.float64(r.grad_norm).tobytes(), np.float64(r.mu).tobytes(),
             np.float64(r.h_norm).tobytes(), r.counters) for r in traj]


#: n = 16 components, snapshot 16 queries, a step 2 * 5 + 7 = 17, an epoch
#: of T = 3 steps 67
STREAMED = SvrcParams(M=5.0, b_g=5, b_h=7, S=3, T=3, eps=1e-3, Delta=1.0,
                      L2=1.0)
#: a schedule that forks: each step draws 2^18 + 5 indices, and the four
#: after the first 4 (2^18 + 5) >= 2^20
LARGE = SvrcParams(M=5.0, b_g=5, b_h=1 << 18, S=1, T=5, eps=1e-3, Delta=1.0,
                   L2=1.0)


class TestStreamedDraws:
    """svrc_run reads each batch's counts, and the generator state after
    them, from a stream; a forked child draws them where a fork pays, with
    the inline run's every bit."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("budget", [None, 16 + 2 * 17, 67 + 16 + 17],
                             ids=["none", "after-step-1", "mid-epoch-2"])
    def test_the_forked_run_is_the_inline_run(self, seed, budget,
                                              monkeypatch):
        F = quadratic_cosine_sum(16, 5, seed=1)
        params = dataclasses.replace(STREAMED, seed=seed)
        monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: False)
        inline = _traced_run(monkeypatch, F, params, budget=budget)
        calls = counted_forks(monkeypatch)
        monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: True)
        forked = _traced_run(monkeypatch, F, params, budget=budget)
        assert calls == [os.getpid()]
        no_child_left()
        assert forked == inline
        rows = {None: 9, 16 + 2 * 17: 2, 67 + 16 + 17: 4}[budget]
        assert len(inline[1]) == rows

    def test_a_solver_failure_keeps_the_inline_bits(self, monkeypatch):
        F = quadratic_cosine_sum(16, 5, seed=1)
        monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: False)
        _fail_solve_on_second_call(monkeypatch)
        inline = _traced_run(monkeypatch, F, STREAMED)
        calls = counted_forks(monkeypatch)
        monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: True)
        _fail_solve_on_second_call(monkeypatch)
        forked = _traced_run(monkeypatch, F, STREAMED)
        assert len(calls) == 1
        no_child_left()
        assert forked == inline and len(inline[1]) == 1

    def test_an_exception_in_the_caller_leaves_no_child(self, monkeypatch):
        # the child could draw for ever: S = 10^12 steps
        calls = counted_forks(monkeypatch)
        monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: True)
        steps = []

        def broken(model):
            steps.append(model)
            if len(steps) == 2:
                raise KeyError("the second step broke")
            return solve(model)

        monkeypatch.setattr(hardsum.optim, "solve", broken)
        F = quadratic_cosine_sum(16, 5, seed=1)
        with pytest.raises(KeyError, match="the second step broke"):
            svrc_run(F, dataclasses.replace(STREAMED, S=10 ** 12))
        assert len(calls) == 1
        no_child_left()

    def test_an_endless_schedule_with_a_budget_returns_promptly(
            self, monkeypatch):
        # the pipe's buffer holds the child a few dozen steps ahead
        F = quadratic_cosine_sum(16, 5, seed=1)
        params = dataclasses.replace(STREAMED, S=10 ** 12)
        monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: False)
        inline = _traced_run(monkeypatch, F, params, budget=67 + 16 + 17)
        calls = counted_forks(monkeypatch)
        monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: True)
        start = time.monotonic()
        forked = _traced_run(monkeypatch, F, params, budget=67 + 16 + 17)
        assert time.monotonic() - start < 30
        assert len(calls) == 1
        no_child_left()
        assert forked == inline

    def test_a_large_schedule_forks(self, monkeypatch):
        calls = counted_forks(monkeypatch)
        F = quadratic_cosine_sum(16, 5, seed=1)
        forked = _traced_run(monkeypatch, F, LARGE)
        assert len(calls) == 1
        no_child_left()
        monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: False)
        assert forked == _traced_run(monkeypatch, F, LARGE)

    @pytest.mark.parametrize("where", ["full-batch", "small-batch",
                                       "short-budget", "one-cpu",
                                       "two-threads"])
    def test_the_draws_run_inline_where_a_fork_cannot_pay(
            self, where, monkeypatch):
        calls = counted_forks(monkeypatch,
                              cpus=1 if where == "one-cpu" else 2)
        params = {"full-batch": dataclasses.replace(LARGE, full_batch=True),
                  "small-batch": dataclasses.replace(LARGE, b_h=1 << 17),
                  }.get(where, LARGE)
        # the snapshot and four of the five steps: three after the first
        budget = (16 + 4 * LARGE.step_cost(16) if where == "short-budget"
                  else None)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        if where == "two-threads":
            other.start()
        try:
            svrc_run(quadratic_cosine_sum(16, 5, seed=1), params,
                     budget=budget)
        finally:
            release.set()
            if other.is_alive():
                other.join(30)
        assert calls == []

    def test_when_a_fork_pays(self):
        bench = svrc_default_params(n=256, d=20, Delta=0.005, L2=6.0,
                                    eps=1e7)
        assert (bench.S, bench.T, bench.b_h) == (1, 4, 741_185)
        step = bench.step_cost(256)
        assert _fork_pays(bench, 256, math.inf)
        assert _fork_pays(LARGE, 16, math.inf)
        # the snapshot and three steps: two after the first
        assert _fork_pays(bench, 256, 256 + 3 * step)
        # a second epoch's snapshot and first step after one whole epoch
        assert _fork_pays(dataclasses.replace(bench, S=10 ** 11, T=2), 256,
                          (256 + 2 * step) + 256 + step)
        for params, budget in (
                (dataclasses.replace(bench, full_batch=True), math.inf),
                (dataclasses.replace(bench, T=1), math.inf),  # one step
                (dataclasses.replace(bench, T=2), math.inf),  # 741,608 after
                (dataclasses.replace(LARGE, b_h=(1 << 18) - 6), math.inf),
                (dataclasses.replace(bench, b_g=3, b_h=3, S=10 ** 12),
                 math.inf),
                (dataclasses.replace(bench, b_g=5, b_h=9, S=2, T=3),
                 math.inf),
                # one step, then a budget that ends the run
                (bench, 256 + step), (bench, 256 + 2 * step - 1),
                (dataclasses.replace(bench, S=10 ** 11, T=2),
                 (256 + 2 * step) + 256 + step - 1)):
            assert not _fork_pays(params, 256, budget), (params, budget)


def test_the_package_forks_in_one_place():
    package = Path(hardsum.optim.__file__).parent
    forks = {path.name: path.read_text(encoding="utf-8").count("os.fork(")
             for path in package.rglob("*.py")}
    assert {name: count for name, count in forks.items() if count} == {
        "_fork.py": 1}


class _WordSpy(np.random.PCG64):
    """PCG64 that keeps a copy of every block of words ``random_raw``
    hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.blocks = []

    def random_raw(self, size=None, output=True):
        words = super().random_raw(size, output)
        self.blocks.append(words.copy())
        return words


def _pcg64_state(rng):
    """The generator's state without the bit generator's class name."""
    state = dict(rng.bit_generator.state)
    del state["bit_generator"]
    return state


def test_a_benchmark_op_holds_no_hessian_batch(monkeypatch):
    # the Hessian batch of 741,185 indices is drawn and counted in chunks;
    # holding it as one int64 array took 8 b_h bytes, twice over while the
    # next step's batch was drawn
    # (drawn in this process: a forked child's memory is not traced)
    monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: False)
    params = svrc_default_params(n=256, d=20, Delta=0.005, L2=6.0, eps=1e7)
    F = quadratic_cosine_sum(256, 20, seed=3)
    tracemalloc.start()
    try:
        svrc_run(F, params, x0=np.zeros(F.d))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * params.b_h, peak


def _finished_cubic_game():
    spec = deterministic_params(p=1, n=4, Delta=384.0, L=ell_p(1), eps=1.0)
    F = ResistingOracle(spec, seed=5)
    baseline_full_cubic(F, C_M * spec.L, 40, ledger=OracleLedger(n=spec.n))
    F.finalize()
    F.certificate()
    return F


def _svrc_sum():
    F = quadratic_cosine_sum(16, 5, seed=2)
    params = SvrcParams(M=15.0, b_g=4, b_h=4, S=2, T=3, eps=1e-4,
                        Delta=10.0, L2=0.1, seed=0)
    svrc_run(F, params, ledger=OracleLedger(n=F.n))
    return F


@pytest.mark.parametrize("run", [_finished_cubic_game, _svrc_sum],
                         ids=["resisting-oracle", "svrc-sum"])
def test_a_runs_sum_dies_by_reference_counting(run):
    # a sum that holds a view whose source is the sum itself (a cache of
    # checked row-set views, say) is a reference cycle: every benchmark op
    # would leave its sum to the cycle collector, and peak RSS grows
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(run())
        assert ref() is None
    finally:
        gc.enable()


def test_a_benchmark_op_evaluates_each_point_once(monkeypatch):
    # svrc-synthetic's op: the snapshot pass, then each step's measurement
    # full(x, 2), whose evaluation the next step's estimators at x read
    params = dataclasses.replace(svrc_default_params(
        n=256, d=20, Delta=0.005, L2=6.0, eps=1e7), seed=3)
    assert (params.S, params.T) == (1, 4)
    F = quadratic_cosine_sum(256, 20, seed=3)
    calls, evaluate = [], F._evaluate
    monkeypatch.setattr(F, "_evaluate", lambda i, x, order: calls.append(
        (i, np.shape(x), order)) or evaluate(i, x, order))
    led = OracleLedger(n=F.n)
    svrc_run(F, params, x0=np.zeros(F.d), ledger=led)
    assert calls == [(slice(None), (F.d,), 2)] * (1 + params.T)
    assert (led.total, led.requery_queries, led.cache_hits) == (
        2_968_380, 1_692, 2_964_740)


def _bad_away_from_origin(part, bad, d=3):
    """Components 0.5 |x|^2 + <g_i, x>; component 1 answers a non-finite
    ``part`` (value or gradient) anywhere but the origin."""
    gs = np.random.default_rng(0).standard_normal((2, d))

    def comp(i):
        def f(x, order=2):
            value, grad = 0.5 * float(x @ x) + float(gs[i] @ x), x + gs[i]
            if i == 1 and x.any():
                if part == "value":
                    value = bad
                else:
                    grad = np.where(np.arange(d) == 1, bad, grad)
            return Derivatives(value, grad if order >= 1 else None,
                               np.eye(d) if order >= 2 else None)
        return f

    return CallableFiniteSum([comp(0), comp(1)], d=d)


class TestNonFiniteAnswers:
    """A non-finite value or gradient raises where it enters, naming the
    component and order, and the failing row is not charged."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["value", "gradient"])
    def test_baseline_full_cubic(self, part, bad):
        F = _bad_away_from_origin(part, bad)
        led = OracleLedger(n=2)
        with pytest.raises(ValueError,
                           match=f"component 1 answered a non-finite {part} "
                                 r"\(order 1\)"):
            baseline_full_cubic(F, 2.0, 20, ledger=led)
        # the first iteration's two passes at the origin; the second
        # iteration's first pass raises with none of its rows charged
        assert led.per_index.tolist() == [2, 2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("part", ["value", "gradient"])
    def test_svrc_run(self, part, bad):
        # the snapshot and the first step are at the origin; the free
        # measurement at the first step's iterate, away from it, sees the
        # bad answer and raises before the step's row is recorded
        F = _bad_away_from_origin(part, bad)
        params = SvrcParams(M=15.0, b_g=2, b_h=2, S=1, T=3, eps=1e-4,
                            Delta=10.0, L2=0.1, full_batch=True)
        led = OracleLedger(n=2)
        with pytest.raises(ValueError,
                           match="the measured full sum is not finite"):
            svrc_run(F, params, ledger=led)
        assert led.total == 2 + params.step_cost(2)
        assert led.iterates_recorded == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["value", "gradient"])
    def test_mu(self, part, bad):
        F = _bad_away_from_origin(part, bad)
        assert mu(F, np.zeros(F.d), 1.0) >= 0.0
        with pytest.raises(ValueError,
                           match="the measured full sum is not finite"):
            mu(F, np.ones(F.d), 1.0)


class TestWrongShapes:
    """A wrong-shaped answer stops every optimizer before it is charged or
    summed, naming the component and the order."""

    @staticmethod
    def _short(i, order):
        return (rf"component {i} answered a gradient of shape \(1,\), "
                rf"not \(3,\) \(order {order}\)")

    @pytest.mark.parametrize("run", [
        lambda F, led: baseline_full_gd(F, 0.1, 20, ledger=led),
        lambda F, led: baseline_full_cubic(F, 2.0, 20, ledger=led),
    ], ids=["gd", "cubic"])
    def test_baselines(self, run):
        led = OracleLedger(n=2)
        with pytest.raises(ValueError, match=self._short(1, 1)):
            run(good_and_short(), led)
        # the pass is checked in full before it is charged: row 0 is not
        # charged either
        assert led.per_index.tolist() == [0, 0]

    def test_mu(self):
        with pytest.raises(ValueError, match=self._short(1, 2)):
            mu(good_and_short(), np.ones(3), 1.0)

    @pytest.mark.parametrize("n, bad", [(2, 1), (1, 0)])
    def test_svrc_run(self, n, bad):
        # a sum with one bad row fails as its snapshot stack is built, a sum
        # of only bad rows as the stack is checked; neither charges a query
        F = good_and_short(n=n) if n > 1 else CallableFiniteSum(
            [good_and_short()._components[1]], d=3)
        params = SvrcParams(M=15.0, b_g=2, b_h=2, S=1, T=3, eps=1e-4,
                            Delta=10.0, L2=0.1)
        led = OracleLedger(n=F.n)
        with pytest.raises(ValueError, match=self._short(bad, 2)):
            svrc_run(F, params, ledger=led)
        assert led.total == 0


def _outcome(f):
    try:
        return f()
    except ValueError as err:
        return str(err)


_BAD = st.sampled_from([np.nan, np.inf, -np.inf])
_FAULTS = st.one_of(
    st.tuples(st.sampled_from(["value", "gradient", "Hessian"]), _BAD),
    st.tuples(st.just("value shape"), st.sampled_from([(1,), (2, 1)])),
    st.tuples(st.just("gradient shape"), st.sampled_from([0, 1, 4])),
    st.tuples(st.just("Hessian shape"),
              st.sampled_from([(1, 1), (2, 3), (4, 4), (2,)])),
    st.tuples(st.just("asymmetric"), st.floats(1e-9, 1.0)),
)


def _sum_with_a_fault(n, d, k, fault):
    """n components 0.5 |x|^2 + i <1, x>; component k's answer has one
    ``fault`` (a part and what goes wrong with it) at every point."""
    kind, how = fault

    def comp(i):
        def f(x, order=2):
            value, grad, hess = 0.5 * float(x @ x) + i * x.sum(), x + i, np.eye(d)
            if i == k:
                if kind == "value":
                    value = how
                elif kind == "value shape":
                    value = np.full(how, value)
                elif kind == "gradient":
                    grad = np.where(np.arange(d) == d - 1, how, grad)
                elif kind == "gradient shape":
                    grad = np.ones(how)
                elif kind == "Hessian":
                    hess = np.where(np.eye(d, k=-1) > 0, how, hess)
                elif kind == "Hessian shape":
                    hess = np.ones(how)
                else:
                    hess = hess + how * np.eye(d, k=1)
            return Derivatives(value, grad if order >= 1 else None,
                               hess if order >= 2 else None)
        return f

    return CallableFiniteSum([comp(i) for i in range(n)], d=d)


@given(st.integers(2, 4), st.integers(2, 3), st.data())
def test_a_bad_answer_is_refused_alike_on_every_path(n, d, data):
    """NaN and infinite values and gradients, wrong shapes and asymmetric
    Hessians: a stack member gets the verdict and message of the same
    answer checked alone, and the ledger at the raise holds nothing of the
    failing answer."""
    k = data.draw(st.integers(0, n - 1))
    fault = data.draw(_FAULTS)
    F = _sum_with_a_fault(n, d, k, fault)
    x = np.full(d, 0.5)
    alone = {}
    for order in range(3):
        led = OracleLedger(n=n)
        alone[order] = _outcome(lambda: query(led, F, k, x, order=order))
        assert led.total == (0 if isinstance(alone[order], str) else 1)
        for rows in ([k], np.arange(n), [k, k]):
            view = _outcome(lambda: _Evaluated.evaluate(F, rows, x, order))
            if isinstance(alone[order], str):
                assert view == alone[order]
                continue
            row = list(rows).index(k)
            for got, want in ((view.stack.value[row], alone[order].value),
                              (None if order < 1 else view.stack.grad[row],
                               alone[order].grad),
                              (None if order < 2 else view.stack.hess[row],
                               alone[order].hess)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # every fault shows at order 2: svrc_run's first pass, the snapshot,
    # raises it uncharged
    assert isinstance(alone[2], str)
    led = OracleLedger(n=n)
    params = SvrcParams(M=15.0, b_g=2, b_h=2, S=1, T=2, eps=1e-4,
                        Delta=10.0, L2=0.1)
    with pytest.raises(ValueError) as err:
        svrc_run(F, params, x0=x, ledger=led)
    assert str(err.value) == alone[2] and led.total == 0
    if isinstance(alone[1], str):
        # gradient descent's first pass is checked in full before any row
        # is charged: nothing of it is charged
        led = OracleLedger(n=n)
        with pytest.raises(ValueError) as err:
            baseline_full_gd(F, 0.1, 10 * n, x0=x, ledger=led)
        assert str(err.value) == alone[1]
        assert led.per_index.tolist() == [0] * n


@pytest.mark.parametrize("size", [2, 6])
@pytest.mark.parametrize("run", [
    lambda F, led: svrc_run(F, svrc_default_params(
        n=F.n, d=F.d, Delta=1.0, L2=1.0, eps=1e-3), ledger=led, budget=40),
    lambda F, led: baseline_full_gd(F, 0.1, 40, ledger=led),
    lambda F, led: baseline_full_cubic(F, 10.0, 40, ledger=led),
], ids=["svrc_run", "baseline_full_gd", "baseline_full_cubic"])
def test_a_ledger_of_another_size_is_refused(size, run, monkeypatch):
    # a narrower ledger used to raise IndexError after booking part of the
    # first pass, a wider one to book silently; both are refused before
    # any component is evaluated, and the ledger is left as it was
    F = quadratic_cosine_sum(4, 3, seed=7)
    evaluations = []
    kernel = type(F)._evaluate
    monkeypatch.setattr(type(F), "_evaluate",
                        lambda *a: evaluations.append(1) or kernel(*a))
    led = OracleLedger(n=size)
    with pytest.raises(ValueError, match=rf"^the ledger counts {size} "
                       r"components, not the 4 of this sum$"):
        run(F, led)
    assert evaluations == []
    assert led.counters() == OracleLedger(n=size).counters()
    assert led.per_index.tolist() == [0] * size
    assert led.eps is None and led.iterates_recorded == 0


class TestBaselines:
    def test_a_failing_order_2_pass_charges_none_of_its_rows(self):
        # the last row's Hessian is asymmetric: the order-1 pass is charged
        # in full, the order-2 pass after it raises with nothing charged
        F = _sum_with_a_fault(4, 3, 3, ("asymmetric", 0.5))
        led = OracleLedger(n=4)
        with pytest.raises(ValueError, match="component 3"):
            baseline_full_cubic(F, 1.0, 40, x0=np.full(3, 0.5), ledger=led)
        assert led.per_index.tolist() == [1, 1, 1, 1]
        assert led.hess_queries == 0

    def test_gd_on_quadratic_converges_in_one_step(self):
        F = _identity_quadratic(d=4, n=3)
        x0 = np.array([1.0, -2.0, 0.5, 3.0])
        traj = baseline_full_gd(F, step_rule=1.0, budget=4 * 3, x0=x0)
        assert len(traj) == 4
        assert traj[0].grad_norm == pytest.approx(np.linalg.norm(x0))
        assert traj[1].grad_norm == pytest.approx(0.0, abs=1e-14)

    def test_gd_charges_n_per_iteration(self):
        F = _identity_quadratic(d=4, n=3)
        led = OracleLedger(n=3)
        traj = baseline_full_gd(F, step_rule=0.5, budget=10, ledger=led)
        assert len(traj) == 3               # 3 passes of 3 fit in 10
        assert led.total == 9
        assert led.hess_queries == 0

    def test_gd_non_finite_step_refused_before_the_first_pass(self):
        F = quadratic_cosine_sum(4, 5, seed=0)
        led = OracleLedger(n=F.n)
        for step in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite step"):
                baseline_full_gd(F, step, 40, ledger=led)
        assert led.per_index.tolist() == [0] * F.n

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_gd_non_finite_step_from_the_rule_refused(self, bad):
        # refused after the first pass, before the iterate moves: no second
        # pass is charged
        F = quadratic_cosine_sum(4, 5, seed=0)
        led = OracleLedger(n=F.n)
        with pytest.raises(ValueError, match=rf"non-finite step {bad} from "
                                             r"step_rule at t = 0"):
            baseline_full_gd(F, lambda t, x, g: float(bad), 40, ledger=led)
        assert led.per_index.tolist() == [1, 1, 1, 1]

    def test_gd_callable_step_rule(self):
        F = _identity_quadratic(d=2, n=2)
        steps = []

        def rule(t, x, grad):
            steps.append(t)
            return 0.1 / (t + 1)

        baseline_full_gd(F, step_rule=rule, budget=6, x0=np.ones(2))
        assert steps == [0, 1, 2]

    def test_cubic_budget_and_charges(self):
        F = quadratic_cosine_sum(4, 3, seed=21)
        led = OracleLedger(n=4)
        traj = baseline_full_cubic(F, M=20.0, budget=17, ledger=led)
        assert len(traj) == 2               # two 2n-passes fit in 17
        assert led.total == 16
        assert led.grad_queries == 16
        assert led.hess_queries == 8

    def test_cubic_decreases_f(self):
        F = quadratic_cosine_sum(5, 4, seed=22, curvature=0.5)
        rng = np.random.default_rng(3)
        traj = baseline_full_cubic(F, M=30.0, budget=200,
                                   x0=rng.standard_normal(4))
        fs = [rec.f for rec in traj]
        assert fs[-1] <= fs[0] + 1e-12

    def test_cubic_solver_failure_ends_run(self, monkeypatch):
        F = quadratic_cosine_sum(4, 3, seed=17)
        _fail_solve_on_second_call(monkeypatch)
        led = OracleLedger(n=4)
        traj = baseline_full_cubic(F, M=20.0, budget=100, ledger=led)
        # the second iteration paid its 2n queries and recorded its iterate
        # before its step failed; it adds no row
        assert len(traj) == 1
        assert led.total == 4 * 4
        assert led.iterates_recorded == 2

    def test_gd_step_rule_error_propagates(self):
        F = _identity_quadratic(d=2, n=2)

        def rule(t, x, grad):
            return 1.0 / (1 - t)        # ZeroDivisionError at t = 1

        with pytest.raises(ZeroDivisionError):
            baseline_full_gd(F, step_rule=rule, budget=10)

    def test_mu_reported_only_with_l2(self):
        F = _identity_quadratic(d=2, n=2)
        traj = baseline_full_gd(F, step_rule=0.1, budget=4, x0=np.ones(2))
        assert traj[0].mu is None
        traj = baseline_full_gd(F, step_rule=0.1, budget=4, x0=np.ones(2),
                                L2=1.0)
        assert traj[0].mu is not None

    def test_rejects_bad_budget(self):
        F = _identity_quadratic()
        with pytest.raises(ValueError):
            baseline_full_gd(F, step_rule=0.1, budget=0)
        with pytest.raises(ValueError):
            baseline_full_cubic(F, M=1.0, budget=-1)

    @pytest.mark.parametrize("budget, match", [
        (float("nan"), "an integer, got float"),
        (2.5, "an integer, got float"),
        (True, "an integer, got bool"),
        ("30", "an integer, got str"),
        (0, ">= 1, got 0"),
    ], ids=["nan", "float", "bool", "str", "zero"])
    def test_a_budget_is_checked_as_a_count(self, budget, match):
        # NaN ran svrc's whole S = 2, T = 2 schedule and gave the baselines
        # no rows; True and 2.5 were budgets and "30" a bare TypeError
        F = quadratic_cosine_sum(2, 3, seed=0)
        params = SvrcParams(M=10.0, b_g=2, b_h=2, S=2, T=2, eps=1.0,
                            Delta=1.0, L2=1.0)
        for run in (lambda led: svrc_run(F, params, ledger=led,
                                         budget=budget),
                    lambda led: baseline_full_gd(F, 0.1, budget, ledger=led),
                    lambda led: baseline_full_cubic(F, 10.0, budget,
                                                    ledger=led)):
            led = OracleLedger(n=2)
            with pytest.raises(ValueError, match=f"^budget must be {match}$"):
                run(led)
            assert led.counters() == OracleLedger(n=2).counters()

    @pytest.mark.parametrize("M", [math.inf, math.nan, 0.0, -1.0])
    def test_a_penalty_that_is_not_positive_and_finite_is_refused(self, M):
        # M = inf charged svrc's snapshot and step and the cubic
        # baseline's first two passes, and gave no rows
        F = quadratic_cosine_sum(4, 3, seed=0)
        led = OracleLedger(n=4)
        with pytest.raises(ValueError, match="^M must be positive and "
                                             "finite$"):
            SvrcParams(M=M, b_g=2, b_h=2, S=1, T=1, eps=1.0, Delta=1.0,
                       L2=1.0)
        with pytest.raises(ValueError, match="^M must be positive and "
                                             "finite$"):
            baseline_full_cubic(F, M, 40, ledger=led)
        assert led.counters() == OracleLedger(n=4).counters()

    @pytest.mark.parametrize("L2", [math.inf, math.nan, 0.0, -1.0])
    def test_an_l2_that_is_not_positive_and_finite_is_refused(self, L2):
        # L2 = inf made mu's Cholesky screen compute inf - inf, and the
        # baselines measured mu only after their first charged pass
        F = quadratic_cosine_sum(4, 3, seed=0)
        match = "^L2 must be positive and finite$"
        with pytest.raises(ValueError, match=match):
            SvrcParams(M=1.0, b_g=2, b_h=2, S=1, T=1, eps=1.0, Delta=1.0,
                       L2=L2)
        with pytest.raises(ValueError, match=match):
            mu(F, np.zeros(3), L2)
        for run in (lambda led: baseline_full_gd(F, 0.1, 40, ledger=led,
                                                 L2=L2),
                    lambda led: baseline_full_cubic(F, 10.0, 40, ledger=led,
                                                    L2=L2)):
            led = OracleLedger(n=4)
            with pytest.raises(ValueError, match=match):
                run(led)
            assert led.counters() == OracleLedger(n=4).counters()


@given(st.integers(0, 2_000))
def test_mu_dominates_gradient_norm_property(seed):
    rng = np.random.default_rng(seed)
    F = quadratic_cosine_sum(2, 3, seed=seed)
    x = rng.standard_normal(3)
    g = np.linalg.norm(F.full(x, 1).grad)
    assert mu(F, x, L2=1.0) >= g ** 1.5 - 1e-10


@given(st.integers(2, 600), st.integers(2, 40))
def test_schedule_batch_sizes_property(n, d):
    p = svrc_default_params(n=n, d=d, Delta=1.0, L2=1.0, eps=1.0)
    assert p.T >= 2
    assert p.b_g >= 5 * 16
    assert p.b_h >= 1
    assert p.S >= 1
