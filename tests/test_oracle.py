import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardsum.chains import Derivatives
from hardsum.oracle import (
    CallableFiniteSum,
    OracleLedger,
    quadratic_cosine_sum,
    query,
    record_iterate,
)


def _two_quadratics():
    def f0(x, order=2):
        v = 0.5 * float(x @ x)
        if order == 0:
            return Derivatives(v)
        if order == 1:
            return Derivatives(v, x.copy())
        return Derivatives(v, x.copy(), np.eye(x.size))

    def f1(x, order=2):
        v = float(x[0])
        g = np.zeros(x.size)
        g[0] = 1.0
        if order == 0:
            return Derivatives(v)
        if order == 1:
            return Derivatives(v, g)
        return Derivatives(v, g, np.zeros((x.size, x.size)))

    return CallableFiniteSum([f0, f1], d=3)


class TestFiniteSum:
    def test_full_is_component_average(self):
        F = _two_quadratics()
        x = np.array([1.0, 2.0, -1.0])
        d = F.full(x, order=2)
        assert d.value == pytest.approx(0.5 * (0.5 * 6.0 + 1.0))
        assert np.allclose(d.grad, 0.5 * (x + np.array([1.0, 0, 0])))
        assert np.allclose(d.hess, 0.5 * np.eye(3))

    def test_index_validation(self):
        F = _two_quadratics()
        with pytest.raises(ValueError, match="out of range"):
            F.component(2, np.zeros(3))
        with pytest.raises(ValueError, match="out of range"):
            F.component(-1, np.zeros(3))

    def test_stack_is_answered_point_by_point(self, rng):
        F = quadratic_cosine_sum(3, 4, seed=2)
        X = rng.standard_normal((6, 4))
        for order in range(3):
            stacked = F.component(1, X, order)
            full = F.full(X, order)
            for p, x in enumerate(X):
                for got, want in ((stacked, F.component(1, x, order)),
                                  (full, F.full(x, order))):
                    assert got.value[p] == want.value
                    if order >= 1:
                        assert np.array_equal(got.grad[p], want.grad)
                    if order == 2:
                        assert np.array_equal(got.hess[p], want.hess)
            assert (order >= 1) == (stacked.grad is not None)
            assert (order >= 2) == (stacked.hess is not None)

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            CallableFiniteSum([], d=2)


class TestSyntheticBenchmark:
    def test_deterministic_per_seed(self):
        F1 = quadratic_cosine_sum(3, 4, seed=9)
        F2 = quadratic_cosine_sum(3, 4, seed=9)
        x = np.linspace(-1, 1, 4)
        for i in range(3):
            assert F1.component(i, x).value == F2.component(i, x).value

    def test_shapes_and_symmetry(self, rng):
        F = quadratic_cosine_sum(4, 5, seed=2)
        x = rng.standard_normal(5)
        d = F.component(1, x, order=2)
        assert d.grad.shape == (5,)
        assert np.allclose(d.hess, d.hess.T)

    def test_derivatives_consistent(self, rng):
        from hardsum.linalg import finite_diff_gradient, finite_diff_jacobian
        F = quadratic_cosine_sum(2, 4, seed=4)
        x = rng.standard_normal(4)
        d = F.component(0, x, order=2)
        fd_g = finite_diff_gradient(lambda z: F.component(0, z, 0).value, x, step=1e-6)
        fd_H = finite_diff_jacobian(lambda z: F.component(0, z, 1).grad, x, step=1e-6)
        assert np.allclose(d.grad, fd_g, atol=1e-6)
        assert np.allclose(d.hess, fd_H, atol=1e-6)


class TestLedger:
    def test_charges_by_order(self):
        F = _two_quadratics()
        led = OracleLedger(n=2)
        x = np.zeros(3)
        query(led, F, 0, x, order=0)
        query(led, F, 0, x, order=1)
        query(led, F, 1, x, order=2)
        assert led.total == 3
        assert led.counters()["value"] == 3
        assert led.grad_queries == 2
        assert led.hess_queries == 1
        assert list(led.per_index) == [2, 1]

    def test_counters_dict(self):
        led = OracleLedger(n=1)
        assert led.counters() == {
            "total": 0, "adjusted_total": 0, "value": 0, "grad": 0,
            "hess": 0, "cache_hits": 0, "requeries": 0,
        }

    def test_batched_count(self):
        F = _two_quadratics()
        led = OracleLedger(n=2)
        query(led, F, 0, np.zeros(3), order=1, count=5)
        assert led.total == 5
        assert led.grad_queries == 5
        assert led.per_index[0] == 5

    def test_requery_and_adjusted_total(self):
        F = _two_quadratics()
        led = OracleLedger(n=2)
        query(led, F, 0, np.zeros(3), order=2, count=3)
        query(led, F, 1, np.zeros(3), order=2, count=2, requery=True)
        assert led.total == 5
        assert led.requery_queries == 2
        assert led.adjusted_total == 3

    def test_cache_hits_do_not_touch_total(self):
        led = OracleLedger(n=2)
        led.record_cache_hit(4)
        assert led.cache_hits == 4
        assert led.total == 0

    def test_rejects_negative_count(self):
        led = OracleLedger(n=1)
        with pytest.raises(ValueError):
            led.charge(0, 1, count=-1)
        with pytest.raises(ValueError):
            led.record_cache_hit(-1)

    def test_rejects_bad_order(self):
        F = _two_quadratics()
        led = OracleLedger(n=2)
        with pytest.raises(ValueError, match="order"):
            query(led, F, 0, np.zeros(3), order=3)


class TestQuery:
    @staticmethod
    def _constant_hessian_sum(H):
        def f(x, order=2):
            return Derivatives(0.0, np.zeros(2), H if order >= 2 else None)
        return CallableFiniteSum([f], d=2)

    def test_rejects_asymmetric_hessian(self):
        F = self._constant_hessian_sum(np.array([[1.0, 0.5], [0.0, 1.0]]))
        led = OracleLedger(n=1)
        with pytest.raises(ValueError, match="symmetric"):
            query(led, F, 0, np.zeros(2))
        assert led.total == 0               # a rejected answer is not charged
        # order-1 queries carry no Hessian and pass
        query(led, F, 0, np.zeros(2), order=1)
        assert led.total == 1

    def test_rejects_a_stack(self):
        # charged access is one point per call: a stack is not a query
        F = quadratic_cosine_sum(2, 3, seed=0)
        led = OracleLedger(n=2)
        with pytest.raises(ValueError, match="one point"):
            query(led, F, 0, np.zeros((2, 3)))
        assert led.total == 0

    def test_returns_exactly_symmetric_hessian(self):
        H = np.array([[2.0, 1.0 + 1e-14], [1.0, 3.0]])
        F = self._constant_hessian_sum(H)
        der = query(OracleLedger(n=1), F, 0, np.zeros(2))
        assert not np.array_equal(H, H.T)
        assert np.array_equal(der.hess, der.hess.T)
        assert np.allclose(der.hess, H, rtol=0.0, atol=1e-14)


class TestFirstHit:
    def test_latches_first_crossing(self):
        led = OracleLedger(n=2, eps=0.5)
        F = _two_quadratics()
        query(led, F, 0, np.zeros(3), order=1)
        record_iterate(led, 2.0)     # t = 0, above eps
        query(led, F, 0, np.zeros(3), order=1)
        record_iterate(led, 0.4)     # t = 1, hit
        query(led, F, 0, np.zeros(3), order=1)
        record_iterate(led, 0.1)     # later hit must not overwrite
        assert led.first_hit == 1
        assert led.first_hit_queries == 2
        assert led.iterates_recorded == 3

    def test_no_eps_means_no_tracking(self):
        led = OracleLedger(n=1)
        record_iterate(led, 0.0)
        assert led.first_hit is None

    def test_explicit_iterate_index(self):
        led = OracleLedger(n=1, eps=1.0)
        record_iterate(led, 5.0, t=10)
        record_iterate(led, 0.5, t=11)
        assert led.first_hit == 11
        assert led.iterates_recorded == 12

    def test_hit_at_exact_threshold(self):
        led = OracleLedger(n=1, eps=1.0)
        record_iterate(led, 1.0)
        assert led.first_hit == 0


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                          st.integers(1, 4), st.booleans()),
                min_size=0, max_size=30))
def test_ledger_arithmetic_property(ops):
    led = OracleLedger(n=4)
    total = adj = g = h = 0
    for i, order, count, req in ops:
        led.charge(i, order, count, requery=req)
        total += count
        if not req:
            adj += count
        if order >= 1:
            g += count
        if order >= 2:
            h += count
    assert led.total == total
    assert led.adjusted_total == adj
    assert led.grad_queries == g
    assert led.hess_queries == h
    assert led.per_index.sum() == total


def _closure_quadratic_cosine_sum(n, d, seed):
    """Reference: the construction the array-backed sum replaced, one
    one-point closure per component over the same draws."""
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(n):
        G = rng.standard_normal((d, d)) / np.sqrt(d)
        A = G @ G.T
        b = rng.standard_normal(d)
        b *= rng.uniform(0.5, 1.5) / np.linalg.norm(b)
        c = rng.uniform(0.5, 1.5)
        r = 0.3 * rng.standard_normal(d)

        def f(x, order=2, A=A, b=b, c=c, r=r):
            t = float(b @ x)
            Ax = A @ x
            val = 0.5 * float(x @ Ax) + c * np.cos(t) + float(r @ x)
            if order == 0:
                return Derivatives(val)
            grad = Ax - c * np.sin(t) * b + r
            if order == 1:
                return Derivatives(val, grad)
            return Derivatives(val, grad, A - c * np.cos(t) * np.outer(b, b))
        comps.append(f)
    return CallableFiniteSum(comps, d)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_answer(a: Derivatives, b: Derivatives) -> bool:
    return all((u is None and v is None)
               or (u is not None and v is not None and _same_bits(u, v))
               for u, v in ((a.value, b.value), (a.grad, b.grad),
                            (a.hess, b.hess)))


class TestQuadraticCosineStacks:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("P", range(1, 8))
    def test_stack_rows_equal_single_points(self, P, order):
        F = quadratic_cosine_sum(5, 6, seed=P)
        X = np.random.default_rng(P).standard_normal((P, 6)) * 2.0
        for i in range(F.n):
            stacked = F.component(i, X, order)
            assert np.shape(stacked.value) == (P,)
            for p in range(P):
                one = F.component(i, X[p], order)
                row = Derivatives(
                    stacked.value[p],
                    None if order < 1 else stacked.grad[p],
                    None if order < 2 else stacked.hess[p])
                assert _same_answer(one, row)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_single_points_equal_closure_reference(self, order):
        F = quadratic_cosine_sum(6, 5, seed=9)
        ref = _closure_quadratic_cosine_sum(6, 5, seed=9)
        for x in np.random.default_rng(1).standard_normal((4, 5)) * 3.0:
            for i in range(F.n):
                assert _same_answer(F.component(i, x, order),
                                    ref.component(i, x, order))

    def test_rejects_empty_sum(self):
        with pytest.raises(ValueError, match="at least one"):
            quadratic_cosine_sum(0, 3, seed=0)
