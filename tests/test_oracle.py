import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hardsum
from hardsum.chains import Derivatives
from hardsum.instances import ResistingOracle, deterministic_params, ell_p
from hardsum.linalg import _sym_stack, sym_matrix
from hardsum.oracle import (
    CallableFiniteSum,
    FiniteSumFunction,
    OracleLedger,
    _Evaluated,
    mean_derivatives,
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

    def test_answer_hooks_of_each_sum(self):
        # each finite sum in the package answers through these hooks only;
        # `_answers` is the one private evaluation hook
        hooks = {"component", "components", "_answers", "_checked", "full"}
        for mod in pkgutil.walk_packages(hardsum.__path__, "hardsum."):
            importlib.import_module(mod.name)
        found, todo = {}, [FiniteSumFunction]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls.__module__.startswith("hardsum."):
                found[cls.__name__] = {name for name in vars(cls)
                                       if name in hooks
                                       or name.startswith("_answers")}
        assert found == {
            "FiniteSumFunction": hooks,
            "CallableFiniteSum": {"component"},
            "_QuadraticCosineSum": {"component", "components", "_answers"},
            "_Evaluated": {"_checked"},
            "RandomizedHardInstance": {"component", "_answers"},
            "ResistingOracle": {"component", "full"},
            "_StackSum": {"component"},
        }


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


def _row(stack: Derivatives, k: int, order: int) -> Derivatives:
    return Derivatives(stack.value[k],
                       None if order < 1 else stack.grad[k],
                       None if order < 2 else stack.hess[k])


class TestComponents:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("rows", [[4, 0, 3], [2, 2, 5, 2, 0],
                                      list(range(6)), [1]])
    def test_quadratic_cosine_rows_equal_one_point_answers(self, rows, order):
        F = quadratic_cosine_sum(6, 5, seed=len(rows))
        for x in np.random.default_rng(order).standard_normal((3, 5)) * 2.0:
            stack = F.components(rows, x, order)
            assert np.shape(stack.value) == (len(rows),)
            assert (order >= 1) == (stack.grad is not None)
            assert (order >= 2) == (stack.hess is not None)
            for k, i in enumerate(rows):
                assert _same_answer(F.component(i, x, order),
                                    _row(stack, k, order))

    def test_default_loops_components_in_row_order(self):
        calls = []

        def comp(i):
            def f(x, order=2):
                calls.append((i, order))
                return Derivatives(float(i) + x[0], np.full(2, float(i)),
                                   np.eye(2) * i if order >= 2 else None)
            return f

        F = CallableFiniteSum([comp(i) for i in range(4)], d=2)
        stack = F.components([3, 1, 3, 0], np.array([0.5, 0.0]), 2)
        assert calls == [(3, 2), (1, 2), (3, 2), (0, 2)]
        assert stack.value.tolist() == [3.5, 1.5, 3.5, 0.5]
        assert stack.grad.shape == (4, 2) and stack.hess.shape == (4, 2, 2)

    def test_default_keeps_a_resisting_oracle_game_sequence(self):
        # the same rows asked through components and one by one archive the
        # same game moves with the same answers
        spec = deterministic_params(p=1, n=4, Delta=192.0 * 8, L=ell_p(1),
                                    eps=1.0)
        rows = [0, 1, 1, 3, 2, 0, 3]
        x = np.random.default_rng(4).standard_normal(spec.d)
        stacked, looped = (ResistingOracle(spec, seed=2) for _ in range(2))
        stack = stacked.components(rows, x, 2)
        answers = [looped.component(i, x, 2) for i in rows]
        assert stacked.num_archived == looped.num_archived == len(rows)
        assert stacked.rounds_closed == looped.rounds_closed == 3
        for k, (a, b) in enumerate(zip(stacked._archive, looped._archive)):
            assert (a.i, a.order, a.round) == (b.i, b.order, b.round)
            assert _same_answer(a.response, b.response)
            assert _same_answer(_row(stack, k, 2), answers[k])

    @pytest.mark.parametrize("rows", [[], [0, 6], [-1], [1.0, 2.0],
                                      [[0, 1]]])
    def test_rows_validated_before_any_call(self, rows):
        calls = []

        def f(x, order=2):
            calls.append(order)
            return Derivatives(0.0, np.zeros(2), np.zeros((2, 2)))

        for F in (CallableFiniteSum([f] * 6, d=2),
                  quadratic_cosine_sum(6, 2, seed=0)):
            with pytest.raises(ValueError):
                F.components(rows, np.zeros(2), 2)
        assert calls == []

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_full_at_one_point_equals_the_per_component_mean(self, order):
        # one components call, rows summed in index order: bit for bit the
        # mean of the one-point answers
        x = np.random.default_rng(3).standard_normal(5)
        for F in (quadratic_cosine_sum(9, 5, seed=1), _two_quadratics()):
            x = x[:F.d]
            want = mean_derivatives(
                (F.component(i, x, order) for i in range(F.n)), (F.d,), order)
            assert _same_answer(F.full(x, order), want)


class TestEvaluatedView:
    def _view(self):
        F = quadratic_cosine_sum(5, 3, seed=4)
        x = np.array([0.3, -1.0, 2.0])
        return F, x, _Evaluated.evaluate(F, [4, 1], x, 1)

    def test_answers_held_rows_through_query(self):
        F, x, view = self._view()
        led = OracleLedger(n=F.n)
        der = query(led, view, 4, x, order=1, count=3)
        assert _same_answer(der, F.component(4, x, 1))
        # a lower order than held is answered truncated
        assert _same_answer(query(led, view, 1, x.copy(), order=0),
                            F.component(1, x, 0))
        assert led.per_index.tolist() == [0, 1, 0, 0, 3]

    def test_refuses_what_it_does_not_hold(self):
        F, x, view = self._view()
        led = OracleLedger(n=F.n)
        with pytest.raises(ValueError, match="another point"):
            query(led, view, 4, x + 1e-12, order=1)
        with pytest.raises(ValueError, match="order"):
            query(led, view, 4, x, order=2)
        with pytest.raises(ValueError, match="not evaluated"):
            query(led, view, 2, x, order=1)
        with pytest.raises(ValueError, match="out of range"):
            query(led, view, 5, x, order=1)
        assert led.total == 0

    def test_checks_its_stack_once_when_built(self, monkeypatch):
        # one symmetry check of the whole stack; charging its rows, however
        # often, checks nothing again and answers query's own bits
        F = quadratic_cosine_sum(5, 3, seed=4)
        x = np.array([0.3, -1.0, 2.0])
        want = {i: query(OracleLedger(n=F.n), F, i, x, order=2)
                for i in (1, 2, 4)}
        shapes = []
        monkeypatch.setattr(
            "hardsum.oracle.sym_matrix",
            lambda a: shapes.append(np.shape(a)) or sym_matrix(a))
        monkeypatch.setattr(
            "hardsum.oracle._sym_stack",
            lambda a: shapes.append(np.shape(a)) or _sym_stack(a))
        view = _Evaluated.evaluate(F, [4, 1, 2], x, 2)
        led = OracleLedger(n=F.n)
        for i in (4, 1, 2, 4):
            assert _same_answer(query(led, view, i, x, order=2, count=2),
                                want[i])
        assert shapes == [(3, 3, 3)]
        assert led.per_index.tolist() == [0, 2, 2, 0, 4]

    @pytest.mark.parametrize("bad, match", [
        (Derivatives(np.nan, np.zeros(3), np.eye(3)),
         r"component 2 answered a non-finite value \(order 2\)"),
        (Derivatives(0.0, np.array([0.0, np.inf, 0.0]), np.eye(3)),
         r"component 2 answered a non-finite gradient \(order 2\)"),
        (Derivatives(0.0, np.zeros(3), np.triu(np.ones((3, 3)))),
         "not symmetric"),
    ])
    def test_rejects_a_bad_row_when_built(self, bad, match):
        def good(x, order=2):
            return Derivatives(0.0, np.zeros(3), np.eye(3))

        F = CallableFiniteSum([good, good, lambda x, order=2: bad], d=3)
        with pytest.raises(ValueError, match=match):
            _Evaluated.evaluate(F, [0, 2, 1], np.zeros(3), 2)
        # the one-row path raises the same error before charging
        led = OracleLedger(n=F.n)
        with pytest.raises(ValueError, match=match):
            query(led, F, 2, np.zeros(3), order=2)
        assert led.total == 0
