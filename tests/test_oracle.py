import copy
import dataclasses
import importlib
import pickle
import pkgutil
import tracemalloc

from conftest import (assert_rows, assert_shapes, chain_points, good_and_short,
                      same_answer, same_bits)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hardsum
from hardsum.chains import Derivatives, chain_eval, hat_f_eval, psi, soft_clamp
from hardsum.instances import (RandomizedHardInstance, ResistingOracle,
                               deterministic_params, ell_p, randomized_params,
                               sample_randomized_instance)
from hardsum.linalg import (_Factored, _symmetrized, rel_err, row_dot,
                            sample_orthonormal_columns)
from hardsum.optim import mu
from hardsum.oracle import (
    CallableFiniteSum,
    FiniteSumFunction,
    OracleLedger,
    _Evaluated,
    _QuadraticCosineSum,
    _check_answer,
    _row,
    _row_answers,
    mean_derivatives,
    quadratic_cosine_sum,
    query,
    record_iterate,
)
from hardsum.verify import _chain_sum, _hat_sum


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

    def test_empty_sum_rejected(self):
        with pytest.raises(ValueError):
            CallableFiniteSum([], d=2)

    @pytest.mark.parametrize("d, match", [
        (2.7, "d must be an integer, got float"),
        (True, "d must be an integer, got bool"),
        ("3", "d must be an integer, got str"),
        (0, "d must be >= 1, got 0"),
        (-3, "d must be >= 1, got -3"),
    ], ids=["float", "bool", "str", "zero", "negative"])
    def test_dimension_that_is_no_positive_integer_rejected(self, d, match):
        # int(d) used to read 2.7 as 2, True as 1 and "3" as 3
        with pytest.raises(ValueError, match=f"^{match}$"):
            CallableFiniteSum([lambda x, order=2: Derivatives(0.0)], d=d)

    def test_answer_hooks_of_each_sum(self):
        # each finite sum in the package writes `_evaluate`, its one kernel
        # hook, and overrides `components` and `_answers` only where it
        # keeps a table or stacks its answers; the resisting oracle's
        # `component` is a game move
        hooks = {"component", "components", "_answers", "_checked", "full",
                 "_evaluate", "_evaluate_all"}
        found = {cls.__name__: {name for name in vars(cls) if name in hooks
                                or name.startswith("_answers")}
                 for cls in _package_sums()}
        assert found == {
            "FiniteSumFunction": hooks,
            "CallableFiniteSum": {"component", "_evaluate"},
            "_QuadraticCosineSum": {"_evaluate", "components", "_answers"},
            "RandomizedHardInstance": {"component", "_evaluate", "_answers"},
            "ResistingOracle": {"component", "_answers", "_checked", "full",
                                "_evaluate_all"},
            "_StackSum": {"_evaluate"},
        }
        # the two bound in their classes for the benchmark's tracer are the
        # base's own, so no subclass checks its entry again
        for cls in (CallableFiniteSum, RandomizedHardInstance):
            assert vars(cls)["component"] is FiniteSumFunction.component


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

    @pytest.mark.parametrize("count", [2.5, 2.0, np.float64(2.0), True,
                                       np.bool_(True), "2", None])
    def test_rejects_a_non_integer_count_and_books_nothing(self, count):
        F = _two_quadratics()
        led = OracleLedger(n=2)
        with pytest.raises(ValueError, match="count must be an integer"):
            query(led, F, 0, np.zeros(3), order=2, count=count)
        with pytest.raises(ValueError, match="count must be an integer"):
            led.charge(1, 1, count=count, requery=True)
        with pytest.raises(ValueError, match="count must be an integer"):
            led.record_cache_hit(count)
        assert led.counters() == OracleLedger(n=2).counters()
        assert not led.per_index.any()

    @pytest.mark.parametrize("count", [np.int64(3), np.uint8(3), np.int32(3)])
    def test_numpy_integer_counts_are_booked_as_python_ints(self, count):
        F = _two_quadratics()
        led = OracleLedger(n=2)
        query(led, F, 0, np.zeros(3), order=2, count=count)
        led.charge(1, 1, count=count, requery=True)
        led.record_cache_hit(count)
        counters = led.counters()
        assert counters == {"total": 6, "adjusted_total": 3, "value": 6,
                            "grad": 6, "hess": 3, "cache_hits": 3,
                            "requeries": 3}
        assert all(type(v) is int for v in counters.values())
        assert list(led.per_index) == [3, 3]

    def test_rejects_bad_order(self):
        F = _two_quadratics()
        led = OracleLedger(n=2)
        with pytest.raises(ValueError, match="order"):
            query(led, F, 0, np.zeros(3), order=3)

    @pytest.mark.parametrize("i, match", [
        (-1, r"^component index -1 out of range \[0, 3\)$"),
        (3, r"^component index 3 out of range \[0, 3\)$"),
        (5, r"^component index 5 out of range \[0, 3\)$"),
        (np.int64(-1), r"^component index -1 out of range \[0, 3\)$"),
        (True, "^component indices must be integers, got bool$"),
        (np.True_, "^component indices must be integers, got bool$"),
        (1.0, "^component indices must be integers, got float$"),
        ("1", "^component indices must be integers, got str$"),
    ])
    def test_charge_refuses_a_bad_index_and_books_nothing(self, i, match):
        # the messages of check_index, which query's own index check gives
        led = OracleLedger(n=3)
        with pytest.raises(ValueError, match=match):
            led.charge(i, 2, 4, requery=True)
        assert led.counters() == OracleLedger(n=3).counters()
        assert not led.per_index.any()

    @pytest.mark.parametrize("i, order", [(0, 7), (1, 2.5), (1, -3)])
    def test_charge_refuses_a_bad_order_and_books_nothing(self, i, order):
        # booked unchecked, 7 and 2.5 would count as gradient and Hessian
        # queries and -3 as a value query
        led = OracleLedger(n=3)
        led.charge(1, 2, 2)
        before = led.counters()
        with pytest.raises(ValueError,
                           match=rf"^order must be in 0\.\.2, got {order}$"):
            led.charge(i, order)
        assert led.counters() == before
        assert led.per_index.tolist() == [0, 2, 0]

    @pytest.mark.parametrize("n, match", [
        (0, "^n must be >= 1, got 0$"),
        (-1, "^n must be >= 1, got -1$"),
        (True, "^n must be an integer, got bool$"),
        (2.5, "^n must be an integer, got float$"),
        ("3", "^n must be an integer, got str$"),
    ])
    def test_a_bad_size_is_refused_by_name(self, n, match):
        # a ledger's size is checked as every other count is
        with pytest.raises(ValueError, match=match):
            OracleLedger(n=n)

    def test_a_numpy_integer_size_is_kept_as_an_int(self):
        led = OracleLedger(n=np.int64(3))
        assert type(led.n) is int and led.n == 3
        assert led.per_index.tolist() == [0, 0, 0]

    def test_charge_books_a_numpy_integer_index(self):
        led = OracleLedger(n=3)
        led.charge(np.int64(2), 1, 2)
        led.charge(np.uint8(0), 2, 1)
        assert led.per_index.tolist() == [1, 0, 2]
        assert (led.grad_queries, led.hess_queries) == (3, 1)

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda led: pickle.loads(pickle.dumps(led))])
    def test_a_copy_books_into_its_own_counts(self, clone):
        led = OracleLedger(n=3, eps=0.5)
        led.charge(1, 2, 4, requery=True)
        twin = clone(led)
        twin.charge(2, 1, 3)
        led.charge(0, 0)
        assert led.per_index.tolist() == [1, 4, 0]
        assert twin.per_index.tolist() == [0, 4, 3]
        assert twin.counters() == {"total": 7, "adjusted_total": 3,
                                   "value": 7, "grad": 7, "hess": 4,
                                   "cache_hits": 0, "requeries": 4}


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

    @pytest.mark.parametrize("make", [
        lambda: quadratic_cosine_sum(4, 3, seed=0), lambda: _chain_sum(3)])
    def test_a_bool_index_is_refused_on_every_path(self, make):
        # operator.index reads True as 1; every path refuses it alike
        F = make()
        x = np.zeros(F.d)
        led = OracleLedger(n=F.n)
        calls = [lambda: F.component(True, x), lambda: F.component(np.True_, x),
                 lambda: F.components([True], x),
                 lambda: query(led, F, False, x)]
        for call in calls:
            with pytest.raises(ValueError, match="^component indices must be "
                                                 "integers, got bool$"):
                call()
        assert led.total == 0

    def test_returns_exactly_symmetric_hessian(self):
        H = np.array([[2.0, 1.0 + 1e-14], [1.0, 3.0]])
        F = self._constant_hessian_sum(H)
        der = query(OracleLedger(n=1), F, 0, np.zeros(2))
        assert not np.array_equal(H, H.T)
        assert np.array_equal(der.hess, der.hess.T)
        assert np.allclose(der.hess, H, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("view", [False, True], ids=["sum", "view"])
    @pytest.mark.parametrize("n", [2, 6], ids=["smaller", "larger"])
    def test_a_ledger_of_another_size_is_refused(self, n, view):
        # component 3 of a sum of 4: a ledger of 2 was charged past its
        # end (IndexError), one of 6 booked it silently
        F = quadratic_cosine_sum(4, 3, seed=0)
        x = np.zeros(3)
        source = _Evaluated.evaluate(F, np.arange(4), x, 2) if view else F
        evaluated = []
        source._checked = lambda *args: evaluated.append(args)
        led = OracleLedger(n=n)
        with pytest.raises(ValueError, match=rf"^the ledger counts {n} "
                                             "components, not the 4 of this "
                                             "sum$"):
            query(led, source, 3, x, order=2)
        assert evaluated == []
        assert led.counters() == OracleLedger(n=n).counters()
        assert not led.per_index.any()


def _order_calls():
    """Every entry that takes a derivative order, called with one."""
    F = quadratic_cosine_sum(4, 3, seed=0)
    x = np.full(3, 0.25)
    B = sample_orthonormal_columns(8, 3, seed=5)
    return {
        "query": lambda led, order: query(led, F, 0, x, order=order),
        "component": lambda led, order: F.component(0, x, order),
        "components": lambda led, order: F.components([0, 2], x, order),
        "full": lambda led, order: F.full(x, order),
        "chain_eval": lambda led, order: chain_eval(3, np.ones(3), x, order),
        "hat_f_eval": lambda led, order: hat_f_eval(3, B, np.ones(8), order),
        "soft_clamp": lambda led, order: soft_clamp(x, 2.0, order),
        "psi": lambda led, order: psi(0.75, order),
        "charge": lambda led, order: led.charge(0, order),
    }


@pytest.mark.parametrize("name", list(_order_calls()))
def test_an_order_must_be_an_integer(name):
    # 1.0 and 2.0 were taken as orders and failed later as slice indices;
    # True and np.True_ answered or booked as 1
    call = _order_calls()[name]
    led = OracleLedger(n=4)
    for order in (1.0, 2.0, True, False, np.True_, np.float64(1.0), "1"):
        with pytest.raises(ValueError,
                           match=rf"^order must be in 0\.\.2, got {order}$"):
            call(led, order)
    assert led.counters() == OracleLedger(n=4).counters()
    # a numpy integer is an order, as its int is
    for order in (0, 1, 2):
        got, want = (_answer_parts(call(led, o)) for o in (np.int64(order),
                                                           order))
        assert len(got) == len(want) and all(map(same_bits, got, want))


def _answer_parts(answer) -> tuple:
    """The arrays of an answer: a Derivatives' parts, a tuple's entries but
    a function (soft_clamp's contraction), or the answer itself."""
    if isinstance(answer, Derivatives):
        return (answer.value, answer.grad, answer.hess)
    if isinstance(answer, tuple):
        return tuple(part for part in answer if not callable(part))
    return (answer,)


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


class TestQuadraticCosineStacks:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_single_points_equal_closure_reference(self, order):
        F = quadratic_cosine_sum(6, 5, seed=9)
        ref = _closure_quadratic_cosine_sum(6, 5, seed=9)
        for x in np.random.default_rng(1).standard_normal((4, 5)) * 3.0:
            for i in range(F.n):
                assert same_answer(F.component(i, x, order),
                                   ref.component(i, x, order))

    def test_rejects_empty_sum(self):
        with pytest.raises(ValueError, match="at least one"):
            quadratic_cosine_sum(0, 3, seed=0)


def _loop_quadratic_cosine_arrays(n, d, seed, curvature, ripple):
    """Reference: the construction as a loop over the components, each
    one's arrays finished from its own draws and the lists stacked at the
    end."""
    rng = np.random.default_rng(seed)
    A, b, c, r = [], [], [], []
    for _ in range(n):
        G = rng.standard_normal((d, d)) / np.sqrt(d)
        A.append(curvature * (G @ G.T))
        b_i = rng.standard_normal(d)
        b_i *= rng.uniform(0.5, 1.5) / np.linalg.norm(b_i)
        b.append(b_i)
        c.append(ripple * rng.uniform(0.5, 1.5))
        r.append(0.3 * rng.standard_normal(d))
    return np.array(A), np.array(b), np.array(c), np.array(r)


class TestQuadraticCosineConstruction:
    @pytest.mark.parametrize("n, d", [(256, 20), (4, 6), (3, 1)])
    def test_arrays_equal_the_per_component_loop(self, n, d):
        for seed in range(10):
            for curvature, ripple in ((1.0, 1.0), (1.7, 0.6)):
                F = quadratic_cosine_sum(n, d, seed, curvature=curvature,
                                         ripple=ripple)
                want = _loop_quadratic_cosine_arrays(n, d, seed, curvature,
                                                     ripple)
                for got, ref in zip((F._A, F._b, F._c, F._r), want):
                    assert same_bits(got, ref)


def _five_call_quadratic_cosine_arrays(n, d, seed, curvature, ripple):
    """Reference: the construction with five generator calls per component
    (G_i, b_i, scale_i, c_i, r_i), each written into its row of a stack,
    then the arithmetic on the stacks."""
    rng = np.random.default_rng(seed)
    G, b, r = np.empty((n, d, d)), np.empty((n, d)), np.empty((n, d))
    scale, c = np.empty(n), np.empty(n)
    for i in range(n):
        G[i] = rng.standard_normal((d, d))
        b[i] = rng.standard_normal(d)
        scale[i] = rng.uniform(0.5, 1.5)
        c[i] = rng.uniform(0.5, 1.5)
        r[i] = rng.standard_normal(d)
    G /= np.sqrt(d)
    b *= (scale / np.sqrt(row_dot(b, b)))[:, None]
    c *= ripple
    r *= 0.3
    A = G @ G.swapaxes(-1, -2)
    A *= curvature
    return A, b, c, r


class TestQuadraticCosineDraws:
    @pytest.mark.parametrize("n, d", [(1, 1), (1, 5), (3, 1), (7, 4),
                                      (256, 20)])
    def test_arrays_equal_the_five_call_draws(self, n, d):
        for seed in (0, 3, 17):
            for curvature, ripple in ((1.0, 1.0), (2.5, 0.4)):
                F = quadratic_cosine_sum(n, d, seed, curvature=curvature,
                                         ripple=ripple)
                want = _five_call_quadratic_cosine_arrays(
                    n, d, seed, curvature, ripple)
                for got, ref in zip((F._A, F._b, F._c, F._r), want):
                    assert same_bits(got, ref)
                    assert got.flags.c_contiguous

    def test_the_generator_is_left_where_the_draws_end(self):
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        quadratic_cosine_sum(5, 3, rng)
        _five_call_quadratic_cosine_arrays(5, 3, ref, 1.0, 1.0)
        assert rng.random() == ref.random()


def _spread_stack(rng, n: int, d: int, order: int) -> Derivatives:
    """A stack of n answers in R^d up to ``order`` whose entries span
    sixteen decades, so that the order of the additions shows in the
    bits."""
    def draw(shape):
        return (rng.standard_normal(shape)
                * 10.0 ** rng.integers(-8, 9, size=shape))
    return Derivatives(draw(n), draw((n, d)) if order >= 1 else None,
                       draw((n, d, d)) if order >= 2 else None)


def _factored(stack: Derivatives) -> Derivatives:
    """The stack with its Hessians held as one factored stack V S V^T: S
    the leading (d + 1) // 2 square of each Hessian, V the identity's first
    columns."""
    d = stack.grad.shape[1]
    a = (d + 1) // 2
    return dataclasses.replace(stack, hess=_Factored(
        np.eye(d)[:, :a], stack.hess[:, :a, :a].copy()))


def _loop_mean(stack: Derivatives, shape: tuple, order: int) -> Derivatives:
    """The mean of a stack through the loop over its rows."""
    hess = stack.hess
    if not isinstance(hess, _Factored):
        return mean_derivatives(list(_row_answers(stack, order)), shape, order)
    return mean_derivatives([Derivatives(v, g, _Factored(hess.V, S))
                             for v, g, S in zip(stack.value, stack.grad,
                                                hess.S)], shape, order)


def _same_mean(a: Derivatives, b: Derivatives) -> bool:
    """Equal bits, a factored Hessian compared through its V and S."""
    if isinstance(a.hess, _Factored) or isinstance(b.hess, _Factored):
        return (isinstance(a.hess, _Factored) and isinstance(b.hess, _Factored)
                and same_bits(a.hess.V, b.hess.V)
                and same_bits(a.hess.S, b.hess.S)
                and same_answer(dataclasses.replace(a, hess=None),
                                dataclasses.replace(b, hess=None)))
    return same_answer(a, b)


class TestStackedMean:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 20])
    def test_equals_the_row_loop(self, d, order):
        # (256, 1) stacks are where numpy's sum over rows goes pairwise; at
        # order 2 the Hessians also come as one factored stack
        rng = np.random.default_rng(10 * d + order)
        for _ in range(20):
            stack = _spread_stack(rng, 256, d, order)
            for s in [stack] if order < 2 else [stack, _factored(stack)]:
                assert _same_mean(mean_derivatives(s, (d,), order),
                                  _loop_mean(s, (d,), order))

    @pytest.mark.parametrize("d", [1, 20])
    def test_all_negative_zero_sums_to_positive_zero(self, d):
        stack = _spread_stack(np.random.default_rng(d), 256, d, 2)
        stack.value[:] = -0.0
        stack.grad[:, 0] = -0.0
        stack.hess[:, 0, -1] = -0.0
        got = mean_derivatives(stack, (d,), 2)
        assert same_answer(got, _loop_mean(stack, (d,), 2))
        assert same_bits(got.value, 0.0)
        assert same_bits(got.grad[0], 0.0) and same_bits(got.hess[0, -1], 0.0)
        # a factored total starts from a copy of the first S, not from +0.0,
        # so its all -0.0 entry stays -0.0 as in the loop
        factored = _factored(stack)
        factored.hess.S[:, 0, -1] = -0.0
        got = mean_derivatives(factored, (d,), 2)
        assert _same_mean(got, _loop_mean(factored, (d,), 2))
        assert same_bits(got.hess.S[0, -1], -0.0)

    @pytest.mark.parametrize("order, part, shape", [
        (0, "value", (256, 1)), (1, "grad", (256, 3)), (1, "grad", (256,)),
        (2, "hess", (256, 2, 3)), (2, "hess", (256, 2))])
    def test_a_wrong_shape_raises_the_loops_error(self, order, part, shape):
        stack = _spread_stack(np.random.default_rng(0), 256, 2, order)
        stack = dataclasses.replace(stack, **{part: np.ones(shape)})
        with pytest.raises(ValueError, match="component 0 answered a ") as loop:
            _loop_mean(stack, (2,), order)
        with pytest.raises(ValueError) as stacked:
            mean_derivatives(stack, (2,), order)
        assert str(stacked.value) == str(loop.value)

    def test_rows_of_unequal_counts_are_refused(self):
        stack = Derivatives(np.zeros(4), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="a stack of answers has parts"):
            mean_derivatives(stack, (2,), 1)

    @pytest.mark.parametrize("n, d", [(256, 20), (8, 1)])
    def test_full_equals_the_component_loop(self, n, d):
        F = quadratic_cosine_sum(n, d, seed=5)
        for x in np.random.default_rng(d).standard_normal((3, d)):
            for order in (0, 1, 2):
                want = mean_derivatives(
                    (F.component(i, x, order) for i in range(n)), (d,), order)
                assert same_answer(F.full(x, order), want)


class TestComponents:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("rows", [[4, 0, 3], [2, 2, 5, 2, 0],
                                      list(range(6)), [1]])
    def test_quadratic_cosine_rows_equal_one_point_answers(self, rows, order):
        F = quadratic_cosine_sum(6, 5, seed=len(rows))
        for x in np.random.default_rng(order).standard_normal((3, 5)) * 2.0:
            stack = F.components(rows, x, order)
            assert_shapes(stack, (len(rows),), F.d, order)
            assert_rows(stack, [F.component(i, x, order) for i in rows])

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
        for a, b in zip(stacked._archive, looped._archive):
            assert (a.i, a.order, a.round) == (b.i, b.order, b.round)
            assert same_answer(a.response, b.response)
        assert_rows(stack, answers)


def _spy_evaluations(F, monkeypatch) -> list:
    """Record the (rows, point shape, order) of every evaluation F makes."""
    calls, evaluate = [], F._evaluate
    monkeypatch.setattr(F, "_evaluate", lambda i, x, order: calls.append(
        (i, np.shape(x), order)) or evaluate(i, x, order))
    return calls


def _reference_hessians(F, i, x):
    """Component i's Hessians at x (a point or a stack of points), or every
    component's at one point for i the slice of all: A_i - s (b_i b_i^T)
    with s = c_i cos(<b_i, x>), b b^T formed first and then scaled."""
    b, c = F._b[i], F._c[i]
    bbT = b[..., :, None] * b[..., None, :]
    s = c * np.cos(row_dot(b, x))
    return F._A[i] - s[..., None, None] * bbT


class TestQuadraticHessians:
    """The Hessians of ``quadratic_cosine_sum``, formed at each evaluation
    from b, equal A_i - s (b_i b_i^T) bit for bit."""

    @staticmethod
    def _sum_and_points():
        F = quadratic_cosine_sum(7, 5, seed=13)
        return F, np.random.default_rng(2).standard_normal((3, F.d)) * 2.0

    def test_at_one_point(self):
        F, X = self._sum_and_points()
        for x in X:
            for i in range(F.n):
                assert same_bits(F.component(i, x, 2).hess,
                                 _reference_hessians(F, i, x))

    def test_at_a_stack_of_points(self):
        F, X = self._sum_and_points()
        for i in range(F.n):
            hess = F.component(i, X, 2).hess
            assert hess.shape == (len(X), F.d, F.d)
            assert same_bits(hess, _reference_hessians(F, i, X))

    def test_for_all_components(self):
        F, X = self._sum_and_points()
        for x in X:
            want = _reference_hessians(F, slice(None), x)
            assert same_bits(F._evaluate_all(x).hess, want)
            assert same_bits(F.components(np.arange(F.n), x, 2).hess, want)
            assert same_bits(F.full(x, 2).hess, want.sum(axis=0) / F.n)

    def test_holds_no_stack_but_its_components(self):
        # A (n, d, d), b, c and r: no stack of b b^T beside them
        F = quadratic_cosine_sum(16, 9, seed=1)
        held = [v for v in vars(F).values() if isinstance(v, np.ndarray)]
        assert sum(v.nbytes for v in held) == sum(
            v.nbytes for v in (F._A, F._b, F._c, F._r))

    def test_the_old_table_goes_before_the_new_one_is_filled(self,
                                                            monkeypatch):
        F = quadratic_cosine_sum(5, 3, seed=4)
        F.full(np.zeros(3), 2)
        held = []
        evaluate_all = F._evaluate_all
        monkeypatch.setattr(F, "_evaluate_all", lambda x: held.append(
            (F._table_key, F._table_value)) or evaluate_all(x))
        F.full(np.ones(3), 2)
        assert held == [(None, None)]
        assert F._table_key == np.ones(3).tobytes()


class TestQuadraticTable:
    """The table of ``quadratic_cosine_sum``'s last order-2 evaluation of
    every component at one point: what fills it, what reads it, and that
    its answers are a fresh sum's bit for bit."""

    N, D, SEED = 6, 4, 8
    ROWS = ([4, 0, 3], [2, 2, 5, 2, 0], list(range(6)), list(range(6))[::-1])

    def _sum(self):
        return quadratic_cosine_sum(self.N, self.D, seed=self.SEED)

    def _point(self):
        return np.array([0.7, 0.0, -1.3, 2.1])

    @pytest.mark.parametrize("fill", [
        lambda F, x: F.full(x, 2),
        lambda F, x: mu(F, x, 1.0),
        lambda F, x: F.components(np.arange(F.n), x, 2),
    ], ids=["full", "mu", "components"])
    def test_reads_equal_a_fresh_sum(self, fill, monkeypatch):
        F, x = self._sum(), self._point()
        fill(F, x)
        assert F._table_key == x.tobytes()
        calls = _spy_evaluations(F, monkeypatch)
        for order in range(3):
            for rows in self.ROWS:
                assert same_answer(F.components(rows, x.copy(), order),
                                   self._sum().components(rows, x, order))
            assert same_answer(F.full(x.copy(), order),
                               self._sum().full(x, order))
        assert calls == []

    def test_component_and_stacks_leave_it_unfilled(self, monkeypatch):
        F, x = self._sum(), self._point()
        calls = _spy_evaluations(F, monkeypatch)
        X = np.stack([x, 2.0 * x])
        asks = [lambda: F.component(1, x, 2),
                lambda: F.full(X, 2),
                lambda: F.component(1, X, 2)]
        for ask in asks + asks:     # asked again, each evaluates again
            ask()
        # full of a stack evaluates component by component
        assert len(calls) == 2 * (len(asks) - 1 + F.n)
        assert F._table_key is None

    @pytest.mark.parametrize("first", [
        lambda F, x: F.components([0, 1, 2, 3, 4], x, 2),
        lambda F, x: F.components([3], x, 0),
        lambda F, x: F.components(np.arange(F.n), x, 1),
        lambda F, x: F.full(x, 0),
        lambda F, x: F.full(x, 1),
    ], ids=["partial-rows", "one-row-order-0", "all-rows-order-1",
            "full-order-0", "full-order-1"])
    def test_the_first_one_point_request_fills_it(self, first, monkeypatch):
        # whatever rows and order it asks, it evaluates every component at
        # order 2 once, and every later one-point read at that point is a
        # read of the table with a fresh sum's bits
        F, x = self._sum(), self._point()
        calls = _spy_evaluations(F, monkeypatch)
        first(F, x)
        assert calls == [(slice(None), x.shape, 2)]
        assert F._table_key == x.tobytes()
        fresh = self._sum()
        for order in range(3):
            for rows in self.ROWS:
                got = F.components(rows, x.copy(), order)
                assert same_answer(got, self._sum().components(rows, x, order))
                assert_rows(got, [fresh.component(i, x, order) for i in rows])
            assert same_answer(F.full(x.copy(), order),
                               self._sum().full(x, order))
        assert len(calls) == 1

    def test_component_and_stacks_never_read_it(self, monkeypatch):
        F, x = self._sum(), self._point()
        F.full(x, 2)
        calls = _spy_evaluations(F, monkeypatch)
        F.component(3, x, 2)
        F.component(3, np.stack([x, x]), 1)
        F.full(np.stack([x, x]), 2)
        assert [(i, shape) for i, shape, _ in calls] == (
            [(3, (4,)), (3, (2, 4))] + [(i, (2, 4)) for i in range(F.n)])
        assert F._table_key == x.tobytes()

    def test_its_arrays_are_read_only(self):
        F, x = self._sum(), self._point()
        table = F.components(np.arange(F.n), x, 2)
        for part in (table.value, table.grad, table.hess):
            assert not part.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            F.components(np.arange(F.n), x, 2).hess[0, 0, 0] = 1.0

    def test_its_checked_hessians_are_its_own_array(self):
        # svrc-synthetic's table stack is symmetric bit for bit, and its
        # check reads it with no buffer the size of the stack
        F = quadratic_cosine_sum(256, 20, seed=3)
        x = np.random.default_rng(1).standard_normal(F.d)
        table = F.components(np.arange(F.n), x, 2)
        assert same_bits(table.hess, table.hess.swapaxes(-1, -2))
        tracemalloc.start()
        try:
            checked = _check_answer(table, np.arange(F.n), 2, F.d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert checked.hess is table.hess
        assert peak < table.hess.nbytes / 2, peak

    def test_a_point_of_other_bytes_misses(self, monkeypatch):
        F, x = self._sum(), self._point()
        F.full(x, 2)
        ulp = x.copy()
        ulp[2] = np.nextafter(ulp[2], np.inf)
        signed = x.copy()
        signed[1] = -0.0
        calls = _spy_evaluations(F, monkeypatch)
        for y in (ulp, signed):
            assert same_answer(F.components([1, 4], y, 2),
                               self._sum().components([1, 4], y, 2))
        # each new point is evaluated once, and the table holds the last
        assert calls == [(slice(None), x.shape, 2)] * 2
        assert F._table_key == signed.tobytes()


def test_derivatives_is_a_slotted_dataclass():
    # tests/test_instances.py::_nbytes walks answers through their fields
    der = Derivatives(1.0)
    assert [f.name for f in dataclasses.fields(der)] == [
        "value", "grad", "hess"]
    assert der.grad is None and der.hess is None
    assert not hasattr(der, "__dict__")


def _package_sums() -> set:
    """Every FiniteSumFunction subclass the package defines."""
    for mod in pkgutil.walk_packages(hardsum.__path__, "hardsum."):
        importlib.import_module(mod.name)
    found, todo = set(), [FiniteSumFunction]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("hardsum."):
            found.add(cls)
    return found


def _randomized(n=4, haar_c=False, scaled=True):
    spec = randomized_params("randomized-individual", p=1, n=n,
                             Delta=192.0 * 2 * n, L=1.0, eps=1.0, ell_hat=1.0)
    with pytest.warns(UserWarning, match="guarantee threshold"):
        F = sample_randomized_instance(spec, seed=0, haar_c=haar_c)
    return F if scaled else F.unscaled_view()


def _resisting(p, finalized):
    """A game with two rounds closed, or finalized after them."""
    spec = deterministic_params(p=p, n=4, Delta=192.0 * 6, L=ell_p(p),
                                eps=1.0)
    F = ResistingOracle(spec, seed=11)
    rng = np.random.default_rng(p)
    for i in range(spec.n):
        F.component(i, rng.standard_normal(spec.d), 1)
    assert F.rounds_closed == 2
    if finalized:
        F.finalize()
    return F


class _KernelOnlySum(FiniteSumFunction):
    """A sum that writes the kernel hook alone: component i is
    0.5 a_i |x|^2 + <g_i, x>, at a point or a stack of points."""

    def __init__(self, n: int = 3, d: int = 4):
        self.n, self.d = n, d
        rng = np.random.default_rng(5)
        self._a = rng.uniform(0.5, 1.5, n)
        self._g = rng.standard_normal((n, d))

    def _evaluate(self, i, x, order):
        a, g = self._a[i], self._g[i]
        hess = np.broadcast_to(a * np.eye(self.d),
                               x.shape[:-1] + (self.d, self.d)).copy()
        return Derivatives(*(0.5 * a * row_dot(x, x) + row_dot(g, x),
                             a * x + g, hess)[:order + 1])


#: every sum of the package, and how closely a row of its stacked answers
#: agrees with the answer at its point: the clamp-based sums' batched clamp
#: rounds derivatives (tests/test_chains.py TestStacks); values, and the
#: other sums, agree bit for bit
SUMS = {
    "callable": (_two_quadratics, 0.0),
    "quadratic-cosine": (lambda: quadratic_cosine_sum(9, 5, seed=1), 0.0),
    "randomized": (_randomized, 1e-15),
    "randomized-n1": (lambda: _randomized(n=1), 1e-15),
    "randomized-unscaled": (lambda: _randomized(scaled=False), 1e-15),
    "randomized-haar-c": (lambda: _randomized(haar_c=True), 1e-15),
    **{f"resisting-p{p}-{stage}": (
        lambda p=p, stage=stage: _resisting(p, stage == "final"), 0.0)
       for p in (1, 2) for stage in ("play", "final")},
    "stack-chain": (lambda: _chain_sum(4), 0.0),
    "stack-hat": (lambda: _hat_sum(3, 12, seed=2), 1e-15),
    # not the package's: the checks and stacks `component` derives from
    # `_evaluate` alone
    "kernel-only": (_KernelOnlySum, 0.0),
}

def _at_order(where: str, order):
    """A call at a derivative order: ``full`` at one point or at a stack of
    two, or ``component`` or ``components`` at one point."""
    if where == "component":
        return lambda F, x: F.component(0, x, order)
    if where == "components":
        return lambda F, x: F.components([0, F.n - 1], x, order)
    if where == "full":
        return lambda F, x: F.full(x, order)
    return lambda F, x: F.full(np.stack([x, x]), order)


#: calls a sum refuses before it evaluates anything, and their errors
REFUSALS = {
    "index-n": (lambda F, x: F.component(F.n, x), "out of range"),
    "index-negative": (lambda F, x: F.component(-1, x), "out of range"),
    "index-float": (lambda F, x: F.component(F.n - 0.3, x), "integers"),
    "index-bool": (lambda F, x: F.component(True, x), "integers, got bool"),
    "query-index-bool": (lambda F, x: query(OracleLedger(n=F.n), F, True, x),
                         "integers, got bool"),
    "rows-empty": (lambda F, x: F.components([], x), "non-empty"),
    "rows-negative": (lambda F, x: F.components([-1], x), "out of range"),
    "rows-n": (lambda F, x: F.components([0, F.n], x), "out of range"),
    "rows-floats": (lambda F, x: F.components([1.0, 2.0], x), "integers"),
    "rows-2d": (lambda F, x: F.components([[0, 1]], x), "non-empty"),
    "dim-component": (lambda F, x: F.component(0, x[:-1]), "dimension"),
    "dim-components": (lambda F, x: F.components([0], x[:-1]), "dimension"),
    "dim-full": (lambda F, x: F.full(x[:-1]), "dimension"),
    "dim-full-stack": (lambda F, x: F.full(x[None, :-1]), "dimension"),
    **{f"order-{order}-{where}": (_at_order(where, order),
                                  rf"order must be in 0\.\.2, got {order}")
       for order in (3, -1, 1.5)
       for where in ("full", "full-stack", "component", "components")},
}


def _game_state(F):
    """All a measurement must leave alone; False for a sum without a game."""
    return isinstance(F, ResistingOracle) and (
        F.num_archived, F.rounds_closed, F._nbasis, F.finalized,
        F._basis.tobytes(), F.directions.tobytes())


def _points(F, P: int, rng) -> np.ndarray:
    """P points for F, shape (P, d)."""
    if isinstance(F, ResistingOracle):
        return chain_points(F, rng, P)
    return 3.0 * rng.standard_normal((P, F.d))


def _evaluations(F, monkeypatch) -> list:
    """Record every evaluation F makes from here on: a call of one of its
    callables, or of a kernel behind the package's other sums."""
    calls = []

    def spy(f):
        return lambda *args, **kwargs: calls.append(f) or f(*args, **kwargs)

    if isinstance(F, CallableFiniteSum):
        monkeypatch.setattr(F, "_components", [spy(f) for f in F._components])
    if isinstance(F, _KernelOnlySum):
        monkeypatch.setattr(F, "_evaluate", spy(F._evaluate))
    for module, name in ((hardsum.oracle, "row_dot"),
                         (hardsum.instances.randomized, "_hat_f"),
                         (hardsum.instances.resisting, "_chain_eval")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    return calls


ORDERS = pytest.mark.parametrize("order", [0, 1, 2])
NAMES = pytest.mark.parametrize("name", list(SUMS))


class TestSumContract:
    """What ``component``, ``components`` and ``full`` promise for every sum
    of the package: answer shapes; stack rows equal to one-point answers;
    ``full`` the mean of the components' answers, where ``component`` is not
    a game move; refusals before any evaluation; and no measurement or
    refusal moves the resisting oracle's game."""

    def test_every_sum_has_an_entry(self):
        built = {type(build()) for build, _ in SUMS.values()}
        assert {cls.__name__ for cls in _package_sums() - built} == {
            "FiniteSumFunction"}

    @ORDERS
    @NAMES
    def test_component_at_a_stack(self, name, order):
        F, tol = SUMS[name][0](), SUMS[name][1]
        rng = np.random.default_rng(3)
        for P in (1, 3, 7):
            X = _points(F, P, rng)
            if isinstance(F, ResistingOracle):
                state = _game_state(F)
                message = (rf"a game move is one point: component takes x "
                           rf"of shape \({F.d},\), got \({P}, {F.d}\)")
                for move in (F.component, F._checked):
                    with pytest.raises(ValueError, match=message):
                        move(F.n - 1, X, order)
                assert _game_state(F) == state
                continue
            for i in range(F.n):
                stack = F.component(i, X, order)
                assert_shapes(stack, (P,), F.d, order)
                assert_rows(stack, [F.component(i, x, order) for x in X],
                             tol)

    @ORDERS
    @NAMES
    def test_one_point_answers_and_rows(self, name, order):
        # a twin of the sum answers the rows one component call each (for a
        # game, the same moves), each answer checked on its own
        F, twin = SUMS[name][0](), SUMS[name][0]()
        x = _points(F, 1, np.random.default_rng(3))[0]
        for rows in ([0], [F.n - 1, 0, F.n - 1], list(range(F.n))[::-1]):
            stack = F.components(rows, x, order)
            assert_shapes(stack, (len(rows),), F.d, order)
            answers = [twin.component(i, x, order) for i in rows]
            for one in answers:
                assert_shapes(one, (), F.d, order)
            assert_rows(stack, answers)
            assert _game_state(F) == _game_state(twin)

    @ORDERS
    @NAMES
    def test_full(self, name, order):
        F, tol = SUMS[name][0](), SUMS[name][1]
        rng = np.random.default_rng(3)
        state = _game_state(F)
        for P in (1, 3, 7):
            X = _points(F, P, rng)
            stack = F.full(X, order)
            rows = [F.full(x, order) for x in X]
            assert_shapes(stack, (P,), F.d, order)
            for row in rows:
                assert_shapes(row, (), F.d, order)
            assert_rows(stack, rows, tol)
            if isinstance(F, ResistingOracle):
                continue
            for x, got in ((X, stack), (X[0], rows[0])):
                want = mean_derivatives(
                    (F.component(i, x, order) for i in range(F.n)), x.shape,
                    order)
                assert same_answer(got, want)
        assert _game_state(F) == state

    @pytest.mark.parametrize("refusal", list(REFUSALS))
    @NAMES
    def test_refused_before_any_evaluation(self, name, refusal, monkeypatch):
        call, match = REFUSALS[refusal]
        F = SUMS[name][0]()
        x = _points(F, 1, np.random.default_rng(3))[0]
        state = _game_state(F)
        calls = _evaluations(F, monkeypatch)
        with pytest.raises(ValueError, match=match):
            call(F, x)
        assert calls == [] and _game_state(F) == state
        F.full(x, 0)
        assert calls    # the spies see this sum's evaluations


def _calls(owner, name: str, monkeypatch) -> list:
    """Record the arguments of every call of ``owner.name`` from here on."""
    calls, f = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(
        args) or f(*args, **kwargs))
    return calls


class TestFullAnswersThroughItsKernel:
    """``full`` answers from each sum's own evaluation, never through the
    validating public ``component``."""

    @ORDERS
    @pytest.mark.parametrize("name", ["randomized", "randomized-n1",
                                      "randomized-unscaled",
                                      "randomized-haar-c"])
    def test_randomized_instance(self, name, order, monkeypatch):
        # one clamped-chain pass per component at one point, one for all of
        # them at a stack
        F = SUMS[name][0]()
        X = _points(F, 3, np.random.default_rng(3))
        component = _calls(RandomizedHardInstance, "component", monkeypatch)
        kernel = _calls(hardsum.instances.randomized, "_hat_f", monkeypatch)
        F.full(X[0], order)
        assert (len(component), len(kernel)) == (0, F.n)
        assert all(y.shape == (F.d // F.n,) for _, _, y, _ in kernel)
        kernel.clear()
        F.full(X, order)
        assert (len(component), len(kernel)) == (0, 1)

    @ORDERS
    def test_quadratic_cosine_sum_at_a_stack(self, order, monkeypatch):
        F = SUMS["quadratic-cosine"][0]()
        X = _points(F, 3, np.random.default_rng(3))
        component = _calls(_QuadraticCosineSum, "component", monkeypatch)
        evaluate = _calls(_QuadraticCosineSum, "_evaluate", monkeypatch)
        F.full(X, order)
        assert component == []
        assert [(i, x.shape) for _, i, x, _ in evaluate] == [
            (i, X.shape) for i in range(F.n)]


class TestEvaluatedView:
    def _view(self):
        F = quadratic_cosine_sum(5, 3, seed=4)
        x = np.array([0.3, -1.0, 2.0])
        return F, x, _Evaluated.evaluate(F, [4, 1], x, 1)

    def test_answers_held_rows_through_query(self):
        F, x, view = self._view()
        led = OracleLedger(n=F.n)
        der = query(led, view, 4, x, order=1, count=3)
        assert same_answer(der, F.component(4, x, 1))
        # a lower order than held is answered truncated
        assert same_answer(query(led, view, 1, x.copy(), order=0),
                           F.component(1, x, 0))
        assert led.per_index.tolist() == [0, 1, 0, 0, 3]

    def test_its_answers_refuse_a_write(self):
        # an answer is one object to every charge of it, so its arrays and
        # the stack they are views of are read-only
        F = quadratic_cosine_sum(5, 3, seed=4)
        x = np.array([0.3, -1.0, 2.0])
        view = _Evaluated.evaluate(F, [4, 1], x, 2)
        der = query(OracleLedger(n=F.n), view, 4, x, order=2)
        for part in (view.stack.value, der.grad, der.hess):
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 0.0
        assert same_answer(query(OracleLedger(n=F.n), view, 4, x, order=2),
                           F.component(4, x, 2))

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

    @pytest.mark.parametrize("call, error", [
        (lambda v, x: dict(i=True), "component indices must be integers, "
                                    "got bool"),
        (lambda v, x: dict(i=4.0), "component indices must be integers, "
                                   "got float"),
        (lambda v, x: dict(i=5), "component index 5 out of range [0, 5)"),
        (lambda v, x: dict(i=-1), "component index -1 out of range [0, 5)"),
        (lambda v, x: dict(x=x + 1e-12), "these answers were evaluated at "
                                         "another point"),
        (lambda v, x: dict(x=x[:2]), "these answers were evaluated at "
                                     "another point"),
        (lambda v, x: dict(x=np.stack([x, x])), "query takes one point, got "
                                                "shape (2, 3)"),
        (lambda v, x: dict(order=2), "these answers go up to order 1, not 2"),
        (lambda v, x: dict(order=3), "order must be in 0..2, got 3"),
        (lambda v, x: dict(order=-1), "order must be in 0..2, got -1"),
        (lambda v, x: dict(i=2), "component 2 was not evaluated here"),
        (lambda v, x: dict(i=0, x=[0.3, -1.0]), "these answers were "
                                                "evaluated at another point"),
    ])
    def test_refuses_as_the_per_row_path_did(self, call, error):
        # the type and message of every refusal, the ledger untouched
        F, x, view = self._view()
        led = OracleLedger(n=F.n)
        args = dict(i=4, x=x, order=1) | call(view, x)
        with pytest.raises(ValueError) as info:
            query(led, view, args["i"], args["x"], order=args["order"])
        assert type(info.value) is ValueError
        assert str(info.value) == error
        assert led.counters() == OracleLedger(n=F.n).counters()
        assert not led.per_index.any()

    def test_accepts_a_numpy_index_and_an_equal_copy_of_the_point(self):
        F, x, view = self._view()
        led = OracleLedger(n=F.n)
        want = _row(view.stack, 0, 1)
        for i, at in ((np.int64(4), x), (4, x.copy()), (np.uint8(4), list(x)),
                      (4, x.reshape(1, 3)[0])):
            assert same_answer(query(led, view, i, at, order=1), want)
        assert led.per_index.tolist() == [0, 0, 0, 0, 4]

    @pytest.mark.parametrize("held", [0, 1, 2])
    def test_rows_are_the_stack_rows_bit_for_bit(self, held):
        F = quadratic_cosine_sum(6, 4, seed=11)
        x = np.array([0.4, -0.9, 1.6, 0.1])
        rows = [5, 0, 3, 2]
        view = _Evaluated.evaluate(F, rows, x, held)
        led = OracleLedger(n=F.n)
        for order in range(held + 1):
            for k, i in enumerate(rows):
                der = query(led, view, i, x, order=order, count=2)
                assert type(der.value) is np.float64
                assert same_answer(der, _row(view.stack, k, order))
                assert same_answer(der, F.component(i, x, order))
        assert led.per_index.tolist() == [2 * (held + 1) * (i in rows)
                                          for i in range(F.n)]

    def test_checks_its_stack_once_when_built(self, monkeypatch):
        # one symmetry check of the whole stack; charging its rows, however
        # often, checks nothing again and answers query's own bits
        F = quadratic_cosine_sum(5, 3, seed=4)
        x = np.array([0.3, -1.0, 2.0])
        want = {i: query(OracleLedger(n=F.n), F, i, x, order=2)
                for i in (1, 2, 4)}
        shapes = []
        monkeypatch.setattr(
            "hardsum.oracle._symmetrized",
            lambda a: shapes.append(np.shape(a)) or _symmetrized(a))
        view = _Evaluated.evaluate(F, [4, 1, 2], x, 2)
        led = OracleLedger(n=F.n)
        for i in (4, 1, 2, 4):
            assert same_answer(query(led, view, i, x, order=2, count=2),
                               want[i])
        assert shapes == [(3, 3, 3)]
        assert led.per_index.tolist() == [0, 2, 2, 0, 4]

    def test_keeps_a_bitwise_symmetric_stack_without_a_copy(self):
        F = quadratic_cosine_sum(5, 3, seed=4)
        x = np.array([0.3, -1.0, 2.0])
        stack = F.components([4, 1, 2], x, 2)
        assert stack.hess.flags.writeable
        assert _check_answer(stack, np.array([4, 1, 2]), 2, 3).hess \
            is stack.hess
        assert _Evaluated.from_stack(F, [4, 1, 2], x, 2,
                                     stack).stack.hess is stack.hess
        # every row in order reads the answer table in place, read-only
        table = F._table(x)
        view = _Evaluated.evaluate(F, np.arange(F.n), x, 2)
        assert view.stack.hess.base is table.hess
        assert not view.stack.hess.flags.writeable
        assert not table.hess.flags.writeable
        # and one answer's Hessian comes back as it is
        der = F.component(3, x, 2)
        assert _check_answer(der, 3, 2, 3).hess is der.hess

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


class TestWrongShapes:
    """An answer of another shape than its sum's is refused where it enters,
    naming the component and the order, and is never charged."""

    SHORT_GRAD = r"component 1 answered a gradient of shape \(1,\), not \(3,\)"

    @pytest.mark.parametrize("order", [1, 2])
    def test_full(self, order):
        F = good_and_short()
        with pytest.raises(ValueError,
                           match=self.SHORT_GRAD + rf" \(order {order}\)"):
            F.full(np.ones(3), order)
        with pytest.raises(ValueError,
                           match=self.SHORT_GRAD + rf" \(order {order}\)"):
            F.full(np.ones((2, 3)), order)
        assert F.full(np.ones(3), 0).value == pytest.approx(1.25)

    @pytest.mark.parametrize("order", [1, 2])
    def test_query_charges_nothing(self, order):
        F = good_and_short()
        led = OracleLedger(n=2)
        with pytest.raises(ValueError,
                           match=self.SHORT_GRAD + rf" \(order {order}\)"):
            query(led, F, 1, np.ones(3), order=order)
        assert led.total == 0
        query(led, F, 1, np.ones(3), order=0)   # the value is well formed
        assert led.per_index.tolist() == [0, 1]

    def test_mixed_stack_names_the_row(self):
        F = good_and_short()
        with pytest.raises(ValueError, match=self.SHORT_GRAD):
            F.components([0, 1, 0], np.ones(3), 2)
        with pytest.raises(ValueError, match=self.SHORT_GRAD):
            _Evaluated.evaluate(F, [0, 1], np.ones(3), 1)

    def test_uniform_stack_names_its_first_row(self):
        # a stack of wrong rows stacks without complaint; the check of the
        # stack names its first row as that row alone would be named
        F = good_and_short()
        with pytest.raises(ValueError, match=self.SHORT_GRAD + r" \(order 2\)"):
            _Evaluated.evaluate(F, [1, 1], np.ones(3), 2)

    @pytest.mark.parametrize("value, grad, hess, match", [
        (np.ones(1), np.zeros(3), np.eye(3),
         r"a value of shape \(1,\), not \(\)"),
        (0.0, None, np.eye(3), r"a gradient of shape \(\), not \(3,\)"),
        (0.0, np.zeros(3), np.eye(2),
         r"a Hessian of shape \(2, 2\), not \(3, 3\)"),
    ], ids=["value", "gradient", "Hessian"])
    def test_each_part(self, value, grad, hess, match):
        F = CallableFiniteSum([lambda x, order=2: Derivatives(value, grad,
                                                              hess)], d=3)
        led = OracleLedger(n=1)
        for check in (lambda: query(led, F, 0, np.zeros(3), order=2),
                      lambda: _Evaluated.evaluate(F, [0], np.zeros(3), 2)):
            with pytest.raises(ValueError,
                               match="component 0 answered " + match):
                check()
        assert led.total == 0

    def test_mean_derivatives(self):
        good = Derivatives(0.0, np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match=r"component 2 answered a "
                           r"Hessian of shape \(3,\), not \(3, 3\)"):
            mean_derivatives([good, good, Derivatives(0.0, np.zeros(3),
                                                      np.ones(3))], (3,), 2)
        # a part above the order is not summed, so not compared
        mean_derivatives([good, Derivatives(0.0, np.zeros(3), np.ones(1))],
                         (3,), 1)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_value_shape_in_full_and_mu(self, order):
        def answer(value):
            return lambda x, order=2: Derivatives(
                value, np.zeros(3) if order >= 1 else None,
                np.eye(3) if order >= 2 else None)

        F = CallableFiniteSum([answer(0.0), answer(np.array([0.5]))], d=3)
        match = (r"component 1 answered a value of shape \(1,\), not \(\) "
                 rf"\(order {order}\)")
        with pytest.raises(ValueError, match=match):
            F.full(np.zeros(3), order)
        if order == 2:
            with pytest.raises(ValueError, match=match):
                mu(F, np.zeros(3), 1.0)
