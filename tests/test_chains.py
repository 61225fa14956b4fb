from conftest import assert_rows, same_bits

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardsum.chains import (
    PHI_AT_ZERO,
    _chain_eval,
    _hat_f,
    _phi_table,
    SQRT_E,
    chain_eval,
    clamp_radius,
    hat_f_eval,
    phi,
    psi,
    soft_clamp,
)
from hardsum.linalg import (
    finite_diff_gradient,
    finite_diff_jacobian,
    rel_err,
    row_dot,
    row_matvec,
    sample_orthonormal_columns,
)

# Closed-form reference values (independently derived; see the formulas in
# the docstrings -- these literals pin the implementation in place).
SQRT_2PI_E = float(np.sqrt(2.0 * np.pi * np.e))          # phi(+inf)
PSI_SLOPE_BOUND = float(np.sqrt(54.0 / np.e))            # sup |psi'|


class TestPsi:
    def test_flat_region_all_orders(self):
        for q in range(3):
            assert psi(0.5, q) == 0.0
            assert psi(-3.0, q) == 0.0
            assert psi(0.25, q) == 0.0

    def test_unit_value(self):
        # 2x-1 = 1 at x = 1: exponent is 1 - 1 = 0
        assert psi(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_known_point(self):
        # x = 0.75: u = 0.5, value exp(1 - 4) = e^-3
        assert psi(0.75) == pytest.approx(np.exp(-3.0), rel=1e-14)

    def test_smooth_at_cutoff(self):
        # approaching 1/2 from above, every order decays to 0
        for q in range(3):
            assert abs(psi(0.5 + 1e-3, q)) < 1e-100

    def test_monotone_increasing(self):
        xs = np.linspace(0.51, 5.0, 500)
        assert np.all(np.diff(psi(xs)) > 0)

    def test_bounds_on_grid(self):
        xs = np.linspace(-2.0, 50.0, 200_001)
        vals = psi(xs)
        slopes = psi(xs, 1)
        assert np.all(vals >= 0.0)
        assert np.all(vals < np.e)
        assert np.abs(slopes).max() <= PSI_SLOPE_BOUND + 1e-9

    def test_limit_at_infinity(self):
        assert psi(1e6) == pytest.approx(np.e, rel=1e-9)

    @pytest.mark.parametrize("q", [1, 2])
    def test_derivative_vs_finite_difference(self, q, rng):
        xs = np.concatenate([rng.uniform(0.55, 4.0, 40), rng.uniform(-1.0, 0.5, 10)])
        for x in xs:
            h = 1e-6
            fd = (psi(x + h, q - 1) - psi(x - h, q - 1)) / (2 * h)
            assert psi(x, q) == pytest.approx(fd, rel=2e-8, abs=1e-10)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            psi(1.0, 3)

    def test_nan_poisons_every_order(self):
        # a NaN coordinate must not pass for one in the flat region
        for q in range(3):
            assert np.isnan(psi(np.nan, q))
            got = psi(np.array([1.0, np.nan, -1.0]), q)
            assert np.isnan(got).tolist() == [False, True, False]


class TestPhi:
    def test_value_at_zero(self):
        assert phi(0.0) == pytest.approx(PHI_AT_ZERO, rel=1e-15)
        assert PHI_AT_ZERO == pytest.approx(2.0663656770612464, rel=1e-15)

    def test_limits(self):
        assert phi(40.0) == pytest.approx(SQRT_2PI_E, rel=1e-15)
        assert phi(-30.0) == pytest.approx(0.0, abs=1e-190)
        assert phi(-30.0) > 0.0   # positive until erfc underflows (~ -38)

    def test_derivative_is_scaled_gaussian(self):
        assert phi(0.0, 1) == pytest.approx(SQRT_E, rel=1e-15)
        assert phi(2.0, 1) == pytest.approx(SQRT_E * np.exp(-2.0), rel=1e-14)

    def test_monotone_and_bounded(self):
        xs = np.linspace(-12.0, 12.0, 4001)
        vals = phi(xs)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(vals > 0.0)
        # the strict bound phi < sqrt(2 pi e) saturates to equality in doubles
        # once erfc rounds to 2 (x >~ 8)
        assert np.all(vals <= SQRT_2PI_E)
        mid = phi(np.linspace(-8.0, 6.0, 2001))
        assert np.all(np.diff(mid) > 0)
        assert np.all(mid < SQRT_2PI_E)

    @pytest.mark.parametrize("q", [1, 2])
    def test_derivative_vs_finite_difference(self, q, rng):
        for x in rng.uniform(-4.0, 4.0, 50):
            h = 1e-6
            fd = (phi(x + h, q - 1) - phi(x - h, q - 1)) / (2 * h)
            assert phi(x, q) == pytest.approx(fd, rel=2e-8, abs=1e-9)

    def test_deep_tail_relative_accuracy(self):
        # erfc keeps relative accuracy where a naive 1-cdf would round to 0
        x = -30.0
        # leading asymptotic: sqrt(e) * exp(-x^2/2) / |x|
        lead = SQRT_E * np.exp(-0.5 * x * x) / abs(x)
        assert phi(x) == pytest.approx(lead, rel=2e-3)


def _scipy_phi_pair(x):
    """PHI_AT_ZERO * erfc(-+x / sqrt 2), the pair x, -x, through scipy's
    erfc (cephes'), kept in the test extra as Φ's accuracy reference."""
    from scipy.special import erfc   # in the test extra, not the runtime
    return PHI_AT_ZERO * np.stack([erfc(-x / np.sqrt(2.0)),
                                   erfc(x / np.sqrt(2.0))])


class TestPhiTable:
    """``_phi_table`` answers phi at the pairs x, -x from one ``math.erfc``
    call per pair; its derivative rows share one exponential."""

    def test_values_match_scipy(self):
        # 2.5 * 10^6 pairs: the verify battery's stream N(0, 4^2), both
        # tails out to |x| = 38.5, past which erfc underflows, and unit
        # normals; relative where the reference is a normal float, absolute
        # below it
        rng = np.random.default_rng(2021)
        tiny = np.finfo(float).tiny
        for x in (rng.normal(0.0, 4.0, 1_000_000),
                  rng.uniform(-38.5, 38.5, 1_000_000),
                  rng.standard_normal(500_000)):
            got, want = _phi_table(x, 0)[0], _scipy_phi_pair(x)
            normal = want >= tiny
            assert (np.abs(got - want)[normal]
                    <= 1e-13 * want[normal]).all()
            assert (np.abs(got - want)[~normal] <= 1e-300).all()

    def test_nondecreasing_out_to_the_tails(self):
        vals = phi(np.linspace(-38.5, 38.5, 2_000_001))
        assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 4, 6)])
    def test_phi_table_answers_each_pair(self, shape, rng):
        x = rng.normal(0.0, 4.0, shape)
        table = _phi_table(x, 2)
        assert table.shape == (3, 2) + shape
        assert rel_err(_scipy_phi_pair(x), table[0]) <= 1e-13
        for half, xs in enumerate((x, -x)):
            # the derivative rows keep the bits of their closed forms
            g = SQRT_E * np.exp(-0.5 * xs * xs)
            assert same_bits(table[1, half], g)
            assert same_bits(table[2, half], -xs * g)
        assert same_bits(_phi_table(x, 0), table[:1])

    def test_edge_arguments(self):
        # alone and all together, at every order; no overflow, invalid
        # operation or division by zero on the way
        mags = [0.0, 5e-324, 1e-300, 38.0, 1e154, 1e300, np.inf]
        x = np.array(mags + [-m for m in mags] + [np.nan])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            table = _phi_table(x, 2)
            for k, a in enumerate(x):
                assert same_bits(_phi_table(np.array([a]), 2)[..., 0],
                                 table[..., k]), a
            assert same_bits(_phi_table(x, 0), table[:1])
        together = table[0]
        pos, neg = together[0, :7], together[0, 7:14]
        assert pos[0] == neg[0] == PHI_AT_ZERO              # +-0
        assert pos[6] == 2.0 * PHI_AT_ZERO and neg[6] == 0.0  # +-inf
        assert pos[4] == 2.0 * PHI_AT_ZERO                  # 1e154
        assert 0.0 < neg[3] < 1e-300                        # -38
        assert np.isnan(table[..., -1]).all()
        # the pair's halves are each other's reflection
        assert same_bits(together[1, :7], neg)
        assert same_bits(together[1, 7:14], pos)
        # the derivatives: SQRT_E and 0 at +-0, 0 from +-1e154 to +-inf
        assert (table[1, :, [0, 7]] == SQRT_E).all()
        assert (table[2, :, [0, 7]] == 0.0).all()
        assert (table[1:, :, [4, 5, 6, 11, 12, 13]] == 0.0).all()


class TestChain:
    def test_value_and_grad_at_origin(self):
        # full mask, x = 0: only the first term is active since psi(0) = 0
        K = 4
        d = chain_eval(K, np.ones(K), np.zeros(K), order=2)
        assert d.value == pytest.approx(-PHI_AT_ZERO, rel=1e-15)
        expected_grad = np.zeros(K)
        expected_grad[0] = -SQRT_E
        assert np.allclose(d.grad, expected_grad, atol=1e-15)

    def test_masked_first_term(self):
        K = 3
        d = chain_eval(K, np.zeros(K), np.zeros(K), order=1)
        assert d.value == 0.0
        assert np.allclose(d.grad, 0.0)

    def test_k_equals_one(self):
        d = chain_eval(1, [1.0], [0.3], order=2)
        assert d.value == pytest.approx(-phi(0.3), rel=1e-14)
        assert d.grad[0] == pytest.approx(-phi(0.3, 1), rel=1e-14)
        assert d.hess[0, 0] == pytest.approx(-phi(0.3, 2), rel=1e-12)

    def test_gradient_vs_finite_difference(self, rng):
        K = 6
        for _ in range(20):
            mask = (rng.random(K) < 0.7).astype(float)
            x = rng.uniform(-2.0, 2.0, K)
            d = chain_eval(K, mask, x, order=1)
            fd = finite_diff_gradient(
                lambda z: chain_eval(K, mask, z).value, x, step=1e-6)
            assert np.allclose(d.grad, fd, rtol=1e-6, atol=1e-7)

    def test_hessian_vs_finite_difference(self, rng):
        K = 5
        for _ in range(10):
            mask = (rng.random(K) < 0.8).astype(float)
            x = rng.uniform(-2.0, 2.0, K)
            d = chain_eval(K, mask, x, order=2)
            fd = finite_diff_jacobian(
                lambda z: chain_eval(K, mask, z, order=1).grad, x, step=1e-6)
            assert np.allclose(d.hess, fd, rtol=1e-6, atol=1e-6)

    def test_hessian_tridiagonal_and_symmetric(self, rng):
        K = 8
        x = rng.uniform(-2.0, 2.0, K)
        H = chain_eval(K, np.ones(K), x, order=2).hess
        assert np.array_equal(H, H.T)
        for i in range(K):
            for j in range(K):
                if abs(i - j) >= 2:
                    assert H[i, j] == 0.0

    def test_rejects_bad_mask(self):
        with pytest.raises(ValueError, match="mask"):
            chain_eval(3, [1.0, 0.5, 0.0], np.zeros(3))
        with pytest.raises(ValueError, match="mask"):
            chain_eval(3, [1.0, 0.0], np.zeros(3))

    def test_lower_bound(self, rng):
        # term 1 is at worst -sup phi; each later term at worst -sup psi * sup phi
        K = 5
        floor = -SQRT_2PI_E - (K - 1) * np.e * SQRT_2PI_E
        for _ in range(50):
            x = rng.uniform(-10.0, 10.0, K)
            v = chain_eval(K, np.ones(K), x).value
            assert v >= floor


class TestSoftClamp:
    def test_identity_at_origin(self):
        rho, J, _ = soft_clamp(np.zeros(4), R=10.0, order=1)
        assert np.allclose(rho, 0.0)
        assert np.allclose(J, np.eye(4))

    def test_norm_strictly_below_radius(self, rng):
        R = 5.0
        for scale in [0.1, 1.0, 10.0, 1e4]:
            y = rng.standard_normal(6) * scale
            rho, _, _ = soft_clamp(y, R)
            assert np.linalg.norm(rho) < R

    def test_near_identity_for_small_inputs(self):
        y = np.array([0.01, -0.02, 0.005])
        rho, _, _ = soft_clamp(y, R=100.0)
        assert np.allclose(rho, y, rtol=1e-6)

    def test_jacobian_vs_finite_difference(self, rng):
        y = rng.standard_normal(5) * 3.0
        _, J, _ = soft_clamp(y, R=4.0, order=1)
        fd = finite_diff_jacobian(lambda z: soft_clamp(z, R=4.0)[0], y, step=1e-6)
        assert np.allclose(J, fd, rtol=1e-6, atol=1e-8)

    def test_second_derivative_contraction_vs_finite_difference(self, rng):
        y = rng.standard_normal(4) * 2.0
        a = rng.standard_normal(4)
        _, _, d2c = soft_clamp(y, R=3.0, order=2)
        # d2c(a) should equal the Jacobian of z -> J(z)^T a
        fd = finite_diff_jacobian(
            lambda z: soft_clamp(z, R=3.0, order=1)[1].T @ a, y, step=1e-6)
        assert np.allclose(d2c(a), fd, rtol=1e-6, atol=1e-7)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            soft_clamp(np.zeros(2), R=0.0)

    def test_clamp_radius_formula(self):
        assert clamp_radius(4) == pytest.approx(460.0, rel=1e-15)
        with pytest.raises(ValueError):
            clamp_radius(0)


class TestHatF:
    def _make(self, K=3, m=8, seed=5):
        return sample_orthonormal_columns(m, K, seed=seed)

    def test_value_at_origin(self):
        B = self._make()
        d = hat_f_eval(3, B, np.zeros(8))
        assert d.value == pytest.approx(-PHI_AT_ZERO, rel=1e-15)

    def test_gradient_vs_finite_difference(self, rng):
        B = self._make()
        for scale in [0.5, 5.0, 400.0]:   # below, near, beyond clamp radius
            y = rng.standard_normal(8) * scale
            d = hat_f_eval(3, B, y, order=1)
            fd = finite_diff_gradient(lambda z: hat_f_eval(3, B, z).value, y,
                                      step=1e-5 * max(1.0, scale))
            assert np.allclose(d.grad, fd, rtol=1e-5, atol=1e-6 * max(1.0, scale))

    def test_hessian_vs_finite_difference(self, rng):
        B = self._make()
        y = rng.standard_normal(8) * 2.0
        d = hat_f_eval(3, B, y, order=2)
        fd = finite_diff_jacobian(
            lambda z: hat_f_eval(3, B, z, order=1).grad, y, step=1e-6)
        assert np.allclose(d.hess, fd, rtol=1e-6, atol=1e-6)
        assert np.array_equal(d.hess, d.hess.T)

    def test_quadratic_tail_dominates_far_out(self, rng):
        B = self._make()
        y = rng.standard_normal(8) * 1e5
        d = hat_f_eval(3, B, y, order=1)
        assert np.allclose(d.grad, 0.2 * y, rtol=1e-4)

    def test_column_count_must_match(self):
        B = self._make(K=3)
        with pytest.raises(ValueError, match="columns"):
            hat_f_eval(4, B, np.zeros(8))


class TestStacks:
    """A stack of P points is answered row by row exactly as the single
    points are.  Values, the chain's derivatives and the clamp itself are
    bit-identical.  The clamp's Jacobian and second-derivative contraction
    (and the composite's gradient and Hessian, which go through them) use
    s^3 and s^5, which numpy computes with the C library's pow for one point
    but with a vectorized pow over a stack; the two may differ in the last
    bit, so those rows agree to 1e-15 relative instead."""

    SCALES = (0.3, 3.0, 300.0, 3000.0)   # inside, near and beyond the radius

    @pytest.mark.parametrize("P", range(1, 8))
    def test_chain_eval_rows_equal_single_calls(self, P, rng):
        for K in (1, 3, 9):
            mask = (rng.random(K) < 0.6).astype(float)
            X = rng.uniform(-2.5, 2.5, (P, K))
            for order in range(3):
                stacked = chain_eval(K, mask, X, order)
                assert stacked.value.shape == (P,)
                for p in range(P):
                    single = chain_eval(K, mask, X[p], order)
                    assert stacked.value[p] == single.value
                    if order >= 1:
                        assert np.array_equal(stacked.grad[p], single.grad)
                    if order == 2:
                        assert np.array_equal(stacked.hess[p], single.hess)

    @pytest.mark.parametrize("n", [1, 4, 40])
    @pytest.mark.parametrize("K", [1, 2, 8, 9, 17, 24])
    def test_mask_stack_rows_equal_per_mask_calls(self, K, n, rng):
        # random 0/1 masks (n, K) at one point, paired row by row with a
        # stack of n points, and each against every point of a stack of 3
        # (masks (n, 1, K)); K - 1 >= 8 and >= 16 reach the blocked sums
        masks = (rng.random((n, K)) < 0.5).astype(float)
        X = rng.uniform(-2.5, 2.5, (n, K))
        for order in range(3):
            one = _chain_eval(K, masks, X[0], order)
            paired = _chain_eval(K, masks, X, order)
            cross = _chain_eval(K, masks[:, None, :], X[:3], order)
            assert np.shape(one.value) == (n,)
            assert np.shape(cross.value) == (n, min(n, 3))
            assert_rows(one, [chain_eval(K, m, X[0], order) for m in masks])
            assert_rows(paired, [chain_eval(K, m, x, order)
                                 for m, x in zip(masks, X)])
            assert_rows(cross, [chain_eval(K, m, X[:3], order)
                                for m in masks])

    @pytest.mark.parametrize("K", [1, 2, 3, 9, 17])
    def test_unmasked_chain_is_the_all_ones_mask(self, K, rng):
        # the unmasked chain skips the mask's products by 1.0, which are
        # exact: on an (n, P, K) stack, and at one point, every order keeps
        # the bits of an explicit all-ones mask, beyond the clamp of phi's
        # exponential too
        X = rng.standard_normal((4, 21, K)) * rng.choice([0.3, 2.5, 50.0],
                                                         (4, 21, 1))
        for order in range(3):
            for x in (X, X[0, 0]):
                got = _chain_eval(K, None, x, order)
                want = _chain_eval(K, np.ones(K), x, order)
                for field in ("value", "grad", "hess"):
                    assert same_bits(getattr(got, field),
                                     getattr(want, field))

    @pytest.mark.parametrize("P", range(1, 8))
    def test_soft_clamp_rows_equal_single_calls(self, P, rng):
        m, R = 6, 40.0
        Y = rng.standard_normal((P, m)) * rng.choice(self.SCALES, (P, 1))
        A = rng.standard_normal((P, m))
        for order in range(3):
            rho, J, d2c = soft_clamp(Y, R, order)
            assert rho.shape == (P, m)
            for p in range(P):
                rho1, J1, d2c1 = soft_clamp(Y[p], R, order)
                assert np.array_equal(rho[p], rho1)
                if order >= 1:
                    assert J.shape == (P, m, m)
                    assert rel_err(J1, J[p]) <= 1e-15
                if order == 2:
                    assert rel_err(d2c1(A[p]), d2c(A)[p]) <= 1e-15

    @pytest.mark.parametrize("P", range(1, 8))
    def test_hat_f_eval_rows_equal_single_calls(self, P, rng):
        K, m = 3, 12
        B = sample_orthonormal_columns(m, K, seed=P)
        Y = rng.standard_normal((P, m)) * rng.choice(self.SCALES, (P, 1))
        for order in range(3):
            stacked = hat_f_eval(K, B, Y, order)
            assert stacked.value.shape == (P,)
            for p in range(P):
                single = hat_f_eval(K, B, Y[p], order)
                assert stacked.value[p] == single.value
                if order >= 1:
                    assert rel_err(single.grad, stacked.grad[p]) <= 1e-15
                if order == 2:
                    assert rel_err(single.hess, stacked.hess[p]) <= 1e-15
                    assert np.array_equal(stacked.hess[p],
                                          stacked.hess[p].T)

    @pytest.mark.parametrize("shape", [(12,), (1, 12), (5, 12)])
    def test_hat_f_eval_is_the_one_block_assembly(self, shape, rng):
        # the chain rule on one block, as hat_f_eval assembled it before
        # the multi-block kernel, bit for bit
        K = 3
        B = sample_orthonormal_columns(12, K, seed=4)
        Y = rng.standard_normal(shape) * 300.0
        for order in range(3):
            got = hat_f_eval(K, B, Y, order)
            want = _one_block_hat_f(K, B, Y, order)
            assert type(got.value) is type(want[0])
            for a, b in zip((got.value, got.grad, got.hess), want):
                assert same_bits(a, b)

    @pytest.mark.parametrize("P", [1, 6])
    def test_blocks_equal_one_block_calls(self, P, rng):
        # every block of an (nb, m, K) array answers its part of an
        # (nb, ..., m) stack as it does alone
        K, m, nb = 3, 7, 4
        Bs = [sample_orthonormal_columns(m, K, seed=b) for b in range(nb)]
        cols = np.stack([B.columns for B in Bs])
        Y = rng.standard_normal((nb, P, m)) * 200.0
        for order in range(3):
            got = _hat_f(K, cols, Y, order)
            for b, B in enumerate(Bs):
                want = hat_f_eval(K, B, Y[b], order)
                for field in ("value", "grad", "hess"):
                    stacked = getattr(got, field)
                    assert same_bits(
                        None if stacked is None else stacked[b],
                        getattr(want, field))

    @pytest.mark.parametrize("shape", [(12,), (8, 12)])
    def test_clamp_product_is_the_jacobian_product(self, shape):
        # the gradient applies the clamp's Jacobian in closed form; at |y|
        # from 1 to 50 the clamp is far from saturated and the chain's
        # gradient is not near 0, so the product carries the clamp's action
        K = 3
        B = sample_orthonormal_columns(12, K, seed=4)
        rng = np.random.default_rng(0)
        U = rng.standard_normal(shape)
        Y = U / np.linalg.norm(U, axis=-1, keepdims=True) \
            * rng.uniform(1.0, 50.0, shape[:-1] + (1,))
        rho, J, _ = soft_clamp(Y, clamp_radius(K), 1)
        ch = chain_eval(K, np.ones(K), row_matvec(B.columns.T, rho), 1)
        g_chain = row_matvec(B.columns, ch.grad)
        assert np.all(np.linalg.norm(g_chain, axis=-1) > 1e-2)
        want = row_matvec(J, g_chain) + 0.2 * Y
        got = hat_f_eval(K, B, Y, 1).grad
        for a, b in zip(np.reshape(want, (-1, 12)), np.reshape(got, (-1, 12))):
            assert np.linalg.norm(a - b) <= 1e-15 * np.linalg.norm(a)

    @pytest.mark.parametrize("shape", [(12,), (5, 12)])
    @pytest.mark.parametrize("scale", [1.0, 20.0, 300.0])
    def test_gradients_of_orders_1_and_2_are_equal(self, shape, scale, rng):
        K = 3
        B = sample_orthonormal_columns(12, K, seed=4)
        Y = rng.standard_normal(shape) * scale
        assert same_bits(hat_f_eval(K, B, Y, 1).grad,
                         hat_f_eval(K, B, Y, 2).grad)

    def test_single_point_answers_stay_scalar(self):
        B = sample_orthonormal_columns(5, 2, seed=0)
        assert type(chain_eval(2, np.ones(2), np.zeros(2)).value) is float
        assert type(hat_f_eval(2, B, np.zeros(5)).value) is float

    def test_bad_stacks_are_rejected(self):
        B = sample_orthonormal_columns(5, 2, seed=0)
        bad_row = np.zeros((3, 5))
        bad_row[1, 2] = np.nan
        sized = (lambda Y: chain_eval(5, np.ones(5), Y),
                 lambda Y: hat_f_eval(2, B, Y))
        for call in sized + (lambda Y: soft_clamp(Y, R=2.0),):
            with pytest.raises(ValueError, match="non-finite"):
                call(bad_row)
            with pytest.raises(ValueError, match="stack"):
                call(np.zeros((2, 3, 5)))
        for call in sized:
            with pytest.raises(ValueError, match="dimension"):
                call(np.zeros((3, 4)))
        _, _, d2c = soft_clamp(np.ones((3, 5)), R=2.0, order=2)
        with pytest.raises(ValueError, match="shape"):
            d2c(np.ones(5))   # one vector per point of the stack


def _one_block_hat_f(K, B, y, order):
    """(value, grad, hess) of hat_f by the chain rule on one block, through
    the public clamp and chain (the reference).  The gradient applies the
    clamp's Jacobian J = s I - (s^3 / R^2) y y^T in closed form."""
    R = clamp_radius(K)
    rho, J, d2c = soft_clamp(y, R, order)
    w = row_matvec(B.columns.T, rho)
    ch = chain_eval(K, np.ones(K), w, order)
    yy = row_dot(y, y)
    val = ch.value + 0.1 * yy
    val = float(val) if np.ndim(val) == 0 else val
    if order == 0:
        return val, None, None
    g_chain = row_matvec(B.columns, ch.grad)
    s = 1.0 / np.sqrt(1.0 + yy / R ** 2)
    c3 = s ** 3 / R ** 2
    grad = (s[..., None] * g_chain
            - (c3 * row_dot(y, g_chain))[..., None] * y) + 0.2 * y
    if order == 1:
        return val, grad, None
    H = J @ (B.columns @ ch.hess @ B.columns.T) @ J
    H += d2c(g_chain)
    H += 0.2 * np.eye(y.shape[-1])
    return val, grad, 0.5 * (H + np.swapaxes(H, -1, -2))


@given(st.floats(-100.0, 100.0, allow_nan=False))
def test_psi_range_property(x):
    v = psi(x)
    assert 0.0 <= v < np.e


@given(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
def test_phi_monotone_property(a, b):
    lo, hi = min(a, b), max(a, b)
    assert phi(lo) <= phi(hi)


@given(st.integers(0, 10_000))
def test_chain_hessian_symmetry_property(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 7))
    mask = (rng.random(K) < 0.5).astype(float)
    x = rng.uniform(-3.0, 3.0, K)
    H = chain_eval(K, mask, x, order=2).hess
    assert np.array_equal(H, H.T)


@given(st.integers(0, 10_000))
def test_clamp_stays_inside_ball_property(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    R = float(rng.uniform(0.5, 50.0))
    y = rng.standard_normal(d) * float(rng.uniform(0.0, 1e3))
    rho, _, _ = soft_clamp(y, R)
    assert np.linalg.norm(rho) < R
