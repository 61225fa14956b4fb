from conftest import same_bits

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardsum.chains import (
    PHI_AT_ZERO,
    _hat_f,
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
        for q in range(4):
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
        for q in range(4):
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

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_derivative_vs_finite_difference(self, q, rng):
        xs = np.concatenate([rng.uniform(0.55, 4.0, 40), rng.uniform(-1.0, 0.5, 10)])
        for x in xs:
            h = 1e-6
            fd = (psi(x + h, q - 1) - psi(x - h, q - 1)) / (2 * h)
            assert psi(x, q) == pytest.approx(fd, rel=2e-8, abs=1e-10)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            psi(1.0, 4)


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

    @pytest.mark.parametrize("q", [1, 2, 3])
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
        # every block of a (nb, P, m) stack answers as it does alone
        K, m, nb = 3, 7, 4
        Bs = [sample_orthonormal_columns(m, K, seed=b) for b in range(nb)]
        Y = rng.standard_normal((nb, P, m)) * 200.0
        for order in range(3):
            got = _hat_f(K, [(b, B.columns) for b, B in enumerate(Bs)], Y,
                         order)
            for b, B in enumerate(Bs):
                want = hat_f_eval(K, B, Y[b], order)
                for field in ("value", "grad", "hess"):
                    stacked = getattr(got, field)
                    assert same_bits(
                        None if stacked is None else stacked[b],
                        getattr(want, field))

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
    the public clamp and chain (the reference)."""
    rho, J, d2c = soft_clamp(y, clamp_radius(K), order)
    w = row_matvec(B.columns.T, rho)
    ch = chain_eval(K, np.ones(K), w, order)
    val = ch.value + 0.1 * row_dot(y, y)
    val = float(val) if np.ndim(val) == 0 else val
    if order == 0:
        return val, None, None
    g_chain = row_matvec(B.columns, ch.grad)
    grad = row_matvec(J, g_chain) + 0.2 * y
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
