import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hardsum.chains import Derivatives
from hardsum.cubic import CubicModel
from hardsum.linalg import (
    TallOrthogonal,
    _Factored,
    _lambda_min,
    _norm,
    _norms,
    _rel_errs,
    _richardson_combine,
    _sym_part,
    _symmetrized,
    _shifted_pd,
    as_rng,
    as_vector,
    eig_sym,
    default_fd_step,
    finite_diff_gradient,
    finite_diff_jacobian,
    rel_err,
    sample_orthonormal_columns,
    sym_matrix,
)
from hardsum.oracle import _check_answer


class TestValidators:
    def test_as_vector_accepts_list(self):
        v = as_vector([1.0, 2.0, 3.0])
        assert v.shape == (3,) and v.dtype == float

    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError, match="1-D"):
            as_vector(np.eye(2))

    def test_as_vector_checks_dim(self):
        with pytest.raises(ValueError, match="dimension"):
            as_vector([1.0, 2.0], dim=3)

    def test_as_vector_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_vector([1.0, np.nan])

    def test_sym_matrix_symmetrizes(self):
        A = np.array([[1.0, 2.0], [2.0 + 1e-14, 3.0]])
        S = sym_matrix(A)
        assert np.array_equal(S, S.T)

    def test_sym_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_matrix(np.array([[1.0, 2.0], [2.5, 3.0]]))

    def test_sym_matrix_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            sym_matrix(np.ones((2, 3)))

    def test_as_rng_passthrough(self):
        g = np.random.default_rng(7)
        assert as_rng(g) is g
        assert isinstance(as_rng(7), np.random.Generator)


def _reference_sym_matrix(a):
    """The symmetry check as it read before its reductions were trimmed:
    an isfinite pass, then max|A| and max|A - A^T| through ndarray.max."""
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    scale = np.abs(A).max()
    if np.abs(A - A.T).max() > max(1e-12 * scale, np.finfo(float).tiny):
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (A + A.T)


def _outcome(f, A):
    try:
        return f(A).tobytes()
    except ValueError as e:
        return str(e)


def _checked_hessians(stack):
    """The Hessians of a stack of answers, row k answering component k with
    a zero value and gradient and Hessian ``stack[k]``, through the check of
    every charged answer (``oracle._check_answer``)."""
    H = np.asarray(stack, dtype=float)
    r, d = len(H), H.shape[-1]
    der = Derivatives(np.zeros(r), np.zeros((r, d)), H)
    return _check_answer(der, np.arange(r), 2, d).hess


def _stack_outcome(stack):
    """The merged check on a stack, as the same bytes or error as the
    one-answer checks would give when each passes or exactly one fails."""
    return _outcome(_checked_hessians, np.array(stack))


def _member_outcome(stack):
    def alone(k):
        return lambda A: _check_answer(Derivatives(0.0, np.zeros(len(A)), A),
                                       k, 2, len(A)).hess

    answers = [_outcome(alone(k), A) for k, A in enumerate(stack)]
    errors = [a for a in answers if isinstance(a, str)]
    return errors[0] if errors else b"".join(answers)


class TestSymMatrixMatchesReference:
    @pytest.mark.parametrize("d", [1, 20, 197])
    def test_nearly_symmetric_bits(self, d):
        rng = np.random.default_rng(d)
        for rel in (0.0, 1e-16, 1e-14, 5e-13, 2e-12):
            G = rng.standard_normal((d, d))
            A = G + G.T
            A += rel * np.abs(A).max() * rng.standard_normal((d, d))
            assert _outcome(sym_matrix, A) == _outcome(_reference_sym_matrix, A)

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [1, 20])
    def test_non_finite_rejected(self, d, bad, mirrored):
        # a mirrored pair leaves A equal to its transpose bit for bit
        A = np.eye(d)
        A[d - 1, 0] = bad
        if mirrored:
            A[0, d - 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sym_matrix(A)
        assert _outcome(sym_matrix, A) == _outcome(_reference_sym_matrix, A)

    def test_subnormal_floor(self):
        # every entry subnormal: a one-ulp asymmetry is still symmetry, a
        # larger one is not
        tiny = np.finfo(float).tiny
        A = np.array([[tiny / 4, tiny / 8], [tiny / 8, tiny / 2]])
        A[1, 0] = np.nextafter(A[1, 0], 1.0)
        assert _outcome(sym_matrix, A) == _outcome(_reference_sym_matrix, A)
        assert sym_matrix(A)[0, 1] == sym_matrix(A)[1, 0]
        A[1, 0] = 3 * tiny
        with pytest.raises(ValueError, match="not symmetric"):
            sym_matrix(A)

    def test_asymmetric_and_rectangular_rejected(self):
        for A in (np.array([[1.0, 2.0], [2.5, 3.0]]), np.ones((2, 3)),
                  np.ones(3), np.ones((2, 2, 2))):
            assert _outcome(sym_matrix, A) == _outcome(_reference_sym_matrix, A)
            with pytest.raises(ValueError):
                sym_matrix(A)

    @pytest.mark.parametrize("d", [1, 20, 197])
    def test_stack_members_match_one_matrix_calls(self, d):
        rng = np.random.default_rng(d)
        stack = []
        for rel in (0.0, 1e-16, 1e-14, 1e-13):
            G = rng.standard_normal((d, d))
            A = G + G.T
            A += rel * np.abs(A).max() * rng.standard_normal((d, d))
            stack.append(A * 10.0 ** rng.integers(-200, 200))
        assert _stack_outcome(stack) == _member_outcome(stack)
        # and each member is symmetrized with sym_matrix's bits
        assert _stack_outcome(stack) == b"".join(
            sym_matrix(A).tobytes() for A in stack)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_stack_with_one_asymmetric_member(self, k):
        rng = np.random.default_rng(k)
        stack = [np.eye(3) for _ in range(5)]
        stack[k] = rng.standard_normal((3, 3))
        assert _stack_outcome(stack) == _member_outcome(stack)
        with pytest.raises(ValueError, match=f"component {k} answered a "
                           "Hessian: matrix is not symmetric"):
            _checked_hessians(stack)

    @pytest.mark.parametrize("mirrored", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [0, 3])
    def test_stack_with_one_non_finite_member(self, k, bad, mirrored):
        stack = [np.eye(4) for _ in range(4)]
        stack[k][2, 1] = bad
        if mirrored:
            stack[k][1, 2] = bad
        assert _stack_outcome(stack) == _member_outcome(stack)
        with pytest.raises(ValueError, match=f"component {k} answered a "
                           "Hessian: matrix has non-finite entries"):
            _checked_hessians(stack)

    def test_stack_tolerance_is_per_matrix(self):
        # a subnormal member next to a large one: its tolerance is its own
        # floor, never taken from the stack's maximum
        tiny = np.finfo(float).tiny
        small = np.array([[tiny / 4, tiny / 8], [tiny / 8, tiny / 2]])
        small[1, 0] = np.nextafter(small[1, 0], 1.0)
        large = np.array([[1e300, 2e299], [2e299, 3e300]])
        stack = [large, small]
        assert _stack_outcome(stack) == _member_outcome(stack)
        out = _checked_hessians(stack)
        assert out[1, 0, 1] == out[1, 1, 0]
        small[1, 0] = 3 * tiny
        assert _stack_outcome(stack) == _member_outcome(stack)
        with pytest.raises(ValueError, match="component 1 answered a "
                           "Hessian: matrix is not symmetric"):
            _checked_hessians(stack)
        # and a large member is held to its own relative tolerance
        large[1, 0] *= 1.0 + 1e-10
        with pytest.raises(ValueError, match="component 0 answered a "
                           "Hessian: matrix is not symmetric"):
            _checked_hessians([large, np.eye(2)])

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (2, 2, 3), (2, 3, 2),
                                       (2, 2, 2, 2)])
    def test_stack_rejects_other_shapes(self, shape):
        # Hessians for two answers in R^2 must be (2, 2, 2); each of these
        # gives component 0 a Hessian of another shape than (2, 2)
        der = Derivatives(np.zeros(2), np.zeros((2, 2)), np.ones(shape))
        with pytest.raises(ValueError, match=r"component 0 answered a "
                           r"Hessian of shape \(.*\), not \(2, 2\) "
                           r"\(order 2\)"):
            _check_answer(der, np.arange(2), 2, 2)

    def test_public_callers_reject_a_stack(self):
        # the stack form is private: one-matrix entry points stay 2-D
        with pytest.raises(ValueError, match="expected a square matrix"):
            eig_sym(np.ones((3, 3, 3)))
        with pytest.raises(ValueError, match="expected a square matrix"):
            CubicModel(v=np.ones(3), U=np.ones((3, 3, 3)), M=1.0)


def _reference_bits(A) -> bytes:
    """The bytes of :func:`_reference_sym_matrix` over each matrix of A."""
    return b"".join(_reference_sym_matrix(M).tobytes()
                    for M in A.reshape((-1,) + A.shape[-2:]))


class TestSymmetrizedOutput:
    @pytest.mark.parametrize("shape", [(5, 5), (4, 5, 5), (4, 2, 2)])
    def test_a_new_array_with_the_reference_bits(self, shape):
        # a perturbed input: its (0, d-1) entry is off its mirror's
        G = np.random.default_rng(len(shape)).standard_normal(shape)
        A = G + G.swapaxes(-1, -2)
        A[..., 0, -1] *= 1.0 + 1e-15
        before = A.copy()
        check = sym_matrix if A.ndim == 2 else _symmetrized
        out = check(A)
        assert not np.shares_memory(out, A)
        assert A.tobytes() == before.tobytes()
        assert out.tobytes() == _reference_bits(A)

    @pytest.mark.parametrize("factored", [False, True])
    @pytest.mark.parametrize("shape", [(5, 5), (4, 5, 5), (4, 1, 1),
                                       (0, 3, 3)])
    def test_a_bitwise_symmetric_input_is_returned_as_it_is(self, shape,
                                                            factored):
        # a stack of no matrices included; a factored one is decided by
        # its S
        G = np.random.default_rng(len(shape)).standard_normal(shape)
        A = G + G.swapaxes(-1, -2)
        A[..., -1, -1] = -0.0
        before = A.copy()
        check = sym_matrix if A.ndim == 2 else _symmetrized
        M = (_Factored(sample_orthonormal_columns(7, shape[-1], seed=1)
                       .columns, A) if factored else A)
        assert check(M) is M
        assert A.tobytes() == before.tobytes() == _reference_bits(A)

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0)])
    def test_an_empty_matrix_is_refused_by_its_maximum(self, shape):
        # refused before the maximum, which has no identity, by the
        # package's own message naming the shape
        check = sym_matrix if len(shape) == 2 else _symmetrized
        with pytest.raises(ValueError, match=r"^matrix has no entries "
                           rf"\(shape {re.escape(str(shape))}\)$"):
            check(np.zeros(shape))

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("mirror", ["signed zero", "one ulp"])
    def test_a_pair_whose_bits_differ_gets_a_new_array(self, mirror,
                                                       stacked):
        # -0.0 facing +0.0 has no skew, and one ulp is within tolerance;
        # both still take the symmetrized copy's bits
        G = np.random.default_rng(5).standard_normal((3, 4, 4))
        A = G + G.swapaxes(-1, -2)
        if mirror == "signed zero":
            A[1, 0, 2], A[1, 2, 0] = -0.0, 0.0
        else:
            A[1, 2, 0] = np.nextafter(A[1, 0, 2], np.inf)
        if not stacked:
            A = A[1].copy()
        before = A.copy()
        out = (_symmetrized if stacked else sym_matrix)(A)
        assert not np.shares_memory(out, A)
        assert A.tobytes() == before.tobytes()
        assert out.tobytes() == _reference_bits(A)

    @pytest.mark.parametrize("A", [
        [[1e308, 0.0], [0.0, 1.0]], np.full((3, 4, 4), 1e308)],
        ids=["one-matrix", "stack-summing-past-the-maximum"])
    def test_a_finite_diagonal_near_the_float_maximum_stays(self, A):
        # (a + a) / 2 overflowed to inf for a symmetric matrix; and a sum
        # of the entries, as a finiteness test, would overflow with a
        # warning
        check = sym_matrix if np.ndim(A) == 2 else _symmetrized
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = check(A)
        assert out.tobytes() == np.array(A).tobytes()
        if isinstance(A, np.ndarray):
            assert out is A

    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_pair_whose_sum_overflows_takes_the_finite_midpoint(
            self, stacked):
        big = 1.7e308
        A = np.eye(3)
        A[0, 1], A[1, 0] = big, np.nextafter(big, np.inf)
        # a subnormal pair whose halves round apart: 0.5a + 0.5b is one
        # unit, (a + b) * 0.5 two, and a finite sum keeps the latter
        unit = 5e-324
        A[0, 2], A[2, 0] = unit, 2 * unit
        stack = np.stack([np.eye(3), A, -A])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _symmetrized(stack)[1:] if stacked else sym_matrix(A)[None]
        mid = 0.5 * big + 0.5 * np.nextafter(big, np.inf)
        assert np.isfinite(mid)
        for sign, M in zip((1.0, -1.0), out):
            assert M[0, 1] == M[1, 0] == sign * mid
            assert M[0, 2] == M[2, 0] == sign * 2 * unit
            np.testing.assert_array_equal(M[[0, 1, 2], [0, 1, 2]], sign)
        if stacked:
            assert _symmetrized(stack)[0].tobytes() == np.eye(3).tobytes()

    @pytest.mark.parametrize("bad, mirrored, match", [
        (np.nan, False, "matrix has non-finite entries"),
        (np.inf, False, "matrix has non-finite entries"),
        (np.nan, True, "matrix has non-finite entries"),
        (np.inf, True, "matrix has non-finite entries"),
        (-np.inf, True, "matrix has non-finite entries"),
        (5.0, False, "matrix is not symmetric within tolerance")])
    def test_a_bad_row_keeps_its_message(self, bad, mirrored, match):
        stack = np.stack([np.eye(3)] * 4)
        stack[2, 0, 1] = bad
        if mirrored:
            stack[2, 1, 0] = bad
        for check, A in ((_symmetrized, stack), (sym_matrix, stack[2])):
            with pytest.raises(ValueError, match=f"^{match}$"):
                check(A)

    def test_a_stack_raises_its_first_failing_rows_error(self):
        # the whole stack's finiteness test would meet row 3's NaN first
        stack = [np.eye(3) for _ in range(5)]
        stack[1][0, 2] = 5.0
        stack[3][1, 1] = np.nan
        with pytest.raises(ValueError, match="^component 1 answered a "
                           "Hessian: matrix is not symmetric"):
            _checked_hessians(stack)
        assert _stack_outcome(stack) == _member_outcome(stack)


def _factored(rng, d, a, psd=False):
    """A random V S V^T: V (d, a) orthonormal, S with eigenvalues in
    [-3, 3], or in [0.1, 3] when ``psd``."""
    V = sample_orthonormal_columns(d, a, seed=rng).columns
    Z = sample_orthonormal_columns(a, a, seed=rng).columns
    lam = rng.uniform(0.1, 3.0, a) if psd else rng.uniform(-3.0, 3.0, a)
    S = (Z * lam) @ Z.T
    return _Factored(V, 0.5 * (S + S.T))


class TestFactored:
    """The factored form V S V^T decides as its dense lift does."""

    @pytest.mark.parametrize("psd", [False, True])
    @pytest.mark.parametrize("d, a", [(5, 5), (50, 3), (197, 21)])
    def test_screen_and_lambda_min_match_the_lift(self, rng, d, a, psd):
        for _ in range(10):
            A = _factored(rng, d, a, psd)
            dense = A.lift()
            ref = float(np.linalg.eigh(dense)[0][0])
            lmin = _lambda_min(A)
            assert abs(lmin - ref) <= 1e-13 * (1.0 + abs(ref))
            assert _lambda_min(dense) == float(eig_sym(dense)[0][0])
            if psd and a < d:
                # the complement's eigenvalue 0 is lambda_min
                assert lmin == 0.0
            # shifts a relative 1e-8 on each side of the boundary, and far
            # from it on each side
            edge = max(-lmin, 1e-3)
            for c0 in (edge * (1 - 1e-8), edge * (1 + 1e-8), 0.5 * edge,
                       2.0 * edge):
                assert _shifted_pd(A, c0) == _shifted_pd(dense, c0) == (
                    ref > -c0), c0

    def test_sym_matrix_checks_s(self, rng):
        A = _factored(rng, 20, 4)
        out = sym_matrix(A)
        # S is symmetric bit for bit, so A comes back as it is
        assert out is A
        skew = A.S.copy()
        skew[0, 1] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            sym_matrix(_Factored(A.V, skew))
        bad = A.S.copy()
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sym_matrix(_Factored(A.V, bad))
        with pytest.raises(ValueError, match="do not make"):
            _Factored(A.V, A.S[:3, :3])

    def test_eig_sym_lifts(self, rng):
        A = _factored(rng, 30, 5)
        w, Q = eig_sym(A)
        assert np.allclose(w, np.linalg.eigh(A.lift())[0], rtol=0,
                           atol=1e-13)
        assert np.allclose((Q * w) @ Q.T, A.lift(), rtol=0, atol=1e-12)

    def test_product_and_lift(self, rng):
        A = _factored(rng, 40, 6)
        q = rng.standard_normal(40)
        dense = A.lift()
        assert np.array_equal(dense, dense.T)
        assert np.allclose(A @ q, dense @ q, rtol=0, atol=1e-13)
        assert A.shape == (40, 40)
        assert np.array_equal((A / 4.0).S, A.S / 4.0)


class TestOrthonormalColumns:
    def test_orthonormality(self):
        Q = sample_orthonormal_columns(12, 5, seed=3)
        assert Q.d == 12 and Q.k == 5
        err = np.abs(Q.columns.T @ Q.columns - np.eye(5)).max()
        assert err < 1e-12

    def test_square_case_is_orthogonal(self):
        Q = sample_orthonormal_columns(6, 6, seed=1).columns
        assert abs(abs(np.linalg.det(Q)) - 1.0) < 1e-10

    def test_deterministic_per_seed(self):
        A = sample_orthonormal_columns(9, 4, seed=11).columns
        B = sample_orthonormal_columns(9, 4, seed=11).columns
        C = sample_orthonormal_columns(9, 4, seed=12).columns
        assert np.array_equal(A, B)
        assert not np.array_equal(A, C)

    def test_rejects_wide(self):
        with pytest.raises(ValueError):
            sample_orthonormal_columns(3, 5, seed=0)

    def test_tall_orthogonal_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            TallOrthogonal(np.ones((4, 2)))

    def test_column_mean_is_unbiased(self):
        # Haar columns have mean zero; a crude 3-sigma sanity check on the
        # first coordinate across many draws.
        n, d = 4000, 8
        vals = np.array([
            sample_orthonormal_columns(d, 1, seed=s).columns[0, 0]
            for s in range(n)
        ])
        # each entry of a random unit vector has variance 1/d
        assert abs(vals.mean()) < 3.0 / np.sqrt(n * d)


class TestEig:
    def test_known_eigenvalues(self):
        A = np.diag([3.0, -1.0, 2.0])
        w, V = eig_sym(A)
        assert np.allclose(w, [-1.0, 2.0, 3.0])
        assert np.allclose(np.abs(V.T @ V), np.eye(3), atol=1e-12)

    def test_reconstruction(self, rng):
        B = rng.standard_normal((7, 7))
        A = B + B.T
        w, V = eig_sym(A)
        assert np.allclose(V @ np.diag(w) @ V.T, A, atol=1e-10)
        assert np.all(np.diff(w) >= -1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestFiniteDifferences:
    def test_gradient_of_cubic(self):
        f = lambda x: x[0] ** 3 + 2.0 * x[0] * x[1] + x[1] ** 2
        x = np.array([0.7, -0.3])
        g = finite_diff_gradient(f, x, step=1e-6)
        exact = np.array([3 * 0.7 ** 2 + 2 * (-0.3), 2 * 0.7 + 2 * (-0.3)])
        assert np.allclose(g, exact, atol=1e-7)

    def test_jacobian_of_linear_map(self, rng):
        A = rng.standard_normal((3, 4))
        J = finite_diff_jacobian(lambda x: A @ x, rng.standard_normal(4))
        assert np.allclose(J, A, atol=1e-8)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: 0.0, np.zeros(2), step=0.0)


def _per_column_richardson(g, x, step=None):
    """Reference: the per-column loop the stencil replaced.  Central
    differences column by column, at h then h/2, extrapolated."""
    x = np.asarray(x, dtype=float)
    h = default_fd_step(x) if step is None else float(step)

    def central(h):
        cols = []
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            cols.append((np.asarray(g(x + e)) - np.asarray(g(x - e)))
                        / (2.0 * h))
        return np.stack(cols, axis=-1)

    coarse = central(h)
    fine = central(0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def _recording(g, calls):
    def wrapped(z):
        calls.append(np.array(z))
        return g(z)
    return wrapped


class TestStencilMatchesPerColumnLoop:
    """The public stencils evaluate their callable one point per call, at
    the same points in the same order as the per-column loop, and return
    its answers bit for bit."""

    @pytest.mark.parametrize("step", [None, 1e-3])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_gradient(self, rng, d, step):
        c = rng.standard_normal(d)
        f = lambda z: float(np.cos(c @ z) + (z ** 3).sum())
        x = rng.standard_normal(d) * 3.0
        calls, ref_calls = [], []
        got = finite_diff_gradient(_recording(f, calls), x, step)
        want = _per_column_richardson(_recording(f, ref_calls), x, step)
        assert got.shape == want.shape == (d,)
        assert got.tobytes() == want.tobytes()
        assert all(z.shape == (d,) for z in calls)
        assert np.array_equal(np.array(calls), np.array(ref_calls))

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_jacobian(self, rng, d):
        A = rng.standard_normal((4, d))
        g = lambda z: np.sin(A @ z) * np.exp(0.1 * z.sum())
        x = rng.standard_normal(d)
        got = finite_diff_jacobian(g, x)
        want = _per_column_richardson(g, x)
        assert got.shape == want.shape == (4, d)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tail", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("d", [1, 4])
    def test_combine_with_a_step_per_stencil(self, rng, d, tail):
        # P stencils with their own steps, combined in one call, give each
        # stencil's own combine bit for bit
        values = rng.standard_normal((5, 4 * d) + tail)
        steps = 10.0 ** rng.uniform(-6.0, -1.0, 5)
        got = _richardson_combine(values, steps)
        assert got.shape == (5,) + tail + (d,)
        assert got.flags.c_contiguous
        for k, h in enumerate(steps):
            assert got[k].tobytes() == _richardson_combine(
                values[k], float(h)).tobytes()


@given(st.integers(0, 10_000))
def test_eig_reconstruction_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    B = rng.standard_normal((n, n))
    A = B + B.T
    w, V = eig_sym(A)
    assert np.allclose(V @ np.diag(w) @ V.T, A, atol=1e-9)


@given(st.integers(0, 10_000))
def test_stiefel_sample_property(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 10))
    k = int(rng.integers(1, d + 1))
    Q = sample_orthonormal_columns(d, k, seed=rng).columns
    assert np.abs(Q.T @ Q - np.eye(k)).max() < 1e-10


@st.composite
def _scaled_arrays(draw, low=-300, high=300):
    """A vector or matrix whose entries share a scale 10^e, e in [low,
    high], and spread 20 decades below it: its squares leave the float
    range at either end of the scales."""
    shape = draw(st.sampled_from([(1,), (2,), (5,), (21,), (3, 3), (2, 6)]))
    size = math.prod(shape)
    scale = draw(st.floats(low, high))
    mantissas = draw(st.lists(st.floats(-1.0, 1.0), min_size=size,
                              max_size=size))
    spreads = draw(st.lists(st.floats(-20.0, 0.0), min_size=size,
                            max_size=size))
    return np.reshape([m * 10.0 ** (scale + e)
                       for m, e in zip(mantissas, spreads)], shape)


@given(_scaled_arrays())
@example(np.array([1e200, 1e200]))
@example(np.array([1e-170, -1e-170]))
@example(np.array([1e308, 1e308]))
@example(np.zeros(3))
def test_norm_is_numpys_where_the_squares_are_normal(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _norm(x)
    with np.errstate(over="ignore"):
        squares = x.ravel().dot(x.ravel())
    if np.finfo(float).tiny <= squares < np.inf:
        assert got == float(np.linalg.norm(x))
    else:
        ref = math.hypot(*x.ravel().tolist())
        assert abs(got - ref) <= 2.0 * math.ulp(ref)
        assert (got > 0.0) == x.any()


def _midpoints(A):
    """The midpoint of each entry and its mirror, one pair at a time in
    Python floats: (a + b) * 0.5 while a + b is finite, else a/2 + b/2."""
    A = np.asarray(A)
    out = np.empty_like(A)
    for index in np.ndindex(A.shape):
        a, b = float(A[index]), float(A[index[:-2] + index[:-3:-1]])
        total = a + b
        out[index] = (total * 0.5 if math.isfinite(total)
                      else 0.5 * a + 0.5 * b)
    return out


@st.composite
def _nearly_symmetric(draw):
    """A matrix or a stack of two, entries anywhere in the float range, each
    mirrored entry up to two ulps nearer 0 than its pair."""
    d = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(d, d), (2, d, d)]))
    entries = st.floats(allow_nan=False, allow_infinity=False)
    A = np.reshape(draw(st.lists(entries, min_size=math.prod(shape),
                                 max_size=math.prod(shape))), shape)
    lower = np.tril(np.ones((d, d), dtype=bool), -1)
    A = np.where(lower, A.swapaxes(-1, -2), A)
    ulps = draw(st.lists(st.integers(0, 2), min_size=math.prod(shape),
                         max_size=math.prod(shape)))
    for index, k in zip(np.ndindex(shape), ulps):
        for _ in range(k * lower[index[-2:]]):
            A[index] = np.nextafter(A[index], 0.0)
    return A


@given(_nearly_symmetric(), st.randoms(use_true_random=False))
@example(np.array([[1e308, 0.0], [0.0, 1.0]]), None)
# a subnormal pair whose halves round apart: a finite sum keeps its bits
@example(np.array([[0.0, 5e-324], [1e-323, 0.0]]), None)
def test_every_symmetric_part_is_the_finite_midpoint(A, random):
    want = _midpoints(A).tobytes()
    d = A.shape[-1]
    # a signed permutation V makes V S V^T the entries of S moved about
    columns = list(range(d))
    if random is not None:
        random.shuffle(columns)
    V = np.eye(d)[:, columns] * np.where(np.arange(d) % 2, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _sym_part(A).tobytes() == want
        assert _symmetrized(A).tobytes() == want
        for S in A.reshape((-1, d, d)):
            lift = _Factored(V, S).lift()
            assert lift.tobytes() == _midpoints(V @ S @ V.T).tobytes()
            assert np.isfinite(lift).all()


@given(_scaled_arrays(0, 300))
@example(np.array([1e200, 1e200]))
def test_rel_err_of_half_is_a_half(x):
    # |x - x/2| / |x| where x . x may overflow: x/2 is exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = rel_err(x, x / 2.0)
    if _norm(x) >= 1.0:
        assert err == pytest.approx(0.5, rel=1e-15)
    assert rel_err([1e200, 1e200], [0.5e200, 0.5e200]) == 0.5


@st.composite
def _scaled_stacks(draw):
    """A stack of 1-64 rows of 1-441 entries, each row at its own scale
    10^e, e in [-300, 300], its entries spread 20 decades below it; or a
    row of zeros or of subnormals.  Laid out C-contiguous, as the transpose
    of a stack, strided, reversed within each row, or as a stack of
    matrices transposed in place."""
    rows = draw(st.integers(1, 64))
    width = draw(st.integers(1, 441))
    kinds = draw(st.lists(st.sampled_from(["scaled", "scaled", "zero",
                                           "subnormal"]),
                          min_size=rows, max_size=rows))
    scales = draw(st.lists(st.floats(-300.0, 300.0), min_size=rows,
                           max_size=rows))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = (rng.uniform(-1.0, 1.0, (rows, width))
         * 10.0 ** rng.uniform(-20.0, 0.0, (rows, width)))
    for k, (kind, scale) in enumerate(zip(kinds, scales)):
        if kind == "scaled":
            A[k] *= 10.0 ** scale
        elif kind == "zero":
            A[k] = 0.0
        else:
            A[k] = rng.integers(-2 ** 20, 2 ** 20, width) * 5e-324
    layout = draw(st.sampled_from(["C", "T", "strided", "reversed",
                                   "matrices"]))
    if layout == "T":
        A = np.ascontiguousarray(A.T).T
    elif layout == "strided":
        wide = np.zeros((2 * rows, 3 * width))
        wide[::2, ::3] = A
        A = wide[::2, ::3]
    elif layout == "reversed":
        A = A[:, ::-1]
    elif layout == "matrices":
        m = next(k for k in (3, 2, 1) if width % k == 0)
        A = A.reshape(rows, width // m, m).swapaxes(1, 2)
    return A


@given(_scaled_stacks())
@example(np.array([[1e-170, 0.0], [1e200, 1e200]]))
@example(np.zeros((3, 0)))
def test_norms_are_the_norm_of_each_row(A):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _norms(A)
        want = [_norm(row) for row in A]
    assert got.shape == (len(A),)
    assert got.tobytes() == np.array(want).tobytes()


def test_norms_at_both_ends_of_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _norms([[1e-170, 0.0], [1e200, 1e200]])
    assert got.tolist() == [1e-170, math.hypot(1e200, 1e200)]


@given(_scaled_stacks(), st.sampled_from(["half", "negated", "other"]))
@example(np.array([[1e-170, 0.0], [1e200, 1e200]]), "other")
@example(np.array([[1e308], [-1e308], [1e308], [0.0]]), "negated")
# ||a|| below 1, ||a - b|| beyond the float range: the quotient is inf
@example(np.array([[0.5, 0.5], [-1.5e308, -1.5e308]]), "other")
def test_rel_errs_are_the_rel_err_of_each_row(A, against):
    if against == "half":
        B = A / 2.0
    elif against == "negated":
        B = -A
    else:
        B = np.roll(A, 1, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _rel_errs(A, B)
        ones = [rel_err(a, b) for a, b in zip(A, B)]
    want = [_rel_err_reference(a, b) for a, b in zip(A, B)]
    assert got.tobytes() == np.array(want).tobytes()
    assert ones == want


def _rel_err_reference(a, b) -> float:
    """The relative error of one row of finite entries from ``_norm``, in
    Python floats: from the halves where a - b or a norm overflows, and
    where those overflow too, from the row scaled by 2^(256 - e), e the
    binary exponent of its largest entry."""
    with np.errstate(over="ignore"):
        for s in (1.0, 0.5):
            num, den = _norm(s * a - s * b), _norm(s * a)
            if math.isfinite(num) and math.isfinite(den):
                return num / max(s, den)
    big = max(float(np.abs(a).max()), float(np.abs(b).max()))
    s = math.ldexp(1.0, 256 - math.frexp(big)[1])
    return _norm(s * a - s * b) / max(s, _norm(s * a))


def test_rel_errs_read_an_error_whose_square_underflows():
    # each norm's square leaves the float range: the error is measured,
    # with no overflow warning
    A = np.array([[1e-170, 0.0], [1e200, 1e200]])
    B = np.array([[0.0, 0.0], [0.5e200, 0.5e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _rel_errs(A, B).tolist() == [1e-170, 0.5]


@given(_scaled_arrays(0, 300))
@example(np.array([1e308]))
@example(np.array([1e308, -1e308]))
@example(np.array([1.7e308, 1e-300]))
def test_rel_err_of_the_negation_is_two(x):
    # a - (-a) may overflow where the quotient, 2, does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = rel_err(x, -x)
    if _norm(x) >= 1.0:
        assert err == pytest.approx(2.0, rel=1e-15)
    assert rel_err([1e308], [-1e308]) == 2.0


@pytest.mark.parametrize("a, b, want", [
    ([1e308] * 4, [-1e308] * 4, 2.0),
    ([-1.7e308] * 64, [1.7e308] * 64, 2.0),
    ([[1.7e308, 1e308], [-1e308, 1.7e308]],
     [[-1.7e308, -1e308], [1e308, -1.7e308]], 2.0),
    ([1.7e308] * 16, [1.7e308 * (1.0 - 2.0 ** -20)] * 16,
     (1.7e308 - 1.7e308 * (1.0 - 2.0 ** -20)) / 1.7e308),
    ([1.7e308] * 16, [0.85e308] * 16, 0.5),
    ([1.7e308] * 16, [0.0] * 16, 1.0),
])
def test_rel_err_of_rows_whose_halves_overflow(a, b, want):
    # ||a/2 - b/2|| or ||a/2|| overflows too: the row is measured at a
    # power of two below its largest entry, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = rel_err(a, b)
        errs = _rel_errs(np.array([a, np.ones_like(a)]),
                         np.array([b, np.zeros_like(a)]))
    assert err == pytest.approx(want, rel=1e-14, abs=0.0)
    assert errs.tolist() == [err, 1.0]
    assert err == _rel_err_reference(np.array(a), np.array(b))


def test_rel_err_keeps_the_bits_of_the_halves_where_they_are_finite():
    # rows whose a - b or norm overflows but whose halves do not
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, (200, 3)) * 1.7e308
    b = rng.uniform(-1.0, 1.0, (200, 3)) * 1.7e308 * rng.random((200, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _rel_errs(a, b)
    halves = np.array([_norm(0.5 * x - 0.5 * y) / max(0.5, _norm(0.5 * x))
                       for x, y in zip(a, b)])
    with np.errstate(over="ignore"):
        over = ~np.isfinite(_norms(a - b)) | ~np.isfinite(_norms(a))
    over &= np.isfinite(halves)
    assert over.sum() > 100
    assert got[over].tolist() == halves[over].tolist()


def test_rel_err_keeps_its_bits_where_the_difference_is_finite():
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 1e5, 1e150):
        a = rng.standard_normal(20) * scale
        b = a + rng.standard_normal(20) * scale * 1e-6
        want = float(np.linalg.norm(a - b)) / max(1.0,
                                                   float(np.linalg.norm(a)))
        assert rel_err(a, b) == want


def test_a_skew_that_overflows_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not symmetric"):
            sym_matrix([[1.0, 1e308], [-1e308, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            _symmetrized(np.array([[[1.0, -1.7e308], [1.7e308, 1.0]]] * 2))


def test_every_norm_in_the_package_is_norm_or_norms():
    # a norm taken another way drifts from _norm's bits and scale safety
    src = Path(__file__).resolve().parent.parent / "src" / "hardsum"
    found = [f"{path.relative_to(src)}:{k}"
             for path in sorted(src.rglob("*.py"))
             for k, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"linalg\.norm\(|sqrt\(row_dot\(", line)]
    assert found == []
