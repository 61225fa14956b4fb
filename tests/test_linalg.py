import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hardsum.cubic import CubicModel
from hardsum.linalg import (
    TallOrthogonal,
    _sym_stack,
    as_rng,
    as_vector,
    eig_sym,
    default_fd_step,
    finite_diff_gradient,
    finite_diff_jacobian,
    sample_orthonormal_columns,
    sym_matrix,
)


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


def _stack_outcome(stack):
    """_sym_stack on a stack, as the same bytes or error as the one-matrix
    calls would give when each passes or exactly one fails."""
    return _outcome(_sym_stack, np.array(stack))


def _member_outcome(stack):
    answers = [_outcome(sym_matrix, A) for A in stack]
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [1, 20])
    def test_non_finite_rejected(self, d, bad):
        A = np.eye(d)
        A[d - 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            sym_matrix(A)

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
        assert isinstance(_stack_outcome(stack), bytes)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_stack_with_one_asymmetric_member(self, k):
        rng = np.random.default_rng(k)
        stack = [np.eye(3) for _ in range(5)]
        stack[k] = rng.standard_normal((3, 3))
        assert _stack_outcome(stack) == _member_outcome(stack)
        with pytest.raises(ValueError, match="not symmetric"):
            _sym_stack(np.array(stack))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [0, 3])
    def test_stack_with_one_non_finite_member(self, k, bad):
        stack = [np.eye(4) for _ in range(4)]
        stack[k][2, 1] = bad
        assert _stack_outcome(stack) == _member_outcome(stack)
        with pytest.raises(ValueError, match="non-finite"):
            _sym_stack(np.array(stack))

    def test_stack_tolerance_is_per_matrix(self):
        # a subnormal member next to a large one: its tolerance is its own
        # floor, never taken from the stack's maximum
        tiny = np.finfo(float).tiny
        small = np.array([[tiny / 4, tiny / 8], [tiny / 8, tiny / 2]])
        small[1, 0] = np.nextafter(small[1, 0], 1.0)
        large = np.array([[1e300, 2e299], [2e299, 3e300]])
        stack = [large, small]
        assert _stack_outcome(stack) == _member_outcome(stack)
        out = _sym_stack(np.array(stack))
        assert out[1, 0, 1] == out[1, 1, 0]
        small[1, 0] = 3 * tiny
        assert _stack_outcome(stack) == _member_outcome(stack)
        with pytest.raises(ValueError, match="not symmetric"):
            _sym_stack(np.array(stack))
        # and a large member is held to its own relative tolerance
        large[1, 0] *= 1.0 + 1e-10
        with pytest.raises(ValueError, match="not symmetric"):
            _sym_stack(np.array([large, np.eye(2)]))

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (2, 2, 3), (2, 3, 2),
                                       (2, 2, 2, 2)])
    def test_stack_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="expected a stack of square"):
            _sym_stack(np.ones(shape))

    def test_public_callers_reject_a_stack(self):
        # the stack form is private: one-matrix entry points stay 2-D
        with pytest.raises(ValueError, match="expected a square matrix"):
            eig_sym(np.ones((3, 3, 3)))
        with pytest.raises(ValueError, match="expected a square matrix"):
            CubicModel(v=np.ones(3), U=np.ones((3, 3, 3)), M=1.0)


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
