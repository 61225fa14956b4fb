"""Dense linear-algebra primitives: validated vector/matrix constructors,
symmetric eigendecomposition, orthonormal-column sampling, and
finite-difference differentiation.

Everything here is pure and deterministic; random sampling takes an explicit
seed or generator (no global RNG state is ever touched).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "Vector",
    "SymMatrix",
    "TallOrthogonal",
    "as_vector",
    "as_points",
    "row_dot",
    "row_matvec",
    "sym_matrix",
    "as_rng",
    "rel_err",
    "sample_orthonormal_columns",
    "eig_sym",
    "finite_diff_gradient",
    "finite_diff_jacobian",
    "default_fd_step",
]

# Plain ndarrays are the working representation; the aliases document intent
# and the constructors below enforce the invariants at API boundaries.
Vector = np.ndarray
SymMatrix = np.ndarray

SYMMETRY_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10


def as_rng(seed) -> np.random.Generator:
    """Normalize an int seed / Generator / SeedSequence into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_vector(x, dim: int | None = None) -> Vector:
    """Validate and return a finite 1-D float vector."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return as_points(v, dim)


def as_points(x, dim: int | None = None) -> np.ndarray:
    """Validate and return one finite point, shape (d,), or a stack of P
    finite points, shape (P, d)."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2):
        raise ValueError(
            f"expected a point or a stack of points, got shape {v.shape}")
    if dim is not None and v.shape[-1] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[-1]}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v


# The two products below put a unit axis on each row so that numpy's matmul
# makes, row by row, the same BLAS call (dot or gemv) that the plain product
# of one vector makes: a stack's rows agree bit for bit with the answers at
# the single points.


def row_dot(a: np.ndarray, b: np.ndarray):
    """a @ b for two vectors, or the dot product of each pair of rows of two
    stacks (shape (..., d) each)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for a vector x, or for each row of a stack x (A may be a stack
    of matrices of the same leading shape)."""
    return (A @ x[..., :, None])[..., 0]


def rel_err(a, b) -> float:
    """||a - b|| / max(1, ||a||): absolute near the origin, relative at
    scale.  ``a`` is the reference; scalars, vectors and matrices (Frobenius
    norm) alike."""
    a = np.asarray(a, dtype=float)
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(a)))


#: the absolute floor of the symmetry tolerance: it keeps the tolerance from
#: underflowing to zero when every entry is subnormal (one-ulp asymmetry is
#: still symmetry there)
_TINY = float(np.finfo(float).tiny)


def sym_matrix(a) -> SymMatrix:
    """Validate symmetry of a square matrix (relative max-norm test) and
    return the exactly symmetrized copy (A + A^T)/2."""
    A = np.asarray(a, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return _symmetrized(A)


def _sym_stack(a) -> np.ndarray:
    """:func:`sym_matrix` on each matrix of a stack (r, d, d): the stack
    passes exactly when each of its matrices would, each checked against its
    own scale, and the answer is theirs, stacked, bit for bit.  Non-finite
    entries anywhere in the stack are reported before asymmetry."""
    A = np.asarray(a, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape "
                         f"{A.shape}")
    return _symmetrized(A)


def _symmetrized(A: np.ndarray) -> np.ndarray:
    """The check and symmetrization of :func:`sym_matrix`, over the last two
    axes of a matrix or a stack of matrices."""
    At = A.swapaxes(-1, -2)
    # max|A| is NaN or inf exactly when some entry is
    scale = np.maximum.reduce(np.absolute(A), axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise ValueError("matrix has non-finite entries")
    skew = np.subtract(A, At)
    skew = np.maximum.reduce(np.absolute(skew, out=skew), axis=(-2, -1))
    if (skew > np.maximum(SYMMETRY_TOL * scale, _TINY)).any():
        raise ValueError("matrix is not symmetric within tolerance")
    out = np.add(A, At)
    out *= 0.5
    return out


@dataclass(frozen=True)
class TallOrthogonal:
    """A d x k matrix with orthonormal columns (d >= k).

    Orthonormality is checked on construction to ``ORTHONORMALITY_TOL`` in
    max-norm; instances are immutable and freely shareable.
    """

    columns: np.ndarray = field(repr=False)

    def __post_init__(self):
        Q = np.asarray(self.columns, dtype=float)
        if Q.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {Q.shape}")
        d, k = Q.shape
        if k > d:
            raise ValueError(f"more columns than rows: {k} > {d}")
        err = np.abs(Q.T @ Q - np.eye(k)).max()
        if err > ORTHONORMALITY_TOL:
            raise ValueError(f"columns not orthonormal: max deviation {err:.3e}")
        object.__setattr__(self, "columns", Q)

    @property
    def d(self) -> int:
        return self.columns.shape[0]

    @property
    def k(self) -> int:
        return self.columns.shape[1]


def sample_orthonormal_columns(d: int, k: int, seed) -> TallOrthogonal:
    """Draw a d x k matrix with orthonormal columns, uniformly w.r.t.
    left-rotation (Haar on the Stiefel manifold).

    QR of a standard Gaussian matrix, with the sign ambiguity fixed by
    forcing the diagonal of the triangular factor positive -- this makes the
    factorization unique and the resulting Q exactly Haar-distributed.
    """
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got d={d}, k={k}")
    rng = as_rng(seed)
    G = rng.standard_normal((d, k))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return TallOrthogonal(Q * signs)


def eig_sym(A: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    Raises ValueError on non-symmetric input; LAPACK failures propagate as
    ``np.linalg.LinAlgError``.
    """
    A = sym_matrix(A)
    w, V = np.linalg.eigh(A)
    return w, V


def _lambda_min(A: SymMatrix) -> float:
    """Smallest eigenvalue of a validated symmetric matrix, from one
    subset eigensolve (LAPACK ``syevr`` for that eigenvalue only, about half
    the cost of a full ``eigh`` at d = 197)."""
    return float(scipy.linalg.eigh(A, subset_by_index=[0, 0],
                                   eigvals_only=True, check_finite=False)[0])


def default_fd_step(x: Vector) -> float:
    # Balances truncation against cancellation at double precision.
    return 1e-5 * max(1.0, float(np.linalg.norm(x)))


def _stencil_points(x, step: float | None) -> tuple[np.ndarray, float]:
    """The Richardson stencil's shifted points around one point x, as a
    (4d, d) stack, and the step h.

    For the steps h and h/2 in turn and for j = 0..d-1, the stack holds
    x + step e_j then x - step e_j (only coordinate j moves).
    """
    x = np.asarray(x, dtype=float)
    h = default_fd_step(x) if step is None else float(step)
    if h <= 0:
        raise ValueError("step must be positive")
    d = x.size
    points = np.tile(x, (2, d, 2, 1))   # (step, j, sign, coordinate)
    j = np.arange(d)
    for s, shift in enumerate((h, 0.5 * h)):
        points[s, j, 0, j] += shift
        points[s, j, 1, j] -= shift
    return points.reshape(4 * d, d), h


def _richardson_combine(values, h: float) -> np.ndarray:
    """Central differences at steps h and h/2 from the values at
    :func:`_stencil_points` (one row per point), extrapolated to fourth
    order.  The derivative in x_j is the last axis."""
    values = np.asarray(values)
    d = len(values) // 4
    v = values.reshape((2, d, 2) + values.shape[1:])
    coarse = (v[0, :, 0] - v[0, :, 1]) / (2.0 * h)
    fine = (v[1, :, 0] - v[1, :, 1]) / (2.0 * (0.5 * h))
    return np.ascontiguousarray(np.moveaxis((4.0 * fine - coarse) / 3.0, 0, -1))


def _richardson_jacobian(g, x, step: float | None) -> np.ndarray:
    """The Richardson stencil with g evaluated at one point per call."""
    points, h = _stencil_points(x, step)
    return _richardson_combine([np.asarray(g(z)) for z in points], h)


def finite_diff_gradient(f, x: Vector, step: float | None = None) -> Vector:
    """Componentwise central-difference gradient of a scalar function,
    Richardson-extrapolated to fourth order (the chain bumps have fourth
    derivatives large enough that a plain second-order stencil cannot reach
    1e-6 relative accuracy).  This is the Jacobian stencil applied to a
    scalar function."""
    return _richardson_jacobian(f, x, step)


def finite_diff_jacobian(g, x: Vector, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function, Richardson-
    extrapolated to fourth order.

    Useful for checking an analytic Hessian against the analytic gradient:
    differencing the gradient keeps one order of accuracy in hand compared
    with double-differencing values.
    """
    return _richardson_jacobian(g, x, step)
