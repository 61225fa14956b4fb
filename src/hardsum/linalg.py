"""Dense linear-algebra primitives: validated vector/matrix constructors,
symmetric eigendecomposition, a Cholesky screen for the smallest
eigenvalue, orthonormal-column sampling, and finite-difference
differentiation.

A symmetric matrix is a dense array or, privately, a :class:`_Factored`
``V S V^T`` of low rank.  This module is the only one that tells the two
apart: the symmetry check, the eigenvalue screen, ``lambda_min`` and the
subspace A maps into itself that holds a vector (the cubic step's) take
either, and :func:`_dense` (behind the eigendecomposition and the public
answers) lifts a factored matrix to its dense one.

Everything here is pure and deterministic; random sampling takes an explicit
seed or generator (no global RNG state is ever touched).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    norm) alike.  The one-row case of :func:`_rel_errs`."""
    return float(_rel_errs([a], [b])[0])


#: the largest entry of a row that :func:`_rel_errs` measures at a power
#: of two lands in [2^255, 2^256): its sums of squares stay finite below
#: 2^500 entries, and where the scaling makes its difference subnormal,
#: the quotient rounds to 0 either way
_SCALED_EXP = 256


def _rel_errs(a, b) -> np.ndarray:
    """:func:`rel_err` of each row of two stacks (rows first).  A row whose
    a - b or a norm overflows is measured from s a and s b as
    ||s a - s b|| / max(s, ||s a||): at s = 1/2, and where that overflows
    too, at the power of two s of :data:`_SCALED_EXP` (1/2 again for a row
    with an infinite or NaN entry)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = _norms(np.concatenate([a - b, a])).reshape(2, len(a))
        errs = num / np.fmax(1.0, den)
        over = ~np.isfinite(np.maximum(num, den))
        if over.any():
            a, b = a[over], b[over]
            big = np.fmax(abs(a), abs(b)).reshape(len(a), -1).max(axis=1)
            # each row at the halves and at its power of two (frexp gives
            # an infinite or NaN entry the exponent 0); the halves answer
            # where they stay finite
            s = np.array([np.full(len(a), 0.5), np.ldexp(1.0, np.minimum(
                _SCALED_EXP - np.frexp(big)[1], -1))])
            by = s.reshape(s.shape + (1,) * (a.ndim - 1))
            num, den = _norms(np.concatenate([by * a - by * b, by * a])
                              .reshape((4 * len(a),) + a.shape[1:])
                              ).reshape(2, 2, len(a))
            errs[over] = np.where(np.isfinite(np.maximum(num[0], den[0])),
                                  num[0] / np.fmax(0.5, den[0]),
                                  num[1] / np.fmax(s[1], den[1]))
    return errs


#: the absolute floor of the symmetry tolerance: it keeps the tolerance from
#: underflowing to zero when every entry is subnormal (one-ulp asymmetry is
#: still symmetry there)
_TINY = float(np.finfo(float).tiny)


def _norm(x) -> float:
    """The Euclidean (Frobenius) norm over the entries in C order: the root
    of x . x (``np.linalg.norm``'s bits for a C-ordered x; ``np.vdot`` makes
    its BLAS call with no overflow warning) while x . x is normal and
    finite, else ``math.hypot`` over the entries."""
    x = np.asarray(x).ravel()
    sq = float(np.vdot(x, x))
    return math.sqrt(sq) if _TINY <= sq < math.inf else math.hypot(*x.tolist())


def _norms(A) -> np.ndarray:
    """:func:`_norm` of each row of a stack, bit for bit: each row is made
    contiguous (a strided BLAS dot sums in another order)."""
    A = np.ascontiguousarray(A, dtype=float)
    A = A.reshape(len(A), math.prod(A.shape[1:]))
    with np.errstate(over="ignore"):
        sq = row_dot(A, A)
    norms = np.sqrt(sq)
    for k in np.flatnonzero(~((sq >= _TINY) & (sq < math.inf))):
        if A[k].any():                  # a zero row's root, 0, is exact
            norms[k] = math.hypot(*A[k].tolist())
    return norms


def sym_matrix(a) -> SymMatrix:
    """Validate symmetry of a square matrix (relative max-norm test) and
    return it exactly symmetric: A itself when it equals its transpose bit
    for bit (decided first, with no copy, when A is also finite), else the
    symmetrized copy (A + A^T)/2."""
    A = a if isinstance(a, _Factored) else np.asarray(a, dtype=float)
    if len(A.shape) != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return _symmetrized(A)


def _sym_part(A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(A + A^T) / 2 over the last two axes, exactly symmetric, into ``out``
    when given: (a + b) * 0.5, or a/2 + b/2 where a + b overflows."""
    A = np.asarray(A, dtype=float)
    At = A.swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        out = np.add(A, At, out=out)
    out *= 0.5
    over = np.isinf(out)
    if over.any():
        out[over] = 0.5 * A[over] + 0.5 * At[over]
    return out


def _symmetrized(A):
    """The check and symmetrization of :func:`sym_matrix`, over the last two
    axes of a matrix or a stack of matrices; a :class:`_Factored` one is
    checked and symmetrized through its S.  A non-empty input that is
    finite and equals its transpose bit for bit is decided first, with no
    buffer the size of A, and returned as it is ((a + a) / 2 is a, -0.0
    included).  Any other input is then refused if its matrices are 0 x 0,
    with its shape named, and tested for finite entries and for symmetry
    within the tolerance; a passing one gets a new array, except a stack of
    no matrices, returned as it is."""
    if isinstance(A, _Factored):
        S = _symmetrized(A.S)
        return A if S is A.S else _Factored(A.V, S)
    A = np.asarray(A, dtype=float)
    At = A.swapaxes(-1, -2)
    # the bits, not the values: a -0.0 facing a +0.0 takes the path below,
    # as does a mirrored NaN or inf pair, which is refused there
    if (A.size and (A.view(np.uint64) == At.view(np.uint64)).all()
            and np.isfinite(A).all()):
        return A
    if not A.shape[-1]:     # before the reduction, which has no identity
        raise ValueError(f"matrix has no entries (shape {A.shape})")
    # one buffer holds |A|, then the skew, then the output
    out = np.absolute(A)
    # max|A| is NaN or inf exactly when some entry is
    scale = np.maximum.reduce(out, axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise ValueError("matrix has non-finite entries")
    if not A.size:
        return A
    with np.errstate(over="ignore"):    # an infinite skew is a refusal
        np.subtract(A, At, out=out)
    skew = np.maximum.reduce(np.absolute(out, out=out), axis=(-2, -1))
    if (skew > np.maximum(SYMMETRY_TOL * scale, _TINY)).any():
        raise ValueError("matrix is not symmetric within tolerance")
    return _sym_part(A, out=out)


class _Factored:
    """The symmetric d x d matrix V S V^T held as its factors: V, shape
    (d, a), has orthonormal columns and S, shape (a, a), is symmetric; or a
    stack of such matrices sharing V, S of shape lead + (a, a).

    The resisting oracle answers its Hessians in this form (a <= K + 1,
    far below d).  ``A @ q`` is V (S (V^T q)); its spectrum is S's plus
    d - a zeros, so the screen, ``lambda_min`` and the cubic step's
    subspace (:func:`_subspace_holding`) work on S, and only a dense
    eigendecomposition or a public answer lifts it (:func:`_dense`).
    """

    __slots__ = ("V", "S")

    def __init__(self, V: np.ndarray, S: np.ndarray):
        if V.ndim != 2 or S.shape[-2:] != (V.shape[1],) * 2:
            raise ValueError(f"factors of shapes {V.shape} and {S.shape} do "
                             "not make V S V^T")
        self.V, self.S = V, S

    @property
    def shape(self) -> tuple:
        return self.S.shape[:-2] + (self.V.shape[0],) * 2

    def __len__(self) -> int:
        return len(self.S)

    def __getitem__(self, k) -> _Factored:
        return _Factored(self.V, self.S[k])

    def __matmul__(self, q: np.ndarray) -> np.ndarray:
        """V (S (V^T q)) for one matrix and a vector or a (d, k) matrix q."""
        return self.V @ (self.S @ (self.V.T @ q))

    def __truediv__(self, c) -> _Factored:
        return _Factored(self.V, self.S / c)

    def lift(self) -> np.ndarray:
        """The dense matrix V S V^T, exactly symmetric."""
        return _sym_part(self.V @ self.S @ self.V.T)


def _dense(A):
    """A as a dense array: the lift of a :class:`_Factored` A, any other A
    (a dense array, or None) unchanged."""
    return A.lift() if isinstance(A, _Factored) else A


def _added(total, A):
    """total + A for the running sum of one averaging pass, ``total`` None
    before the first term.  Dense matrices add in place into ``total``.
    Factored ones add their S, padded to the wider V: their V are prefixes
    of one basis, which can grow mid-pass (the resisting oracle commits a
    direction when a round closes)."""
    if not isinstance(A, _Factored):
        if total is None:
            total = np.zeros(np.shape(A))
        total += A
        return total
    if total is None:
        return _Factored(A.V, A.S.copy())
    wide, narrow = ((A, total) if A.V.shape[1] > total.V.shape[1]
                    else (total, A))
    a = narrow.V.shape[1]
    S = wide.S.copy()
    S[..., :a, :a] += narrow.S
    return _Factored(wide.V, S)


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
    ``np.linalg.LinAlgError``.  A :class:`_Factored` matrix is lifted to
    its dense form first.
    """
    w, V = np.linalg.eigh(_dense(sym_matrix(A)))
    return w, V


def _lambda_min(A: SymMatrix) -> float:
    """Smallest eigenvalue of a validated symmetric matrix: the first of
    :func:`eig_sym`'s.  Of a :class:`_Factored` one it is S's, or 0 when it
    is lower and V does not span the space."""
    S = A.S if isinstance(A, _Factored) else A
    lmin = float(eig_sym(S)[0][0])
    return min(lmin, 0.0) if S.shape[0] < A.shape[0] else lmin


#: v's part outside span(V) joins the subspace of :func:`_subspace_holding`
#: only above this size relative to |v|: below it the part is rounding
#: noise, and its direction would not be orthogonal to V
_OUTSIDE_SPAN_TOL = 1e-12


def _subspace_holding(A: SymMatrix, v: Vector
                      ) -> tuple[np.ndarray | None, np.ndarray]:
    """A subspace that a validated symmetric A maps into itself and that
    holds v, as (Q, T): Q, shape (d, k), has orthonormal columns that span
    it and T = Q^T A Q; Q is None for the whole space, where T is A.

    A dense A gets the whole space.  A :class:`_Factored` V S V^T acts
    inside span(V) and is zero outside it, so Q is V, plus v's part outside
    span(V) when that part, projected out twice, is above rounding noise;
    T is S, padded with a zero row and column for that part.
    """
    if not isinstance(A, _Factored):
        return None, A
    Q, T = A.V, A.S
    r = v - Q @ (Q.T @ v)
    r -= Q @ (Q.T @ r)
    norm_r = _norm(r)
    if norm_r > _OUTSIDE_SPAN_TOL * _norm(v):
        Q = np.column_stack([Q, r / norm_r])
        T = np.pad(T, (0, 1))
    return Q, T


def _shifted_pd(A: SymMatrix, c0: float) -> bool:
    """Whether a Cholesky factorization of A + c I, c just below c0, proves
    that lambda_min(A), as ``eigh`` or :func:`_lambda_min` computes it, is
    above -c0 (A validated and symmetric).  A :class:`_Factored` A is
    screened through S + c I: its other eigenvalues are 0, above -c0
    whenever c > 0.

    The margin below c0 covers the factorization's backward error (at most
    about (d+1) d eps max_i A_ii), the eigensolver's (about d eps |A|_2 <=
    d^2 eps max|A|) and, through its c0 term, the rounding of the formula
    that compares lambda_min with -c0.  False proves nothing.
    """
    if isinstance(A, _Factored):
        A = A.S
    d = A.shape[0]
    c = c0 - 4.0 * d * (d + 1) * np.finfo(float).eps * (np.abs(A).max() + c0)
    if not c > 0:
        return False
    S = A.copy()
    S.flat[::d + 1] += c
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def default_fd_step(x: Vector) -> float:
    # Balances truncation against cancellation at double precision.
    return 1e-5 * max(1.0, _norm(x))


def _stencil_points(x, step: float | None) -> tuple[np.ndarray, float]:
    """The Richardson stencil's shifted points around one point x, as a
    (4d, d) stack, and the step h.

    For the steps h and h/2 in turn and for j = 0..d-1, the stack holds
    x + step e_j then x - step e_j (only coordinate j moves).  A step
    that is not positive and finite (NaN included) raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    h = default_fd_step(x) if step is None else float(step)
    if not 0 < h < math.inf:
        raise ValueError("step must be positive and finite")
    d = x.size
    points = np.tile(x, (2, d, 2, 1))   # (step, j, sign, coordinate)
    j = np.arange(d)
    for s, shift in enumerate((h, 0.5 * h)):
        points[s, j, 0, j] += shift
        points[s, j, 1, j] -= shift
    return points.reshape(4 * d, d), h


def _richardson_combine(values, h) -> np.ndarray:
    """Central differences at steps h and h/2 from the values at
    :func:`_stencil_points` (one row per point), extrapolated to fourth
    order.  The derivative in x_j is the last axis.

    With an array of steps h, shape (P,), ``values`` holds P stencils
    (shape (P, 4d, ...)), each combined with its own step in one pass.
    """
    values = np.asarray(values)
    h = np.asarray(h, dtype=float)
    k = h.ndim                          # leading stencil axes: 0 or 1
    d = values.shape[k] // 4
    v = values.reshape(values.shape[:k] + (2, d, 2) + values.shape[k + 1:])
    lead = (slice(None),) * k
    h = h.reshape(h.shape + (1,) * (v.ndim - k - 2))  # one step per stencil
    coarse = (v[lead + (0, slice(None), 0)]
              - v[lead + (0, slice(None), 1)]) / (2.0 * h)
    fine = (v[lead + (1, slice(None), 0)]
            - v[lead + (1, slice(None), 1)]) / (2.0 * (0.5 * h))
    return np.ascontiguousarray(
        np.moveaxis((4.0 * fine - coarse) / 3.0, k, -1))


def finite_diff_gradient(f, x: Vector, step: float | None = None) -> Vector:
    """Componentwise central-difference gradient of a scalar function,
    Richardson-extrapolated to fourth order (the chain bumps have fourth
    derivatives large enough that a plain second-order stencil cannot reach
    1e-6 relative accuracy).  This is the Jacobian stencil applied to a
    scalar function."""
    return finite_diff_jacobian(f, x, step)


def finite_diff_jacobian(g, x: Vector, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function, Richardson-
    extrapolated to fourth order, with g evaluated at one point per call.

    Useful for checking an analytic Hessian against the analytic gradient:
    differencing the gradient keeps one order of accuracy in hand compared
    with double-differencing values.
    """
    points, h = _stencil_points(x, step)
    return _richardson_combine([np.asarray(g(z)) for z in points], h)
