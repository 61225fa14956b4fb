"""The smooth chain functions that every hard instance is built from.

``psi`` and ``phi`` are a C-infinity bump/sigmoid pair; ``chain_eval``
combines them into the masked chain objective on R^K whose partial
derivatives vanish beyond the last "discovered" coordinate.  ``soft_clamp``
is the radial squashing map that keeps inputs inside a ball of radius R, and
``hat_f_eval`` composes the chain with a tall orthonormal matrix and the
clamp into the building block of the randomized instances.

All derivative formulas are hand-derived closed forms; each is pinned by a
finite-difference test in the suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import TallOrthogonal, _sym_part, as_points, row_dot, row_matvec

__all__ = [
    "SQRT_E",
    "PHI_AT_ZERO",
    "Derivatives",
    "psi",
    "phi",
    "chain_eval",
    "soft_clamp",
    "hat_f_eval",
    "clamp_radius",
]

SQRT_E = float(np.sqrt(np.e))
#: value of the sigmoidal factor at 0 (half the total Gaussian mass, times sqrt(e))
PHI_AT_ZERO = float(np.sqrt(np.pi * np.e / 2.0))

# Below this point psi is exactly 0; the margin keeps the smooth gluing at
# x = 1/2 numerically clean (the true value there underflows anyway).
_PSI_CUTOFF = 0.5 + 1e-8
# exp() underflows to 0 below roughly -745; clamp to avoid spurious warnings
_EXP_FLOOR = -745.0
_SQRT2 = math.sqrt(2.0)


@dataclass(slots=True)
class Derivatives:
    """Value + optional gradient + optional Hessian of a scalar function:
    a float, (d,) and (d, d) at one point; arrays (P,), (P, d) and
    (P, d, d) at a stack of P points.

    Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, which triples the cost of building one, and
    every charged row of a pass builds one.  No code assigns to or hashes
    an answer."""

    value: float | np.ndarray
    grad: np.ndarray | None = None
    hess: np.ndarray | None = None


def _check_order(order) -> None:
    """The check of a derivative order where it enters the package: an
    integer (a numpy integer too, but not a bool) in 0..2."""
    if (isinstance(order, bool) or not isinstance(order, (int, np.integer))
            or not 0 <= order <= 2):
        raise ValueError(f"order must be in 0..2, got {order}")


def psi(x, order: int = 0):
    """The flat-then-rising bump factor and its derivatives (orders 0..2).

    psi(x) = 0 for x <= 1/2 and exp(1 - 1/(2x-1)^2) otherwise; all orders are
    continuous at x = 1/2 with value 0.
    """
    return _at(_psi_table, x, order)


def _psi_table(x: np.ndarray, order: int) -> np.ndarray:
    """psi and its derivatives of orders 0..order at the pairs x, -x, in
    :func:`_phi_table`'s layout (order + 1, 2) + x.shape.  At most one
    member of a pair is above the cutoff, so a pair costs one
    exponential."""
    xx = np.empty((2,) + x.shape)
    xx[0] = x
    np.negative(x, out=xx[1])
    out = np.zeros((order + 1,) + xx.shape)
    # the flat positions above the cutoff; a NaN is live, so it poisons
    # every order
    live = (~(xx <= _PSI_CUTOFF)).reshape(-1).nonzero()[0]
    if live.size:
        u = 2.0 * xx.take(live) - 1.0
        val = np.exp(np.maximum(1.0 - u ** -2, _EXP_FLOOR))
        table = np.empty((order + 1, live.size))
        table[0] = val
        if order >= 1:
            np.multiply(val * 4.0, u ** -3, out=table[1])
        if order >= 2:
            np.multiply(val, 16.0 * u ** -6 - 24.0 * u ** -4, out=table[2])
        out.reshape(order + 1, -1)[:, live] = table
    return out


def phi(x, order: int = 0):
    """The scaled Gaussian integral and its derivatives (orders 0..2).

    phi(x) = sqrt(e) * integral of exp(-t^2/2) from -inf to x.  The value is
    computed through the complementary error function, which preserves
    relative accuracy deep in the left tail.
    """
    return _at(_phi_table, x, order)


def _at(table, x, order: int):
    """The order-``order`` derivative at x, a float or x's shape, from
    slot 0 (the pairs' x half) of a pair table."""
    _check_order(order)
    x = np.asarray(x, dtype=float)
    out = table(x.reshape(-1), order)[order, 0]
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _phi_table(x: np.ndarray, order: int) -> np.ndarray:
    """phi and its derivatives of orders 0..order at the pairs x, -x,
    stacked as shape (order + 1, 2) + x.shape: ``[:, 0]`` at x and
    ``[:, 1]`` at -x.  The chain only ever asks for the pair.

    One ``math.erfc`` call per pair gives e = erfc(|x| / sqrt 2); then
    phi(-|x|) = PHI_AT_ZERO * e and phi(|x|) = PHI_AT_ZERO * (2 - e), each
    in its slot by the sign of x.  The left tail's small value comes
    straight from erfc, so it keeps its relative accuracy.  The derivatives
    share one exponential per pair.
    """
    out = np.empty((order + 1, 2) + x.shape)
    t = (np.abs(x) / _SQRT2).reshape(-1).tolist()
    e = np.fromiter(map(math.erfc, t), float, count=x.size).reshape(x.shape)
    low = e * PHI_AT_ZERO                 # phi(-|x|)
    high = (2.0 - e) * PHI_AT_ZERO        # phi(|x|)
    neg = np.signbit(x)
    out[0, 0] = np.where(neg, low, high)
    out[0, 1] = np.where(neg, high, low)
    if order >= 1:
        # exp(-x^2/2) is 0 beyond |x| of about 38.6: clipping keeps every
        # finite x's bits and keeps x^2 and x * 0 finite at huge or infinite
        # x; a NaN passes through (minimum and maximum are np.clip's
        # arithmetic without its wrapper)
        c = np.minimum(np.maximum(x, -40.0), 40.0)
        g = SQRT_E * np.exp(-0.5 * c * c)
        out[1] = g
        if order >= 2:
            np.multiply(c, g, out=out[2, 1])
            np.negative(out[2, 1], out=out[2, 0])
    return out


def _check_mask(mask, K: int) -> np.ndarray:
    m = np.asarray(mask, dtype=float)
    if m.shape != (K,):
        raise ValueError(f"mask must have shape ({K},), got {m.shape}")
    if not np.all((m == 0.0) | (m == 1.0)):
        raise ValueError("mask entries must be 0 or 1")
    return m


@lru_cache(maxsize=64)
def _eye(m: int) -> np.ndarray:
    """The m x m identity, read-only and shared (the clamp asks for it on
    every derivative call)."""
    out = np.eye(m)
    out.flags.writeable = False
    return out


def _as_value(v):
    return float(v) if v.ndim == 0 else v


def chain_eval(K: int, mask, x, order: int = 0) -> Derivatives:
    """Evaluate the masked chain function on R^K up to second order.

    f(x) = -mask_1 * psi(1) * phi(x_1)
           + sum_{k=2..K} mask_k * [psi(-x_{k-1}) phi(-x_k) - psi(x_{k-1}) phi(x_k)]

    Only adjacent coordinates couple, so the Hessian is tridiagonal; it is
    assembled densely here since K stays small at desk scale.

    ``x`` is one point, shape (K,), or a stack of P points, shape (P, K);
    a stack's answer holds values (P,), gradients (P, K) and Hessians
    (P, K, K), row p equal to the answer at ``x[p]``.
    """
    _check_order(order)
    return _chain_eval(K, _check_mask(mask, K), as_points(x, dim=K), order)


def _chain_eval(K: int, m: np.ndarray | None, x: np.ndarray,
                order: int) -> Derivatives:
    """``chain_eval`` on already validated masks and points.

    ``m`` is None for the unmasked chain (every mask entry 1: its products
    by 1.0 are exact, so they are skipped and the bits are kept), one mask,
    shape (K,), or a stack of masks whose leading shape broadcasts against
    the points': masks (n, K) at one point (K,) answer values (n,),
    gradients (n, K) and Hessians (n, K, K), one row per mask; masks (n, K)
    paired row by row with points (n, K) answer one row per pair; masks
    (n, 1, K) against points (P, K) answer (n, P) values, and so on.  The
    psi/phi tables are built once over the points, and every row equals the
    one-mask answer at its point bit for bit.
    """
    # psi/phi tables at the pairs +-x for all needed orders; psi is only
    # read at x_{k-1}, phi at x_1 and at x_k for the terms k = 2..K
    psi_pm = _psi_table(x[..., :-1], order)
    phi_pm = _phi_table(x, order)
    phi_k = np.ascontiguousarray(phi_pm[..., 1:])  # for _term's products
    phi_1 = phi_pm[:, 0, ..., 0]  # phi(x_1) and its derivatives
    m0, m1 = (None, None) if m is None else (m[..., 0], m[..., 1:])

    val = _first_term(m0, phi_1[0])  # psi(1) = 1 exactly
    if K > 1:
        val = val + _term(m1, psi_pm, phi_k, 0, 0).sum(axis=-1)
    shape = val.shape + (K,)  # the masks' and points' broadcast shape
    val = _as_value(val)
    if order == 0:
        return Derivatives(val)

    grad = np.zeros(shape)
    grad[..., 0] = _first_term(m0, phi_1[1])
    if K > 1:
        grad[..., :-1] += _term(m1, psi_pm, phi_k, 1, 0)   # d/dx_{k-1}
        grad[..., 1:] += _term(m1, psi_pm, phi_k, 0, 1)    # d/dx_k
    if order == 1:
        return Derivatives(val, grad)

    H = np.zeros(shape + (K,))
    # the diagonal, super- and sub-diagonal as strided views of flat H
    flat = H.reshape(shape[:-1] + (K * K,))
    diag = flat[..., ::K + 1]
    diag[..., 0] = _first_term(m0, phi_1[2])
    if K > 1:
        diag[..., :-1] += _term(m1, psi_pm, phi_k, 2, 0)   # d2/dx_{k-1}^2
        diag[..., 1:] += _term(m1, psi_pm, phi_k, 0, 2)    # d2/dx_k^2
        d_ab = _term(m1, psi_pm, phi_k, 1, 1)              # mixed
        flat[..., 1::K + 1] = d_ab
        flat[..., K::K + 1] = d_ab
    return Derivatives(val, grad, H)


def _first_term(m0, phi_1):
    """The first term's derivative -m0 phi(x_1), -phi(x_1) unmasked."""
    return -phi_1 if m0 is None else -m0 * phi_1


def _term(m1: np.ndarray | None, psi_pm: np.ndarray, phi_pm: np.ndarray,
          a: int, b: int) -> np.ndarray:
    """The (a, b) derivative of the masked terms k = 2..K, from pair tables
    of psi at x_{k-1} and phi at x_k:

        m1 ((-1)^(a+b) psi^(a)(-x_{k-1}) phi^(b)(-x_k)
            - psi^(a)(x_{k-1}) phi^(b)(x_k)),

    without the factor m1 when it is None (unmasked).
    """
    minus = psi_pm[a, 1] * phi_pm[b, 1]
    if (a + b) % 2:
        np.negative(minus, out=minus)
    minus -= psi_pm[a, 0] * phi_pm[b, 0]
    return minus if m1 is None else m1 * minus


@lru_cache(maxsize=64)
def clamp_radius(K: int) -> float:
    """R = 230 sqrt(K), the clamp radius of a chain of length K (cached:
    every clamped-chain evaluation asks)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return 230.0 * np.sqrt(K)


def soft_clamp(y, R: float, order: int = 0):
    """The radial squashing map rho(y) = y / sqrt(1 + |y|^2 / R^2).

    Returns ``(rho, jacobian, d2_contract)`` where entries beyond ``order``
    are None.  ``d2_contract(a)`` returns the symmetric matrix
    sum_k a_k * (second-derivative matrix of rho_k at y) -- the bilinear form
    needed for chain-rule Hessian assembly.

    ``y`` is one point, shape (m,), or a stack of P points, shape (P, m);
    a stack gives rho (P, m), Jacobians (P, m, m) and a ``d2_contract``
    taking one vector per point, (P, m) -> (P, m, m).  Rows equal the
    single-point answers bit for bit, except that the Jacobian and the
    contraction may differ in the last bit: they use s^3 and s^5, which
    numpy computes with the C library's pow at one point and with a
    vectorized pow over a stack.

    |rho(y)| < R for every y.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    _check_order(order)
    y = as_points(y)
    clamp = _Clamp(y, row_dot(y, y), R)
    if order == 0:
        return clamp.rho, None, None
    J = clamp.jacobian()
    if order == 1:
        return clamp.rho, J, None

    def d2_contract(a) -> np.ndarray:
        a = as_points(a, dim=y.shape[-1])
        if a.shape != y.shape:
            raise ValueError(f"expected shape {y.shape}, got {a.shape}")
        return clamp.d2_contract(a)

    return clamp.rho, J, d2_contract


class _Clamp:
    """The soft clamp of radius R at validated points y of any leading
    shape (..., m), with squared norms yy.

    With s = 1 / sqrt(1 + yy / R^2) and c3 = s^3 / R^2, rho = s y and the
    Jacobian is the symmetric J = s I - c3 y y^T, so its product with a
    vector needs no J: J a = s a - c3 (y . a) y.  Vectors ``a`` have y's
    shape and go unchecked.
    """

    def __init__(self, y: np.ndarray, yy, R: float):
        self.y, self.R = y, R
        self.s = 1.0 / np.sqrt(1.0 + yy / R ** 2)
        self.rho = self.s[..., None] * y

    @cached_property
    def c3(self):
        return self.s ** 3 / self.R ** 2

    @cached_property
    def yyT(self) -> np.ndarray:
        return self.y[..., :, None] * self.y[..., None, :]

    def product(self, a: np.ndarray) -> np.ndarray:
        """J a, one vector per point."""
        return (self.s[..., None] * a
                - (self.c3 * row_dot(self.y, a))[..., None] * self.y)

    def jacobian(self) -> np.ndarray:
        return (self.s[..., None, None] * _eye(self.y.shape[-1])
                - self.c3[..., None, None] * self.yyT)

    def d2_contract(self, a: np.ndarray) -> np.ndarray:
        """sum_k a_k (second-derivative matrix of rho_k), one per point."""
        y, c3 = self.y, self.c3
        ay = row_dot(a, y)
        M = -c3[..., None, None] * (a[..., :, None] * y[..., None, :]
                                    + y[..., :, None] * a[..., None, :]
                                    + ay[..., None, None] * _eye(y.shape[-1]))
        M += (3.0 * self.s ** 5 / self.R ** 4 * ay)[..., None, None] * self.yyT
        return M


def hat_f_eval(K: int, B: TallOrthogonal, y, order: int = 0) -> Derivatives:
    """The clamped-and-rotated chain block on R^m:

        hat_f(y) = chain(B^T rho(y)) + |y|^2 / 10,

    with B an m x K matrix with orthonormal columns and rho the soft clamp of
    radius clamp_radius(K) = 230 sqrt(K).  Value/gradient/Hessian are
    assembled by the chain rule; the gradient is

        J_rho B grad_chain + y/5,

    with the clamp's Jacobian J_rho applied in closed form (never built),
    and the Hessian is

        J_rho B H_chain B^T J_rho + (second-derivative contraction of rho
        against B grad_chain) + I/5.

    ``y`` is one point, shape (m,), or a stack of P points, shape (P, m),
    answered as :func:`chain_eval` answers a stack.  Values equal the
    single-point answers bit for bit; gradients and Hessians go through the
    clamp's s^3 and agree to rounding (see :func:`soft_clamp`).  The
    gradients of orders 1 and 2 are equal bit for bit.
    """
    _check_order(order)
    if B.k != K:
        raise ValueError(f"B must have K={K} columns, got {B.k}")
    return _hat_f(K, B.columns, as_points(y, dim=B.d), order)


def _hat_f(K: int, cols: np.ndarray, y: np.ndarray, order: int) -> Derivatives:
    """``hat_f_eval`` of one or several blocks in one evaluation, at
    validated points y.

    ``cols`` holds the blocks' m x K columns: one block, shape (m, K),
    answers all of y; nb blocks, shape (nb, m, K), answer y of shape
    (nb, ..., m), block b at ``y[b]``.  The answer has y's leading shape.
    Every product is one broadcast matmul that makes, row by row, the
    call a block alone makes on its part of y, so each block's rows equal
    its one-block answer bit for bit.
    """
    if cols.ndim == 3:      # block b's columns against every point of y[b]
        cols = cols.reshape(cols.shape[:1] + (1,) * (y.ndim - 2)
                            + cols.shape[1:])
    cols_t = cols.swapaxes(-1, -2)
    yy = row_dot(y, y)
    clamp = _Clamp(y, yy, clamp_radius(K))
    ch = _chain_eval(K, None, row_matvec(cols_t, clamp.rho), order)

    val = _as_value(ch.value + 0.1 * yy)
    if order == 0:
        return Derivatives(val)

    g_chain = row_matvec(cols, ch.grad)  # gradient w.r.t. rho
    grad = clamp.product(g_chain) + 0.2 * y
    if order == 1:
        return Derivatives(val, grad)

    J = clamp.jacobian()
    H = J @ (cols @ ch.hess @ cols_t) @ J
    H += clamp.d2_contract(g_chain)
    H += 0.2 * _eye(y.shape[-1])
    return Derivatives(val, grad, _sym_part(H))
