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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc

from .linalg import TallOrthogonal, as_points, row_dot, row_matvec

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


@dataclass(frozen=True)
class Derivatives:
    """Value + optional gradient + optional Hessian of a scalar function:
    a float, (d,) and (d, d) at one point; arrays (P,), (P, d) and
    (P, d, d) at a stack of P points."""

    value: float | np.ndarray
    grad: np.ndarray | None = None
    hess: np.ndarray | None = None


def psi(x, order: int = 0):
    """The flat-then-rising bump factor and its derivatives (orders 0..3).

    psi(x) = 0 for x <= 1/2 and exp(1 - 1/(2x-1)^2) otherwise; all orders are
    continuous at x = 1/2 with value 0.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    x = np.asarray(x, dtype=float)
    out = _psi_table(x.reshape(-1), order)[order]
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _psi_table(x: np.ndarray, order: int) -> np.ndarray:
    """psi and its derivatives of orders 0..order at an array x, stacked as
    shape (order + 1,) + x.shape, from one exponential."""
    out = np.zeros((order + 1,) + x.shape)
    m = x > _PSI_CUTOFF
    if m.any():
        u = 2.0 * x[m] - 1.0
        val = np.exp(np.maximum(1.0 - u ** -2, _EXP_FLOOR))
        out[0, m] = val
        if order >= 1:
            out[1, m] = val * 4.0 * u ** -3
        if order >= 2:
            out[2, m] = val * (16.0 * u ** -6 - 24.0 * u ** -4)
        if order >= 3:
            out[3, m] = val * (64.0 * u ** -9 - 288.0 * u ** -7
                               + 192.0 * u ** -5)
    return out


def phi(x, order: int = 0):
    """The scaled Gaussian integral and its derivatives (orders 0..3).

    phi(x) = sqrt(e) * integral of exp(-t^2/2) from -inf to x.  The value is
    computed through the complementary error function, which preserves
    relative accuracy deep in the left tail.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    x = np.asarray(x, dtype=float)
    out = _phi_table(x.reshape(-1), order)[order]
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _phi_table(x: np.ndarray, order: int) -> np.ndarray:
    """phi and its derivatives of orders 0..order at an array x, stacked as
    shape (order + 1,) + x.shape; the derivatives share one exponential."""
    out = np.empty((order + 1,) + x.shape)
    out[0] = PHI_AT_ZERO * erfc(-x / np.sqrt(2.0))
    if order >= 1:
        g = SQRT_E * np.exp(-0.5 * x * x)
        out[1] = g
        if order >= 2:
            out[2] = -x * g
        if order >= 3:
            out[3] = (x * x - 1.0) * g
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
    """A value as the answer carries it: a float at one point, an array of
    shape (P,) at a stack of P points."""
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
    if order not in (0, 1, 2):
        raise ValueError(f"order must be in 0..2, got {order}")
    return _chain_eval(K, _check_mask(mask, K), as_points(x, dim=K), order)


def _chain_eval(K: int, m: np.ndarray, x: np.ndarray, order: int) -> Derivatives:
    """``chain_eval`` on an already validated mask and point or stack."""
    # psi/phi tables at +-x for all needed orders, one each over [x; -x],
    # cut into the factors of the terms k = 2..K: psi(+-x_{k-1}), phi(+-x_k)
    xx = np.concatenate((x, -x), axis=-1)
    psi_xx, phi_xx = _psi_table(xx, order), _phi_table(xx, order)
    ps, ns = psi_xx[..., :K - 1], psi_xx[..., K:-1]
    pf, nf = phi_xx[..., 1:K], phi_xx[..., K + 1:]
    m1 = m[1:]

    val = -m[0] * phi_xx[0][..., 0]  # psi(1) = 1 exactly
    if K > 1:
        terms = m1 * (ns[0] * nf[0] - ps[0] * pf[0])
        val = val + terms.sum(axis=-1)
    val = _as_value(val)
    if order == 0:
        return Derivatives(val)

    grad = np.zeros(x.shape)
    grad[..., 0] = -m[0] * phi_xx[1][..., 0]
    if K > 1:
        # d/dx_{k-1}: -psi'(-x_{k-1}) phi(-x_k) - psi'(x_{k-1}) phi(x_k)
        grad[..., :-1] += m1 * (-ns[1] * nf[0] - ps[1] * pf[0])
        # d/dx_k:    -psi(-x_{k-1}) phi'(-x_k) - psi(x_{k-1}) phi'(x_k)
        grad[..., 1:] += m1 * (-ns[0] * nf[1] - ps[0] * pf[1])
    if order == 1:
        return Derivatives(val, grad)

    H = np.zeros(x.shape + (K,))
    # the diagonal, super- and sub-diagonal as strided views of flat H
    flat = H.reshape(x.shape[:-1] + (K * K,))
    diag = flat[..., ::K + 1]
    diag[..., 0] = -m[0] * phi_xx[2][..., 0]
    if K > 1:
        # d2/dx_{k-1}^2: psi''(-x_{k-1}) phi(-x_k) - psi''(x_{k-1}) phi(x_k)
        diag[..., :-1] += m1 * (ns[2] * nf[0] - ps[2] * pf[0])
        # d2/dx_k^2:     psi(-x_{k-1}) phi''(-x_k) - psi(x_{k-1}) phi''(x_k)
        diag[..., 1:] += m1 * (ns[0] * nf[2] - ps[0] * pf[2])
        # mixed:         psi'(-x_{k-1}) phi'(-x_k) - psi'(x_{k-1}) phi'(x_k)
        d_ab = m1 * (ns[1] * nf[1] - ps[1] * pf[1])
        flat[..., 1::K + 1] = d_ab
        flat[..., K::K + 1] = d_ab
    return Derivatives(val, grad, H)


@lru_cache(maxsize=64)
def clamp_radius(K: int) -> float:
    """The clamp radius paired with a chain of length K in the randomized
    instances: R = 230 * sqrt(K).  Cached: every hat_f_eval call asks."""
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
    if order not in (0, 1, 2):
        raise ValueError(f"order must be in 0..2, got {order}")
    y = as_points(y)
    rho, J, d2c = _soft_clamp(y, row_dot(y, y), R, order)
    if d2c is None:
        return rho, J, None

    def d2_contract(a) -> np.ndarray:
        a = as_points(a, dim=y.shape[-1])
        if a.shape != y.shape:
            raise ValueError(f"expected shape {y.shape}, got {a.shape}")
        return d2c(a)

    return rho, J, d2_contract


def _soft_clamp(y: np.ndarray, yy, R: float, order: int):
    """``soft_clamp`` on already validated points of any leading shape
    (..., m) with squared norms ``yy``; its ``d2_contract`` takes vectors
    of y's shape unchecked."""
    s = 1.0 / np.sqrt(1.0 + yy / R ** 2)
    rho = s[..., None] * y
    if order == 0:
        return rho, None, None
    eye = _eye(y.shape[-1])
    c3 = s ** 3 / R ** 2
    yyT = y[..., :, None] * y[..., None, :]
    J = s[..., None, None] * eye - c3[..., None, None] * yyT
    if order == 1:
        return rho, J, None

    def d2_contract(a: np.ndarray) -> np.ndarray:
        ay = row_dot(a, y)
        M = -c3[..., None, None] * (a[..., :, None] * y[..., None, :]
                                    + y[..., :, None] * a[..., None, :]
                                    + ay[..., None, None] * eye)
        M += (3.0 * s ** 5 / R ** 4 * ay)[..., None, None] * yyT
        return M

    return rho, J, d2_contract


def hat_f_eval(K: int, B: TallOrthogonal, y, order: int = 0) -> Derivatives:
    """The clamped-and-rotated chain block on R^m:

        hat_f(y) = chain(B^T rho(y)) + |y|^2 / 10,

    with B an m x K matrix with orthonormal columns and rho the soft clamp of
    radius clamp_radius(K) = 230 sqrt(K).  Value/gradient/Hessian are
    assembled by the chain rule; the Hessian is

        J_rho B H_chain B^T J_rho + (second-derivative contraction of rho
        against B grad_chain) + I/5.

    ``y`` is one point, shape (m,), or a stack of P points, shape (P, m),
    answered as :func:`chain_eval` answers a stack.  Values equal the
    single-point answers bit for bit; gradients and Hessians go through the
    clamp's Jacobian and agree to rounding (see :func:`soft_clamp`).
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be in 0..2, got {order}")
    if B.k != K:
        raise ValueError(f"B must have K={K} columns, got {B.k}")
    return _hat_f(K, [(..., B.columns)], as_points(y, dim=B.d), order)


def _hat_f(K: int, blocks, y: np.ndarray, order: int) -> Derivatives:
    """``hat_f_eval`` of several blocks in one evaluation, each at its own
    part of the validated points y.

    ``blocks`` pairs an index into y with a block's m x K columns: the
    block answers at ``y[index]``.  The index is b along a leading block
    axis of y, shape (nb, ..., m), or ``...`` for one block answering all
    of y (what :func:`hat_f_eval` asks).  The answer has y's leading shape.
    Clamp, chain and Jacobian run once over all of y; the products with
    the columns go block by block, each through its block's own columns on
    a C-contiguous part of y, so each part's rows equal the one-block
    answer bit for bit.
    """
    yy = row_dot(y, y)
    rho, J, d2c = _soft_clamp(y, yy, clamp_radius(K), order)
    w = np.empty(y.shape[:-1] + (K,))
    for b, cols in blocks:
        w[b] = row_matvec(cols.T, rho[b])
    ch = _chain_eval(K, np.ones(K), w, order)

    val = _as_value(ch.value + 0.1 * yy)
    if order == 0:
        return Derivatives(val)

    g_chain = np.empty(y.shape)  # gradient w.r.t. rho
    for b, cols in blocks:
        g_chain[b] = row_matvec(cols, ch.grad[b])
    grad = row_matvec(J, g_chain) + 0.2 * y   # J is symmetric
    if order == 1:
        return Derivatives(val, grad)

    H = np.empty(y.shape + y.shape[-1:])
    for b, cols in blocks:
        H[b] = cols @ ch.hess[b] @ cols.T
    H = J @ H @ J
    H += d2c(g_chain)
    H += 0.2 * _eye(y.shape[-1])
    return Derivatives(val, grad, 0.5 * (H + np.swapaxes(H, -1, -2)))
