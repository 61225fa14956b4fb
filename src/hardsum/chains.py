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
from functools import lru_cache

import numpy as np

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
    """The flat-then-rising bump factor and its derivatives (orders 0..2).

    psi(x) = 0 for x <= 1/2 and exp(1 - 1/(2x-1)^2) otherwise; all orders are
    continuous at x = 1/2 with value 0.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be in 0..2, got {order}")
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
    return out


def phi(x, order: int = 0):
    """The scaled Gaussian integral and its derivatives (orders 0..2).

    phi(x) = sqrt(e) * integral of exp(-t^2/2) from -inf to x.  The value is
    computed through the complementary error function, which preserves
    relative accuracy deep in the left tail.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be in 0..2, got {order}")
    x = np.asarray(x, dtype=float)
    out = _phi_table(x.reshape(-1), order)[order, 0]
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def _phi_table(x: np.ndarray, order: int) -> np.ndarray:
    """phi and its derivatives of orders 0..order at the pairs x, -x,
    stacked as shape (order + 1, 2) + x.shape: ``[:, 0]`` at x and
    ``[:, 1]`` at -x.  The chain only ever asks for the pair.

    The value is PHI_AT_ZERO * erfc(-x / sqrt 2) through :func:`_erfc_pair`,
    a port of cephes' ``erfc``, the one scipy's ``erfc`` calls, with its
    bits; ``math.erfc`` differs on about 40% of arguments, by up to
    1.3e-14 relative.  The derivatives share one exponential per pair.
    """
    out = np.empty((order + 1, 2) + x.shape)
    u = x.reshape(-1) / _NEG_SQRT2      # the bits of -x / sqrt(2)
    np.multiply(_erfc_pair(u).reshape((2,) + x.shape), PHI_AT_ZERO,
                out=out[0])
    if order >= 1:
        g = SQRT_E * np.exp(-0.5 * x * x)
        out[1] = g
        if order >= 2:
            np.multiply(x, g, out=out[2, 1])
            np.negative(out[2, 1], out=out[2, 0])
    return out


# The rational approximations of cephes' ndtr.c, highest degree first:
# erf(a) = a T(a^2) / U(a^2) for |a| < 1, and erfc(a) = e^(-a^2) P(a) / Q(a)
# for 1 <= a < 8, e^(-a^2) R(a) / S(a) from 8 on.  cephes leaves out the
# leading 1 of the monic U, Q and S; here it is written.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
#: cephes' MAXLOG, ln(DBL_MAX): erfc(a) is 0 or 2 once a*a exceeds it
_MAXLOG = 7.09782712893383996843E2
_NEG_SQRT2 = -float(np.sqrt(2.0))
_MINUS_PLUS = np.array([[-1.0], [1.0]])


def _horner_table(*polys) -> np.ndarray:
    """Coefficient i of each polynomial in row i, column j for polynomial
    j, padded in front with zeros to one degree.  Horner on a finite
    variable starts 0 * v + c = c, so a padded row keeps its bits."""
    k = max(map(len, polys))
    return np.array([(0.0,) * (k - len(p)) + p for p in polys]).T


#: Horner tables, one column per polynomial: each erf pair runs in a^2,
#: each erfc pair in |a|; numerators come before denominators
_HORNER = {
    "erf": _horner_table(_ERF_T, _ERF_U),
    "erf|erfc": _horner_table(_ERF_T, _ERFC_P, _ERF_U, _ERFC_Q),
    "erfc_far": _horner_table(_ERFC_R, _ERFC_S),
}
#: arguments per Horner pass; longer arrays go through in chunks
_HORNER_CHUNK = 2048


@lru_cache(maxsize=None)
def _horner_coefficients(which: str) -> np.ndarray:
    """``_HORNER[which]`` tiled for ``_HORNER_CHUNK`` arguments, read-only:
    row i holds coefficient i of every column in turn, so its first
    columns * n entries are the coefficients of a pass over n arguments
    laid out argument by argument.  Adding a contiguous prefix skips
    numpy's broadcasting set-up, which costs more than the add itself at
    the chain's sizes."""
    out = np.tile(_HORNER[which], _HORNER_CHUNK)
    out.flags.writeable = False
    return out


def _horner(which: str, v: np.ndarray) -> np.ndarray:
    """The ``_HORNER[which]`` polynomials at v, shape (n, columns) with
    column j the variable of polynomial j, in cephes' order: y = c0, then
    y = y * v + ci."""
    c = _horner_coefficients(which)[:, :v.size]
    flat = v.reshape(-1)
    y = flat * c[0]
    y += c[1]
    for ci in c[2:]:
        y *= flat
        y += ci
    return y.reshape(v.shape)


def _erfc_pair(u: np.ndarray) -> np.ndarray:
    """[erfc(u), erfc(-u)] at a flat array u, shape (2, u.size), bit for
    bit cephes' ``erfc`` at each argument.

    cephes works on t = |a|: erfc(a) = 1 - erf(a) for t < 1, where
    erf(+-t) = +-erf(t), and erfc(a) = y or 2 - y for a >= 1 or a <= -1,
    with y = e^(-a^2) P(t) / Q(t).  So one pass over t gives both members
    of a pair.  Every argument takes the erf and the [1, 8) polynomials
    in one Horner pass (cheaper, at the sizes the chain asks for, than
    splitting the arguments), and e^(-a^2) comes from ``math.exp``:
    libm's exp, which cephes calls; numpy's vectorized exp rounds about
    1% of these arguments differently.
    """
    n = u.size
    if n > _HORNER_CHUNK:
        return np.concatenate([_erfc_pair(u[i:i + _HORNER_CHUNK])
                               for i in range(0, n, _HORNER_CHUNK)], axis=1)
    t = np.abs(u)
    m = float(t.max(initial=0.0))
    if m < 1.0:
        v = np.empty((n, 2))
        np.multiply(u, u, out=v[:, 0])
        v[:, 1] = v[:, 0]
        y = _horner("erf", v)
        e = u * y[:, 0]
        e /= y[:, 1]
        near = e * _MINUS_PLUS          # 1 + (-e) has the bits of 1 - e
        near += 1.0
        return near
    if not m * m <= _MAXLOG:
        return _erfc_pair_beyond(u, t)

    v = np.empty((n, 4))
    np.multiply(t, t, out=v[:, 0])
    v[:, 1] = t
    v[:, 2] = v[:, 0]
    v[:, 3] = t
    y = _horner("erf|erfc", v)
    if m >= 8.0:
        far = t >= 8.0
        y[far, 1::2] = _horner("erfc_far",
                               np.repeat(t[far], 2).reshape(-1, 2))
    # r[0] = erf(u) where t < 1; r[1] = erfc(t) and r[2] = 2 - r[1] where
    # t >= 1, the pair in the order of a positive u
    r = np.empty((3, n))
    np.multiply(u, y[:, 0], out=r[0])
    r[0] /= y[:, 2]
    r[1] = np.fromiter(map(math.exp, (-v[:, 0]).tolist()), float, count=n)
    r[1] *= y[:, 1]
    r[1] /= y[:, 3]
    np.subtract(2.0, r[1], out=r[2])
    pair = np.where(u < 0.0, r[:0:-1], r[1:])
    near = r[0] * _MINUS_PLUS
    near += 1.0
    np.copyto(pair, near, where=t < 1.0)
    return pair


def _erfc_pair_beyond(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``_erfc_pair`` where some u is NaN or has u*u > MAXLOG: cephes
    answers those 0 or 2 (NaN for NaN) without evaluating, the rest go
    through ``_erfc_pair``.  No square overflows."""
    sq = np.minimum(t, 27.0)      # 27^2 > MAXLOG
    sq *= sq
    live = sq <= _MAXLOG
    out = np.empty((2, u.size))
    out[:, live] = _erfc_pair(u[live])
    rest = ~live
    out[0, rest] = np.where(u[rest] < 0.0, 2.0, 0.0)
    out[1, rest] = 2.0 - out[0, rest]
    out[:, np.isnan(u)] = np.nan
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
    if order not in (0, 1, 2):
        raise ValueError(f"order must be in 0..2, got {order}")
    return _chain_eval(K, _check_mask(mask, K), as_points(x, dim=K), order)


def _chain_eval(K: int, m: np.ndarray, x: np.ndarray, order: int) -> Derivatives:
    """``chain_eval`` on already validated masks and points.

    ``m`` is one mask, shape (K,), or a stack of masks whose leading shape
    broadcasts against the points': masks (n, K) at one point (K,) answer
    values (n,), gradients (n, K) and Hessians (n, K, K), one row per mask;
    masks (n, K) paired row by row with points (n, K) answer one row per
    pair; masks (n, 1, K) against points (P, K) answer (n, P) values, and so
    on.  The psi/phi tables are built once over the points, and every row
    equals the one-mask answer at its point bit for bit.
    """
    # psi/phi tables at +-x for all needed orders (psi over [x; -x], phi
    # over the pairs), cut into the factors of the terms k = 2..K:
    # psi(+-x_{k-1}), phi(+-x_k)
    xx = np.concatenate((x, -x), axis=-1)
    psi_xx, phi_pm = _psi_table(xx, order), _phi_table(x, order)
    ps, ns = psi_xx[..., :K - 1], psi_xx[..., K:-1]
    pf, nf = phi_pm[:, 0, ..., 1:], phi_pm[:, 1, ..., 1:]
    phi_1 = phi_pm[:, 0, ..., 0]  # phi(x_1) and its derivatives
    m0, m1 = m[..., 0], m[..., 1:]

    val = -m0 * phi_1[0]  # psi(1) = 1 exactly
    if K > 1:
        terms = m1 * (ns[0] * nf[0] - ps[0] * pf[0])
        val = val + terms.sum(axis=-1)
    shape = val.shape + (K,)  # the masks' and points' broadcast shape
    val = _as_value(val)
    if order == 0:
        return Derivatives(val)

    grad = np.zeros(shape)
    grad[..., 0] = -m0 * phi_1[1]
    if K > 1:
        # d/dx_{k-1}: -psi'(-x_{k-1}) phi(-x_k) - psi'(x_{k-1}) phi(x_k)
        grad[..., :-1] += m1 * (-ns[1] * nf[0] - ps[1] * pf[0])
        # d/dx_k:    -psi(-x_{k-1}) phi'(-x_k) - psi(x_{k-1}) phi'(x_k)
        grad[..., 1:] += m1 * (-ns[0] * nf[1] - ps[0] * pf[1])
    if order == 1:
        return Derivatives(val, grad)

    H = np.zeros(shape + (K,))
    # the diagonal, super- and sub-diagonal as strided views of flat H
    flat = H.reshape(shape[:-1] + (K * K,))
    diag = flat[..., ::K + 1]
    diag[..., 0] = -m0 * phi_1[2]
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
