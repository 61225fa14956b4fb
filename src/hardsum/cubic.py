"""Exact solver for the cubic-regularized model subproblem

    minimize_h  <v, h> + 0.5 <U h, h> + (M/6) |h|^3.

Strategy: eigendecompose U on a subspace that holds the minimizer and solve
the scalar secular equation in the step length.  The stationarity system is
(U + (M/2) s I) h = -v with s = |h|, which pins s as the root of

    phi(s) = | (U + (M/2) s I)^{-1} v |  -  s,

strictly decreasing on s > s0 = max(0, -2 lmin / M).  Two numerical points
matter:

* the root is found in the shifted variable u = s - s0, so the denominators
  (lj - lmin) + (M/2) u are computed without cancellation and the root is
  resolved to full relative precision even when it sits arbitrarily close to
  the pole (near-hard case);
* when v has (numerically) no component in the bottom eigenspace and the
  interior solution at s0 is short, the minimizer picks up a boundary
  component along the bottom eigenvector (the hard case).

The subspace is picked from U's form (``linalg._subspace_holding``):

* a dense U is eigendecomposed in the whole space;
* a factored U = V S V^T (``linalg._Factored``, the form of every
  resisting-oracle Hessian) acts only inside span(V) and is zero outside
  it, so the minimizer lies in span(V, v), and the eigenpairs of S, padded
  with a zero row and column when v leaves span(V), give it there.  A
  factored U is never lifted to a d x d matrix.

The three optimality conditions -- zero stationarity residual, positive
semidefiniteness of the shifted Hessian, and model decrease of at least
(M/12)|h|^3 -- are asserted after every solve, not merely hoped for.

The secular root is found by Newton's iteration on the reciprocal form
1/|h(u)| - 1/(s0 + u), which is concave and increasing in u, so that the
iterates climb to the root from below without overshooting (More and
Sorensen, "Computing a trust region step", 1983; Cartis, Gould and Toint,
"Adaptive cubic regularisation methods", Part I, 2011).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _norm, _subspace_holding, as_vector, eig_sym, sym_matrix

__all__ = ["CubicModel", "CubicSolution", "solve", "model_value"]

# v components below this (relative) size in the bottom eigenspace are
# treated as zero when classifying the hard case; the neglected mass shows up
# in the stationarity residual and stays far below the default tolerance.
_HARD_CASE_TOL = 1e-13

# Newton's iteration for the secular root stops once a step is at most
# rtol u, four machine epsilons of the root.
_ROOT_RTOL = 8.9e-16
_ROOT_MAXITER = 200

# a model whose length scale (_length_scale) exceeds this is solved and
# checked in units of the power of two above its scale (_unit).  As given,
# the checks' absolute tolerances fail most models with |lmin| near 1 from a
# scale of about 2e6 on; the test suite's models stay below 31 and keep
# their bits.
_SCALE_MAX = 2.0 ** 16


def _check_penalty(M) -> None:
    """The check of a cubic penalty M wherever one enters: positive and
    finite, else ValueError."""
    if not 0 < M < math.inf:
        raise ValueError("M must be positive and finite")


@dataclass(frozen=True)
class CubicModel:
    """Gradient estimate v, Hessian estimate U (dense, or factored as
    V S V^T), cubic penalty M, positive and finite."""

    v: np.ndarray
    U: np.ndarray
    M: float

    def __post_init__(self):
        object.__setattr__(self, "v", as_vector(self.v))
        object.__setattr__(self, "U", sym_matrix(self.U))
        if self.U.shape[0] != self.v.shape[0]:
            raise ValueError("v and U dimensions disagree")
        _check_penalty(self.M)


@dataclass(frozen=True)
class CubicSolution:
    h: np.ndarray = field(repr=False)
    s: float                  # |h|
    stationarity: float       # |v + U h + (M/2)|h| h|
    model_val: float          # value of the model at h


def model_value(model: CubicModel, h) -> float:
    """<v,h> + 0.5 h^T U h + (M/6)|h|^3, evaluated exactly as written."""
    h = as_vector(h, dim=model.v.shape[0])
    return float(model.v @ h + 0.5 * h @ (model.U @ h)
                 + model.M / 6.0 * _norm(h) ** 3)


def _length_scale(lmin: float, norm_v: float, M: float):
    """s0 = max(0, -2 lmin / M), the step length below which the shifted
    Hessian is indefinite, and the step's length scale max(1, s0,
    sqrt(2 |v| / M))."""
    s0 = max(0.0, -2.0 * lmin / M)
    q = 2.0 * norm_v / M
    root = (math.sqrt(q) if q < math.inf
            else math.sqrt(2.0) * math.sqrt(norm_v) / math.sqrt(M))
    return s0, max(1.0, s0, root)


def _unit(lmin: float, norm_v: float, M: float) -> float:
    """The power of two c a model is solved in units of: 1 while its length
    scale is at most ``_SCALE_MAX`` (or not finite, which
    :func:`_secular_coords` refuses), else the smallest one above the scale.

    The model is covariant under h = c g: m(c g) / c^2 is its twin
    (v / c, U, M c) in g, whose length scale is 1; a power of two
    rescales exactly.
    """
    scale = _length_scale(lmin, norm_v, M)[1]
    if scale <= _SCALE_MAX or not math.isfinite(scale):
        return 1.0
    return math.ldexp(1.0, math.frexp(scale)[1])


def _secular_coords(lam, w, norm_v: float, M: float) -> np.ndarray:
    """The minimizer's coordinates in an eigenbasis: lam holds the
    eigenvalues (ascending) and w the coordinates of v in that basis."""
    lmin = float(lam[0])
    half_m = M / 2.0

    # the search for the secular root starts from the step's length scale
    s0, scale = _length_scale(lmin, norm_v, M)
    if not math.isfinite(scale):
        raise ArithmeticError("the step's length scale overflows")
    # cancellation-free shifted spectrum: d_j(u) = shift_j + (M/2) u with
    # shift_j = lam_j - lmin (>= 0) when lmin < 0, else lam_j itself
    shift = (lam - lmin) if lmin < 0 else lam.copy()

    bottom = shift <= _HARD_CASE_TOL * max(1.0, abs(lmin))
    interior = ~bottom
    w_bot = _norm(w[bottom])
    L0 = _norm(w[interior] / shift[interior])

    def hard_case_coords() -> np.ndarray:
        # interior part at the pole plus a boundary component along the
        # bottom eigenvector to stretch the step to length s0
        y = np.zeros_like(w)
        y[interior] = -w[interior] / shift[interior]
        if bottom.any() and L0 < s0:
            y[np.argmax(bottom)] += s0 * math.sqrt(1.0 - (L0 / s0) ** 2)
        return y

    if w_bot <= _HARD_CASE_TOL * (1.0 + norm_v) and L0 <= s0:
        return hard_case_coords()

    def norm_at(u: float):
        d = shift + half_m * u
        y = w / d
        return d, y, math.hypot(*y)

    # easy case (u > 0, so every d_j(u) > 0 and the step is -y): probe down
    # from the length scale for a u below the root of |h(u)| = s0 + u
    u = 1e-3 * scale
    d, y, h = norm_at(u)
    while h <= s0 + u:
        u *= 1e-2
        if u < 1e-290:
            # root collapses onto the pole: treat as (near-)hard case
            return hard_case_coords()
        d, y, h = norm_at(u)
    # Newton's iteration on psi(u) = 1/|h(u)| - 1/(s0 + u), which is concave
    # and increasing, so it climbs to the root without overshooting.  With
    # t = s0 + u and e = y / h, the step -psi/psi' is written scale-free: no
    # power of h or u leaves the float range
    for _ in range(_ROOT_MAXITER):
        t = s0 + u
        e = y / h
        step = (h - t) / (h / t + t * half_m * float(e @ (e / d)))
        u += step
        d, y, h = norm_at(u)
        if step <= _ROOT_RTOL * u or h <= s0 + u:
            # the root, to rounding
            return -y
    raise ArithmeticError(
        f"secular root did not converge in {_ROOT_MAXITER} iterations")


def _certified(model: CubicModel, h: np.ndarray, lmin: float,
               norm_v: float) -> CubicSolution:
    """The solution h, after the three optimality checks; lmin is the
    smallest eigenvalue of U.  The decrease check allows rounding at the
    scale of m(h), which meets its guarantee in the hard case."""
    tol = 1e-10 * (1.0 + norm_v)
    v, U, M = model.v, model.U, model.M
    half_m = M / 2.0
    s_actual = _norm(h)
    Uh = U @ h
    stationarity = _norm(v + Uh + half_m * s_actual * h)
    m_val = float(v @ h + 0.5 * h @ Uh + M / 6.0 * s_actual ** 3)

    if stationarity > tol:
        raise ArithmeticError(
            f"stationarity residual {stationarity:.3e} exceeds tolerance")
    eig_slack = lmin + half_m * s_actual
    if eig_slack < -tol:
        raise ArithmeticError(
            f"shifted Hessian not PSD: slack {eig_slack:.3e}")
    if m_val > -(M / 12.0) * s_actual ** 3 + tol + 1e-10 * abs(m_val):
        raise ArithmeticError(
            f"model value {m_val:.3e} above the decrease guarantee")
    return CubicSolution(h=h, s=s_actual, stationarity=stationarity,
                         model_val=m_val)


def solve(model: CubicModel) -> CubicSolution:
    """Global minimizer of the cubic model, with certified residuals.

    A model whose length scale exceeds ``_SCALE_MAX`` is solved as its twin
    in units of a power of two near that scale (see :func:`_unit`), where
    the tolerances below apply, and scaled back.

    Raises ``np.linalg.LinAlgError`` if an eigendecomposition fails and
    ``ArithmeticError`` if |v| or the step's length scale overflows, or if
    the optimality conditions cannot be met within 1e-10 (1 + |v|) (which
    would indicate a solver bug, not a property of the model: the
    subproblem always has a global minimizer).
    """
    v, M = model.v, model.M
    norm_v = _norm(v)
    if not math.isfinite(norm_v):
        raise ArithmeticError("|v| overflows")

    Q, T = _subspace_holding(model.U, v)
    lam, Z = eig_sym(T)
    unit = _unit(float(lam[0]), norm_v, M)
    if unit != 1.0:
        sol = solve(CubicModel(v / unit, model.U, M * unit))
        return CubicSolution(h=unit * sol.h, s=unit * sol.s,
                             stationarity=unit * sol.stationarity,
                             model_val=sol.model_val * unit * unit)
    lmin = float(lam[0])
    if Q is None:
        h = Z @ _secular_coords(lam, Z.T @ v, norm_v, M)
    else:  # U is zero outside span(Q): its spectrum is T's plus d - k zeros
        h = Q @ (Z @ _secular_coords(lam, Z.T @ (Q.T @ v), norm_v, M))
        lmin = lmin if Q.shape[1] == v.size else min(lmin, 0.0)
    return _certified(model, h, lmin, norm_v)
