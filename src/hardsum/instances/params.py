"""Closed-form scaling calculators for the hard instances.

Given a smoothness level L, an initial optimality gap Delta and a target
accuracy eps, these produce the scaling bundle (lambda, sigma, K, d): lambda
controls the smoothness of the scaled instance, sigma the gradient-norm
floor, and K -- the chain length -- is the largest value compatible with the
gap.  Refusal (chain too short) raises :class:`InstanceTooSmallError`
carrying the smallest workable Delta.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ..oracle import _count, _integer

__all__ = [
    "ell_p",
    "HardInstanceSpec",
    "InstanceTooSmallError",
    "deterministic_params",
    "randomized_params",
    "lemma_d_requirement",
]

MODES = ("deterministic", "randomized-individual", "randomized-third-moment")


def ell_p(p: int) -> float:
    """Explicit smoothness constant of the order-p chain derivatives:
    2^(p+1) * exp(2.5 p + log p + 4 p + 10)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return 2.0 ** (p + 1) * math.exp(2.5 * p + math.log(p) + 4.0 * p + 10.0)


class InstanceTooSmallError(ValueError):
    """The requested (Delta, L, eps) combination yields an empty chain."""

    def __init__(self, msg: str, min_delta: float):
        super().__init__(msg)
        self.min_delta = min_delta


@dataclass(frozen=True)
class HardInstanceSpec:
    """The scaling bundle shared by all hard-instance constructions.

    Every instance is built from one, so it checks the geometry, from
    :meth:`from_dict` too: p, n, K and d are ints of at least one, the
    adversary's game has n >= 2 components, and R^d holds its K + 1
    directions or n slots of d/n >= nK columns.
    """

    mode: str
    p: int
    n: int
    Delta: float
    L: float
    eps: float
    lam: float
    sigma: float
    K: int
    d: int
    ell: float
    #: informational only -- the dimension the high-probability analysis
    #: would demand (astronomical at desk scale); see lemma_d_requirement
    d_required: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("p", "n", "K", "d"):
            size = _count(getattr(self, name), name, 1)
            object.__setattr__(self, name, size)
        if not (self.sigma > 0 and self.lam > 0):
            raise ValueError("sigma and lambda must be positive")
        n, K, d = self.n, self.K, self.d
        if self.mode == "deterministic":
            if n < 2:
                raise ValueError(f"a deterministic game needs n >= 2, got "
                                 f"n = {n}: no component would carry the "
                                 "chain terms of rounds after the first")
            if d < K + 1:
                raise ValueError("d must be at least K + 1")
        elif d % n != 0:
            raise ValueError(f"d = {d} must be divisible by n = {n}")
        elif d // n < n * K:
            raise ValueError(f"d/n = {d // n} too small to draw {n * K} "
                             "orthonormal columns")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "HardInstanceSpec":
        return cls(**payload)


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")


def _real_count(name: str, formula) -> float:
    """``formula()``, the real value of a count before it is rounded;
    ValueError naming the count when it leaves the float range."""
    try:
        value = formula()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} = {value} is beyond the float range "
                         "(eps too small or Delta too large)")
    return value


#: the failure probability :func:`lemma_d_requirement` sizes the dimension for
_FAIL_PROB = 0.1


def lemma_d_requirement(n: int, K: int) -> float:
    """Dimension the high-probability small-inner-product argument asks for:
    n^3 K^2 * log(n^2 K^2 / fail_prob), with fail_prob = 0.1.

    The analysis leaves the leading constant unspecified; it is taken as 1,
    and the requirement is only ever reported as a warning, never enforced.
    """
    return n ** 3 * K ** 2 * math.log(n ** 2 * K ** 2 / _FAIL_PROB)


def deterministic_params(p: int, n: int, Delta: float, L: float, eps: float,
                         budget: int | None = None) -> HardInstanceSpec:
    """Scalings for the adaptive (resisting-oracle) construction.

    K + 1 = floor( (Delta/192) (L/ell_p)^(1/p) eps^(-(p+1)/p) ),
    lambda = L / ell_p,  sigma = (4 eps ell_p / L)^(1/p).

    The ambient dimension must dominate the chain length plus however many
    iterates the game will archive (each one constrains the adversary's
    remaining directions), so d = K + 1 + budget with a generous default
    budget of 2 n (K + 2) queries.
    """
    p, n = _integer(p, "p"), _integer(n, "n")
    _check_positive(p=p, n=n, Delta=Delta, L=L, eps=eps)
    ell = ell_p(p)
    lam = L / ell
    sigma = (4.0 * eps * ell / L) ** (1.0 / p)
    k_plus_1 = math.floor(_real_count("the chain length K + 1", lambda: (
        (Delta / 192.0) * (L / ell) ** (1.0 / p) * eps ** (-(p + 1.0) / p))))
    if k_plus_1 < 2:
        min_delta = 2.0 * 192.0 * (ell / L) ** (1.0 / p) * eps ** ((p + 1.0) / p)
        raise InstanceTooSmallError(
            f"chain would be empty (K+1 = {k_plus_1} < 2); "
            f"smallest workable Delta is {min_delta:.6g}", min_delta)
    K = k_plus_1 - 1
    budget = 2 * n * (K + 2) if budget is None else _count(budget, "budget")
    d = K + 1 + budget
    return HardInstanceSpec(mode="deterministic", p=p, n=n, Delta=Delta, L=L,
                            eps=eps, lam=lam, sigma=sigma, K=K, d=d, ell=ell)


def randomized_params(mode: str, p: int, n: int, Delta: float, L: float,
                      eps: float, ell_hat: float | None = None,
                      d: int | None = None) -> HardInstanceSpec:
    """Scalings for the randomized hard distribution.

    mode "randomized-individual" (any p >= 1):
        K = floor( (Delta/192) (L/ell_hat)^(1/p) n^(-(p+1)/(2p)) eps^(-(p+1)/p) )
        sigma = (4 sqrt(n) eps ell_hat / L)^(1/p),   lambda = L / ell_hat

    mode "randomized-third-moment" (p = 2 only):
        K = floor( (Delta / (96 n^(7/12))) (L/ell_hat)^(1/2) eps^(-3/2) )
        sigma = (4 eps ell_hat n^(1/6) / L)^(1/2),   lambda = L / ell_hat

    ell_hat is the smoothness constant of the unscaled clamped-chain block,
    which the underlying analysis does not make explicit; when omitted it is
    estimated empirically (times a 1.5 safety factor) by the verification
    module.  The default ambient dimension is the smallest legal one,
    d = n^2 K (d divisible by n with d/n >= nK columns to draw).
    """
    p, n = _integer(p, "p"), _integer(n, "n")
    _check_positive(p=p, n=n, Delta=Delta, L=L, eps=eps)
    if mode not in ("randomized-individual", "randomized-third-moment"):
        raise ValueError(f"unknown randomized mode {mode!r}")
    if mode == "randomized-third-moment" and p != 2:
        raise ValueError("third-moment mode is defined for p = 2")
    if ell_hat is None:
        from ..verify import default_ell_hat  # lazy: avoids an import cycle
        ell_hat = default_ell_hat(p)
    _check_positive(ell_hat=ell_hat)

    lam = L / ell_hat
    if mode == "randomized-individual":
        sigma = (4.0 * math.sqrt(n) * eps * ell_hat / L) ** (1.0 / p)
        K = math.floor(_real_count("the chain length K", lambda: (
            (Delta / 192.0) * (L / ell_hat) ** (1.0 / p)
            * n ** (-(p + 1.0) / (2.0 * p)) * eps ** (-(p + 1.0) / p))))
        min_delta = 192.0 * (ell_hat / L) ** (1.0 / p) \
            * n ** ((p + 1.0) / (2.0 * p)) * eps ** ((p + 1.0) / p)
    else:
        sigma = math.sqrt(4.0 * eps * ell_hat * n ** (1.0 / 6.0) / L)
        K = math.floor(_real_count("the chain length K", lambda: (
            (Delta / (96.0 * n ** (7.0 / 12.0)))
            * math.sqrt(L / ell_hat) * eps ** -1.5)))
        min_delta = 96.0 * n ** (7.0 / 12.0) * math.sqrt(ell_hat / L) * eps ** 1.5
    if K < 1:
        raise InstanceTooSmallError(
            f"chain would be empty (K = {K} < 1); "
            f"smallest workable Delta is {min_delta:.6g}", min_delta)

    if d is None:
        d = n * n * K
    d_req = lemma_d_requirement(n, K)
    return HardInstanceSpec(mode=mode, p=p, n=n, Delta=Delta, L=L, eps=eps,
                            lam=lam, sigma=sigma, K=K, d=d, ell=ell_hat,
                            d_required=d_req)
