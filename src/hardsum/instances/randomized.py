"""Static randomized hard instances and their on-disk basis format.

Each component lives in its own m-dimensional slot of the ambient space
(m = d / n), reached through an orthonormal map C_i, and inside the slot
evaluates the clamped chain objective through its own orthonormal block
B_i of a shared tall matrix B.  By default C is the identity partitioned
into n blocks; a Haar-random square C is available for experiments where
the slot alignment itself should be hidden.
"""
from __future__ import annotations

import struct
import warnings

import numpy as np

from ..chains import Derivatives, _hat_f, hat_f_eval
from ..linalg import (TallOrthogonal, as_points, as_rng, row_matvec,
                      sample_orthonormal_columns)
from ..oracle import FiniteSumFunction, _row_answers
from .params import HardInstanceSpec

__all__ = [
    "RandomizedHardInstance",
    "sample_randomized_instance",
    "save_b_matrix",
    "load_b_matrix",
]

_MAGIC = b"HSB1"
_HEADER = struct.Struct("<4sIII")  # magic, d, n, K  (16 bytes)


def save_b_matrix(path, B: TallOrthogonal, n: int, K: int) -> None:
    """Write a shared basis to disk: 16-byte header then row-major doubles.

    The header records the *ambient* dimension d = n * B.d so a reader can
    reconstruct the instance geometry without the spec.
    """
    if B.k != n * K:
        raise ValueError(f"B has {B.k} columns, expected n*K = {n * K}")
    d = n * B.d
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, d, n, K))
        fh.write(np.ascontiguousarray(B.columns, dtype="<f8").tobytes())


def load_b_matrix(path) -> tuple[TallOrthogonal, int, int]:
    """Read a basis written by :func:`save_b_matrix`; returns (B, n, K)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError("truncated header")
        magic, d, n, K = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}; not a basis file")
        if n == 0 or K == 0 or d % n != 0:
            raise ValueError(
                f"header dimensions inconsistent: d={d}, n={n}, K={K}")
        m = d // n
        body = fh.read()
    expected = m * n * K * 8
    if len(body) != expected:
        raise ValueError(f"basis payload has {len(body)} bytes, expected {expected}")
    cols = np.frombuffer(body, dtype="<f8").reshape(m, n * K).astype(float)
    return TallOrthogonal(cols), n, K


class RandomizedHardInstance(FiniteSumFunction):
    """Finite-sum objective built from per-component clamped chains.

    With ``scaled=True`` (the default) components carry the mode's scaling
    prefactor and argument rescale; ``scaled=False`` gives the raw template
    (prefactor 1, scale 1), which is what the verification battery probes.
    """

    def __init__(self, spec: HardInstanceSpec, B: TallOrthogonal,
                 C: TallOrthogonal | None = None, scaled: bool = True):
        if spec.mode == "deterministic":
            raise ValueError("randomized instance requires a randomized-mode spec")
        if spec.d % spec.n != 0:
            raise ValueError("d must be divisible by n")
        self.spec = spec
        self.n = spec.n
        self.d = spec.d
        self._m = spec.d // spec.n
        self._K = spec.K
        if B.d != self._m or B.k != spec.n * spec.K:
            raise ValueError(
                f"B must be {self._m} x {spec.n * spec.K}, got {B.d} x {B.k}")
        if C is not None and (C.d != spec.d or C.k != spec.d):
            raise ValueError("C must be a square d x d orthogonal matrix")
        self.B = B
        self.C = C
        self.scaled = scaled
        # per-component blocks (re-wrapped once so evaluation skips checks)
        self._blocks = [
            TallOrthogonal(np.ascontiguousarray(B.columns[:, i * spec.K:(i + 1) * spec.K]))
            for i in range(spec.n)
        ]
        # the blocks as the kernel pairs them with a (n, P, m) slot stack
        self._stacked_blocks = [(i, blk.columns)
                                for i, blk in enumerate(self._blocks)]
        if scaled:
            self._sigma = spec.sigma
            self._pref = spec.lam * spec.sigma ** (spec.p + 1)
            if spec.mode == "randomized-third-moment":
                self._pref *= spec.n ** (1.0 / 3.0)
        else:
            self._sigma = 1.0
            self._pref = 1.0

    def unscaled_view(self) -> "RandomizedHardInstance":
        """The same geometry with prefactor and argument scale stripped."""
        return RandomizedHardInstance(self.spec, self.B, self.C, scaled=False)

    def _slot(self, i: int, x: np.ndarray) -> np.ndarray:
        if self.C is None:
            return x[..., i * self._m:(i + 1) * self._m]
        return row_matvec(self.C.columns[:, i * self._m:(i + 1) * self._m].T, x)

    def embed(self, i: int, v: np.ndarray) -> np.ndarray:
        """The ambient d-vector C_i v that places the m-vector v in slot i
        (with C the identity, v written into coordinates i*m..(i+1)*m-1);
        a stack of m-vectors gives a stack of d-vectors."""
        if self.C is None:
            out = np.zeros(v.shape[:-1] + (self.d,))
            out[..., i * self._m:(i + 1) * self._m] = v
            return out
        return row_matvec(self.C.columns[:, i * self._m:(i + 1) * self._m], v)

    def _unslot_hess(self, i: int, H: np.ndarray) -> np.ndarray:
        if self.C is None:
            out = np.zeros(H.shape[:-2] + (self.d, self.d))
            s = slice(i * self._m, (i + 1) * self._m)
            out[..., s, s] = H
        else:
            Ci = self.C.columns[:, i * self._m:(i + 1) * self._m]
            out = Ci @ H @ Ci.T
        return out

    def component(self, i: int, x, order: int = 2) -> Derivatives:
        """Component i at one point, or at every point of a stack in one
        batched :func:`hat_f_eval` call."""
        i = self.check_index(i)
        x = as_points(x, dim=self.d)
        y = self._slot(i, x) / self._sigma
        return self._scaled(i, hat_f_eval(self._K, self._blocks[i], y, order),
                            order)

    def _answers(self, x: np.ndarray, order: int):
        """At a stack of points, every component in one clamped-chain
        evaluation: the n slots are stacked as (n, P, m) and answered by
        the one kernel behind :func:`hat_f_eval`, each row equal to
        :meth:`component`'s bit for bit."""
        if x.ndim == 1:
            return super()._answers(x, order)
        y = np.stack([self._slot(i, x) for i in range(self.n)]) / self._sigma
        base = _hat_f(self._K, self._stacked_blocks, y, order)
        return (self._scaled(i, der, order)
                for i, der in enumerate(_row_answers(base, order)))

    def _scaled(self, i: int, base: Derivatives, order: int) -> Derivatives:
        """Component i's answer from the clamped chain's answer at its
        slot: the prefactor and argument scale applied, the slot embedded
        in the ambient space."""
        val = self._pref * base.value
        if order == 0:
            return Derivatives(val)
        grad = self.embed(i, (self._pref / self._sigma) * base.grad)
        if order == 1:
            return Derivatives(val, grad)
        hess = self._unslot_hess(i, (self._pref / self._sigma ** 2) * base.hess)
        return Derivatives(val, grad, hess)


def sample_randomized_instance(spec: HardInstanceSpec, seed,
                               haar_c: bool = False) -> RandomizedHardInstance:
    """Draw the shared basis (and optionally a Haar square C) for a spec.

    Deterministic in the seed.  Warns (once) when the requested ambient
    dimension falls short of the high-probability guarantee threshold.
    """
    rng = as_rng(seed)
    m = spec.d // spec.n
    B = sample_orthonormal_columns(m, spec.n * spec.K, rng)
    C = sample_orthonormal_columns(spec.d, spec.d, rng) if haar_c else None
    if spec.d_required is not None and spec.d < spec.d_required:
        warnings.warn(
            f"d = {spec.d} is below the guarantee threshold "
            f"{spec.d_required:.3g}; the instance is still valid but the "
            "high-probability hardness argument does not apply",
            stacklevel=2)
    return RandomizedHardInstance(spec, B, C)
