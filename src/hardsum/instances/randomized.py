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

from ..chains import Derivatives, _hat_f
from ..linalg import (TallOrthogonal, as_rng, row_matvec,
                      sample_orthonormal_columns)
from ..oracle import FiniteSumFunction
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
        # component i's K columns of B at [i], copied contiguous once
        self._cols = np.ascontiguousarray(
            B.columns.reshape(self._m, spec.n, spec.K).swapaxes(0, 1))
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

    def _placement(self, i) -> tuple:
        """Where component i (an index) sits: the index of its m-block in an
        array of shape lead + (n, m), and C's columns of its slot (None when
        C is the identity).  With i = slice(None), every component, component
        k in row k of a leading axis of n."""
        C = None if self.C is None else self._C_slots[i]
        if isinstance(i, slice):
            k = np.arange(self.n)
            return (k, ..., k, slice(None)), None if C is None else C[:, None]
        return (..., i, slice(None)), C

    def _slot(self, i, x: np.ndarray) -> np.ndarray:
        """Slot i of x, an m-vector per point; with i = slice(None), every
        slot of a stack of P points, shape (n, P, m) (with C the identity,
        views of x)."""
        at, C = self._placement(i)
        if C is not None:
            return row_matvec(C.swapaxes(-1, -2), x)
        blocks = x.reshape(x.shape[:-1] + (self.n, self._m))
        return blocks.swapaxes(0, 1) if isinstance(i, slice) else blocks[at]

    @property
    def _C_slots(self) -> np.ndarray:
        """C's columns of slot i at [i], shape (n, d, m): views of C."""
        return self.C.columns.reshape(self.d, self.n, self._m).swapaxes(0, 1)

    def embed(self, i: int, v: np.ndarray) -> np.ndarray:
        """The ambient d-vector C_i v that places the m-vector v in slot i
        (with C the identity, v written into coordinates i*m..(i+1)*m-1);
        a stack of m-vectors gives a stack of d-vectors, and with
        i = slice(None) row k of a stack (n, ..., m) goes to slot k."""
        at, C = self._placement(i)
        if C is not None:
            return row_matvec(C, v)
        out = np.zeros(v.shape[:-1] + (self.d,))
        out.reshape(v.shape[:-1] + (self.n, self._m))[at] = v
        return out

    # bound here, not inherited, for the benchmark's tracer to patch
    component = FiniteSumFunction.component

    def _answers(self, x: np.ndarray, order: int):
        """Every component at one point, one answer each as they are
        consumed; at a stack of points, one stack in one evaluation."""
        return (super()._answers(x, order) if x.ndim == 1
                else self._evaluate(slice(None), x, order))

    def _evaluate(self, i, x: np.ndarray, order: int) -> Derivatives:
        """Component i (an index) at x (a point or a stack of points), or,
        with i = slice(None), every component at a stack of P points as one
        stack, rows in component order: values (n, P), gradients (n, P, d)
        and Hessians (n, P, d, d).  Either way the slots go to the one
        kernel behind :func:`hat_f_eval` in one call, so each row of the
        stack equals its component's answer bit for bit."""
        # C order: the slots of a stack, read as strided views, are laid out
        # component by component
        y = np.divide(self._slot(i, x), self._sigma, order="C")
        base = _hat_f(self._K, self._cols[i], y, order)
        val = self._pref * base.value
        if order == 0:
            return Derivatives(val)
        grad = self.embed(i, (self._pref / self._sigma) * base.grad)
        if order == 1:
            return Derivatives(val, grad)
        H = (self._pref / self._sigma ** 2) * base.hess
        at, C = self._placement(i)
        if C is not None:
            return Derivatives(val, grad, C @ H @ C.swapaxes(-1, -2))
        lead = H.shape[:-2]
        hess = np.zeros(lead + (self.d, self.d))
        hess.reshape(lead + (self.n, self._m) * 2)[at + at[-2:]] = H
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
