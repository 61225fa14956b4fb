"""Property checks: derivative correctness, the zero-chain property,
empirical smoothness constants, estimator deviation bounds, gradient floors
and suboptimality gaps.

Every check returns a small report object (JSON-serializable; ``to_dict``
keeps the dataclass field order) rather than raising, so a battery run can aggregate pass/fail/skip
statuses.  All sampling is seed-deterministic, and sample streams are
prefix-extendable: growing the sample count keeps the earlier samples.

Relative errors throughout are :func:`hardsum.linalg.rel_err`.
"""
from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .chains import Derivatives, chain_eval, hat_f_eval
from .instances.params import HardInstanceSpec, randomized_params
from .instances.randomized import (RandomizedHardInstance,
                                   sample_randomized_instance)
from .instances.resisting import ResistingCertificate, ResistingOracle
from .linalg import (_richardson_combine, _stencil_points, as_points, as_rng,
                     as_vector, rel_err, row_dot, sample_orthonormal_columns)
from .oracle import (CallableFiniteSum, FiniteSumFunction, OracleLedger,
                     quadratic_cosine_sum)
from .optim import (SvrcParams, _draw_batches, _gradient_estimate,
                    _hessian_estimate, svrc_gradient_estimator,
                    svrc_hessian_estimator)

__all__ = [
    "DerivativeCheckReport",
    "ZeroChainReport",
    "SmoothnessReport",
    "EstimatorBoundsReport",
    "LargeGradientReport",
    "SuboptimalityReport",
    "BatteryCheck",
    "check_derivatives",
    "check_zero_chain",
    "estimate_smoothness",
    "verify_estimator_bounds",
    "verify_large_gradient",
    "verify_suboptimality",
    "default_ell_hat",
    "run_battery",
]


def _int_seed(seed) -> int | None:
    """An integer seed (a Python or numpy integer) as a Python int; None
    for a generator or seed sequence."""
    try:
        return operator.index(seed)
    except TypeError:
        return None


class _Report:
    """Reports serialize their dataclass fields, in declaration order."""

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# derivative checks


@dataclass(frozen=True)
class DerivativeCheckReport(_Report):
    passed: bool
    max_rel_err: float
    tol: float
    num_points: int
    worst: dict = field(default_factory=dict)


def check_derivatives(F: FiniteSumFunction, num_points: int, tol: float,
                      seed=0) -> DerivativeCheckReport:
    """Analytic gradients/Hessians of every component against central
    differences at ``num_points`` random points per component.

    Gradients are differenced from values; Hessians are differenced from the
    analytic gradient (a value-based second difference would drown in noise
    wherever third derivatives are large, as they are for the chain bumps).
    Each component answers the whole stencil around a point in one stacked
    call per order, so ``F.component`` must answer stacks of points.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    rng = as_rng(seed)
    scales = (0.25, 0.5, 1.0, 2.0)
    worst = {"rel_err": 0.0}
    for t in range(num_points):
        x = rng.standard_normal(F.d) * scales[t % len(scales)]
        stencil, h = _stencil_points(x, None)
        for i in range(F.n):
            der = F.component(i, x, order=2)
            g_fd = _richardson_combine(F.component(i, stencil, 0).value, h)
            e_g = rel_err(der.grad, g_fd)
            H_fd = _richardson_combine(F.component(i, stencil, 1).grad, h)
            e_h = rel_err(der.hess, H_fd)
            err, which = max((e_g, "grad"), (e_h, "hess"))
            if err > worst["rel_err"]:
                worst = {"rel_err": float(err), "component": i,
                         "point_index": t, "which": which}
    return DerivativeCheckReport(
        passed=bool(worst["rel_err"] <= tol),
        max_rel_err=float(worst["rel_err"]), tol=tol,
        num_points=num_points, worst=worst)


@dataclass(frozen=True)
class ZeroChainReport(_Report):
    passed: bool
    K: int
    num_samples: int
    checked: int
    skipped: int
    max_partial: float
    max_value_change: float


#: the largest partial or value change :func:`check_zero_chain` passes
_ZERO_CHAIN_TOL = 1e-12


def check_zero_chain(K: int, num_samples: int, seed=0) -> ZeroChainReport:
    """One-coordinate-per-round discovery: if all coordinates from position m
    on are below 1/2 in magnitude, the chain has no partial derivative beyond
    position m+1 and zeroing everything beyond m+1 leaves the value unchanged.

    Trials whose sampled prefix covers the whole chain are vacuous and
    counted as skipped.  The samples are drawn first and the chain is then
    evaluated at all of them in one stacked call per order.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    rng = as_rng(seed)
    mask = np.ones(K)
    prefixes, points = [], []
    for _ in range(num_samples):
        m = int(rng.integers(0, K + 1))  # length of the "discovered" prefix
        x = rng.uniform(-0.45, 0.45, size=K)
        x[:m] = rng.uniform(-2.5, 2.5, size=m)
        if m < K:
            prefixes.append(m)
            points.append(x)
    checked = len(points)
    skipped = num_samples - checked
    max_partial = max_change = 0.0
    if checked:
        # coordinates m+1..K-1 of each sample: beyond the next one in line
        beyond = np.arange(K) > np.array(prefixes)[:, None]
        x = np.array(points)
        der = chain_eval(K, mask, x, order=1)
        val_zeroed = chain_eval(K, mask, np.where(beyond, 0.0, x), 0).value
        max_partial = float(np.abs(np.where(beyond, der.grad, 0.0)).max())
        max_change = float(np.abs(der.value - val_zeroed).max())
    return ZeroChainReport(
        passed=bool(max_partial <= _ZERO_CHAIN_TOL
                    and max_change <= _ZERO_CHAIN_TOL),
        K=K, num_samples=num_samples, checked=checked, skipped=skipped,
        max_partial=max_partial, max_value_change=max_change)


# ---------------------------------------------------------------------------
# smoothness estimation

_SMOOTHNESS_MODES = ("individual", "mean-squared", "third-moment")
_PAIR_SCHEME = ("cycled kinds: global / local 1e-3 / local 1e-1 / local 1 / "
                "collinear ray / coordinate block")


@dataclass(frozen=True)
class SmoothnessReport(_Report):
    """Empirical smoothness constant: the max observed difference ratio.

    This is a lower bound on the true constant -- sampling can only exhibit,
    never certify.  Consumers that need an upper-bound-style default should
    apply a safety factor (see :func:`default_ell_hat`).
    """

    mode: str
    constant: float
    num_pairs: int
    scheme: str = field(default=_PAIR_SCHEME, init=False)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in _SMOOTHNESS_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.constant < 0:
            raise ValueError("constant must be non-negative")


def _pair_stream(d: int, num_pairs: int, rng):
    """Deterministic, prefix-extendable (x, y) pairs mixing global draws,
    local perturbations at three length scales, far collinear ray pairs and
    coordinate-block perturbations."""
    kinds = ("global", "loc-3", "loc-1", "loc0", "ray", "block")
    for t in range(num_pairs):
        # draw the same fields every iteration so prefixes are stable
        base = rng.standard_normal(d) * 2.0
        other = rng.standard_normal(d) * 2.0
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        radius = rng.uniform(1.0, 8.0)
        start = int(rng.integers(0, d))
        width = int(2 ** rng.integers(0, max(1, int(math.log2(d)) + 1)))
        kind = kinds[t % len(kinds)]
        if kind == "global":
            yield base, other
        elif kind.startswith("loc"):
            dist = {"loc-3": 1e-3, "loc-1": 1e-1, "loc0": 1.0}[kind]
            yield base, base + dist * u
        elif kind == "ray":
            x = radius * u
            yield x, x + 0.5 * u
        else:  # block: perturb a contiguous window of coordinates
            delta = np.zeros(d)
            stop = min(d, start + width)
            delta[start:stop] = u[start:stop]
            nrm = np.linalg.norm(delta)
            if nrm == 0.0:
                delta[start % d] = 1.0
                nrm = 1.0
            yield base, base + 0.3 * delta / nrm


def _op_norm(A: np.ndarray):
    """Operator norm of the symmetric part of one matrix, or of each matrix
    of a stack (one stacked ``eigvalsh``)."""
    sym = 0.5 * (A + np.swapaxes(A, -1, -2))
    return np.abs(np.linalg.eigvalsh(sym)).max(axis=-1)


def estimate_smoothness(F: FiniteSumFunction, mode: str, num_pairs: int,
                        seed=0) -> SmoothnessReport:
    """Max difference ratio over sampled pairs.

    individual:    max_i ||hess f_i(x) - hess f_i(y)|| / ||x - y||
    mean-squared:  sqrt(mean_i ||grad f_i(x) - grad f_i(y)||^2) / ||x - y||
    third-moment:  (mean_i ||hess f_i(x) - hess f_i(y)||^3)^(1/3) / ||x - y||

    Matrix norms are operator norms.  For a fixed seed the pair stream is
    prefix-extendable, so the estimate is monotone in ``num_pairs``.  Each
    component is evaluated once at the stack of all x's and once at the
    stack of all y's, so ``F.component`` must answer stacks of points.
    """
    if mode not in _SMOOTHNESS_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    rng = as_rng(seed)
    order = 1 if mode == "mean-squared" else 2
    pairs = list(_pair_stream(F.d, num_pairs, rng))
    xs = np.array([x for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    # per component, one call at all x's and one at all y's; the pair
    # stream is never stacked across components, so memory stays at one
    # component's answers
    if mode == "mean-squared":
        acc = np.zeros(num_pairs)
        for i in range(F.n):
            dg = F.component(i, xs, order).grad - F.component(i, ys, order).grad
            acc += row_dot(dg, dg)
    else:
        norms = np.empty((num_pairs, F.n))
        for i in range(F.n):
            dH = F.component(i, xs, order).hess - F.component(i, ys, order).hess
            norms[:, i] = _op_norm(dH)
    best = 0.0
    for k, (x, y) in enumerate(pairs):
        dist = float(np.linalg.norm(x - y))
        if dist == 0.0:
            continue
        if mode == "mean-squared":
            ratio = math.sqrt(acc[k] / F.n) / dist
        elif mode == "individual":
            ratio = float(norms[k].max()) / dist
        else:
            ratio = float((norms[k] ** 3).mean()) ** (1.0 / 3.0) / dist
        best = max(best, ratio)
    int_seed = _int_seed(seed)
    return SmoothnessReport(mode=mode, constant=best, num_pairs=num_pairs,
                            seed=0 if int_seed is None else int_seed)


@lru_cache(maxsize=8)
def default_ell_hat(p: int) -> float:
    """Empirical smoothness constant of the unscaled clamped-chain block,
    times a 1.5 safety factor.

    The underlying analysis never makes this constant explicit (only the
    un-clamped chain's enormous closed-form bound), so instance scalings
    default to this estimate.  Probe: a fixed single-component instance with
    K = 2, measured over a fixed pair stream.
    """
    if p not in (1, 2):
        raise ValueError("ell_hat estimation supports p in {1, 2}; "
                         "pass ell_hat explicitly for higher orders")
    spec = HardInstanceSpec(mode="randomized-individual", p=p, n=1,
                            Delta=1.0, L=1.0, eps=1.0, lam=1.0, sigma=1.0,
                            K=2, d=2, ell=1.0)
    B = sample_orthonormal_columns(2, 2, seed=20240817)
    probe = RandomizedHardInstance(spec, B, scaled=False)
    mode = "mean-squared" if p == 1 else "individual"
    report = estimate_smoothness(probe, mode, num_pairs=300, seed=20240817)
    return 1.5 * report.constant


# ---------------------------------------------------------------------------
# estimator deviation bounds


@dataclass(frozen=True)
class EstimatorBoundsReport(_Report):
    passed: bool
    trials: int
    dist: float
    L2_hat: float
    grad_mean: float
    grad_bound: float
    grad_pass: bool
    hess_mean: float
    hess_bound: float
    hess_pass: bool
    slack: float
    premise_ok: bool
    cross_check_rel_err: float


#: trials contracted as one stack in :func:`verify_estimator_bounds`, so its
#: memory stays at a few (block, d, d) stacks whatever the trial count
_MC_BLOCK = 512

#: the relative margin :func:`verify_estimator_bounds` allows over each bound
_BOUND_SLACK = 0.1


def _trial_counts(batches: list, n: int) -> np.ndarray:
    """Draw counts of components 0..n-1 in each of T equal-size batches,
    shape (T, n), from one offset ``bincount``."""
    idx = np.array(batches) + n * np.arange(len(batches))[:, None]
    return np.bincount(idx.ravel(), minlength=idx.shape[0] * n).reshape(-1, n)


def verify_estimator_bounds(instance: FiniteSumFunction, x_hat, x,
                            params: SvrcParams, trials: int, seed=0,
                            L2_hat: float | None = None
                            ) -> EstimatorBoundsReport:
    """Monte-Carlo means of the estimator deviations against their bounds:

    E ||grad F(x) - v||^(3/2)  <=  2 L2^(3/2) b_g^(-3/4) ||x - xh||^3
    E ||hess F(x) - U||^3      <=  15000 L2^3 (log d / b_h)^(3/2) ||x - xh||^3

    Pass iff each mean is at most bound * (1 + ``_BOUND_SLACK``).  The
    Hessian bound's premise (b_h >= 12000 log^3 d) is reported, not
    enforced.  Trials draw their batches one after another as the run does
    (a full-batch schedule has b = n).  Blocks of trials then apply the estimators' own
    count-weighted contractions, as one weight stack, to per-component
    tables evaluated once; the first 8 trials are cross-checked against the
    metered estimator calls.
    """
    if trials < 1000:
        raise ValueError("trials must be at least 10^3")
    n, d = instance.n, instance.d
    x = as_vector(x, dim=d)
    x_hat = as_vector(x_hat, dim=d)
    if L2_hat is None:
        int_seed = _int_seed(seed)
        L2_hat = estimate_smoothness(
            instance, "individual", 150,
            seed=1 if int_seed is None else int_seed + 1).constant
    rng = as_rng(seed)
    dist = float(np.linalg.norm(x - x_hat))

    # per-component tables (evaluated once; the MC only re-weights them)
    at_x = instance.components(range(n), x, 2)
    at_hat = instance.components(range(n), x_hat, 2)
    G_x, H_x = at_x.grad, at_x.hess
    G_h, H_h = at_hat.grad, at_hat.hess
    gF, HF = G_x.mean(axis=0), H_x.mean(axis=0)
    g_s, H_s = G_h.mean(axis=0), H_h.mean(axis=0)
    dx = x - x_hat
    dG = G_x - G_h                       # (n, d)
    Hdx = H_h @ dx                       # (n, d)
    dH = H_x - H_h                       # (n, d, d)

    b_g, b_h = params.batch_sizes(n)
    g_moments, h_moments = [], []
    for start in range(0, trials, _MC_BLOCK):
        # the block's batches, drawn trial by trial as the run draws them
        draws = [_draw_batches(params, n, rng)
                 for _ in range(min(_MC_BLOCK, trials - start))]
        if start == 0:
            cross = draws[:8]
        V = _gradient_estimate(_trial_counts([g for g, _ in draws], n), dG,
                               Hdx, b_g, g_s, H_s, dx)
        U = _hessian_estimate(_trial_counts([h for _, h in draws], n), dH,
                              b_h, H_s)
        D = gF - V
        # powers of Python floats: numpy's vectorized pow can round the
        # last bit differently from the one-trial values
        g_moments += [float(g) ** 1.5 for g in np.sqrt(row_dot(D, D))]
        h_moments += [float(h) ** 3 for h in _op_norm(HF - U)]

    cross_err = 0.0
    for t, (idx_g, idx_h) in enumerate(cross):
        led = OracleLedger(n=n)
        v_ref = svrc_gradient_estimator(instance, led, x, x_hat, g_s, H_s,
                                        idx_g)
        U_ref = svrc_hessian_estimator(instance, led, x, x_hat, H_s, idx_h)
        cross_err = max(
            cross_err,
            rel_err(g_moments[t], float(np.linalg.norm(gF - v_ref)) ** 1.5),
            rel_err(h_moments[t], float(_op_norm(HF - U_ref)) ** 3))

    grad_bound = 2.0 * L2_hat ** 1.5 * b_g ** -0.75 * dist ** 3
    hess_bound = 15000.0 * L2_hat ** 3 * (math.log(d) / b_h) ** 1.5 * dist ** 3
    grad_mean = float(np.mean(g_moments))
    hess_mean = float(np.mean(h_moments))
    grad_pass = grad_mean <= grad_bound * (1.0 + _BOUND_SLACK)
    hess_pass = hess_mean <= hess_bound * (1.0 + _BOUND_SLACK)
    premise_ok = b_h >= 12000.0 * math.log(d) ** 3
    return EstimatorBoundsReport(
        passed=bool(grad_pass and hess_pass and cross_err <= 1e-9),
        trials=trials, dist=dist, L2_hat=float(L2_hat),
        grad_mean=grad_mean, grad_bound=float(grad_bound),
        grad_pass=bool(grad_pass), hess_mean=hess_mean,
        hess_bound=float(hess_bound), hess_pass=bool(hess_pass),
        slack=_BOUND_SLACK, premise_ok=bool(premise_ok),
        cross_check_rel_err=float(cross_err))


# ---------------------------------------------------------------------------
# gradient floors and suboptimality


@dataclass(frozen=True)
class LargeGradientReport(_Report):
    passed: bool
    kind: str
    bound: float
    min_grad_norm: float
    num_points: int
    details: dict = field(default_factory=dict)


def verify_large_gradient(subject, seed=0) -> LargeGradientReport:
    """Gradient floor of the hard construction.

    For a randomized instance: in unscaled units, the full gradient norm
    exceeds 1/(4 sqrt(n)) at the origin and at any point supported on
    already-discovered columns (block inner products with undiscovered
    columns are then exactly zero, keeping every chain unfinished).

    For the adaptive game, delegates to the adversary's own certificate
    (the bound there is lam * sigma^p / 4 in scaled units).
    """
    if isinstance(subject, ResistingOracle):
        subject = subject.certificate()
    if isinstance(subject, ResistingCertificate):
        cert = subject
        return LargeGradientReport(
            passed=cert.passed, kind="resisting-certificate",
            bound=cert.bound, min_grad_norm=cert.min_grad_norm,
            num_points=cert.num_queries, details=cert.to_dict())
    if not isinstance(subject, RandomizedHardInstance):
        raise TypeError("expected a RandomizedHardInstance, ResistingOracle "
                        "or ResistingCertificate")
    inst = subject.unscaled_view()
    spec = inst.spec
    n, K = spec.n, spec.K
    bound = 1.0 / (4.0 * math.sqrt(n))
    rng = as_rng(seed)
    points = [np.zeros(inst.d)]
    for prefix in range(K):
        for scale in (0.5, 2.0, 8.0):
            x = np.zeros(inst.d)
            for i in range(n):
                if prefix == 0:
                    break
                w = rng.standard_normal(prefix)
                w *= scale / np.linalg.norm(w)
                x += inst.embed(i, inst.B.columns[:, i * K:i * K + prefix] @ w)
            points.append(x)
            if prefix == 0:
                break
    norms = [float(np.linalg.norm(inst.full(x, 1).grad)) for x in points]
    min_norm = min(norms)
    return LargeGradientReport(
        passed=bool(min_norm > bound), kind="randomized-instance",
        bound=bound, min_grad_norm=min_norm, num_points=len(points),
        details={"n": n, "K": K})


@dataclass(frozen=True)
class SuboptimalityReport(_Report):
    passed: bool
    f_origin: float
    best_found: float
    gap: float
    bound: float
    num_starts: int


#: the backtracking line search's trial steps 1, 1/2, ..., 2^-39 (exact), in
#: two blocks: a round evaluates the second only for the starts that found
#: no step in the first (on the battery's instance a start needs about two
#: halvings a round, so the first block nearly always settles the round)
_TRIAL_STEPS = np.split(np.ldexp(1.0, -np.arange(40)), [8])


def _gd_backtracking(F: FiniteSumFunction, starts: np.ndarray,
                     iters: int = 200) -> np.ndarray:
    """Gradient descent with Armijo backtracking from every row of
    ``starts`` (shape (P, d)); returns the P final values.

    Each start keeps the rules of a descent run on its own: it takes the
    longest of the steps 1, 1/2, ..., 2^-39 that decreases f by at least
    1e-4 * step * |g|^2, and stops once |g|^2 falls below 1e-18, when no
    trial step decreases f enough, or after ``iters`` steps.  All starts
    move in lockstep: a round evaluates a block of trial points of every
    start still searching in one stacked ``F.full(., 0)`` call, and the
    accepted iterates in one stacked ``F.full(., 1)`` call.
    """
    x = np.array(starts, dtype=float)
    der = F.full(x, 1)
    f_val, g = der.value, der.grad
    moving = np.ones(len(x), dtype=bool)
    step = np.empty(len(x))
    for _ in range(iters):
        gnorm2 = row_dot(g, g)
        moving &= gnorm2 >= 1e-18
        searching = moving.copy()
        for steps in _TRIAL_STEPS:
            idx = np.flatnonzero(searching)
            if idx.size == 0:
                break
            cand = x[idx, None, :] - steps[:, None] * g[idx, None, :]
            f_new = F.full(cand.reshape(-1, x.shape[1]), 0).value
            ok = f_new.reshape(idx.size, -1) <= (
                f_val[idx, None] - 1e-4 * steps * gnorm2[idx, None])
            found = ok.any(axis=1)
            step[idx[found]] = steps[ok[found].argmax(axis=1)]
            searching[idx[found]] = False
        moving &= ~searching
        idx = np.flatnonzero(moving)
        if idx.size == 0:
            break
        x[idx] = x[idx] - step[idx, None] * g[idx]
        der = F.full(x[idx], 1)
        f_val[idx], g[idx] = der.value, der.grad
    return f_val


def verify_suboptimality(instance: RandomizedHardInstance,
                         num_starts: int = 100, gd_iters: int = 200,
                         seed=0) -> SuboptimalityReport:
    """One-sided check of the chain's bounded optimality gap: in unscaled
    units, f(0) minus the best multistart local-search value is at most 12K.

    Multistart gradient descent with backtracking is only an inf *upper*
    bound oracle, so the check can never spuriously fail on the inf side;
    it fails only if f(0) - inf genuinely exceeds the bound.  The
    ``num_starts`` random starts and the origin descend together in one
    lockstep run.
    """
    inst = instance.unscaled_view()
    rng = as_rng(seed)
    f0 = inst.full(np.zeros(inst.d), 0).value
    scales = (0.5, 2.0, 5.0)
    starts = [rng.standard_normal(inst.d) * scales[s % len(scales)]
              for s in range(num_starts)]
    starts.append(np.zeros(inst.d))
    finals = _gd_backtracking(inst, np.array(starts), iters=gd_iters)
    best = min(f0, float(finals.min()))
    gap = f0 - best
    bound = 12.0 * inst.spec.K
    return SuboptimalityReport(passed=bool(gap <= bound + 1e-9),
                               f_origin=float(f0), best_found=float(best),
                               gap=float(gap), bound=bound,
                               num_starts=num_starts)


# ---------------------------------------------------------------------------
# the battery


@dataclass(frozen=True)
class BatteryCheck(_Report):
    name: str
    status: str  # "passed" | "failed" | "skipped"
    details: dict = field(default_factory=dict)


def _status(passed: bool) -> str:
    return "passed" if passed else "failed"


class _StackSum(CallableFiniteSum):
    """A :class:`CallableFiniteSum` whose callables answer stacks of points
    themselves, so a stack goes to them in one call."""

    def component(self, i: int, x, order: int = 2) -> Derivatives:
        return self._components[self.check_index(i)](
            as_points(x, dim=self.d), order)


def _chain_sum(K: int) -> _StackSum:
    """The unmasked chain on R^K as a one-component sum."""
    mask = np.ones(K)
    return _StackSum([lambda x, order: chain_eval(K, mask, x, order)], d=K)


def _hat_sum(K: int, m: int, seed: int) -> _StackSum:
    """The clamped chain block on R^m as a one-component sum."""
    B = sample_orthonormal_columns(m, K, seed=seed)
    return _StackSum([lambda y, order: hat_f_eval(K, B, y, order)], d=m)


def _battery_instance(seed: int) -> RandomizedHardInstance:
    """The battery's randomized instance: p = 2, n = 4, K = 3."""
    ell_hat = default_ell_hat(2)
    K_target, n, eps = 3, 4, 0.25
    Delta = (K_target + 0.5) * 192.0 * math.sqrt(ell_hat) \
        * n ** 0.75 * eps ** 1.5
    spec = randomized_params("randomized-individual", p=2, n=n,
                             Delta=Delta, L=1.0, eps=eps, ell_hat=ell_hat)
    return sample_randomized_instance(spec, seed=seed)


def run_battery(num_points: int = 60, zero_chain_samples: int = 500,
                pairs: int = 120, trials: int = 2000, starts: int = 20,
                seed: int = 0) -> list[BatteryCheck]:
    """The default desk-scale verification battery.

    Any sample count set to zero skips the corresponding check.  The result
    is a list of named checks with statuses; a run passes iff no check
    failed (skips are allowed).
    """
    checks: list[BatteryCheck] = []

    if num_points <= 0:
        checks.append(BatteryCheck("check_derivatives", "skipped"))
    else:
        synth = quadratic_cosine_sum(4, 6, seed=seed)
        rep = check_derivatives(synth, num_points, 1e-6, seed=seed)
        checks.append(BatteryCheck("check_derivatives",
                                   _status(rep.passed), rep.to_dict()))
        rep = check_derivatives(_chain_sum(4), num_points, 1e-6,
                                seed=seed + 1)
        checks.append(BatteryCheck("check_derivatives_chain",
                                   _status(rep.passed), rep.to_dict()))
        rep = check_derivatives(_hat_sum(3, 12, seed=seed + 2), num_points,
                                1e-6, seed=seed + 2)
        checks.append(BatteryCheck("check_derivatives_composite",
                                   _status(rep.passed), rep.to_dict()))

    for K in (2, 4, 8):
        name = f"check_zero_chain_K{K}"
        if zero_chain_samples <= 0:
            checks.append(BatteryCheck(name, "skipped"))
        else:
            rep = check_zero_chain(K, zero_chain_samples, seed=seed)
            checks.append(BatteryCheck(name, _status(rep.passed),
                                       rep.to_dict()))

    if pairs <= 0:
        checks.append(BatteryCheck("smoothness_power_mean", "skipped"))
    else:
        synth = quadratic_cosine_sum(8, 6, seed=seed + 3)
        ind = estimate_smoothness(synth, "individual", pairs, seed=seed)
        third = estimate_smoothness(synth, "third-moment", pairs, seed=seed)
        ok = third.constant <= ind.constant * (1 + 1e-12)
        checks.append(BatteryCheck(
            "smoothness_power_mean", _status(ok),
            {"individual": ind.constant, "third_moment": third.constant}))

    if trials <= 0:
        checks.append(BatteryCheck("estimator_bounds", "skipped"))
    else:
        inst = quadratic_cosine_sum(64, 8, seed=seed + 4)
        params = SvrcParams(M=1.0, b_g=16, b_h=64, S=1, T=1, eps=1.0,
                            Delta=1.0, L2=1.0, seed=seed)
        rng = as_rng(seed + 5)
        x_hat = rng.standard_normal(8)
        x = x_hat + 0.5 * rng.standard_normal(8)
        rep = verify_estimator_bounds(inst, x_hat, x, params,
                                      max(1000, trials), seed=seed)
        checks.append(BatteryCheck("estimator_bounds",
                                   _status(rep.passed), rep.to_dict()))

    if starts <= 0:
        checks.append(BatteryCheck("large_gradient", "skipped"))
        checks.append(BatteryCheck("suboptimality", "skipped"))
    else:
        inst = _battery_instance(seed + 6)
        rep = verify_large_gradient(inst, seed=seed + 7)
        checks.append(BatteryCheck("large_gradient", _status(rep.passed),
                                   rep.to_dict()))
        rep2 = verify_suboptimality(inst, num_starts=starts, seed=seed + 8)
        checks.append(BatteryCheck("suboptimality", _status(rep2.passed),
                                   rep2.to_dict()))

    return checks
