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
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from ._fork import streamed
from .chains import Derivatives, chain_eval, hat_f_eval
from .instances.params import HardInstanceSpec, randomized_params
from .instances.randomized import (RandomizedHardInstance,
                                   sample_randomized_instance)
from .instances.resisting import ResistingCertificate, ResistingOracle
from .linalg import (_norm, _norms, _rel_errs, _richardson_combine,
                     _stencil_points, _sym_part, as_rng, as_vector,
                     rel_err, row_dot, sample_orthonormal_columns)
from .oracle import (CallableFiniteSum, FiniteSumFunction, OracleLedger,
                     _count, _Evaluated, _integer, quadratic_cosine_sum)
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


def _check_counts(**counts) -> list[int]:
    """The sample counts, in the order given, as Python ints, each checked
    by :func:`~hardsum.oracle._count`; zero is a valid count."""
    return [_count(value, name) for name, value in counts.items()]


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


#: stencil rows :func:`check_derivatives` evaluates in one call; a block of
#: points is as many whole stencils (4d rows each) as fit, at least one.
#: Stacking every point at once lifts the battery's peak memory by 15%.
_STENCIL_BLOCK = 256


def check_derivatives(F: FiniteSumFunction, num_points: int, tol: float,
                      seed=0) -> DerivativeCheckReport:
    """Analytic gradients/Hessians of every component against central
    differences at ``num_points`` random points per component.

    Gradients are differenced from values; Hessians are differenced from the
    analytic gradient (a value-based second difference would drown in noise
    wherever third derivatives are large, as they are for the chain bumps).
    The points are drawn first.  Then, per block of points, each component
    answers the block's points in one stacked call (order 2) and their
    stencils, concatenated, in one stacked call (order 1), so
    ``F.component`` must answer stacks of points.  Each answer's stencils
    are combined in one Richardson pass with one step per point, and the
    worst error is found by walking (point, component) in order: the first
    occurrence wins, and the Hessian wins a tie with the gradient.  A
    negative ``num_points`` is refused.
    """
    num_points, = _check_counts(num_points=num_points)
    if not tol > 0:
        raise ValueError("tol must be positive")
    rng = as_rng(seed)
    scales = (0.25, 0.5, 1.0, 2.0)
    points = [rng.standard_normal(F.d) * scales[t % len(scales)]
              for t in range(num_points)]
    rows = 4 * F.d                       # stencil rows per point
    block = max(1, _STENCIL_BLOCK // rows)
    worst = {"rel_err": 0.0}
    for start in range(0, num_points, block):
        xs = np.array(points[start:start + block])
        stencils, steps = zip(*(_stencil_points(x, None) for x in xs))
        stencil = np.concatenate(stencils)
        h = np.array(steps)
        P = len(xs)
        errs = []                        # per component: (grad, hess) rows
        for i in range(F.n):
            der = F.component(i, xs, 2)
            sten = F.component(i, stencil, 1)
            g_fd = _richardson_combine(sten.value.reshape(P, rows), h)
            H_fd = _richardson_combine(sten.grad.reshape(P, rows, F.d), h)
            errs.append((_rel_errs(der.grad, g_fd).tolist(),
                         _rel_errs(der.hess, H_fd).tolist()))
        for k in range(P):
            for i, (e_g, e_h) in enumerate(errs):
                err, which = max((e_g[k], "grad"), (e_h[k], "hess"))
                if err > worst["rel_err"]:
                    worst = {"rel_err": float(err), "component": i,
                             "point_index": start + k, "which": which}
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
    evaluated at all of them in one stacked call per order.  A negative
    ``num_samples`` is refused.
    """
    K = _count(K, "K", 2)
    num_samples, = _check_counts(num_samples=num_samples)
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
        u /= _norm(u)
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
            nrm = _norm(delta)
            if nrm == 0.0:
                delta[start % d] = 1.0
                nrm = 1.0
            yield base, base + 0.3 * delta / nrm


def _op_norm(A: np.ndarray):
    """Operator norm of the symmetric part of one matrix, or of each matrix
    of a stack (one stacked ``eigvalsh``)."""
    return np.abs(np.linalg.eigvalsh(_sym_part(A))).max(axis=-1)


#: the relative margin of the Frobenius bound that lets
#: :func:`_pair_differences` skip an eigensolve.  The operator norm of a
#: matrix's symmetric part is at most the Frobenius norm of that part, and
#: that at most the matrix's own (an equality for the exactly symmetric
#: Hessians a sum answers).  ``linalg._norms`` reads the Frobenius norm low
#: by at most about d^2 / 2 machine epsilons: the rounding of d^2 squares
#: summed, and the squares below the normal range, each losing at most
#: 2^-1075 against a normal sum (a smaller sum is taken by ``math.hypot``).
#: ``eigvalsh`` (LAPACK's backward-stable ``syevd``) reads the largest
#: |eigenvalue| high by at most a small multiple of d machine epsilons.
#: Both stay below 1e-8 for d up to about 9,000 (650 MB per d x d
#: difference), so a difference whose widened Frobenius norm is below its
#: pair's running maximum cannot raise that maximum.
_FRO_MARGIN = 1e-8


def _pair_differences(F: FiniteSumFunction, order: int, num_pairs: int,
                      seed, pair_max: bool = False) -> tuple[list, np.ndarray]:
    """The pair stream's distances ||x - y|| and, per pair, the derivative
    differences every smoothness mode reduces: at order 1 the sums over
    components of ||grad f_i(x) - grad f_i(y)||^2, shape (num_pairs,); at
    order 2 the operator norms ||hess f_i(x) - hess f_i(y)||, shape
    (num_pairs, n), or with ``pair_max`` only each pair's largest of them,
    shape (num_pairs,).

    Each component is evaluated once at the stack of all x's and once at the
    stack of all y's, so ``F.component`` must answer stacks of points.  The
    pair stream is never stacked across components, so memory stays at one
    component's answers.

    With ``pair_max`` the maxima run over the components in index order, and
    a component's difference is eigendecomposed only where its Frobenius
    norm (widened by ``_FRO_MARGIN``) is not below its pair's maximum so
    far.  A skipped difference cannot hold that maximum, and a NaN bound is
    never skipped, so each maximum is the full table's row maximum bit for
    bit.
    """
    pairs = list(_pair_stream(F.d, num_pairs, as_rng(seed)))
    xs = np.array([x for x, _ in pairs])
    ys = np.array([y for _, y in pairs])
    if order == 1:
        diffs = np.zeros(num_pairs)
        for i in range(F.n):
            dg = F.component(i, xs, order).grad - F.component(i, ys, order).grad
            diffs += row_dot(dg, dg)
    elif pair_max:
        diffs = np.zeros(num_pairs)
        for i in range(F.n):
            dH = F.component(i, xs, order).hess - F.component(i, ys, order).hess
            bound = _norms(dH) * (1.0 + _FRO_MARGIN)
            todo = np.flatnonzero(~(bound < diffs))
            diffs[todo] = np.maximum(diffs[todo], _op_norm(dH[todo]))
    else:
        diffs = np.empty((num_pairs, F.n))
        for i in range(F.n):
            dH = F.component(i, xs, order).hess - F.component(i, ys, order).hess
            diffs[:, i] = _op_norm(dH)
    return _norms(xs - ys).tolist(), diffs


def _smoothness_constant(mode: str, dists: list, diffs: np.ndarray,
                         n: int) -> float:
    """The max difference ratio of ``mode`` over the pairs of
    :func:`_pair_differences` (order 1 for mean-squared, 2 otherwise);
    pairs at distance zero are skipped."""
    best = 0.0
    for k, dist in enumerate(dists):
        if dist == 0.0:
            continue
        if mode == "mean-squared":
            ratio = math.sqrt(diffs[k] / n) / dist
        elif mode == "individual":
            ratio = float(diffs[k].max()) / dist
        else:
            ratio = float((diffs[k] ** 3).mean()) ** (1.0 / 3.0) / dist
        best = max(best, ratio)
    return best


def estimate_smoothness(F: FiniteSumFunction, mode: str, num_pairs: int,
                        seed=0) -> SmoothnessReport:
    """Max difference ratio over sampled pairs.

    individual:    max_i ||hess f_i(x) - hess f_i(y)|| / ||x - y||
    mean-squared:  sqrt(mean_i ||grad f_i(x) - grad f_i(y)||^2) / ||x - y||
    third-moment:  (mean_i ||hess f_i(x) - hess f_i(y)||^3)^(1/3) / ||x - y||

    Matrix norms are operator norms.  For a fixed seed the pair stream is
    prefix-extendable, so the estimate is monotone in ``num_pairs``.
    ``F.component`` must answer stacks of points (see
    :func:`_pair_differences`).  The individual mode keeps only each pair's
    running maximum, and eigendecomposes only the Hessian differences whose
    Frobenius bound reaches it; the constant keeps the bits of the full
    table.
    """
    if mode not in _SMOOTHNESS_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    num_pairs = _count(num_pairs, "num_pairs", 1)
    order = 1 if mode == "mean-squared" else 2
    best = _smoothness_constant(
        mode, *_pair_differences(F, order, num_pairs, seed,
                                 pair_max=mode == "individual"), F.n)
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

#: most indices one block of :func:`verify_estimator_bounds` draws: its
#: blocks hold fewer than ``_MC_BLOCK`` trials when b_g + b_h is above 2048,
#: so a block's draw and its offset copy stay at 8 MB each
_MC_BLOCK_INDICES = 1 << 20

#: the relative margin :func:`verify_estimator_bounds` allows over each bound
_BOUND_SLACK = 0.1


def _trial_counts(batches: np.ndarray, n: int) -> np.ndarray:
    """Draw counts of components 0..n-1 in each row of a (T, b) batch
    array, shape (T, n), from one offset ``bincount``."""
    idx = batches + n * np.arange(batches.shape[0])[:, None]
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
    (a full-batch schedule has b = n), a block of trials in one draw of at
    most ``_MC_BLOCK`` trials and ``_MC_BLOCK_INDICES`` indices (one trial
    at least).  Blocks then apply the estimators' own count-weighted
    contractions, as one weight stack, to per-component tables evaluated
    once; the first 8 trials, from however many blocks they take, are
    cross-checked against the metered estimator calls, which
    read xh, and g_s and H_s as its ``mean``, from a snapshot view of the
    xh table as :func:`~hardsum.optim.svrc_run` does; the trials keep
    numpy's means of the tables as their reference.
    """
    trials = _integer(trials, "trials")
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
    dist = _norm(x - x_hat)

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
    block = min(_MC_BLOCK, max(1, _MC_BLOCK_INDICES // (b_g + b_h)))
    g_moments, h_moments, cross = [], [], []
    for start in range(0, trials, block):
        draws_g, draws_h = _draw_batches(params, n, rng,
                                         min(block, trials - start))
        # copies, so that the block's draw is freed with the block
        cross += [(g.copy(), h.copy()) for g, h in
                  zip(draws_g[:8 - len(cross)], draws_h[:8 - len(cross)])]
        V = _gradient_estimate(_trial_counts(draws_g, n), dG, Hdx, b_g,
                               g_s, H_s, dx)
        U = _hessian_estimate(_trial_counts(draws_h, n), dH, b_h, H_s)
        D = gF - V
        # powers of Python floats: numpy's vectorized pow can round the
        # last bit differently from the one-trial values
        g_moments += [g ** 1.5 for g in _norms(D).tolist()]
        h_moments += [float(h) ** 3 for h in _op_norm(HF - U)]

    snapshot = _Evaluated.from_stack(instance, np.arange(n), x_hat, 2, at_hat)
    cross_err = 0.0
    for t, (idx_g, idx_h) in enumerate(cross):
        led = OracleLedger(n=n)
        v_ref = svrc_gradient_estimator(led, x, idx_g, snapshot)
        U_ref = svrc_hessian_estimator(led, x, idx_h, snapshot)
        cross_err = max(
            cross_err,
            rel_err(g_moments[t], _norm(gF - v_ref) ** 1.5),
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
    columns are then exactly zero, keeping every chain unfinished).  The
    points are drawn first and answered by one stacked ``full(., 1)``
    call, whose rows are the one-point answers bit for bit; the norm is
    taken row by row.

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
    # the origin, then three scales of each non-empty discovered prefix
    points = [np.zeros(inst.d)]
    for prefix in range(1, K):
        for scale in (0.5, 2.0, 8.0):
            x = np.zeros(inst.d)
            for i in range(n):
                w = rng.standard_normal(prefix)
                w *= scale / _norm(w)
                x += inst.embed(i, inst.B.columns[:, i * K:i * K + prefix] @ w)
            points.append(x)
    grads = inst.full(np.array(points), 1).grad
    min_norm = float(_norms(grads).min())
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
#: two blocks: step 1, then the other 39.  On the battery's instances step 1
#: passes in about 97% of searches (24,390 of about 25,100 on six
#: instances), while in about half the rounds one nearly stationary start
#: needs a step near 2^-27, and that start needs one again in most of the
#: rounds that follow.
_TRIAL_STEPS = np.split(np.ldexp(1.0, -np.arange(40)), [1])


def _gd_backtracking(F: FiniteSumFunction, starts: np.ndarray,
                     iters: int = 200) -> tuple[np.ndarray, np.ndarray]:
    """Gradient descent with Armijo backtracking from every row of
    ``starts`` (shape (P, d)); returns the P start values and the P final
    values.

    Each start keeps the rules of a descent run on its own: it takes the
    longest of the steps 1, 1/2, ..., 2^-39 that decreases f by at least
    1e-4 * step * |g|^2, and stops once |g|^2 falls below 1e-18, when no
    trial step decreases f enough, or after ``iters`` steps.  All starts
    move in lockstep, and every trial point is evaluated at order 1, so a
    start takes its next value and gradient from the call that accepted
    its step.  A round's first stacked ``F.full(., 1)`` call evaluates, for
    every moving start, the first block of ``_TRIAL_STEPS``, and the
    second block too for a start whose last step lay past the first; each
    later call evaluates the next block of the starts still searching.  A
    start that keeps needing short steps thus adds rows to a round's one
    call, not calls.  The starts still searching are read from a reusable
    mask over the starts: the round's bookkeeping makes no set operation.
    """
    x = np.array(starts, dtype=float)
    der = F.full(x, 1)
    f_val, g = der.value, der.grad
    start = f_val.copy()
    moving = np.ones(len(x), dtype=bool)
    taken = np.zeros(len(x), dtype=bool)    # scratch: the starts just moved
    steps = np.concatenate(_TRIAL_STEPS)
    armijo = 1e-4 * steps                   # each trial step's slope factor
    #: end of each block in ``steps``; a start's first span ends at
    #: ``ends[0]``, or at ``ends[1]`` after a step past the first block
    ends = np.cumsum([len(block) for block in _TRIAL_STEPS])
    lead = np.zeros(len(x), dtype=int)
    for _ in range(iters):
        gnorm2 = row_dot(g, g)
        moving &= gnorm2 >= 1e-18
        idx = moving.nonzero()[0]
        if idx.size == 0:
            break
        lo, hi = 0, ends[lead[idx]]
        while idx.size:
            # one row per (start, trial step) pair, starts in order
            count = hi - lo
            rows = idx.repeat(count)
            k = (np.arange(rows.size)
                 + (lo - count.cumsum() + count).repeat(count))
            cand = x[rows] - steps[k, None] * g[rows]
            der = F.full(cand, 1)
            ok = der.value <= f_val[rows] - armijo[k] * gnorm2[rows]
            # a start's first passing row holds its longest passing step:
            # rows are sorted by start, so it is the passing row whose start
            # differs from the previous passing row's
            hit = ok.nonzero()[0]
            took = rows[hit]
            first = np.empty(hit.size, dtype=bool)
            first[:1] = True
            np.not_equal(took[1:], took[:-1], out=first[1:])
            hit, took = hit[first], took[first]
            x[took], f_val[took] = cand[hit], der.value[hit]
            g[took] = der.grad[hit]
            lead[took] = np.minimum(k[hit] >= ends[0], len(ends) - 1)
            if took.size == idx.size:     # the round's usual end
                break
            taken[took] = True
            left = ~taken[idx]
            taken[took] = False
            idx, lo = idx[left], hi[left]
            over = lo == ends[-1]
            moving[idx[over]] = False   # no trial step decreased f enough
            idx, lo = idx[~over], lo[~over]
            hi = ends[ends.searchsorted(lo, side="right")]
    return start, f_val


def verify_suboptimality(instance: RandomizedHardInstance,
                         num_starts: int = 100, gd_iters: int = 200,
                         seed=0) -> SuboptimalityReport:
    """One-sided check of the chain's bounded optimality gap: in unscaled
    units, f(0) minus the best multistart local-search value is at most 12K.

    Multistart gradient descent with backtracking is only an inf *upper*
    bound oracle, so the check can never spuriously fail on the inf side;
    it fails only if f(0) - inf genuinely exceeds the bound.  The
    ``num_starts`` random starts and the origin descend together in one
    lockstep run, whose first stacked call gives f(0).  Negative counts are
    refused.
    """
    num_starts, gd_iters = _check_counts(num_starts=num_starts,
                                         gd_iters=gd_iters)
    inst = instance.unscaled_view()
    rng = as_rng(seed)
    scales = (0.5, 2.0, 5.0)
    starts = [rng.standard_normal(inst.d) * scales[s % len(scales)]
              for s in range(num_starts)]
    starts.append(np.zeros(inst.d))
    values, finals = _gd_backtracking(inst, np.array(starts), iters=gd_iters)
    f0 = values[-1]     # the origin's row of the first stacked call
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
    themselves: its :meth:`_evaluate` hands a stack to one in one call."""

    def _evaluate(self, i: int, x: np.ndarray, order: int) -> Derivatives:
        return self._components[i](x, order)


def _chain_sum(K: int) -> _StackSum:
    mask = np.ones(K)
    return _StackSum([lambda x, order: chain_eval(K, mask, x, order)], d=K)


def _hat_sum(K: int, m: int, seed: int) -> _StackSum:
    B = sample_orthonormal_columns(m, K, seed=seed)
    return _StackSum([lambda y, order: hat_f_eval(K, B, y, order)], d=m)


def _battery_instance(seed: int) -> RandomizedHardInstance:
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

    Any sample count set to zero skips the checks it drives, under the
    names a run reports; a negative count is refused.  A run passes iff no
    check failed (skips are allowed).

    The suboptimality check's lockstep descent, about half of a default
    run, charges nothing and shares no state with the other checks.  It
    descends on the hard instance built here, before the other checks run:
    as a one-item stream of :func:`hardsum._fork.streamed`, so in a forked
    child beside them where ``os.fork`` exists, at least two CPUs are usable
    and the caller runs one Python thread, else inline after
    ``large_gradient``.  Either way the checks, their order and their
    reports are the same; an exception or warning from the child reaches
    the caller, and no child outlives the call.  A tracer of the calling
    process sees none of the descent's calls.
    """
    num_points, zero_chain_samples, pairs, trials, starts = _check_counts(
        num_points=num_points, zero_chain_samples=zero_chain_samples,
        pairs=pairs, trials=trials, starts=starts)
    seed = _integer(seed, "seed")     # the checks draw from seed + offsets

    def outcome(rep):
        return rep.passed, rep.to_dict()

    def derivatives():
        sums = ((quadratic_cosine_sum(4, 6, seed=seed), seed),
                (_chain_sum(4), seed + 1),
                (_hat_sum(3, 12, seed=seed + 2), seed + 2))
        return [outcome(check_derivatives(F, num_points, 1e-6, seed=s))
                for F, s in sums]

    def zero_chain():
        return [outcome(check_zero_chain(K, zero_chain_samples, seed=seed))
                for K in (2, 4, 8)]

    def smoothness():
        # both constants reduce the same Hessian differences, found once
        synth = quadratic_cosine_sum(8, 6, seed=seed + 3)
        dists, norms = _pair_differences(synth, 2, pairs, seed)
        ind = _smoothness_constant("individual", dists, norms, synth.n)
        third = _smoothness_constant("third-moment", dists, norms, synth.n)
        return [(third <= ind * (1 + 1e-12),
                 {"individual": ind, "third_moment": third})]

    def estimator_bounds():
        inst = quadratic_cosine_sum(64, 8, seed=seed + 4)
        params = SvrcParams(M=1.0, b_g=16, b_h=64, S=1, T=1, eps=1.0,
                            Delta=1.0, L2=1.0, seed=seed)
        rng = as_rng(seed + 5)
        x_hat = rng.standard_normal(8)
        x = x_hat + 0.5 * rng.standard_normal(8)
        return [outcome(verify_estimator_bounds(inst, x_hat, x, params,
                                                max(1000, trials),
                                                seed=seed))]

    def descent():
        yield outcome(verify_suboptimality(inst, num_starts=starts,
                                           seed=seed + 8))

    beside = nullcontext()
    if starts > 0:
        inst = _battery_instance(seed + 6)
        beside = streamed(descent, True)
    with beside as suboptimality:
        table = [
            (("check_derivatives", "check_derivatives_chain",
              "check_derivatives_composite"), num_points, derivatives),
            (("check_zero_chain_K2", "check_zero_chain_K4",
              "check_zero_chain_K8"), zero_chain_samples, zero_chain),
            (("smoothness_power_mean",), pairs, smoothness),
            (("estimator_bounds",), trials, estimator_bounds),
            (("large_gradient", "suboptimality"), starts,
             lambda: [outcome(verify_large_gradient(inst, seed=seed + 7)),
                      *suboptimality]),
        ]
        found = [run() if count > 0 else None for _, count, run in table]
    checks: list[BatteryCheck] = []
    for (names, _, _), outcomes in zip(table, found):
        if outcomes is None:
            checks.extend(BatteryCheck(name, "skipped") for name in names)
            continue
        checks.extend(BatteryCheck(name, _status(passed), details)
                      for name, (passed, details) in zip(names, outcomes))
    return checks
