import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hardsum._fork
import hardsum.chains
import hardsum.optim
import hardsum.verify
from conftest import counted_forks as _forks
from conftest import no_child_left as _no_child_left
from conftest import same_bits
from hardsum.chains import Derivatives, chain_eval
from hardsum.linalg import (as_rng, finite_diff_gradient, finite_diff_jacobian,
                            rel_err, row_dot)
from hardsum.instances import (
    RandomizedHardInstance,
    ResistingOracle,
    deterministic_params,
    ell_p,
    randomized_params,
    sample_randomized_instance,
)
from hardsum.oracle import (CallableFiniteSum, OracleLedger, _Evaluated,
                            quadratic_cosine_sum)
from hardsum.optim import (SvrcParams, _draw_batches, svrc_gradient_estimator,
                           svrc_hessian_estimator)
from hardsum.verify import (
    _MC_BLOCK,
    _STENCIL_BLOCK,
    _TRIAL_STEPS,
    _battery_instance,
    _chain_sum,
    _gd_backtracking,
    _hat_sum,
    _pair_differences,
    _pair_stream,
    _smoothness_constant,
    _StackSum,
    BatteryCheck,
    EstimatorBoundsReport,
    SmoothnessReport,
    SuboptimalityReport,
    _status,
    check_derivatives,
    check_zero_chain,
    default_ell_hat,
    estimate_smoothness,
    run_battery,
    verify_estimator_bounds,
    verify_large_gradient,
    verify_suboptimality,
)


def _cubic_norm_component(c):
    """f(x) = (c/6)|x|^3 -- its Hessian is Lipschitz with constant exactly c,
    attained by collinear pairs at any radius."""
    def f(x, order=2):
        r = float(np.linalg.norm(x))
        v = c / 6.0 * r ** 3
        if order == 0:
            return Derivatives(v)
        g = 0.5 * c * r * x
        if order == 1:
            return Derivatives(v, g)
        if r == 0.0:
            return Derivatives(v, g, np.zeros((x.size, x.size)))
        H = 0.5 * c * (r * np.eye(x.size) + np.outer(x, x) / r)
        return Derivatives(v, g, H)
    return f


def _linear_component(r_vec):
    def f(x, order=2):
        v = float(r_vec @ x)
        if order == 0:
            return Derivatives(v)
        if order == 1:
            return Derivatives(v, r_vec.copy())
        return Derivatives(v, r_vec.copy(), np.zeros((x.size, x.size)))
    return f


class TestCheckDerivatives:
    def test_passes_on_synthetic(self):
        F = quadratic_cosine_sum(3, 4, seed=0)
        rep = check_derivatives(F, num_points=10, tol=1e-6, seed=1)
        assert rep.passed
        assert rep.max_rel_err <= 1e-6

    def test_catches_wrong_gradient(self):
        def broken(x, order=2):
            v = 0.5 * float(x @ x)
            g = 1.05 * x                       # 5% gradient error
            return Derivatives(v, g if order >= 1 else None,
                               np.eye(x.size) if order >= 2 else None)
        F = CallableFiniteSum([broken], d=3)
        rep = check_derivatives(F, num_points=5, tol=1e-6, seed=0)
        assert not rep.passed
        assert rep.max_rel_err > 0.01

    def test_catches_wrong_hessian(self):
        def broken(x, order=2):
            v = 0.5 * float(x @ x)
            return Derivatives(v, x.copy() if order >= 1 else None,
                               1.1 * np.eye(x.size) if order >= 2 else None)
        F = CallableFiniteSum([broken], d=3)
        rep = check_derivatives(F, num_points=5, tol=1e-6, seed=0)
        assert not rep.passed
        assert rep.worst["which"] == "hess"

    def test_an_error_whose_square_underflows_is_read(self):
        # the zero function, its gradient answered 1e-170 off: the square
        # of that error underflows, and the error still reads 1e-170
        def off(x, order=2):
            g = np.zeros(x.size)
            g[0] = 1e-170
            return Derivatives(0.0, g if order >= 1 else None,
                               np.zeros((x.size, x.size)) if order >= 2
                               else None)
        F = CallableFiniteSum([off], d=3)
        rep = check_derivatives(F, num_points=2, tol=1e-6, seed=0)
        assert rep.max_rel_err == 1e-170
        assert rep.worst == {"rel_err": 1e-170, "component": 0,
                             "point_index": 0, "which": "grad"}

    def test_derivatives_whose_squares_overflow_are_checked(self):
        # 1e200 |x|^2 / 2: the squares of its gradient and Hessian entries
        # overflow, and no norm warns or reads inf
        def steep(x, order=2):
            return Derivatives(0.5e200 * float(x @ x),
                               1e200 * x if order >= 1 else None,
                               1e200 * np.eye(x.size) if order >= 2 else None)
        F = CallableFiniteSum([steep], d=3)
        rep = check_derivatives(F, num_points=4, tol=1e-6, seed=0)
        assert rep.passed
        assert 0.0 < rep.max_rel_err <= 1e-6

    def test_report_serializes(self):
        F = quadratic_cosine_sum(2, 3, seed=0)
        d = check_derivatives(F, num_points=2, tol=1e-6).to_dict()
        assert set(d) == {"passed", "max_rel_err", "tol", "num_points", "worst"}

    def test_rejects_bad_tol(self):
        F = quadratic_cosine_sum(2, 3, seed=0)
        with pytest.raises(ValueError):
            check_derivatives(F, num_points=2, tol=0.0)

    def test_two_component_calls_per_block(self, monkeypatch):
        # per block, each component answers its points (order 2) and their
        # stencils once (order 1): the stencils' values come with the
        # gradients, so no order-0 call is made
        F = quadratic_cosine_sum(3, 4, seed=0)
        block = _STENCIL_BLOCK // (4 * F.d)
        calls = []
        component = F.component

        def spy(i, x, order=2):
            calls.append((i, order))
            return component(i, x, order)

        monkeypatch.setattr(F, "component", spy)
        check_derivatives(F, num_points=2 * block + 1, tol=1e-6, seed=1)
        assert calls == [(i, order) for _ in range(3) for i in range(F.n)
                         for order in (2, 1)]


class TestZeroChain:
    @pytest.mark.parametrize("K", [2, 4, 8])
    def test_passes(self, K):
        rep = check_zero_chain(K, num_samples=300, seed=0)
        assert rep.passed
        assert rep.checked + rep.skipped == 300
        assert rep.max_partial <= 1e-12
        assert rep.max_value_change <= 1e-12

    def test_concrete_point(self):
        # coordinates 3.. are small, so no partial beyond index 2 (0-based)
        K = 5
        x = np.array([2.0, 1.7, 0.3, 0.2, -0.4])
        g = chain_eval(K, np.ones(K), x, 1).grad
        assert np.abs(g[3:]).max() == 0.0
        x2 = x.copy()
        x2[3:] = 0.0
        assert chain_eval(K, np.ones(K), x2, 0).value == \
            chain_eval(K, np.ones(K), x, 0).value

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            check_zero_chain(1, 10)


class TestSmoothnessEstimation:
    def test_zero_for_quadratics_in_hessian_modes(self):
        # constant Hessians: second-order smoothness constant is exactly 0
        rng = np.random.default_rng(0)
        comps = []
        for _ in range(3):
            G = rng.standard_normal((4, 4))
            A = G @ G.T

            def f(x, order=2, A=A):
                v = 0.5 * float(x @ (A @ x))
                return Derivatives(v, A @ x if order >= 1 else None,
                                   A.copy() if order >= 2 else None)
            comps.append(f)
        F = CallableFiniteSum(comps, d=4)
        assert estimate_smoothness(F, "individual", 30).constant == 0.0
        assert estimate_smoothness(F, "third-moment", 30).constant == 0.0
        assert estimate_smoothness(F, "mean-squared", 30).constant > 0.0

    def test_zero_for_linear_in_gradient_mode(self, rng):
        F = CallableFiniteSum(
            [_linear_component(rng.standard_normal(4)) for _ in range(3)], d=4)
        assert estimate_smoothness(F, "mean-squared", 30).constant == 0.0

    def test_recovers_known_constant_exactly(self):
        # individual mode on (c_i/6)|x|^3 components: constant = max c_i,
        # attained by the collinear ray pairs in the stream
        cs = [0.5, 2.0, 1.0]
        F = CallableFiniteSum([_cubic_norm_component(c) for c in cs], d=5)
        rep = estimate_smoothness(F, "individual", 60, seed=3)
        assert rep.constant == pytest.approx(max(cs), rel=1e-9)

    def test_third_moment_power_mean_value(self):
        cs = [0.5, 2.0, 1.0]
        F = CallableFiniteSum([_cubic_norm_component(c) for c in cs], d=5)
        rep = estimate_smoothness(F, "third-moment", 60, seed=3)
        expected = (np.mean([c ** 3 for c in cs])) ** (1.0 / 3.0)
        assert rep.constant == pytest.approx(expected, rel=1e-9)

    def test_third_moment_below_individual(self):
        F = quadratic_cosine_sum(6, 5, seed=9)
        ind = estimate_smoothness(F, "individual", 48, seed=2).constant
        third = estimate_smoothness(F, "third-moment", 48, seed=2).constant
        assert third <= ind * (1 + 1e-12)

    def test_monotone_in_pairs(self):
        F = quadratic_cosine_sum(4, 5, seed=11)
        small = estimate_smoothness(F, "individual", 24, seed=5).constant
        large = estimate_smoothness(F, "individual", 96, seed=5).constant
        assert large >= small

    def test_validation(self):
        F = quadratic_cosine_sum(2, 3, seed=0)
        with pytest.raises(ValueError, match="mode"):
            estimate_smoothness(F, "max", 10)
        with pytest.raises(ValueError):
            estimate_smoothness(F, "individual", 0)
        with pytest.raises(ValueError):
            SmoothnessReport(mode="individual", constant=-1.0, num_pairs=1)


class TestDefaultEllHat:
    def test_frozen_values(self):
        assert default_ell_hat(1) == pytest.approx(184.7931992859211, rel=1e-6)
        assert default_ell_hat(2) == pytest.approx(1041.2881460955848, rel=1e-6)

    def test_cached(self):
        assert default_ell_hat(2) is not None
        info = default_ell_hat.cache_info()
        default_ell_hat(2)
        assert default_ell_hat.cache_info().hits > info.hits

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="ell_hat"):
            default_ell_hat(3)


class TestEstimatorBounds:
    def _params(self, b_g=8, b_h=32, full_batch=False):
        return SvrcParams(M=1.0, b_g=b_g, b_h=b_h, S=1, T=1, eps=1.0,
                          Delta=1.0, L2=1.0, full_batch=full_batch)

    def test_monte_carlo_passes(self, rng):
        F = quadratic_cosine_sum(16, 5, seed=1)
        x_hat = rng.standard_normal(5)
        x = x_hat + 0.4 * rng.standard_normal(5)
        rep = verify_estimator_bounds(F, x_hat, x, self._params(),
                                      trials=1000, seed=2)
        assert rep.passed
        assert rep.cross_check_rel_err <= 1e-9
        assert rep.grad_mean <= rep.grad_bound * 1.1
        assert rep.hess_mean <= rep.hess_bound * 1.1

    def test_zero_distance_is_exact(self, rng):
        F = quadratic_cosine_sum(8, 4, seed=3)
        x = rng.standard_normal(4)
        rep = verify_estimator_bounds(F, x, x, self._params(), trials=1000)
        assert rep.dist == 0.0
        assert rep.grad_mean == 0.0 and rep.hess_mean == 0.0
        assert rep.passed

    def test_full_batch_deviations_vanish(self, rng):
        F = quadratic_cosine_sum(8, 4, seed=4)
        x_hat = rng.standard_normal(4)
        x = x_hat + 0.3 * rng.standard_normal(4)
        rep = verify_estimator_bounds(F, x_hat, x,
                                      self._params(full_batch=True),
                                      trials=1000)
        assert rep.grad_mean <= 1e-20
        assert rep.passed

    def test_premise_flag(self, rng):
        F = quadratic_cosine_sum(8, 4, seed=5)
        x = rng.standard_normal(4)
        rep = verify_estimator_bounds(F, x, x, self._params(b_h=32),
                                      trials=1000)
        assert rep.premise_ok == (32 >= 12000.0 * math.log(4) ** 3)

    def test_requires_1000_trials(self, rng):
        F = quadratic_cosine_sum(8, 4, seed=6)
        x = rng.standard_normal(4)
        with pytest.raises(ValueError, match="10\\^3"):
            verify_estimator_bounds(F, x, x, self._params(), trials=999)


def _tiny_randomized(n=2, K=2, p=1, seed=0):
    Delta = 192.0 * (K + 0.5) * n ** ((p + 1.0) / (2.0 * p))
    spec = randomized_params("randomized-individual", p=p, n=n, Delta=Delta,
                             L=1.0, eps=1.0, ell_hat=1.0)
    assert spec.K == K
    with pytest.warns(UserWarning):
        return sample_randomized_instance(spec, seed=seed)


class TestLargeGradient:
    def test_randomized_instance(self):
        inst = _tiny_randomized(n=4, K=2)
        rep = verify_large_gradient(inst, seed=1)
        assert rep.passed
        assert rep.bound == pytest.approx(1.0 / 8.0)
        assert rep.min_grad_norm > rep.bound

    def test_haar_rotated_instance(self):
        # the sampled points reach their slots through the rotation C
        Delta = 192.0 * 2.5 * 3.0   # K = floor(Delta / (192 n)) = 2
        spec = randomized_params("randomized-individual", p=1, n=3,
                                 Delta=Delta, L=1.0, eps=1.0, ell_hat=1.0)
        with pytest.warns(UserWarning):
            inst = sample_randomized_instance(spec, seed=4, haar_c=True)
        assert inst.C is not None
        rep = verify_large_gradient(inst, seed=5)
        assert rep.passed
        assert rep.num_points == 1 + 3 * (spec.K - 1)
        assert rep.bound == pytest.approx(1.0 / (4.0 * math.sqrt(3)))
        assert rep.min_grad_norm > rep.bound

    def test_single_component(self):
        inst = _tiny_randomized(n=1, K=3)
        rep = verify_large_gradient(inst, seed=2)
        assert rep.passed
        assert rep.bound == pytest.approx(0.25)

    def test_resisting_delegation(self, rng):
        spec = deterministic_params(p=1, n=4, Delta=576.0, L=ell_p(1), eps=1.0)
        F = ResistingOracle(spec, seed=3)
        for _ in range(6):
            F.component(int(rng.integers(4)), rng.standard_normal(spec.d), 1)
        F.finalize()
        rep = verify_large_gradient(F)
        assert rep.kind == "resisting-certificate"
        assert rep.passed

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            verify_large_gradient(object())


class TestSuboptimality:
    def test_gap_within_bound(self):
        inst = _tiny_randomized(n=2, K=2, seed=5)
        rep = verify_suboptimality(inst, num_starts=6, gd_iters=40, seed=6)
        assert rep.passed
        assert rep.bound == 24.0
        assert rep.gap >= 0.0
        assert rep.gap <= rep.bound


def _sequential_gd(F, x0, iters):
    """Gradient descent with backtracking from one start, one point per
    call: the reference the lockstep routine must reproduce start by
    start."""
    x = x0.copy()
    der = F.full(x, 1)
    f_val, g = der.value, der.grad
    for _ in range(iters):
        gnorm2 = float(g @ g)
        if gnorm2 < 1e-18:
            break
        step = 1.0
        for _ in range(40):
            cand = x - step * g
            f_new = F.full(cand, 0).value
            if f_new <= f_val - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        else:
            break
        x = x - step * g
        der = F.full(x, 1)
        f_val, g = der.value, der.grad
    return f_val


def _suboptimality_starts(view, num_starts, seed):
    """verify_suboptimality's starts: its seeded random draws, then the
    origin."""
    rng = as_rng(seed)
    scales = (0.5, 2.0, 5.0)
    return np.array([rng.standard_normal(view.d) * scales[s % 3]
                     for s in range(num_starts)] + [np.zeros(view.d)])


class TestLockstepDescent:
    """The lockstep multistart descent ends every start where a descent run
    from that start alone ends."""

    @staticmethod
    def _agree(F, starts, iters):
        """Asserts lockstep and one-start runs end at the same values, and
        that the lockstep's start values are the one-point values; returns
        the one-start values."""
        values, lockstep = _gd_backtracking(F, starts, iters=iters)
        assert values.tobytes() == np.array(
            [F.full(x0, 0).value for x0 in starts]).tobytes()
        want = np.array([_sequential_gd(F, x0, iters) for x0 in starts])
        assert lockstep.shape == want.shape
        assert np.all(np.abs(lockstep - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want)))
        return want

    @pytest.mark.parametrize("case", ["tiny", "battery-6", "battery-7"])
    def test_suboptimality_matches_sequential(self, case):
        if case == "tiny":
            inst = _tiny_randomized(n=2, K=2, seed=5)
            starts, iters, seed = 6, 40, 6
        else:
            with pytest.warns(UserWarning):
                inst = _battery_instance(int(case[-1]))
            starts, iters, seed = 6, 200, 8
        view = inst.unscaled_view()
        rows = _suboptimality_starts(view, starts, seed)
        assert not rows[-1].any()            # the origin is a start
        finals = self._agree(view, rows, iters)
        # the report is the one-start runs' verdict on the gap
        rep = verify_suboptimality(inst, num_starts=starts, gd_iters=iters,
                                   seed=seed)
        f0 = view.full(np.zeros(view.d), 0).value
        best = min(f0, *finals)
        assert rep.f_origin == f0
        assert abs(rep.best_found - best) <= 1e-12 * max(1.0, abs(best))
        assert rep.passed == (f0 - best <= rep.bound + 1e-9)
        assert rep.passed and 0.0 <= rep.gap <= rep.bound

    def test_callable_sum_matches_sequential(self, rng):
        F = quadratic_cosine_sum(6, 5, seed=3)
        self._agree(F, rng.standard_normal((5, 5)) * 2.0, iters=60)

    def test_single_start_is_a_stack_of_one(self, rng):
        F = quadratic_cosine_sum(4, 3, seed=1)
        x0 = rng.standard_normal(3)
        values, got = _gd_backtracking(F, x0[None, :], iters=30)
        assert values.shape == got.shape == (1,)
        assert got[0] == _sequential_gd(F, x0, 30)

    def test_starts_stop_on_their_own_rounds(self):
        # (1/6)|x|^3 is stationary at the origin: that start stops at once
        # while the others keep descending
        F = CallableFiniteSum([_cubic_norm_component(1.0)], d=2)
        starts = np.array([[0.0, 0.0], [3.0, -1.0], [-0.2, 0.1]])
        self._agree(F, starts, iters=25)
        _, finals = _gd_backtracking(F, starts, iters=25)
        assert finals[0] == 0.0

    @pytest.mark.parametrize("case", ["battery-6", "battery-7", "battery-8",
                                      "battery-9", "synthetic"])
    def test_trial_blocks_match_one_step_per_block(self, case, monkeypatch):
        # the accepted step is the first passing one however the trial steps
        # are blocked, and a value row of a stacked full is its one-point
        # value, so the final values keep every bit
        if case == "synthetic":
            F = quadratic_cosine_sum(6, 5, seed=3)
            starts = np.random.default_rng(2).standard_normal((9, 5)) * 2.0
        else:
            with pytest.warns(UserWarning):
                F = _battery_instance(int(case[-1])).unscaled_view()
            starts = _suboptimality_starts(F, 20, 8)
        assert [len(steps) for steps in _TRIAL_STEPS] == [1, 39]
        got = _gd_backtracking(F, starts)
        monkeypatch.setattr(hardsum.verify, "_TRIAL_STEPS",
                            np.split(np.concatenate(_TRIAL_STEPS), range(1, 40)))
        want = _gd_backtracking(F, starts)
        assert [part.tobytes() for part in got] == [
            part.tobytes() for part in want]

    def test_a_round_is_one_stacked_order_1_call(self, monkeypatch):
        # verify_suboptimality on battery instances 6-8, 20 starts and the
        # origin: a round answers every trial point at order 1, the first
        # two blocks of a start whose last step was shorter than 1 in the
        # round's one call; a second call comes only when a start that took
        # step 1 in its last round rejects it.
        counts = {0: [0, 0], 1: [0, 0]}
        full = RandomizedHardInstance.full

        def spy(F, x, order=1):
            counts[order][0] += 1
            counts[order][1] += len(x) if np.ndim(x) == 2 else 1
            return full(F, x, order)

        monkeypatch.setattr(RandomizedHardInstance, "full", spy)
        for seed in (6, 7, 8):
            with pytest.warns(UserWarning):
                inst = _battery_instance(seed)
            verify_suboptimality(inst, num_starts=20, seed=8)
        # 200 rounds per instance: 600 first calls, 3 first evaluations and
        # 11 second calls
        assert counts == {0: [0, 0], 1: [614, 24373]}

    def test_failed_line_search_stops_only_its_start(self):
        # 0.5|x|^2 with the gradient's sign flipped where x_0 < 0: there no
        # trial step decreases f, so those starts stop in the first round
        def f(x, order=2):
            g = x if x[0] > 0 else -x
            return Derivatives(0.5 * float(x @ x),
                               g if order >= 1 else None,
                               np.eye(x.size) if order >= 2 else None)
        F = CallableFiniteSum([f], d=2)
        starts = np.array([[-1.0, 2.0], [1.5, -0.5], [-0.3, 0.0]])
        finals = self._agree(F, starts, iters=10)
        assert finals[0] == 2.5 and finals[2] == 0.5 * 0.3 ** 2
        assert finals[1] < 1e-12


#: the checks a battery run reports, in order
BATTERY_NAMES = [
    "check_derivatives", "check_derivatives_chain",
    "check_derivatives_composite", "check_zero_chain_K2",
    "check_zero_chain_K4", "check_zero_chain_K8", "smoothness_power_mean",
    "estimator_bounds", "large_gradient", "suboptimality"]


class TestBattery:
    def test_small_scale_all_pass(self):
        with pytest.warns(UserWarning):
            checks = run_battery(num_points=6, zero_chain_samples=60,
                                 pairs=24, trials=1000, starts=2, seed=0)
        assert [c.name for c in checks] == BATTERY_NAMES
        bad = [c.name for c in checks if c.status == "failed"]
        assert bad == []

    def test_zero_counts_skip(self):
        # every check is skipped under the name a run reports
        checks = run_battery(num_points=0, zero_chain_samples=0, pairs=0,
                             trials=0, starts=0)
        assert [(c.name, c.status) for c in checks] == [
            (name, "skipped") for name in BATTERY_NAMES]
        # a zero count skips exactly the checks it drives, in their places
        checks = run_battery(num_points=0, zero_chain_samples=3, pairs=0,
                             trials=0, starts=0)
        assert [(c.name, c.status) for c in checks] == [
            (name, "passed" if "zero_chain" in name else "skipped")
            for name in BATTERY_NAMES]

    @pytest.mark.parametrize("key", ["num_points", "zero_chain_samples",
                                     "pairs", "trials", "starts"])
    def test_negative_count_is_refused(self, key, monkeypatch):
        # before any check runs
        monkeypatch.setattr(hardsum.verify, "default_ell_hat", lambda p: 1 / 0)
        with pytest.raises(ValueError, match=f"{key} must be >= 0, got -1"):
            run_battery(**{key: -1})

    @pytest.mark.parametrize("check, match", [
        (lambda inst: check_derivatives(quadratic_cosine_sum(2, 3, seed=0),
                                        -2, 1e-6),
         "num_points must be >= 0, got -2"),
        (lambda inst: check_zero_chain(3, -5),
         "num_samples must be >= 0, got -5"),
        (lambda inst: verify_suboptimality(inst, num_starts=-3),
         "num_starts must be >= 0, got -3"),
        (lambda inst: verify_suboptimality(inst, gd_iters=-1),
         "gd_iters must be >= 0, got -1"),
    ], ids=["check_derivatives", "check_zero_chain", "suboptimality-starts",
            "suboptimality-gd-iters"])
    def test_negative_check_count_is_refused(self, check, match):
        # a negative count used to pass vacuously and report itself
        with pytest.warns(UserWarning):
            inst = _battery_instance(6)
        with pytest.raises(ValueError, match=match):
            check(inst)

    @pytest.mark.parametrize("check, match", [
        (lambda: check_zero_chain(1, 10), "K must be >= 2, got 1"),
        (lambda: estimate_smoothness(quadratic_cosine_sum(2, 3, seed=0),
                                     "individual", 0),
         "num_pairs must be >= 1, got 0"),
    ], ids=["check_zero_chain-K", "estimate_smoothness-num_pairs"])
    def test_a_count_below_its_least_is_refused_with_its_value(self, check,
                                                               match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            check()

    @pytest.mark.parametrize("seed, match", [
        (True, "seed must be an integer, got bool"),
        (2.5, "seed must be an integer, got float"),
    ], ids=["bool", "float"])
    def test_a_battery_seed_that_is_no_integer_is_refused(self, seed, match,
                                                          monkeypatch):
        # before any check runs: every check draws from the seed plus an
        # offset, and the first builds its sum from the seed
        monkeypatch.setattr(hardsum.verify, "quadratic_cosine_sum",
                            lambda *args, **kwargs: 1 / 0)
        with pytest.raises(ValueError, match=f"^{match}$"):
            run_battery(seed=seed)

    #: (the count's name, a call that passes v as that count)
    COUNTS = [
        ("num_points", lambda v, rng, inst: check_derivatives(
            quadratic_cosine_sum(2, 3, seed=0), v, 1e-6, seed=rng)),
        ("K", lambda v, rng, inst: check_zero_chain(v, 5, seed=rng)),
        ("num_samples", lambda v, rng, inst: check_zero_chain(4, v,
                                                              seed=rng)),
        ("num_pairs", lambda v, rng, inst: estimate_smoothness(
            quadratic_cosine_sum(2, 3, seed=0), "individual", v, seed=rng)),
        ("trials", lambda v, rng, inst: verify_estimator_bounds(
            quadratic_cosine_sum(4, 3, seed=0), np.zeros(3), np.ones(3),
            SvrcParams(M=1.0, b_g=2, b_h=2, S=1, T=1, eps=1.0, Delta=1.0,
                       L2=1.0, seed=0), v, seed=rng)),
        ("num_starts", lambda v, rng, inst: verify_suboptimality(
            inst, num_starts=v, seed=rng)),
        ("gd_iters", lambda v, rng, inst: verify_suboptimality(
            inst, gd_iters=v, seed=rng)),
        ("starts", lambda v, rng, inst: run_battery(starts=v)),
        ("n", lambda v, rng, inst: quadratic_cosine_sum(v, 3, seed=rng)),
        ("d", lambda v, rng, inst: quadratic_cosine_sum(4, v, seed=rng)),
    ]

    @pytest.mark.parametrize("value", [True, 2.5, np.float64(3.0), "3"],
                             ids=["bool", "float", "numpy-float", "str"])
    @pytest.mark.parametrize("name, check", COUNTS,
                             ids=[name for name, _ in COUNTS])
    def test_a_count_that_is_no_integer_is_refused(self, name, check, value,
                                                    monkeypatch):
        # refused by name, before anything is drawn or any check runs
        with pytest.warns(UserWarning):
            inst = _battery_instance(6)
        monkeypatch.setattr(hardsum.verify, "default_ell_hat", lambda p: 1 / 0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            check(value, rng, inst)
        assert rng.bit_generator.state == state

    def test_numpy_integer_counts_are_python_ints(self):
        rep = check_zero_chain(np.int64(4), np.int32(3))
        assert type(rep.K) is int and type(rep.num_samples) is int
        with pytest.warns(UserWarning):
            inst = _battery_instance(6)
        rep = verify_suboptimality(inst, num_starts=np.int64(2),
                                   gd_iters=np.int8(3))
        assert type(rep.num_starts) is int
        F = quadratic_cosine_sum(np.int64(3), np.uint8(2), seed=0)
        assert (type(F.n), type(F.d)) == (int, int) and (F.n, F.d) == (3, 2)
        with pytest.raises(ValueError, match="n and d must be at least one"):
            quadratic_cosine_sum(4, 0, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smoothness_constants_match_two_estimates(self, seed):
        # one pass of Hessian differences gives both constants, as two
        # estimate_smoothness runs on the same sum, seed and pairs do
        checks = run_battery(num_points=0, zero_chain_samples=0, pairs=120,
                             trials=0, starts=0, seed=seed)
        synth = quadratic_cosine_sum(8, 6, seed=seed + 3)
        want = {mode.replace("-", "_"):
                estimate_smoothness(synth, mode, 120, seed=seed).constant
                for mode in ("individual", "third-moment")}
        details = {c.name: c.details for c in checks}["smoothness_power_mean"]
        assert _bits(details) == _bits(want)

    def test_sabotaged_chain_derivative_is_caught(self, monkeypatch):
        real_table = hardsum.chains._psi_table

        def skewed(x, order):
            out = real_table(x, order)
            if order >= 1:
                out[1] *= 1.3
            return out

        monkeypatch.setattr(hardsum.chains, "_psi_table", skewed)
        checks = run_battery(num_points=6, zero_chain_samples=0, pairs=0,
                             trials=0, starts=0, seed=0)
        by_name = {c.name: c.status for c in checks}
        # the synthetic check shares no code with the chain and stays green
        assert by_name["check_derivatives"] == "passed"
        assert by_name["check_derivatives_chain"] == "failed"
        assert by_name["check_derivatives_composite"] == "failed"


#: a battery of the hard-instance checks alone, with a short descent
HARD_ONLY = dict(num_points=0, zero_chain_samples=0, pairs=0, trials=0,
                 starts=3)


def _descent_pid(instance, num_starts, seed):
    """A stand-in for verify_suboptimality whose report holds the id of
    the process that ran it."""
    return SuboptimalityReport(passed=True, f_origin=float(os.getpid()),
                               best_found=0.0, gap=0.0, bound=1.0,
                               num_starts=num_starts)


class TestForkedDescent:
    """``run_battery`` runs the suboptimality descent in a forked child
    where that can help, with the inline run's reports and refusals."""

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_the_forked_report_is_the_inline_report(self, seed, monkeypatch):
        calls = _forks(monkeypatch)
        with pytest.warns(UserWarning):
            checks = run_battery(**HARD_ONLY, seed=seed)
        assert calls == [os.getpid()]
        _no_child_left()
        with pytest.warns(UserWarning):
            inst = _battery_instance(seed + 6)
        want = [verify_large_gradient(inst, seed=seed + 7),
                verify_suboptimality(inst, num_starts=3, seed=seed + 8)]
        assert [c.name for c in checks] == BATTERY_NAMES
        assert [(c.status, _bits(c.details)) for c in checks[-2:]] == [
            (_status(rep.passed), _bits(rep.to_dict())) for rep in want]

    def test_the_descent_runs_in_another_process(self, monkeypatch):
        calls = _forks(monkeypatch)
        monkeypatch.setattr(hardsum.verify, "verify_suboptimality",
                            _descent_pid)
        with pytest.warns(UserWarning):
            checks = run_battery(**HARD_ONLY)
        assert len(calls) == 1
        assert checks[-1].details["f_origin"] not in (0.0, os.getpid())
        _no_child_left()

    def test_an_exception_in_the_child_reaches_the_caller(self, monkeypatch):
        _forks(monkeypatch)

        def broken(*args, **kwargs):
            raise ValueError("the descent broke")

        monkeypatch.setattr(hardsum.verify, "verify_suboptimality", broken)
        with pytest.warns(UserWarning), \
                pytest.raises(ValueError, match="^the descent broke$"):
            run_battery(**HARD_ONLY)
        _no_child_left()

    def test_a_warning_in_the_child_reaches_the_caller(self, monkeypatch):
        _forks(monkeypatch)

        def warned(*args, **kwargs):
            warnings.warn("a warned descent", DeprecationWarning)
            return _descent_pid(*args, **kwargs)

        monkeypatch.setattr(hardsum.verify, "verify_suboptimality", warned)
        with pytest.warns(UserWarning), \
                pytest.warns(DeprecationWarning, match="^a warned descent$"):
            checks = run_battery(**HARD_ONLY)
        assert checks[-1].status == "passed"
        _no_child_left()

    def test_a_child_that_sends_nothing_is_named_by_its_status(
            self, monkeypatch):
        _forks(monkeypatch)
        parent = os.getpid()

        def dies(*args, **kwargs):
            assert os.getpid() != parent    # never end the test process
            os._exit(7)

        monkeypatch.setattr(hardsum.verify, "verify_suboptimality", dies)
        with pytest.warns(UserWarning), pytest.raises(
                RuntimeError, match=r"sent no result \(exit status 7\)"):
            run_battery(**HARD_ONLY)
        _no_child_left()

    def test_a_check_that_raises_in_the_parent_leaves_no_child(
            self, monkeypatch):
        # the child would descend for a minute; the parent's error kills it
        _forks(monkeypatch)
        parent = os.getpid()

        def slow(*args, **kwargs):
            assert os.getpid() != parent
            time.sleep(60)

        def broken(*args, **kwargs):
            raise KeyError("large gradient")

        monkeypatch.setattr(hardsum.verify, "verify_suboptimality", slow)
        monkeypatch.setattr(hardsum.verify, "verify_large_gradient", broken)
        start = time.monotonic()
        with pytest.warns(UserWarning), pytest.raises(KeyError):
            run_battery(**HARD_ONLY)
        assert time.monotonic() - start < 30
        assert hardsum._fork._helper is None
        _no_child_left()

    def test_the_callers_garbage_is_not_finalized_in_the_child(
            self, tmp_path, monkeypatch):
        # a cycle the caller dropped before the fork is finalized by the
        # caller's collector alone, though the child runs a full collection
        _forks(monkeypatch)
        finalized = tmp_path / "finalized"

        class Cycle:
            def __del__(self):
                with open(finalized, "a", encoding="utf-8") as fh:
                    fh.write(f"{os.getpid()}\n")

        def collects(*args, **kwargs):
            gc.collect()
            return _descent_pid(*args, **kwargs)

        monkeypatch.setattr(hardsum.verify, "verify_suboptimality", collects)
        gc.disable()
        try:
            cycle = Cycle()
            cycle.itself = cycle
            del cycle
            with pytest.warns(UserWarning):
                run_battery(**HARD_ONLY)
        finally:
            gc.enable()
        gc.collect()
        assert finalized.read_text(encoding="utf-8") == f"{os.getpid()}\n"
        _no_child_left()

    def test_hardsum_verify_prints_its_table_once(self, tmp_path):
        # the child leaves by os._exit: it returns to no caller and flushes
        # none of the output the parent had buffered when it forked.  A
        # fresh interpreter writing to a pipe buffers its stdout, which
        # pytest's own capture does not.
        config = tmp_path / "c.ini"
        config.write_text("[verify]\nnum_points = 0\nzero_chain_samples = 0"
                          "\npairs = 0\ntrials = 0\nstarts = 2\n",
                          encoding="utf-8")
        buffered = "buffered before the battery; "
        script = (
            "import os, sys, warnings\n"
            "warnings.simplefilter('ignore', UserWarning)\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "from hardsum.cli import main\n"
            f"sys.stdout.write({buffered!r})\n"
            "code = main(['verify', '--config', sys.argv[1]])\n"
            "sys.exit(code if forks == [1] else 3)\n")
        env = dict(os.environ, PYTHONPATH=str(
            Path(hardsum.verify.__file__).resolve().parents[1]))
        run = subprocess.run([sys.executable, "-c", script, str(config)],
                             capture_output=True, text=True, env=env,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        out = run.stdout
        assert out.startswith(buffered) and out.count(buffered) == 1
        lines = out[len(buffered):].splitlines()
        assert [line.split() for line in lines] == [
            [name, "passed" if name in ("large_gradient", "suboptimality")
             else "skipped"] for name in BATTERY_NAMES]

    @pytest.mark.parametrize("where", ["no-fork", "one-cpu", "two-threads"])
    def test_the_descent_runs_inline_where_a_fork_cannot_help(
            self, where, monkeypatch):
        calls = _forks(monkeypatch, cpus=1 if where == "one-cpu" else 2)
        if where == "no-fork":
            monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(hardsum.verify, "verify_suboptimality",
                            _descent_pid)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(30,))
        if where == "two-threads":
            other.start()
        try:
            with pytest.warns(UserWarning):
                checks = run_battery(**HARD_ONLY)
        finally:
            release.set()
            if other.is_alive():
                other.join(30)
        assert calls == []
        assert checks[-1].details["f_origin"] == os.getpid()


def test_report_to_dict_follows_dataclass_fields():
    """Every report serializes exactly its fields, in declaration order, to
    JSON-ready types."""
    F = quadratic_cosine_sum(4, 3, seed=0)
    params = SvrcParams(M=1.0, b_g=2, b_h=3, S=1, T=1, eps=1.0, Delta=1.0,
                        L2=1.0)
    x = np.ones(3)
    inst = _tiny_randomized(n=2, K=2)
    reports = [
        check_derivatives(F, num_points=1, tol=1e-6),
        check_zero_chain(3, num_samples=5),
        estimate_smoothness(F, "individual", 3),
        verify_estimator_bounds(F, np.zeros(3), x, params, trials=1000,
                                L2_hat=1.0),
        verify_large_gradient(inst),
        verify_suboptimality(inst, num_starts=1, gd_iters=2),
        BatteryCheck("x", "passed", {"a": 1.0}),
        inst.spec,
    ]
    for rep in reports:
        d = rep.to_dict()
        assert list(d) == [f.name for f in dataclasses.fields(rep)]
        json.loads(json.dumps(d))


# ---------------------------------------------------------------------------
# the stacked checks against their one-point loops


def _one_point_check_derivatives(F, num_points, tol, seed):
    """Reference: every finite-difference point is its own component call."""
    rng = as_rng(seed)
    scales = (0.25, 0.5, 1.0, 2.0)
    worst = {"rel_err": 0.0}
    for t in range(num_points):
        x = rng.standard_normal(F.d) * scales[t % len(scales)]
        for i in range(F.n):
            der = F.component(i, x, order=2)
            g_fd = finite_diff_gradient(
                lambda z, i=i: F.component(i, z, order=0).value, x)
            H_fd = finite_diff_jacobian(
                lambda z, i=i: F.component(i, z, order=1).grad, x)
            err, which = max((rel_err(der.grad, g_fd), "grad"),
                             (rel_err(der.hess, H_fd), "hess"))
            if err > worst["rel_err"]:
                worst = {"rel_err": float(err), "component": i,
                         "point_index": t, "which": which}
    return {"passed": bool(worst["rel_err"] <= tol),
            "max_rel_err": float(worst["rel_err"]), "tol": tol,
            "num_points": num_points, "worst": worst}


def _one_point_smoothness(F, mode, num_pairs, seed):
    """Reference: one component call per (pair, point, component) and one
    eigvalsh per Hessian difference."""
    rng = as_rng(seed)
    order = 1 if mode == "mean-squared" else 2
    best = 0.0
    for x, y in _pair_stream(F.d, num_pairs, rng):
        dist = float(np.linalg.norm(x - y))
        if dist == 0.0:
            continue
        if mode == "mean-squared":
            acc = 0.0
            for i in range(F.n):
                dg = F.component(i, x, order).grad - F.component(i, y, order).grad
                acc += float(dg @ dg)
            ratio = math.sqrt(acc / F.n) / dist
        else:
            norms = np.empty(F.n)
            for i in range(F.n):
                dH = F.component(i, x, order).hess - F.component(i, y, order).hess
                norms[i] = np.abs(np.linalg.eigvalsh(0.5 * (dH + dH.T))).max()
            if mode == "individual":
                ratio = float(norms.max()) / dist
            else:
                ratio = float((norms ** 3).mean()) ** (1.0 / 3.0) / dist
        best = max(best, ratio)
    return best


def _one_point_zero_chain(K, num_samples, seed, tol=1e-12):
    """Reference: two chain calls per sample, drawn and evaluated in turn."""
    rng = as_rng(seed)
    mask = np.ones(K)
    max_partial = max_change = 0.0
    checked = skipped = 0
    for _ in range(num_samples):
        m = int(rng.integers(0, K + 1))
        x = rng.uniform(-0.45, 0.45, size=K)
        x[:m] = rng.uniform(-2.5, 2.5, size=m)
        if m >= K:
            skipped += 1
            continue
        der = chain_eval(K, mask, x, order=1)
        if m + 1 < K:
            max_partial = max(max_partial,
                              float(np.abs(der.grad[m + 1:]).max()))
        x_zeroed = x.copy()
        x_zeroed[m + 1:] = 0.0
        val_zeroed = chain_eval(K, mask, x_zeroed, order=0).value
        max_change = max(max_change, abs(der.value - val_zeroed))
        checked += 1
    return {"passed": bool(max_partial <= tol and max_change <= tol), "K": K,
            "num_samples": num_samples, "checked": checked,
            "skipped": skipped, "max_partial": max_partial,
            "max_value_change": max_change}


def _one_point_large_gradient(subject, seed):
    """Reference: the gradient floor's points drawn in turn, each answered
    by a one-point ``full``."""
    inst = subject.unscaled_view()
    n, K = inst.spec.n, inst.spec.K
    bound = 1.0 / (4.0 * math.sqrt(n))
    rng = as_rng(seed)
    norms = [float(np.linalg.norm(inst.full(np.zeros(inst.d), 1).grad))]
    for prefix in range(1, K):
        for scale in (0.5, 2.0, 8.0):
            x = np.zeros(inst.d)
            for i in range(n):
                w = rng.standard_normal(prefix)
                w *= scale / np.linalg.norm(w)
                x += inst.embed(i, inst.B.columns[:, i * K:i * K + prefix] @ w)
            norms.append(float(np.linalg.norm(inst.full(x, 1).grad)))
    return {"passed": bool(min(norms) > bound), "kind": "randomized-instance",
            "bound": bound, "min_grad_norm": min(norms),
            "num_points": len(norms), "details": {"n": n, "K": K}}


def _subjects():
    """The battery's sums, a randomized instance and a sum of one-point
    callables (answered point by point)."""
    rng = np.random.default_rng(5)
    return {
        "synthetic": quadratic_cosine_sum(4, 6, seed=1),
        "chain": _chain_sum(4),
        "composite": _hat_sum(3, 12, seed=2),
        "randomized": _tiny_randomized(n=2, K=2).unscaled_view(),
        "one-point": CallableFiniteSum(
            [_cubic_norm_component(2.0),
             _linear_component(rng.standard_normal(3))], d=3),
    }


def _bits(report: dict) -> str:
    # floats serialize by repr, so equal text is equal bits
    return json.dumps(report, sort_keys=True)


class TestStackedChecksMatchOnePointLoops:
    @pytest.mark.parametrize("name", ["synthetic", "chain", "composite",
                                      "randomized", "one-point"])
    def test_check_derivatives(self, name):
        F = _subjects()[name]
        got = check_derivatives(F, 5, 1e-6, seed=3)
        assert _bits(got.to_dict()) == _bits(
            _one_point_check_derivatives(F, 5, 1e-6, seed=3))

    @pytest.mark.parametrize("name", ["synthetic", "chain", "composite",
                                      "randomized", "one-point"])
    def test_check_derivatives_over_partial_blocks(self, name):
        # 13 points end every subject's run on a partial block of points
        F = _subjects()[name]
        assert 13 % max(1, _STENCIL_BLOCK // (4 * F.d)) != 0
        got = check_derivatives(F, 13, 1e-6, seed=7)
        assert _bits(got.to_dict()) == _bits(
            _one_point_check_derivatives(F, 13, 1e-6, seed=7))

    def test_check_derivatives_ties_and_repeats(self):
        # the worst error, exactly 1, ties between gradient and Hessian and
        # repeats at later points of both blocks, the last one partial; a
        # NaN Hessian error never becomes the worst
        F = _StackSum([_far_off_quadratic(3, 3.5), _far_off_quadratic(3, 2.5),
                       _far_off_quadratic(3, np.inf, nan_hess=True)], d=3)
        num_points, seed = 30, 2
        block = _STENCIL_BLOCK // (4 * F.d)
        assert num_points % block != 0
        got = check_derivatives(F, num_points, 1e-6, seed=seed)
        assert _bits(got.to_dict()) == _bits(
            _one_point_check_derivatives(F, num_points, 1e-6, seed=seed))
        # the points the check draws, and those where a component is off
        rng = as_rng(seed)
        norms = [np.linalg.norm(rng.standard_normal(3) * (0.25, 0.5, 1.0,
                                                          2.0)[t % 4])
                 for t in range(num_points)]
        far = [t for t, r in enumerate(norms) if r > 2.5]
        assert 0 < far[0] < far[1] < block <= far[-1]
        assert got.worst == {"rel_err": 1.0, "component": 1,
                             "point_index": far[0], "which": "hess"}

    @pytest.mark.parametrize("mode", ["individual", "mean-squared",
                                      "third-moment"])
    @pytest.mark.parametrize("name", ["synthetic", "chain", "composite",
                                      "randomized", "one-point"])
    def test_estimate_smoothness(self, name, mode):
        F = _subjects()[name]
        got = estimate_smoothness(F, mode, 25, seed=4)
        assert _bits(got.constant) == _bits(
            _one_point_smoothness(F, mode, 25, seed=4))

    @pytest.mark.parametrize("seed", [3, 6, 9])
    @pytest.mark.parametrize("haar_c", [False, True])
    def test_verify_large_gradient(self, seed, haar_c, monkeypatch):
        # every point of the floor is answered by one stacked full call,
        # with the one-point loop's report bit for bit
        with pytest.warns(UserWarning):
            inst = _battery_instance(seed)
            if haar_c:
                inst = sample_randomized_instance(inst.spec, seed=seed,
                                                  haar_c=True)
        want = _one_point_large_gradient(inst, seed + 1)
        calls = []
        full = RandomizedHardInstance.full

        def spy(F, x, order=1):
            calls.append((np.shape(x), order))
            return full(F, x, order)

        monkeypatch.setattr(RandomizedHardInstance, "full", spy)
        got = verify_large_gradient(inst, seed=seed + 1)
        assert calls == [((want["num_points"], inst.d), 1)]
        assert _bits(got.to_dict()) == _bits(want)

    @pytest.mark.parametrize("K,num_samples", [(2, 60), (4, 60), (8, 60),
                                               (2, 1), (3, 0)])
    def test_check_zero_chain(self, K, num_samples):
        got = check_zero_chain(K, num_samples, seed=K)
        assert _bits(got.to_dict()) == _bits(
            _one_point_zero_chain(K, num_samples, seed=K))


def _far_off_quadratic(d, radius, nan_hess=False):
    """A stack callable of 0.5 |x|^2 whose analytic gradient and Hessian
    read 1e20 in every entry where |x| > radius.  Both relative errors are
    exactly 1 there: the central differences of the values (about x) vanish
    beside 1e20, and those of the constant gradient are exactly zero.  With
    ``nan_hess`` the Hessian is NaN where x_0 < 0."""
    def f(x, order):
        far = np.linalg.norm(x, axis=-1) > radius
        grad = np.where(far[..., None], 1e20, x)
        hess = np.where(far[..., None, None], 1e20, np.eye(d))
        if nan_hess:
            hess = np.where((x[..., 0] < 0)[..., None, None], np.nan, hess)
        return Derivatives(0.5 * row_dot(x, x), grad, hess)
    return f


def _component_callables(F):
    """F's components as stack callables, for building sums from them."""
    return [lambda x, order, i=i: F.component(i, x, order)
            for i in range(F.n)]


def _nan_hessian(f):
    """The stack callable f with a NaN Hessian wherever x_0 > 1."""
    def g(x, order):
        der = f(x, order)
        if order < 2:
            return der
        hess = np.where((x[..., 0] > 1.0)[..., None, None], np.nan, der.hess)
        return Derivatives(der.value, der.grad, hess)
    return g


def _outcome(f, *args) -> str:
    """The bits of f's result, or its LinAlgError."""
    try:
        return _bits(f(*args))
    except np.linalg.LinAlgError as err:
        return repr(err)


def _cubic_diagonal(a):
    """The stack callable of a sum(x^3) / 6, whose Hessian is a diag(x)."""
    def f(x, order):
        return Derivatives(a * (x ** 3).sum(axis=-1) / 6.0, 0.5 * a * x ** 2,
                           a * x[..., None] * np.eye(x.shape[-1]))
    return f


class TestPrunedIndividualProbe:
    """The individual probe eigendecomposes only the Hessian differences
    whose Frobenius bound reaches their pair's running maximum; each maximum
    keeps the bits of the full (pairs, n) table's row maximum."""

    @staticmethod
    def _same_as_full_table(F, num_pairs, seed) -> float:
        dists, table = _pair_differences(F, 2, num_pairs, seed)
        got_dists, maxima = _pair_differences(F, 2, num_pairs, seed,
                                              pair_max=True)
        assert got_dists == dists
        assert same_bits(maxima, table.max(axis=1))
        got = estimate_smoothness(F, "individual", num_pairs, seed=seed)
        assert _bits(got.constant) == _bits(
            _smoothness_constant("individual", dists, table, F.n))
        return got.constant

    @pytest.mark.parametrize("seed", range(10))
    def test_battery_probe_size(self, seed):
        # the estimator_bounds check's L2_hat probe at battery seed `seed`
        F = quadratic_cosine_sum(64, 8, seed=seed + 4)
        got = self._same_as_full_table(F, 150, seed + 1)
        assert _bits(got) == _bits(
            _one_point_smoothness(F, "individual", 150, seed + 1))

    @pytest.mark.parametrize("name", ["synthetic", "composite",
                                      "randomized"])
    def test_subjects(self, name):
        F = _subjects()[name]
        got = self._same_as_full_table(F, 60, 9)
        assert _bits(got) == _bits(
            _one_point_smoothness(F, "individual", 60, 9))

    def test_identical_components_tie(self, monkeypatch):
        # every bound ties its pair's maximum, so nothing is skipped: the
        # full table, the pruned maxima and the estimate each decompose all
        # 5 x 40 differences
        f = _component_callables(quadratic_cosine_sum(1, 6, seed=2))[0]
        F = _StackSum([f] * 5, d=6)
        decomposed = _spy_eigvalsh(monkeypatch)
        self._same_as_full_table(F, 40, 3)
        assert decomposed == [40] * 15

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_nan_hessian(self, at, d):
        # a NaN difference is never skipped, so the probe ends as the full
        # table does: with NaN pair maxima at d = 2 (LAPACK answers NaN),
        # with a LinAlgError at d = 4
        comps = _component_callables(quadratic_cosine_sum(5, d, seed=6))
        comps[at] = _nan_hessian(comps[at])
        F = _StackSum(comps, d=d)

        def maxima(**kw):
            return _pair_differences(F, 2, 60, 5, **kw)[1].reshape(
                60, -1).max(axis=1).tolist()

        def full_table():
            return _smoothness_constant(
                "individual", *_pair_differences(F, 2, 60, 5), F.n)

        got = _outcome(lambda: maxima(pair_max=True))
        assert got == _outcome(maxima)
        assert ("NaN" in got) == (d == 2)
        assert ("LinAlgError" in got) == (d == 4)
        assert _outcome(
            lambda: estimate_smoothness(F, "individual", 60, 5).constant
        ) == _outcome(full_table) == _outcome(
            _one_point_smoothness, F, "individual", 60, 5)

    def test_underflowing_frobenius_norm_is_not_skipped(self):
        # the second component's squared entries (about 1e-340) underflow
        # to zero, yet its differences exceed the first component's
        F = _StackSum([_cubic_diagonal(1e-200), _cubic_diagonal(1e-170)],
                      d=3)
        got = self._same_as_full_table(F, 30, 1)
        assert 1e-171 < got < 1e-169

    def test_battery_probe_skips_most_eigensolves(self, monkeypatch):
        F = quadratic_cosine_sum(64, 8, seed=4)
        decomposed = _spy_eigvalsh(monkeypatch)
        estimate_smoothness(F, "individual", 150, seed=1)
        assert len(decomposed) == 64 and decomposed[0] == 150
        assert sum(decomposed) < 2400


def _spy_eigvalsh(monkeypatch) -> list:
    """The number of matrices of each ``np.linalg.eigvalsh`` call from now
    on, in call order."""
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def spy(a):
        sizes.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


# ---------------------------------------------------------------------------
# the stacked Monte Carlo against its per-trial loop


def _per_trial_estimator_bounds(instance, x_hat, x, params, trials, seed,
                                L2_hat, slack=0.1):
    """verify_estimator_bounds one trial at a time (the reference): each
    trial's counts, 1-D contractions, norm and eigvalsh on their own, and
    the first 8 trials cross-checked as they are drawn."""
    n, d = instance.n, instance.d
    rng = as_rng(seed)
    dist = float(np.linalg.norm(x - x_hat))
    at_x = instance.components(range(n), x, 2)
    at_hat = instance.components(range(n), x_hat, 2)
    gF, HF = at_x.grad.mean(axis=0), at_x.hess.mean(axis=0)
    g_s, H_s = at_hat.grad.mean(axis=0), at_hat.hess.mean(axis=0)
    dx = x - x_hat
    dG = at_x.grad - at_hat.grad
    Hdx = at_hat.hess @ dx
    dH = at_x.hess - at_hat.hess
    snapshot = _Evaluated.evaluate(instance, np.arange(n), x_hat, 2)

    def op_norm(A):
        return np.abs(np.linalg.eigvalsh(0.5 * (A + A.T))).max()

    b_g, b_h = params.batch_sizes(n)
    g_moments = np.empty(trials)
    h_moments = np.empty(trials)
    cross_err = 0.0
    for t in range(trials):
        (idx_g,), (idx_h,) = _draw_batches(params, n, rng, 1)
        w_g = np.bincount(idx_g, minlength=n) / b_g
        w_h = np.bincount(idx_h, minlength=n) / b_h
        v = w_g @ dG + g_s - (w_g @ Hdx - H_s @ dx)
        U = np.tensordot(w_h, dH, axes=1) + H_s
        g_moments[t] = float(np.linalg.norm(gF - v)) ** 1.5
        h_moments[t] = float(op_norm(HF - U)) ** 3
        if t < 8:
            led = OracleLedger(n=n)
            v_ref = svrc_gradient_estimator(led, x, idx_g, snapshot)
            U_ref = svrc_hessian_estimator(led, x, idx_h, snapshot)
            cross_err = max(
                cross_err,
                rel_err(g_moments[t],
                        float(np.linalg.norm(gF - v_ref)) ** 1.5),
                rel_err(h_moments[t], float(op_norm(HF - U_ref)) ** 3))
    grad_bound = 2.0 * L2_hat ** 1.5 * b_g ** -0.75 * dist ** 3
    hess_bound = 15000.0 * L2_hat ** 3 * (math.log(d) / b_h) ** 1.5 * dist ** 3
    grad_mean = float(g_moments.mean())
    hess_mean = float(h_moments.mean())
    grad_pass = grad_mean <= grad_bound * (1.0 + slack)
    hess_pass = hess_mean <= hess_bound * (1.0 + slack)
    return EstimatorBoundsReport(
        passed=bool(grad_pass and hess_pass and cross_err <= 1e-9),
        trials=trials, dist=dist, L2_hat=float(L2_hat),
        grad_mean=grad_mean, grad_bound=float(grad_bound),
        grad_pass=bool(grad_pass), hess_mean=hess_mean,
        hess_bound=float(hess_bound), hess_pass=bool(hess_pass),
        slack=slack, premise_ok=bool(b_h >= 12000.0 * math.log(d) ** 3),
        cross_check_rel_err=float(cross_err))


def _callable_copy(F):
    """F's components as one-point callables (the default row-set path)."""
    return CallableFiniteSum(
        [lambda x, order, i=i: F.component(i, x, order) for i in range(F.n)],
        d=F.d)


class TestStackedMonteCarlo:
    """verify_estimator_bounds contracts its trials as stacks and keeps
    every report byte and the generator's stream of the per-trial loop."""

    @staticmethod
    def _setup(n=16, d=5, b_g=8, b_h=32, full_batch=False, point_seed=7):
        F = quadratic_cosine_sum(n, d, seed=1)
        params = SvrcParams(M=1.0, b_g=b_g, b_h=b_h, S=1, T=1, eps=1.0,
                            Delta=1.0, L2=1.0, full_batch=full_batch)
        rng = np.random.default_rng(point_seed)
        x_hat = rng.standard_normal(d)
        return F, params, x_hat, x_hat + 0.4 * rng.standard_normal(d)

    def _agree(self, F, params, x_hat, x, trials, seed):
        # a generator seed shows the stream each side leaves behind
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        got = verify_estimator_bounds(F, x_hat, x, params, trials,
                                      seed=got_rng, L2_hat=2.0)
        want = _per_trial_estimator_bounds(F, x_hat, x, params, trials,
                                           want_rng, L2_hat=2.0)
        assert _bits(got.to_dict()) == _bits(want.to_dict())
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeds(self, seed):
        rep = self._agree(*self._setup(), trials=1000, seed=seed)
        assert rep.passed and rep.cross_check_rel_err <= 1e-9

    @pytest.mark.parametrize("point_seed", [9, 10])
    def test_repeated_deviations_pin_their_last_bits(self, point_seed):
        # two components and batches of 2 and 3 leave a few distinct
        # deviations, each repeated hundreds of times, so the means carry
        # every deviation's last bit: at these points a power taken by
        # numpy's vectorized pow instead of a Python float's moves
        # grad_mean (point 9) or hess_mean (point 10)
        self._agree(*self._setup(n=2, b_g=2, b_h=3, point_seed=point_seed),
                    trials=1000, seed=0)

    def test_full_batch_schedule(self):
        self._agree(*self._setup(n=8, full_batch=True), trials=1000, seed=3)

    def test_callable_sum(self):
        F, params, x_hat, x = self._setup(n=6, d=4, b_g=5, b_h=9)
        self._agree(_callable_copy(F), params, x_hat, x, trials=1000, seed=4)

    @pytest.mark.parametrize("n, b_g, b_h, full_batch", [
        (7, 7, 31, False), (100, 9, 741, False), (256, 423, 32, False),
        (16, 8, 9, False), (1, 3, 5, False), (7, 7, 31, True)])
    def test_block_draw_is_the_per_trial_stream(self, n, b_g, b_h,
                                                full_batch):
        # one integers call per block equals two draws per trial, gradient
        # batch first, values and the state left behind, because numpy
        # buffers the 32-bit words of bounded draws across calls; odd
        # batches and n not a power of two would show a numpy that resets
        # that buffer per call
        params = SvrcParams(M=1.0, b_g=b_g, b_h=b_h, S=1, T=1, eps=1.0,
                            Delta=1.0, L2=1.0, full_batch=full_batch)
        for seed in range(4):
            got_rng, want_rng = (np.random.default_rng(seed)
                                 for _ in range(2))
            for trials in (1, 5, 8):
                got = _draw_batches(params, n, got_rng, trials)
                want = ([np.tile(np.arange(n), (trials, 1))] * 2
                        if full_batch else
                        zip(*[(want_rng.integers(0, n, size=b_g),
                               want_rng.integers(0, n, size=b_h))
                              for _ in range(trials)]))
                for block, rows in zip(got, want):
                    assert same_bits(block, np.array(rows))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_trials_span_several_blocks(self):
        trials = 2 * _MC_BLOCK + 76
        self._agree(*self._setup(b_g=16, b_h=64), trials=trials, seed=5)

    def test_long_batches_take_smaller_blocks(self, monkeypatch):
        # b_g + b_h = 10,016 indices a trial: a block of 512 trials held
        # 41 MB of draws and as much again in offset copies
        F, params, x_hat, x = self._setup(b_g=16, b_h=10_000)
        tracemalloc.start()
        try:
            got = verify_estimator_bounds(F, x_hat, x, params, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30e6, peak
        monkeypatch.setattr(hardsum.verify, "_MC_BLOCK_INDICES", 1 << 40)
        want = verify_estimator_bounds(F, x_hat, x, params, 1000)
        assert _bits(got.to_dict()) == _bits(want.to_dict())

    def test_the_cross_check_spans_blocks(self, monkeypatch):
        # blocks of 3 trials: the 8 metered trials come from three blocks
        monkeypatch.setattr(hardsum.verify, "_MC_BLOCK_INDICES", 3 * 40)
        hits, hit = [], OracleLedger.record_cache_hit
        monkeypatch.setattr(OracleLedger, "record_cache_hit", lambda led, c=1:
                            hits.append(c) or hit(led, c))
        rep = self._agree(*self._setup(), trials=1000, seed=6)
        # 8 metered Hessian estimates on each side, the per-trial loop's too
        assert rep.passed and hits == [32] * 16

    @pytest.mark.parametrize("name", ["_gradient_estimate",
                                      "_hessian_estimate"])
    def test_perturbed_stack_fails_the_cross_check(self, monkeypatch, name):
        # the metered estimators keep optim's contraction; only the
        # Monte-Carlo stack goes through verify's binding
        real = getattr(hardsum.optim, name)
        monkeypatch.setattr(hardsum.verify, name,
                            lambda *args: real(*args) * (1.0 + 1e-6))
        F, params, x_hat, x = self._setup()
        rep = verify_estimator_bounds(F, x_hat, x, params, 1000, seed=0,
                                      L2_hat=2.0)
        assert rep.cross_check_rel_err > 1e-9
        assert not rep.passed

    def test_cross_check_runs_the_snapshot_path(self, monkeypatch):
        # the 8 metered trials read xh from one whole view, every row in
        # index order, so each Hessian estimate records b_h cache hits
        F, params, x_hat, x = self._setup()
        hits, views = [], []
        hit = OracleLedger.record_cache_hit
        monkeypatch.setattr(OracleLedger, "record_cache_hit", lambda led, c=1:
                            hits.append(c) or hit(led, c))
        for name in ("svrc_gradient_estimator", "svrc_hessian_estimator"):
            monkeypatch.setattr(hardsum.verify, name, lambda *a, f=getattr(
                hardsum.verify, name): views.append(a[-1]) or f(*a))
        assert verify_estimator_bounds(F, x_hat, x, params, 1000,
                                       L2_hat=2.0).passed
        assert hits == [32] * 8 and len(views) == 16
        assert all(v is views[0] for v in views)
        assert np.array_equal(views[0].x, x_hat)
        assert views[0].whole


class TestNumpyIntegerSeeds:
    """A numpy integer seed is the integer it holds."""

    def test_estimate_smoothness(self):
        F = quadratic_cosine_sum(8, 4, seed=1)
        got = estimate_smoothness(F, "individual", 30, seed=np.int64(5))
        want = estimate_smoothness(F, "individual", 30, seed=5)
        assert got.seed == 5
        assert _bits(got.to_dict()) == _bits(want.to_dict())

    def test_estimator_bounds_probe_seed(self):
        # the L2_hat probe runs with seed + 1
        F = quadratic_cosine_sum(8, 4, seed=1)
        params = SvrcParams(M=1.0, b_g=8, b_h=32, S=1, T=1, eps=1.0,
                            Delta=1.0, L2=1.0)
        x_hat = np.zeros(4)
        x = np.full(4, 0.3)
        got = verify_estimator_bounds(F, x_hat, x, params, 1000,
                                      seed=np.int64(5))
        want = verify_estimator_bounds(F, x_hat, x, params, 1000, seed=5)
        assert _bits(got.to_dict()) == _bits(want.to_dict())
        assert got.L2_hat == estimate_smoothness(F, "individual", 150,
                                                 seed=6).constant

    def test_generator_seed_keeps_its_defaults(self):
        F = quadratic_cosine_sum(4, 3, seed=2)
        rep = estimate_smoothness(F, "individual", 5,
                                  seed=np.random.default_rng(0))
        assert rep.seed == 0
