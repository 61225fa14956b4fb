import dataclasses
import json
import math

import numpy as np
import pytest

import hardsum.chains
import hardsum.optim
import hardsum.verify
from hardsum.chains import Derivatives, chain_eval
from hardsum.linalg import (as_rng, finite_diff_gradient, finite_diff_jacobian,
                            rel_err)
from hardsum.instances import (
    ResistingOracle,
    deterministic_params,
    ell_p,
    randomized_params,
    sample_randomized_instance,
)
from hardsum.oracle import (CallableFiniteSum, OracleLedger,
                            quadratic_cosine_sum)
from hardsum.optim import (SvrcParams, _draw_batches, svrc_gradient_estimator,
                           svrc_hessian_estimator)
from hardsum.verify import (
    _MC_BLOCK,
    _battery_instance,
    _chain_sum,
    _gd_backtracking,
    _hat_sum,
    _pair_stream,
    BatteryCheck,
    EstimatorBoundsReport,
    SmoothnessReport,
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

    def test_report_serializes(self):
        F = quadratic_cosine_sum(2, 3, seed=0)
        d = check_derivatives(F, num_points=2, tol=1e-6).to_dict()
        assert set(d) == {"passed", "max_rel_err", "tol", "num_points", "worst"}

    def test_rejects_bad_tol(self):
        F = quadratic_cosine_sum(2, 3, seed=0)
        with pytest.raises(ValueError):
            check_derivatives(F, num_points=2, tol=0.0)


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
        assert rep.num_points == 2 + 3 * (spec.K - 1)
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
        """Asserts lockstep and one-start runs end at the same values;
        returns the one-start values."""
        lockstep = _gd_backtracking(F, starts, iters=iters)
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
        got = _gd_backtracking(F, x0[None, :], iters=30)
        assert got.shape == (1,)
        assert got[0] == _sequential_gd(F, x0, 30)

    def test_starts_stop_on_their_own_rounds(self):
        # (1/6)|x|^3 is stationary at the origin: that start stops at once
        # while the others keep descending
        F = CallableFiniteSum([_cubic_norm_component(1.0)], d=2)
        starts = np.array([[0.0, 0.0], [3.0, -1.0], [-0.2, 0.1]])
        self._agree(F, starts, iters=25)
        assert _gd_backtracking(F, starts, iters=25)[0] == 0.0

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


class TestBattery:
    def test_small_scale_all_pass(self):
        with pytest.warns(UserWarning):
            checks = run_battery(num_points=6, zero_chain_samples=60,
                                 pairs=24, trials=1000, starts=2, seed=0)
        names = [c.name for c in checks]
        assert "check_derivatives" in names
        assert "check_derivatives_chain" in names
        assert "check_derivatives_composite" in names
        assert {f"check_zero_chain_K{k}" for k in (2, 4, 8)} <= set(names)
        assert "smoothness_power_mean" in names
        assert "estimator_bounds" in names
        assert "large_gradient" in names
        assert "suboptimality" in names
        bad = [c.name for c in checks if c.status == "failed"]
        assert bad == []

    def test_zero_counts_skip(self):
        checks = run_battery(num_points=0, zero_chain_samples=0, pairs=0,
                             trials=0, starts=0)
        assert all(c.status == "skipped" for c in checks)

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

    @pytest.mark.parametrize("mode", ["individual", "mean-squared",
                                      "third-moment"])
    @pytest.mark.parametrize("name", ["synthetic", "chain", "composite",
                                      "randomized", "one-point"])
    def test_estimate_smoothness(self, name, mode):
        F = _subjects()[name]
        got = estimate_smoothness(F, mode, 25, seed=4)
        assert _bits(got.constant) == _bits(
            _one_point_smoothness(F, mode, 25, seed=4))

    @pytest.mark.parametrize("K,num_samples", [(2, 60), (4, 60), (8, 60),
                                               (2, 1), (3, 0)])
    def test_check_zero_chain(self, K, num_samples):
        got = check_zero_chain(K, num_samples, seed=K)
        assert _bits(got.to_dict()) == _bits(
            _one_point_zero_chain(K, num_samples, seed=K))


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

    def op_norm(A):
        return np.abs(np.linalg.eigvalsh(0.5 * (A + A.T))).max()

    b_g, b_h = params.batch_sizes(n)
    g_moments = np.empty(trials)
    h_moments = np.empty(trials)
    cross_err = 0.0
    for t in range(trials):
        idx_g, idx_h = _draw_batches(params, n, rng)
        w_g = np.bincount(idx_g, minlength=n) / b_g
        w_h = np.bincount(idx_h, minlength=n) / b_h
        v = w_g @ dG + g_s - (w_g @ Hdx - H_s @ dx)
        U = np.tensordot(w_h, dH, axes=1) + H_s
        g_moments[t] = float(np.linalg.norm(gF - v)) ** 1.5
        h_moments[t] = float(op_norm(HF - U)) ** 3
        if t < 8:
            led = OracleLedger(n=n)
            v_ref = svrc_gradient_estimator(instance, led, x, x_hat, g_s, H_s,
                                            idx_g)
            U_ref = svrc_hessian_estimator(instance, led, x, x_hat, H_s,
                                           idx_h)
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

    def test_trials_span_several_blocks(self):
        trials = 2 * _MC_BLOCK + 76
        self._agree(*self._setup(b_g=16, b_h=64), trials=trials, seed=5)

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
