"""Acceptance criteria: ten end-to-end checks, one verdict line each.

Each test records `[PASS]`/`[FAIL] acceptance NN <name>: <measured values>`;
the conftest terminal-summary hook echoes all recorded lines after the run so
they appear even under output capture.  The test itself asserts on the same
condition.
"""
import json
import math
import time
import warnings

from conftest import record_verdict

import numpy as np
import pytest

from hardsum.chains import phi, psi, soft_clamp
from hardsum.cli import main as cli_main
from hardsum.cubic import CubicModel, model_value, solve
from hardsum.instances import (
    ResistingOracle,
    deterministic_params,
    ell_p,
    randomized_params,
    sample_randomized_instance,
)
from hardsum.linalg import sample_orthonormal_columns
from hardsum.oracle import CallableFiniteSum, OracleLedger, quadratic_cosine_sum
from hardsum.optim import (
    C_M,
    baseline_full_cubic,
    baseline_full_gd,
    mu,
    svrc_default_params,
    svrc_run,
)
from hardsum.chains import Derivatives, chain_eval
from hardsum.verify import (
    _gd_backtracking,
    check_derivatives,
    check_zero_chain,
    estimate_smoothness,
    verify_estimator_bounds,
    verify_large_gradient,
    verify_suboptimality,
)
from hardsum.optim import SvrcParams
import dataclasses


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d} {name}: {detail}"
    record_verdict(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. derivative correctness


def _scalar_component(fn):
    def f(x, order=2):
        v = float(fn(x[0], 0))
        if order == 0:
            return Derivatives(v)
        g = np.array([float(fn(x[0], 1))])
        if order == 1:
            return Derivatives(v, g)
        return Derivatives(v, g, np.array([[float(fn(x[0], 2))]]))
    return f


def _clamp_component(a, R):
    def f(y, order=2):
        rho, J, d2c = soft_clamp(y, R, order)
        v = float(a @ rho)
        if order == 0:
            return Derivatives(v)
        if order == 1:
            return Derivatives(v, J @ a)
        return Derivatives(v, J @ a, d2c(a))
    return f


def _chain_component(K, mask):
    def f(x, order=2):
        return chain_eval(K, mask, x, order)
    return f


def test_acceptance_01_derivative_correctness():
    t0 = time.monotonic()
    tol = 1e-6
    pts = 100
    reports = {}

    reports["bump"] = check_derivatives(
        CallableFiniteSum([_scalar_component(psi)], d=1), pts, tol, seed=1)
    reports["sigmoid"] = check_derivatives(
        CallableFiniteSum([_scalar_component(phi)], d=1), pts, tol, seed=2)

    rng = np.random.default_rng(3)
    for K in (4, 8):
        mask = np.ones(K)
        mask[int(rng.integers(K))] = 0.0      # one masked term as well
        reports[f"chain_K{K}"] = check_derivatives(
            CallableFiniteSum([_chain_component(K, np.ones(K)),
                               _chain_component(K, mask)], d=K),
            pts, tol, seed=4)

    a = rng.standard_normal(6)
    reports["clamp"] = check_derivatives(
        CallableFiniteSum([_clamp_component(a, R=4.0)], d=6), pts, tol, seed=5)

    spec = randomized_params("randomized-individual", p=1, n=4,
                             Delta=192.0 * 4.5 * 4.0, L=1.0, eps=1.0,
                             ell_hat=1.0, d=64)
    assert spec.K == 4 and spec.d == 64
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = sample_randomized_instance(spec, seed=6)
    reports["composite"] = check_derivatives(inst.unscaled_view(), pts, tol,
                                             seed=7)

    elapsed = time.monotonic() - t0
    worst = max(rep.max_rel_err for rep in reports.values())
    ok = all(rep.passed for rep in reports.values()) and elapsed < 30.0
    _verdict(1, "derivative correctness", ok,
             f"max rel err {worst:.3e} (tol {tol:g}) over "
             f"{sum(r.num_points for r in reports.values())} points x "
             f"{len(reports)} function families, {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 2. zero-chain property


def test_acceptance_02_zero_chain():
    worst_partial = worst_change = 0.0
    checked = 0
    ok = True
    for K in (2, 4, 8):
        rep = check_zero_chain(K, num_samples=2000, seed=K)
        ok = ok and rep.passed and rep.checked >= 1000
        worst_partial = max(worst_partial, rep.max_partial)
        worst_change = max(worst_change, rep.max_value_change)
        checked += rep.checked
    _verdict(2, "zero-chain property", ok,
             f"max undiscovered partial {worst_partial:.3e}, max value "
             f"change {worst_change:.3e} (tol 1e-12) over {checked} points, "
             f"K in {{2, 4, 8}}")


# ---------------------------------------------------------------------------
# 3. resisting oracle vs. deterministic baselines


def test_acceptance_03_resisting_oracle():
    t0 = time.monotonic()
    worst_inner = 0.0
    worst_margin = math.inf
    worst_replay = 0.0
    games = 0
    ok = True
    for p in (1, 2):
        for n in (4, 10):
            spec = deterministic_params(p=p, n=n, Delta=192.0 * 5,
                                        L=ell_p(p), eps=1.0)
            assert spec.K + 1 == 5 and spec.K <= 6
            budget = 2 * n * (spec.K + 2)
            step = 0.25 / (spec.lam * spec.sigma ** (spec.p - 1))
            M = 150.0 * spec.lam * spec.sigma ** (spec.p - 2)
            for algo in ("gd", "cubic"):
                F = ResistingOracle(spec, seed=100 * p + n)
                ledger = OracleLedger(n=n, eps=1.0)
                if algo == "gd":
                    baseline_full_gd(F, step, budget, ledger=ledger)
                else:
                    baseline_full_cubic(F, M, budget, ledger=ledger)
                F.finalize()
                cert = F.certificate()
                ok = ok and cert.passed and cert.num_queries > 0
                worst_inner = max(worst_inner, cert.max_inner_product)
                worst_margin = min(worst_margin,
                                   cert.min_grad_norm / cert.bound)
                worst_replay = max(worst_replay, cert.max_replay_rel_err)
                games += 1
    elapsed = time.monotonic() - t0
    ok = ok and worst_inner <= 1e-10 and worst_margin > 1.0 \
        and worst_replay <= 1e-10 and elapsed < 60.0
    _verdict(3, "resisting oracle vs full GD / full cubic", ok,
             f"{games} games (p in {{1,2}}, n in {{4,10}}, K=4): "
             f"max |<v_last, x>| {worst_inner:.2e} (<= 1e-10), "
             f"min grad / bound {worst_margin:.3f} (> 1), "
             f"max replay err {worst_replay:.2e} (<= 1e-10), "
             f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 4. parameter calculators (worked examples)


def test_acceptance_04_parameter_calculators():
    spec = deterministic_params(p=1, n=2, Delta=384.0, L=ell_p(1), eps=1.0)
    ex1 = (spec.K + 1 == 2)

    sched = svrc_default_params(n=1024, d=50, Delta=1.0, L2=1.0, eps=1.0)
    ex2 = (sched.T == 4 and sched.b_g == 1280)

    spec3 = randomized_params("randomized-third-moment", p=2, n=1,
                              Delta=96.0, L=1.0, eps=1.0, ell_hat=1.0)
    ex3 = (spec3.K == 1 and abs(spec3.sigma - 2.0) < 1e-12)

    ok = ex1 and ex2 and ex3
    _verdict(4, "parameter calculators", ok,
             f"chain example K+1={spec.K + 1} (want 2); schedule example "
             f"T={sched.T} (want 4), b_g={sched.b_g} (want 1280); "
             f"third-moment example K={spec3.K} (want 1), "
             f"sigma={spec3.sigma:g} (want 2)")


# ---------------------------------------------------------------------------
# 5. cubic-model solver


def _acceptance_model(rng, d, hard):
    Q = sample_orthonormal_columns(d, d, seed=rng).columns
    lam = np.sort(rng.uniform(-3.0, 3.0, d))
    M = float(rng.uniform(0.3, 3.0))
    if hard and d >= 2:
        lam[0] = -abs(lam[0]) - 0.5
        lam[1:] = np.sort(np.abs(lam[1:]) + lam[0] + 0.3)
        U = Q @ np.diag(lam) @ Q.T
        s0 = -2.0 * lam[0] / M
        w = rng.standard_normal(d)
        w[0] = 0.0
        denom = lam + 0.5 * M * s0
        denom[0] = 1.0
        L0 = np.linalg.norm(w / denom)
        if L0 > 0:
            w *= 0.5 * s0 / L0
        return CubicModel(v=Q @ w, U=U, M=M)
    U = Q @ np.diag(lam) @ Q.T
    v = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 1.5)
    return CubicModel(v=v, U=U, M=M)


def _grid_min(model: CubicModel, radius: float, levels: int = 6,
              pts: int = 33, branches: int = 3) -> float:
    """Multi-resolution grid minimization with basin hedging."""
    d = model.v.size
    centers = [np.zeros(d)]
    width = radius
    best = math.inf
    for _ in range(levels):
        cands = []
        for c in centers:
            axes = [c[j] + np.linspace(-width, width, pts) for j in range(d)]
            mesh = np.meshgrid(*axes, indexing="ij")
            P = np.stack([g.ravel() for g in mesh], axis=1)
            vals = P @ model.v \
                + 0.5 * np.einsum("ij,jk,ik->i", P, model.U, P) \
                + model.M / 6.0 * np.linalg.norm(P, axis=1) ** 3
            for idx in np.argsort(vals)[:branches]:
                cands.append((float(vals[idx]), P[idx]))
        cands.sort(key=lambda t: t[0])
        best = min(best, cands[0][0])
        centers = [p for _, p in cands[:branches]]
        width *= 4.0 / (pts - 1)
    return best


def test_acceptance_05_cubic_solver():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240501)
    worst_stat = worst_slack = worst_dec = 0.0
    n_models = 1000
    n_hard = 0
    for t in range(n_models):
        d = int(rng.integers(1, 21))
        hard = t % 5 == 0 and d >= 2
        n_hard += hard
        model = _acceptance_model(rng, d, hard)
        sol = solve(model)
        nv = float(np.linalg.norm(model.v))
        s = float(np.linalg.norm(sol.h))
        stat = float(np.linalg.norm(
            model.v + model.U @ sol.h + 0.5 * model.M * s * sol.h))
        worst_stat = max(worst_stat, stat / (1.0 + nv))
        lmin = float(np.linalg.eigvalsh(model.U)[0])
        worst_slack = max(worst_slack, -(lmin + 0.5 * model.M * s))
        worst_dec = max(worst_dec,
                        model_value(model, sol.h) + model.M / 12.0 * s ** 3)
    residuals_ok = worst_stat <= 1e-8 and worst_slack <= 1e-8 \
        and worst_dec <= 1e-8

    # independent grid search in low dimension
    worst_gap = 0.0
    grid_models = 0
    for d in (1, 2, 3):
        for k in range(4):
            hard = (k % 2 == 1) and d >= 2
            model = _acceptance_model(rng, d, hard)
            sol = solve(model)
            radius = 1.3 * sol.s + 1.0
            gmin = _grid_min(model, radius)
            worst_gap = max(worst_gap, abs(gmin - sol.model_val))
            grid_models += 1
    grid_ok = worst_gap <= 1e-6

    elapsed = time.monotonic() - t0
    ok = residuals_ok and grid_ok and elapsed < 60.0
    _verdict(5, "cubic-model solver", ok,
             f"{n_models} models (d <= 20, {n_hard} forced hard cases): "
             f"max scaled stationarity {worst_stat:.2e}, eig slack "
             f"{worst_slack:.2e}, decrease slack {worst_dec:.2e} "
             f"(all <= 1e-8); grid-search gap {worst_gap:.2e} (<= 1e-6, "
             f"{grid_models} models d <= 3), {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 6. estimator deviation bounds


def test_acceptance_06_estimator_bounds():
    t0 = time.monotonic()
    F = quadratic_cosine_sum(64, 8, seed=60)
    rng = np.random.default_rng(61)
    x_hat = rng.standard_normal(8)
    x = x_hat + 0.5 * rng.standard_normal(8)
    params = SvrcParams(M=1.0, b_g=16, b_h=64, S=1, T=1, eps=1.0,
                        Delta=1.0, L2=1.0)
    rep = verify_estimator_bounds(F, x_hat, x, params, trials=10_000, seed=62)
    elapsed = time.monotonic() - t0
    ok = rep.passed and elapsed < 120.0
    _verdict(6, "estimator deviation bounds", ok,
             f"n=64, 10^4 batches: grad moment {rep.grad_mean:.3e} <= "
             f"{rep.grad_bound:.3e}, hess moment {rep.hess_mean:.3e} <= "
             f"{rep.hess_bound:.3e} (10% slack), cross-check "
             f"{rep.cross_check_rel_err:.1e}, {elapsed:.1f}s (< 2min)")


# ---------------------------------------------------------------------------
# 7. SVRC full-batch descent guarantee


def test_acceptance_07_svrc_descent():
    F = quadratic_cosine_sum(8, 6, seed=70, curvature=0.5)
    n = F.n
    params = SvrcParams(M=40.0, b_g=n, b_h=n, S=3, T=4, eps=1e-8,
                        Delta=10.0, L2=0.25, seed=71, full_batch=True)
    rng = np.random.default_rng(72)
    x0 = rng.standard_normal(6)
    _, traj = svrc_run(F, params, x0=x0)
    fs = [F.full(x0, 0).value] + [rec.f for rec in traj]
    monotone = bool(np.all(np.diff(fs) <= 1e-12))
    decrease = fs[0] - fs[-1]
    certified = params.M / 12.0 * sum(rec.h_norm ** 3 for rec in traj)
    ok = monotone and decrease >= certified - 1e-8 and len(traj) == 12
    _verdict(7, "SVRC full-batch descent", ok,
             f"{len(traj)} steps: monotone={monotone}, total decrease "
             f"{decrease:.6f} >= certified (M/12) sum|h|^3 = {certified:.6f} "
             f"- 1e-8")


# ---------------------------------------------------------------------------
# 8. SVRC statistical convergence


def test_acceptance_08_svrc_convergence():
    t0 = time.monotonic()
    F = quadratic_cosine_sum(256, 20, seed=80)
    L2_hat = 1.5 * estimate_smoothness(F, "individual", 120, seed=81).constant

    x0 = np.zeros(20)
    f0 = F.full(x0, 0).value
    rng = np.random.default_rng(82)
    best = f0
    for _ in range(5):
        _, finals = _gd_backtracking(F, rng.standard_normal((1, 20)),
                                     iters=60)
        best = min(best, finals[0])
    delta_hat = max(f0 - best, 1e-3)

    params = svrc_default_params(n=256, d=20, Delta=delta_hat, L2=L2_hat,
                                 eps=1e7)
    assert params.S == 1
    mus = []
    for s in range(50):
        x_out, _ = svrc_run(F, dataclasses.replace(params, seed=s), x0=x0)
        mus.append(mu(F, x_out, L2_hat))
    mean_mu = float(np.mean(mus))
    bound = 240.0 * C_M ** 2 * math.sqrt(L2_hat) * delta_hat \
        / (params.S * params.T) * 1.25
    elapsed = time.monotonic() - t0
    ok = mean_mu <= bound and elapsed < 600.0
    _verdict(8, "SVRC statistical convergence", ok,
             f"n=256 d=20, 50 seeds: mean mu(x_out) {mean_mu:.4f} <= "
             f"240 C_M^2 sqrt(L2) Delta / (S T) x 1.25 = {bound:.4g} "
             f"(L2_hat {L2_hat:.2f}, Delta_hat {delta_hat:.3f}, S=1, "
             f"T={params.T}), {elapsed:.1f}s (< 10min)")


# ---------------------------------------------------------------------------
# 9. gradient floor and bounded suboptimality


def test_acceptance_09_gradient_floor_and_gap():
    t0 = time.monotonic()
    K = 4
    worst_floor = math.inf
    worst_gap_frac = 0.0
    ok = True
    for n in (1, 4, 16):
        Delta = 192.0 * (K + 0.5) * n
        spec = randomized_params("randomized-individual", p=1, n=n,
                                 Delta=Delta, L=1.0, eps=1.0, ell_hat=1.0)
        assert spec.K == K
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = sample_randomized_instance(spec, seed=90 + n)
        rep = verify_large_gradient(inst, seed=91 + n)
        ok = ok and rep.passed
        worst_floor = min(worst_floor, rep.min_grad_norm / rep.bound)
        iters = 60 if n == 16 else 150
        sub = verify_suboptimality(inst, num_starts=100, gd_iters=iters,
                                   seed=92 + n)
        ok = ok and sub.passed
        worst_gap_frac = max(worst_gap_frac, sub.gap / sub.bound)
    elapsed = time.monotonic() - t0
    _verdict(9, "gradient floor and bounded gap", ok,
             f"n in {{1,4,16}}, K=4: min grad / (1/(4 sqrt n)) = "
             f"{worst_floor:.2f} (> 1); max multistart gap / 12K = "
             f"{worst_gap_frac:.3f} (<= 1), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. deterministic replay through the CLI


def test_acceptance_10_cli_determinism(tmp_path):
    synth_ini = tmp_path / "synth.ini"
    synth_ini.write_text(
        "[instance]\nmode = synthetic\nn = 4\nd = 5\neps = 1e6\n"
        "[optimizer]\noptimizer = svrc\nb_g = 3\nb_h = 3\nS = 2\nT = 2\n"
        "L2 = 1.0\nseed = 3\n", encoding="utf-8")
    adv_ini = tmp_path / "adv.ini"
    adv_ini.write_text(
        "[instance]\nmode = deterministic\np = 1\nn = 4\n"
        f"delta = 960.0\nL = {ell_p(1)!r}\neps = 1.0\n"
        "[optimizer]\noptimizer = cubic\nseed = 1\n", encoding="utf-8")

    blobs = {}
    for tag, ini in (("synth", synth_ini), ("adv", adv_ini)):
        pair = []
        for rep in range(2):
            out = tmp_path / f"{tag}{rep}.jsonl"
            rc = cli_main(["run", "--config", str(ini), "--out", str(out),
                           "--quiet"])
            assert rc == 0
            pair.append(out.read_bytes())
        blobs[tag] = pair

    same_synth = blobs["synth"][0] == blobs["synth"][1]
    same_adv = blobs["adv"][0] == blobs["adv"][1]
    rows = blobs["synth"][0].decode().strip().splitlines()
    parsed_ok = all("summary" in json.loads(rows[-1])
                    for _ in range(1)) and len(rows) == 5
    ok = same_synth and same_adv and parsed_ok
    _verdict(10, "CLI determinism", ok,
             f"synthetic SVRC rerun byte-identical: {same_synth}; adversary "
             f"cubic rerun byte-identical: {same_adv}; "
             f"{len(blobs['synth'][0])}-byte and {len(blobs['adv'][0])}-byte "
             f"JSONL outputs")
