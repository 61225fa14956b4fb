import importlib.util
import math
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from hardsum import cubic
from hardsum.cubic import CubicModel, CubicSolution, model_value, solve
from hardsum.linalg import _Factored, _shifted_pd, sample_orthonormal_columns

_SWEEP = importlib.util.spec_from_file_location(
    "cubic_sweep", Path(__file__).resolve().parents[1] / "tools"
    / "cubic_sweep.py")
cubic_sweep = importlib.util.module_from_spec(_SWEEP)
_SWEEP.loader.exec_module(cubic_sweep)
#: the seeded sweep's model generator (tools/cubic_sweep.py)
_model_at_scales = cubic_sweep._model_at_scales


def _check_optimality(model: CubicModel, sol: CubicSolution, tol=1e-9):
    """Re-derive the three optimality certificates from scratch."""
    h, s = sol.h, float(np.linalg.norm(sol.h))
    v, U, M = model.v, model.U, model.M
    nv = np.linalg.norm(v)
    r = np.linalg.norm(v + U @ h + 0.5 * M * s * h)
    assert r <= tol * (1.0 + nv), f"stationarity {r}"
    lmin = np.linalg.eigvalsh(U)[0]
    assert lmin + 0.5 * M * s >= -tol * (1.0 + abs(lmin))
    assert model_value(model, h) <= -(M / 12.0) * s ** 3 + tol * (1.0 + nv)
    assert sol.s == pytest.approx(s, rel=1e-12)
    assert sol.model_val == pytest.approx(model_value(model, h), rel=1e-12, abs=1e-12)


class TestAnalyticCases:
    def test_one_dimensional_root(self):
        # minimize h + h^2/2 + |h|^3:  3 s^2 + s - 1 = 0 on the negative side
        model = CubicModel(v=np.array([1.0]), U=np.array([[1.0]]), M=6.0)
        sol = solve(model)
        s_exact = (-1.0 + np.sqrt(13.0)) / 6.0
        assert sol.h[0] == pytest.approx(-s_exact, rel=1e-12)
        _check_optimality(model, sol)

    def test_zero_gradient_psd_hessian(self):
        model = CubicModel(v=np.zeros(3), U=np.diag([0.5, 1.0, 2.0]), M=1.0)
        sol = solve(model)
        assert np.allclose(sol.h, 0.0)
        assert sol.model_val == 0.0

    def test_zero_gradient_negative_curvature(self):
        # pure negative-curvature escape: step of length s0 = 2|lmin|/M
        model = CubicModel(v=np.zeros(2), U=np.diag([-2.0, 1.0]), M=1.0)
        sol = solve(model)
        assert sol.s == pytest.approx(4.0, rel=1e-12)
        assert abs(sol.h[0]) == pytest.approx(4.0, rel=1e-12)
        assert sol.h[1] == pytest.approx(0.0, abs=1e-12)
        assert sol.model_val == pytest.approx(-16.0 / 3.0, rel=1e-12)
        _check_optimality(model, sol)

    def test_hard_case_exact_value(self):
        # v orthogonal to the bottom eigenvector and interior step shorter
        # than s0: the minimizer picks up a boundary component.  With
        # U = diag(-1, 0), v = (0, 0.6), M = 2 the solution is
        # h = (+-0.8, -0.6), |h| = 1, value -26/75.
        model = CubicModel(v=np.array([0.0, 0.6]), U=np.diag([-1.0, 0.0]), M=2.0)
        sol = solve(model)
        assert sol.s == pytest.approx(1.0, rel=1e-12)
        assert abs(sol.h[0]) == pytest.approx(0.8, rel=1e-12)
        assert sol.h[1] == pytest.approx(-0.6, rel=1e-12)
        assert sol.model_val == pytest.approx(-26.0 / 75.0, rel=1e-12)
        _check_optimality(model, sol)

    def test_near_hard_case(self):
        # tiny but non-negligible bottom component: the secular root sits
        # next to the pole; the shifted-variable root find must resolve it
        model = CubicModel(v=np.array([1e-9, 0.1]), U=np.diag([-1.0, 1.0]), M=2.0)
        sol = solve(model)
        assert sol.s == pytest.approx(1.0, abs=1e-6)
        _check_optimality(model, sol)

    def test_huge_gradient(self):
        model = CubicModel(v=np.array([1e8, 0.0]), U=np.diag([-1.0, 1.0]), M=2.0)
        sol = solve(model)
        _check_optimality(model, sol, tol=1e-8)

    def test_tiny_gradient(self):
        model = CubicModel(v=np.array([1e-12, 0.0]), U=np.diag([2.0, 3.0]), M=1.0)
        sol = solve(model)
        assert sol.s < 1e-11
        _check_optimality(model, sol)


class TestValidation:
    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            CubicModel(v=np.zeros(2), U=np.eye(2), M=0.0)

    @pytest.mark.parametrize("M", [math.inf, math.nan, -math.inf])
    def test_rejects_a_penalty_that_is_not_finite(self, M):
        # M = inf was solved, and refused as "stationarity residual inf
        # exceeds tolerance"
        with pytest.raises(ValueError, match="^M must be positive and "
                                             "finite$"):
            CubicModel(v=np.ones(2), U=np.eye(2), M=M)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            CubicModel(v=np.zeros(3), U=np.eye(2), M=1.0)

    def test_rejects_asymmetric_hessian(self):
        with pytest.raises(ValueError):
            CubicModel(v=np.zeros(2), U=np.array([[0.0, 1.0], [0.0, 0.0]]), M=1.0)

    def test_stationarity_tolerance_is_the_documented_one(self, monkeypatch):
        # at |v| = 1e4 a step nudged off the root by 1e-6 has a residual
        # above the documented 1e-10 (1 + |v|) but below (1 + |v|) times it
        model = CubicModel(v=np.array([1e4, 0.0, 0.0]),
                           U=np.diag([1.0, 2.0, 3.0]), M=1.0)
        solve(model)
        real = cubic._secular_coords

        def nudged(*args):
            coords = real(*args).copy()
            coords[0] += 1e-6
            return coords

        monkeypatch.setattr(cubic, "_secular_coords", nudged)
        with pytest.raises(ArithmeticError,
                           match="stationarity residual") as err:
            solve(model)
        tol = 1e-10 * (1.0 + 1e4)
        assert tol < float(str(err.value).split()[2]) < tol * (1.0 + 1e4)


def _random_model(rng, d, hard=False):
    Q = sample_orthonormal_columns(d, d, seed=rng).columns
    lam = np.sort(rng.uniform(-3.0, 3.0, d))
    if hard:
        lam[0] = -abs(lam[0]) - 0.5          # strictly negative bottom eigenvalue
        lam[1:] = np.sort(np.abs(lam[1:]) + lam[0] + 0.3)
        M = float(rng.uniform(0.5, 2.0))
        s0 = -2.0 * lam[0] / M
        U = Q @ np.diag(lam) @ Q.T
        # v orthogonal to the bottom eigenvector, scaled so the interior
        # solution is strictly shorter than s0
        w = rng.standard_normal(d)
        w[0] = 0.0
        denom = lam + 0.5 * M * s0
        denom[0] = 1.0
        L0 = np.linalg.norm(w / denom)
        if L0 > 0:
            w *= 0.5 * s0 / L0
        v = Q @ w
        return CubicModel(v=v, U=U, M=M), s0
    U = Q @ np.diag(lam) @ Q.T
    v = rng.standard_normal(d) * 10.0 ** rng.uniform(-4, 2)
    M = float(rng.uniform(0.1, 5.0))
    return CubicModel(v=v, U=U, M=M), None


class TestRandomModels:
    def test_easy_cases(self, rng):
        for _ in range(60):
            d = int(rng.integers(1, 21))
            model, _ = _random_model(rng, d)
            _check_optimality(model, solve(model))

    def test_forced_hard_cases(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 21))
            model, s0 = _random_model(rng, d, hard=True)
            sol = solve(model)
            assert sol.s == pytest.approx(s0, rel=1e-9)
            _check_optimality(model, sol)

    def test_grid_never_beats_solver_2d(self, rng):
        # independent global-optimality evidence: no point of a dense grid
        # achieves a lower model value than the solver's minimizer
        ts = np.linspace(-4.0, 4.0, 321)
        X, Y = np.meshgrid(ts, ts)
        P = np.stack([X.ravel(), Y.ravel()], axis=1)
        norms = np.linalg.norm(P, axis=1)
        for _ in range(10):
            model, _ = _random_model(rng, 2)
            sol = solve(model)
            vals = P @ model.v + 0.5 * np.einsum(
                "ij,jk,ik->i", P, model.U, P) + model.M / 6.0 * norms ** 3
            assert vals.min() >= sol.model_val - 1e-9


@given(st.integers(0, 10_000))
def test_optimality_property(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    hard = bool(rng.random() < 0.3) and d >= 2
    model, _ = _random_model(rng, d, hard=hard)
    _check_optimality(model, solve(model))


def _dense_step(model: CubicModel) -> np.ndarray:
    """The minimizer from a dense eigendecomposition of U and the shifted
    secular equation: the solver's dense path, written out here so that it
    is measured against a fixed reference."""
    v, U, M = model.v, model.U, model.M
    norm_v = float(np.linalg.norm(v))
    lam, Q = np.linalg.eigh(U)
    lmin = float(lam[0])
    w = Q.T @ v
    half_m = M / 2.0
    s0 = max(0.0, -2.0 * lmin / M)
    shift = (lam - lmin) if lmin < 0 else lam.copy()
    bottom = shift <= 1e-13 * max(1.0, abs(lmin))
    interior = ~bottom
    w_bot = float(np.linalg.norm(w[bottom]))
    L0 = float(np.linalg.norm(w[interior] / shift[interior]))

    def hard_case_step():
        y = np.zeros_like(w)
        y[interior] = -w[interior] / shift[interior]
        if bottom.any() and L0 < s0:
            y[np.argmax(bottom)] += s0 * math.sqrt(1.0 - (L0 / s0) ** 2)
        return Q @ y

    if w_bot <= 1e-13 * (1.0 + norm_v) and L0 <= s0:
        return hard_case_step()

    def norm_at(u):
        d = shift + half_m * u
        y = w / d
        return d, y, math.hypot(*y)

    scale = max(1.0, s0, np.sqrt(2.0 * norm_v / M))
    u = 1e-3 * scale
    d, y, h = norm_at(u)
    while h <= s0 + u:
        u *= 1e-2
        if u < 1e-290:
            return hard_case_step()
        d, y, h = norm_at(u)
    # Newton's iteration on 1/|h(u)| - 1/(s0 + u) from below
    while True:
        t = s0 + u
        e = y / h
        step = (h - t) / (h / t + t * half_m * float(e @ (e / d)))
        u += step
        if step <= 8.9e-16 * u:
            break
        d, y, h = norm_at(u)
        if h <= s0 + u:
            break
    d = shift + half_m * u
    y = np.zeros_like(w)
    y[d > 0] = -w[d > 0] / d[d > 0]
    return Q @ y


def _solve_spied(model: CubicModel, monkeypatch):
    """The solution, and the shapes of the matrices the solve eigensolves
    and of the factored ones it lifts."""
    spied = {"eig": [], "lift": []}
    eig_sym, lift = cubic.eig_sym, _Factored.lift

    def spied_eig(A):
        spied["eig"].append(A.shape)
        return eig_sym(A)

    def spied_lift(self):
        spied["lift"].append(self.shape)
        return lift(self)

    with monkeypatch.context() as m:
        m.setattr(cubic, "eig_sym", spied_eig)
        m.setattr(_Factored, "lift", spied_lift)
        return solve(model), spied


def _low_rank_model(rng, d, r, outside):
    """An indefinite U of rank r, and v in range(U) plus, when ``outside``,
    a part orthogonal to it."""
    G = sample_orthonormal_columns(d, r + 1, seed=rng).columns
    lam = rng.uniform(-3.0, 3.0, r)
    lam[0] = -abs(lam[0]) - 0.1
    if r > 1:
        lam[1] = abs(lam[1]) + 0.1
    U = (G[:, :r] * lam) @ G[:, :r].T
    v = G[:, :r] @ rng.standard_normal(r) + outside * G[:, r]
    return CubicModel(v=v * 10.0 ** rng.uniform(-2, 2), U=0.5 * (U + U.T),
                      M=float(rng.uniform(0.1, 5.0)))


def _hard_case(rng, d):
    """Orthonormal G (d x 4), its eigenvalues and M of a rank-4 hard case:
    v has no component along the bottom eigenvector G[:, 0] (eigenvalue -2)
    and the interior step is half as long as s0 = 2 |lmin| / M."""
    G = sample_orthonormal_columns(d, 4, seed=rng).columns
    lam = np.array([-2.0, 0.5, 1.0, 3.0])
    M = float(rng.uniform(0.5, 2.0))
    s0 = 4.0 / M
    v = G[:, 1:] @ rng.standard_normal(3)
    v *= 0.5 * s0 / np.linalg.norm(np.linalg.solve(
        np.diag(lam[1:] + 2.0), G[:, 1:].T @ v))
    return G, lam, v, M, s0


class TestKrylovPath:
    """Dense Hessians, the low-rank ones whose Krylov space from v closes in
    a few dimensions included: every one is eigendecomposed in the whole
    space, bit for bit as the reference does."""

    @pytest.mark.parametrize("outside", [0.0, 0.7])
    @pytest.mark.parametrize("r", [1, 3, 21])
    @pytest.mark.parametrize("d", [50, 197])
    def test_low_rank_matches_dense(self, rng, monkeypatch, d, r, outside):
        for _ in range(5):
            model = _low_rank_model(rng, d, r, outside)
            sol, spied = _solve_spied(model, monkeypatch)
            assert np.array_equal(sol.h, _dense_step(model))
            assert spied == {"eig": [(d, d)], "lift": []}
            _check_optimality(model, sol)

    @pytest.mark.parametrize("d", [50, 197])
    def test_hard_case_falls_back_to_dense(self, rng, monkeypatch, d):
        # a hard case of rank 4: the step leaves the span of U's other
        # eigenvectors, which holds v, along the bottom one
        for _ in range(5):
            G, lam, v, M, s0 = _hard_case(rng, d)
            U = (G * lam) @ G.T
            model = CubicModel(v=v, U=0.5 * (U + U.T), M=M)
            sol, spied = _solve_spied(model, monkeypatch)
            assert np.array_equal(sol.h, _dense_step(model))
            assert spied == {"eig": [(d, d)], "lift": []}
            assert sol.s == pytest.approx(s0, rel=1e-9)
            assert abs(G[:, 0] @ sol.h) > 0.1 * s0
            _check_optimality(model, sol)

    def test_full_rank_small_models_are_dense_bit_for_bit(self, rng):
        for _ in range(60):
            d = int(rng.integers(1, 21))
            model, _ = _random_model(rng, d, hard=bool(rng.random() < 0.3)
                                     and d >= 2)
            assert np.array_equal(solve(model).h, _dense_step(model))

    def test_nearly_low_rank_does_not_close_early(self, rng):
        # rank 3 plus a full-rank part of size 1e-8: the step is the dense
        # one, not a step that leaves out the small part
        for _ in range(5):
            model = _low_rank_model(rng, 50, 3, 0.7)
            E = rng.standard_normal((50, 50))
            U = model.U + 1e-8 * (E + E.T)
            model = CubicModel(v=100.0 * model.v / np.linalg.norm(model.v),
                               U=U, M=model.M)
            assert np.array_equal(solve(model).h, _dense_step(model))

    def test_zero_hessian(self):
        # U = 0: h = -v / sqrt((M/2) |v|)
        v = np.array([3.0, 4.0, 0.0, 0.0])
        sol = solve(CubicModel(v=v, U=np.zeros((4, 4)), M=2.0))
        assert sol.h == pytest.approx(-v / np.sqrt(5.0), rel=1e-12)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("d", [2, 20, 197])
    def test_screen_at_the_boundary(self, rng, side, d):
        # the screen mu uses proves lambda_min(A) > -c0; place lambda_min
        # a relative 1e-10 inside (side -1) or outside (side +1) that
        # boundary
        proved = 0
        for _ in range(10):
            c0 = float(10.0 ** rng.uniform(-3, 3))
            lam = rng.uniform(-c0, 3.0 * c0, d)
            lam[0] = -c0 * (1.0 + side * 1e-10)
            Q = sample_orthonormal_columns(d, d, seed=rng).columns
            A = Q @ np.diag(lam) @ Q.T
            A = 0.5 * (A + A.T)
            if _shifted_pd(A, c0):
                proved += 1
                assert np.linalg.eigh(A)[0][0] > -c0
        # a margin of 1e-10 is far outside the screen's: it proves every
        # matrix inside and none outside
        assert proved == (0 if side > 0 else 10)


def _factored_pair(v, V, S, M):
    """The model with U = V S V^T factored, and with U its dense lift."""
    U = _Factored(V, S)
    return CubicModel(v=v, U=U, M=M), CubicModel(v=v, U=U.lift(), M=M)


class TestFactoredHessian:
    """A factored U = V S V^T is solved in span(V, v), never lifted, and
    its step matches the dense lift's."""

    @pytest.mark.parametrize("outside", [0.0, 0.7])
    @pytest.mark.parametrize("d, r", [(50, 3), (197, 21)])
    def test_easy_cases_match_the_lift(self, rng, monkeypatch, d, r,
                                       outside):
        for _ in range(5):
            G = sample_orthonormal_columns(d, r + 1, seed=rng).columns
            lam = rng.uniform(-3.0, 3.0, r)
            lam[0] = -abs(lam[0]) - 0.1
            v = G[:, :r] @ rng.standard_normal(r) + outside * G[:, r]
            factored, dense = _factored_pair(
                v * 10.0 ** rng.uniform(-2, 2), G[:, :r], np.diag(lam),
                float(rng.uniform(0.1, 5)))
            a, spied = _solve_spied(factored, monkeypatch)
            b = solve(dense)
            # v's part outside span(V) adds one dimension
            k = r + 1 if outside else r
            assert spied == {"eig": [(k, k)], "lift": []}
            assert np.linalg.norm(a.h - b.h) <= 1e-12 * np.linalg.norm(b.h)
            _check_optimality(dense, a)
            _check_optimality(dense, b)
            assert model_value(factored, a.h) == pytest.approx(
                model_value(dense, a.h), rel=1e-12)

    @pytest.mark.parametrize("d", [50, 197])
    def test_hard_case_never_lifts(self, rng, monkeypatch, d):
        # the hard case of TestKrylovPath, factored.  Its two minimizers
        # are reflections of each other across the bottom eigenvector; the
        # factored step is either one
        for _ in range(5):
            G, lam, v, M, s0 = _hard_case(rng, d)
            factored, dense = _factored_pair(v, G, np.diag(lam), M)
            a, spied = _solve_spied(factored, monkeypatch)
            b = solve(dense)
            assert spied == {"eig": [(4, 4)], "lift": []}
            assert a.s == pytest.approx(b.s, rel=1e-12)
            assert a.s == pytest.approx(s0, rel=1e-9)
            assert a.model_val == pytest.approx(b.model_val, rel=1e-12)
            g = G[:, 0]
            reflected = b.h - 2.0 * (g @ b.h) * g
            assert min(np.linalg.norm(a.h - b.h),
                       np.linalg.norm(a.h - reflected)) \
                <= 1e-12 * np.linalg.norm(b.h)
            _check_optimality(dense, a)
            _check_optimality(dense, b)

    @pytest.mark.parametrize("a", [1, 5])
    def test_outside_part_at_rounding_level_is_left_out(self, rng,
                                                        monkeypatch, a):
        # v = V c leaves span(V) only by rounding; S = 0, as at the
        # resisting oracle's first iterate.  The step is -v / sqrt((M/2)|v|)
        V = sample_orthonormal_columns(60, a, seed=rng).columns
        v = V @ rng.standard_normal(a)
        factored, dense = _factored_pair(v, V, np.zeros((a, a)), 2.0)
        sol, spied = _solve_spied(factored, monkeypatch)
        assert spied == {"eig": [(a, a)], "lift": []}
        assert sol.h == pytest.approx(
            -v / np.sqrt(np.linalg.norm(v)), rel=1e-12)
        _check_optimality(dense, sol)

    def test_small_outside_part_joins_the_basis(self, rng, monkeypatch):
        # a part outside span(V) of 1e-9 |v| is above the rounding floor
        G = sample_orthonormal_columns(60, 4, seed=rng).columns
        v = G[:, :3] @ rng.standard_normal(3)
        v += 1e-9 * np.linalg.norm(v) * G[:, 3]
        factored, dense = _factored_pair(v, G[:, :3],
                                         np.diag([-1.0, 0.5, 2.0]), 1.0)
        sol, spied = _solve_spied(factored, monkeypatch)
        assert spied == {"eig": [(4, 4)], "lift": []}
        _check_optimality(dense, sol)
        assert np.linalg.norm(sol.h - solve(dense).h) \
            <= 1e-12 * np.linalg.norm(sol.h)


@given(st.integers(0, 10_000))
def test_factored_optimality_property(seed):
    # random orthonormal V (d <= 60, a <= 8), symmetric S, v inside span(V)
    # or partly outside it, hard cases included; certified against the lift
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 61))
    a = int(rng.integers(1, min(d, 8) + 1))
    V = sample_orthonormal_columns(d, a, seed=rng).columns
    R = sample_orthonormal_columns(a, a, seed=rng).columns
    lam = rng.uniform(-3.0, 3.0, a)
    M = float(rng.uniform(0.1, 5.0))
    hard = bool(rng.random() < 0.3)
    outside = a < d and bool(rng.random() < 0.5)
    # eigenvectors of U in span(V, v) and their eigenvalues; v's part
    # outside span(V) lies in U's null space
    E, spectrum = V @ R, lam
    if outside:
        z = rng.standard_normal(d)
        z -= V @ (V.T @ z)
        z -= V @ (V.T @ z)
        E = np.column_stack([E, z / np.linalg.norm(z)])
        spectrum = np.append(lam, 0.0)
    c = rng.standard_normal(E.shape[1]) * 10.0 ** rng.uniform(-3, 2)
    s0 = None
    if hard:
        # a simple negative bottom eigenvalue that v leaves out, and an
        # interior step half as long as s0
        lam[0] = -abs(lam[0]) - 0.5
        lam[1:] = np.abs(lam[1:]) + lam[0] + 0.3
        spectrum = np.append(lam, 0.0) if outside else lam
        s0 = -2.0 * lam[0] / M
        c[0] = 0.0
        L0 = np.linalg.norm(c[1:] / (spectrum[1:] - lam[0]))
        if L0 > 0:
            c *= 0.5 * s0 / L0
    S = (R * lam) @ R.T
    factored, dense = _factored_pair(E @ c, V, 0.5 * (S + S.T), M)
    sol = solve(factored)
    _check_optimality(dense, sol)
    if hard:
        assert sol.s == pytest.approx(s0, rel=1e-9)


class TestOverflow:
    """Models whose scales overflow raise ArithmeticError, the type
    svrc_run and baseline_full_cubic stop on; an overflow inside the solve
    that leaves the answer right raises nothing."""

    @pytest.mark.parametrize("v, lam", [([1e308, 1e308], [1.0, 1.0]),
                                        ([0.0, 1.0], [-1.0, 1.0])],
                             ids=["easy", "hard"])
    def test_length_scale_overflow_raises_instead_of_hanging(self, v, lam):
        # M = 1e-320 makes sqrt(2 |v| / M) about 1.7e314 in the easy case
        # (first model), beyond the float range, and a root search that
        # starts at inf never shrinks; in the hard case (second model) it
        # makes s0 = 2 |lmin| / M inf.  The alarm turns a hang into a failure
        def hang(*_):
            raise TimeoutError("solve did not return within 5 s")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            with pytest.raises(ArithmeticError, match="length scale"):
                solve(CubicModel(v=np.array(v), U=np.diag(lam), M=1e-320))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_length_scale_whose_quotient_overflows_is_solved(self):
        # 2 |v| / M = 4.5e320 overflows, but its root 2.1e160 does not: the
        # model is solved in units of a power of two above that scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(CubicModel(v=np.array([1.0, 2.0]), U=np.eye(2),
                                   M=1e-320))
        assert sol.h == pytest.approx([-1.0, -2.0], rel=1e-15)

    def test_gradient_norm_overflow_raises(self):
        # |v| = 2.1e308 is beyond the float range; |v| = inf would make
        # every tolerance inf and certify h = 0
        with pytest.raises(ArithmeticError, match="overflows"):
            solve(CubicModel(v=np.array([1.5e308, 1.5e308]), U=np.eye(2),
                             M=1.0))

    def test_finite_gradient_norm_near_the_float_range_is_certified(self):
        # |v| = 1.41e308: its square overflows, its norm does not; the step
        # is about sqrt(2 |v| / M) = 1.68e154 long
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(CubicModel(v=np.array([1e308, 1e308]), U=np.eye(2),
                                   M=1.0))
        assert sol.s == pytest.approx(math.sqrt(2.0 * math.sqrt(2.0)) * 1e154,
                                      rel=1e-12)
        assert sol.h[0] == sol.h[1] < 0.0

    @pytest.mark.parametrize("M", [1e200, 1e300])
    def test_huge_penalty_takes_the_short_step(self, M):
        # d = M u / 2 squared leaves the float range at the first probes;
        # the cubic term dominates: |h| = sqrt(2 |v| / M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(CubicModel(v=np.array([1.0, 1.0]),
                                   U=np.diag([-1.0, 1.0]), M=M))
        assert sol.s == pytest.approx(math.sqrt(2.0 * math.sqrt(2.0) / M),
                                      rel=1e-12)

    def test_step_whose_square_underflows_is_certified(self):
        # |h| = sqrt(2 |v| / M) = sqrt(2) 1e-175: its square is below the
        # float range, so a norm taken as the root of a sum of squares
        # reads 0 and the shifted Hessian's slack reads lmin = -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(CubicModel(v=np.array([6e-61, 8e-61]),
                                   U=np.diag([-1.0, 2.0]), M=1e290))
        # 2 |v| / M underflows too
        assert sol.s == pytest.approx(math.sqrt(2.0) * 1e-30 / 1e145,
                                      rel=1e-15)


class TestLengthScaleUnits:
    """A model whose length scale exceeds ``cubic._SCALE_MAX`` is solved and
    checked in units of the power of two above its scale; RuntimeWarnings
    are errors in this suite."""

    @pytest.mark.parametrize("M", [1e-100, 1e-200, 1e-300])
    def test_tiny_penalty_takes_the_long_step(self, M):
        # s0 = 2 / M; solved as given, the certificate's products overflow
        # (M = 1e-200, 1e-300)
        sol = solve(CubicModel(v=np.array([1.0, 1.0]),
                               U=np.diag([-1.0, 1.0]), M=M))
        assert sol.s == pytest.approx(2.0 / M, rel=1e-12)
        assert abs(sol.h[0]) == pytest.approx(2.0 / M, rel=1e-12)
        assert sol.h[1] == pytest.approx(-0.5, rel=1e-12)
        # -(M/12) s^3, or -inf where it is below the float range
        assert sol.model_val == pytest.approx(-(2.0 / 3.0) / M / M,
                                              rel=1e-12)

    @pytest.mark.parametrize("M", [1e-6, 1e-10, 1e-16])
    def test_random_models_at_large_scales(self, rng, M):
        # as given, most of these fail the absolute stationarity check
        for _ in range(20):
            d = int(rng.integers(2, 13))
            Q = sample_orthonormal_columns(d, d, seed=rng).columns
            lam = np.sort(rng.standard_normal(d))
            lam[0] = -abs(lam[0]) - 0.1
            model = CubicModel(v=rng.standard_normal(d),
                               U=(Q * lam) @ Q.T, M=M)
            sol = solve(model)
            unit = cubic._unit(float(lam[0]), float(np.linalg.norm(model.v)),
                               M)
            assert unit > cubic._SCALE_MAX
            # the scaled solution certifies the scaled model
            _check_optimality(
                CubicModel(v=model.v / unit, U=model.U, M=M * unit),
                CubicSolution(h=sol.h / unit, s=sol.s / unit,
                              stationarity=sol.stationarity / unit,
                              model_val=sol.model_val / unit / unit))

    def test_models_up_to_the_bound_keep_their_bits(self):
        # s0 = 2 / M is the length scale: 2^16 is solved as given, bit for
        # bit, and one ulp of M below it is not
        at = 2.0 / cubic._SCALE_MAX
        for M, unit in ((at, 1.0), (np.nextafter(at, 0.0), 2.0 ** 17)):
            model = CubicModel(v=np.array([1.0, 1.0]),
                               U=np.diag([-1.0, 1.0]), M=M)
            assert cubic._unit(-1.0, math.sqrt(2.0), M) == unit
            assert np.array_equal(solve(model).h, _dense_step(model)) == (
                unit == 1.0)


def _brentq_coords(lam, w, norm_v, M):
    """An easy case's step in the eigenbasis, built on scipy's ``brentq``
    root of |h(u)| - (s0 + u) over a doubling bracket."""
    half_m = M / 2.0
    s0, scale = cubic._length_scale(float(lam[0]), norm_v, M)
    shift = lam - lam[0] if lam[0] < 0 else lam

    def phi_u(u):
        return math.sqrt(np.sum((w / (shift + half_m * u)) ** 2)) - (s0 + u)

    u_hi = scale
    while phi_u(u_hi) > 0.0:
        u_hi *= 2.0
    u_lo = 1e-3 * scale
    while phi_u(u_lo) <= 0.0:
        u_lo *= 1e-2
    u = brentq(phi_u, u_lo, u_hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    return -w / (shift + half_m * u)


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.booleans(),
       st.floats(-150.0, 150.0), st.floats(-150.0, 150.0))
# hard cases (|v| <= 1e-120, s0 near 6e4) whose model values meet the
# decrease guarantee to within rounding at their own scale, about 1e9
@example(3761102877, 8, False, -126.7, -4.3)
@example(1408693667, 6, True, -136.0, -4.3)
def test_scales_spanning_1e150_are_certified(seed, d, factored, log_v, log_m):
    # solve raises unless its certificate holds; RuntimeWarnings are errors
    model = _model_at_scales(seed, d, factored, log_v, log_m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(model)
    assert math.isfinite(sol.s) and math.isfinite(sol.stationarity)


class TestBrentPort:
    """The secular root from Newton's iteration against scipy's ``brentq``,
    which stays installed as the reference."""

    def test_steps_agree_with_scipy_roots(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(2000):
            # random spectra, spreads, gradients and penalties; every one
            # is an easy case
            k = int(rng.integers(1, 30))
            lam = np.sort(rng.standard_normal(k) * 10.0 ** rng.uniform(-6, 6))
            w = rng.standard_normal(k) * 10.0 ** rng.uniform(-8, 4, size=k)
            M = 10.0 ** rng.uniform(-4, 4)
            norm_v = float(np.linalg.norm(w))
            ref = _brentq_coords(lam, w, norm_v, M)
            y = cubic._secular_coords(lam, w, norm_v, M)
            worst = max(worst, np.linalg.norm(y - ref) / np.linalg.norm(ref))
        assert worst <= 2e-15

    def test_stuck_secular_root_fails_solve_as_arithmetic_error(
            self, monkeypatch):
        # the type svrc_run and baseline_full_cubic stop on
        monkeypatch.setattr(cubic, "_ROOT_MAXITER", 1)
        model = CubicModel(v=np.array([1.0, -0.5]),
                           U=np.diag([1.0, 2.0]), M=1.0)
        with pytest.raises(ArithmeticError, match="did not converge"):
            solve(model)
