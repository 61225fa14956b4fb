import dataclasses
import math
import struct

from conftest import assert_rows, assert_shapes, chain_points, same_answer

import numpy as np
import pytest

from hardsum.chains import PHI_AT_ZERO
from hardsum.instances import (
    HardInstanceSpec,
    InstanceTooSmallError,
    RandomizedHardInstance,
    ResistingOracle,
    NotFinalizedError,
    ResistingCertificate,
    deterministic_params,
    ell_p,
    lemma_d_requirement,
    load_b_matrix,
    randomized_params,
    sample_randomized_instance,
    save_b_matrix,
)
from hardsum.linalg import (
    finite_diff_gradient,
    finite_diff_jacobian,
    rel_err,
    sample_orthonormal_columns,
)
from hardsum.optim import C_M, baseline_full_cubic, mu
from hardsum.oracle import OracleLedger, mean_derivatives, query

# Frozen closed-form constants: 2^(p+1) exp(2.5p + ln p + 4p + 10)
ELL_1 = 58602877.71581407
ELL_2 = 155916855139.98273


class TestScalingConstants:
    def test_ell_p_frozen_values(self):
        assert ell_p(1) == pytest.approx(ELL_1, rel=1e-14)
        assert ell_p(2) == pytest.approx(ELL_2, rel=1e-14)
        assert ell_p(1) == pytest.approx(4.0 * math.exp(16.5), rel=1e-14)
        assert ell_p(2) == pytest.approx(16.0 * math.exp(23.0), rel=1e-14)

    def test_ell_p_rejects_bad_p(self):
        with pytest.raises(ValueError):
            ell_p(0)

    def test_lemma_d_requirement(self):
        val = lemma_d_requirement(2, 3)
        assert val == pytest.approx(8 * 9 * math.log(4 * 9 / 0.1), rel=1e-14)


class TestDeterministicParams:
    def test_worked_example(self):
        # L equal to the chain constant and eps = 1 make every scale factor
        # exactly 1: K + 1 = floor(Delta / 192)
        spec = deterministic_params(p=1, n=4, Delta=384.0, L=ell_p(1), eps=1.0)
        assert spec.K + 1 == 2
        assert spec.lam == pytest.approx(1.0, rel=1e-15)
        assert spec.sigma == pytest.approx(4.0, rel=1e-15)
        assert spec.d == spec.K + 1 + 2 * spec.n * (spec.K + 2)

    def test_p2_sigma(self):
        spec = deterministic_params(p=2, n=2, Delta=960.0, L=ell_p(2), eps=1.0)
        assert spec.K + 1 == 5
        assert spec.sigma == pytest.approx(2.0, rel=1e-15)  # 4^(1/2)
        # gradient-norm floor: lam * sigma^p / 4 = eps exactly in this regime
        assert spec.lam * spec.sigma ** spec.p / 4.0 == pytest.approx(1.0, rel=1e-12)

    def test_too_small_raises_with_hint(self):
        with pytest.raises(InstanceTooSmallError) as ei:
            deterministic_params(p=1, n=2, Delta=1.0, L=1.0, eps=0.1)
        hint = ei.value.min_delta
        assert hint > 1.0
        spec = deterministic_params(p=1, n=2, Delta=hint * 1.0001, L=1.0, eps=0.1)
        assert spec.K + 1 == 2

    def test_explicit_budget(self):
        spec = deterministic_params(p=1, n=4, Delta=384.0, L=ell_p(1), eps=1.0,
                                    budget=7)
        assert spec.d == spec.K + 1 + 7

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            deterministic_params(p=1, n=0, Delta=384.0, L=1.0, eps=1.0)


class TestRandomizedParams:
    def test_third_moment_worked_example(self):
        spec = randomized_params("randomized-third-moment", p=2, n=1,
                                 Delta=96.0, L=1.0, eps=1.0, ell_hat=1.0)
        assert spec.K == 1
        assert spec.sigma == pytest.approx(2.0, rel=1e-15)
        assert spec.d == spec.n ** 2 * spec.K

    def test_individual_scalings(self):
        spec = randomized_params("randomized-individual", p=1, n=4,
                                 Delta=1920.0, L=1.0, eps=1.0, ell_hat=1.0)
        # K = floor((1920/192) / n) = 2,  sigma = 4 sqrt(n) = 8
        assert spec.K == 2
        assert spec.sigma == pytest.approx(8.0, rel=1e-15)
        assert spec.d == 4 * 4 * 2
        assert spec.d_required is not None

    def test_third_moment_needs_p2(self):
        with pytest.raises(ValueError, match="p = 2"):
            randomized_params("randomized-third-moment", p=1, n=2,
                              Delta=1e3, L=1.0, eps=1.0, ell_hat=1.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            randomized_params("deterministic", p=1, n=2, Delta=1e3, L=1.0,
                              eps=1.0, ell_hat=1.0)

    def test_too_small_raises(self):
        with pytest.raises(InstanceTooSmallError) as ei:
            randomized_params("randomized-individual", p=1, n=4, Delta=1.0,
                              L=1.0, eps=1.0, ell_hat=1.0)
        assert ei.value.min_delta > 1.0

    def test_d_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            randomized_params("randomized-individual", p=1, n=4, Delta=1920.0,
                              L=1.0, eps=1.0, ell_hat=1.0, d=33)
        with pytest.raises(ValueError, match="too small"):
            randomized_params("randomized-individual", p=1, n=4, Delta=1920.0,
                              L=1.0, eps=1.0, ell_hat=1.0, d=4)


class TestSpecContainer:
    def _spec(self):
        return deterministic_params(p=1, n=2, Delta=384.0, L=ell_p(1), eps=1.0)

    def test_roundtrip(self):
        spec = self._spec()
        assert HardInstanceSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_mode(self):
        payload = self._spec().to_dict()
        payload["mode"] = "mystery"
        with pytest.raises(ValueError):
            HardInstanceSpec.from_dict(payload)

    def test_rejects_k_zero(self):
        payload = self._spec().to_dict()
        payload["K"] = 0
        with pytest.raises(ValueError):
            HardInstanceSpec.from_dict(payload)


class TestBMatrixFile:
    def _instance_parts(self, seed=0):
        spec = randomized_params("randomized-individual", p=1, n=2,
                                 Delta=800.0, L=1.0, eps=1.0, ell_hat=1.0)
        m = spec.d // spec.n
        B = sample_orthonormal_columns(m, spec.n * spec.K, seed=seed)
        return spec, B

    def test_roundtrip(self, tmp_path):
        spec, B = self._instance_parts()
        path = tmp_path / "b.bin"
        save_b_matrix(path, B, spec.n, spec.K)
        B2, n2, K2 = load_b_matrix(path)
        assert (n2, K2) == (spec.n, spec.K)
        assert np.array_equal(B2.columns, B.columns)

    def test_header_layout(self, tmp_path):
        spec, B = self._instance_parts()
        path = tmp_path / "b.bin"
        save_b_matrix(path, B, spec.n, spec.K)
        raw = path.read_bytes()
        assert raw[:4] == b"HSB1"
        assert len(raw) == 16 + B.d * B.k * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            load_b_matrix(path)

    def test_truncated_payload(self, tmp_path):
        spec, B = self._instance_parts()
        path = tmp_path / "b.bin"
        save_b_matrix(path, B, spec.n, spec.K)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_b_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "b.bin"
        path.write_bytes(b"HS")
        with pytest.raises(ValueError, match="header"):
            load_b_matrix(path)

    def test_zero_chain_length_header(self, tmp_path):
        # a K = 0 header describes an empty basis; reject it at the header
        path = tmp_path / "b.bin"
        path.write_bytes(struct.pack("<4sIII", b"HSB1", 4, 2, 0))
        with pytest.raises(ValueError, match="header"):
            load_b_matrix(path)

    def test_save_validates_columns(self, tmp_path):
        spec, B = self._instance_parts()
        with pytest.raises(ValueError, match="columns"):
            save_b_matrix(tmp_path / "b.bin", B, spec.n, spec.K + 1)


class TestRandomizedInstance:
    def _make(self, mode="randomized-individual", n=2, haar_c=False, seed=0):
        if mode == "randomized-individual":
            spec = randomized_params(mode, p=1, n=n, Delta=192.0 * 2 * n,
                                     L=1.0, eps=1.0, ell_hat=1.0)
        else:
            spec = randomized_params(mode, p=2, n=n, Delta=200.0 * n,
                                     L=1.0, eps=1.0, ell_hat=1.0)
        with pytest.warns(UserWarning, match="guarantee threshold"):
            F = sample_randomized_instance(spec, seed=seed, haar_c=haar_c)
        return spec, F

    def test_value_at_origin(self):
        spec, F = self._make()
        pref = spec.lam * spec.sigma ** (spec.p + 1)
        assert F.full(np.zeros(spec.d), 0).value == pytest.approx(
            -pref * PHI_AT_ZERO, rel=1e-12)

    def test_third_moment_prefactor(self):
        spec, F = self._make(mode="randomized-third-moment", n=4)
        pref = spec.lam * spec.sigma ** 3 * spec.n ** (1.0 / 3.0)
        assert F.component(0, np.zeros(spec.d), 0).value == pytest.approx(
            -pref * PHI_AT_ZERO, rel=1e-12)

    def test_unscaled_view(self):
        spec, F = self._make()
        G = F.unscaled_view()
        assert G.component(1, np.zeros(spec.d), 0).value == pytest.approx(
            -PHI_AT_ZERO, rel=1e-13)

    def test_component_derivatives(self, rng):
        spec, F = self._make()
        x = rng.standard_normal(spec.d) * 2.0
        d = F.component(0, x, order=2)
        fd_g = finite_diff_gradient(lambda z: F.component(0, z, 0).value, x,
                                    step=1e-5)
        fd_H = finite_diff_jacobian(lambda z: F.component(0, z, 1).grad, x,
                                    step=1e-5)
        assert np.allclose(d.grad, fd_g, rtol=1e-4, atol=1e-5)
        assert np.allclose(d.hess, fd_H, rtol=1e-4, atol=1e-4)

    def test_slot_structure(self, rng):
        # without a rotation C, component i only sees/produces slot i
        spec, F = self._make()
        m = spec.d // spec.n
        x = rng.standard_normal(spec.d)
        d = F.component(0, x, order=2)
        assert np.allclose(d.grad[m:], 0.0)
        assert np.allclose(d.hess[m:, :], 0.0)
        y = x.copy()
        y[m:] += rng.standard_normal(spec.d - m)   # off-slot change is invisible
        assert F.component(0, y, 0).value == pytest.approx(
            F.component(0, x, 0).value, rel=1e-14)

    def test_haar_rotated_derivatives(self, rng):
        spec, F = self._make(haar_c=True)
        assert F.C is not None
        x = rng.standard_normal(spec.d)
        d = F.component(1, x, order=2)
        fd_g = finite_diff_gradient(lambda z: F.component(1, z, 0).value, x,
                                    step=1e-5)
        assert np.allclose(d.grad, fd_g, rtol=1e-4, atol=1e-5)
        assert np.allclose(d.hess, d.hess.T)

    @pytest.mark.parametrize("haar_c", [False, True])
    def test_embed_places_a_slot_vector(self, rng, haar_c):
        # embed(i, v) is the ambient point whose slot i reads v and whose
        # other slots read zero
        spec, F = self._make(haar_c=haar_c)
        m = spec.d // spec.n
        v = rng.standard_normal(m)
        x = F.embed(1, v)
        assert x.shape == (spec.d,)
        assert np.allclose(F._slot(1, x), v, atol=1e-12)
        assert np.allclose(F._slot(0, x), 0.0, atol=1e-12)

    @pytest.mark.parametrize("haar_c", [False, True])
    def test_stack_rows_equal_single_points(self, rng, haar_c):
        # one batched hat_f_eval per component answers the whole stack;
        # values are bit-identical, derivatives agree to rounding (the
        # clamp's powers, see tests/test_chains.py TestStacks)
        spec, F = self._make(n=3, haar_c=haar_c)
        X = rng.standard_normal((5, spec.d)) * 3.0
        for order in range(3):
            for stacked, single in (
                    (F.component(2, X, order),
                     [F.component(2, x, order) for x in X]),
                    (F.full(X, order), [F.full(x, order) for x in X])):
                assert_shapes(stacked, (5,), spec.d, order)
                assert_rows(stacked, single, 1e-15)

    @pytest.mark.parametrize("P", [1, 37])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("scaled", [True, False])
    @pytest.mark.parametrize("haar_c", [False, True])
    def test_stacked_full_equals_component_loop(self, rng, haar_c, scaled,
                                                n, P):
        # full on a stack evaluates every component in one clamped-chain
        # call; it equals the mean over one stacked component call each,
        # bit for bit, as the one-point full equals its component loop
        spec, F = self._make(n=n, haar_c=haar_c)
        F = F if scaled else F.unscaled_view()
        X = rng.standard_normal((P, spec.d)) * 3.0
        for order in range(3):
            for x in (X, X[0]):
                assert same_answer(F.full(x, order), mean_derivatives(
                    (F.component(i, x, order) for i in range(n)), x.shape,
                    order))
            rows = [n - 1, 0, n - 1]
            assert_rows(F.components(rows, X[0], order),
                        [F.component(i, X[0], order) for i in rows])

    def test_sampling_deterministic(self):
        spec, F1 = self._make(seed=42)
        _, F2 = self._make(seed=42)
        _, F3 = self._make(seed=43)
        assert np.array_equal(F1.B.columns, F2.B.columns)
        assert not np.array_equal(F1.B.columns, F3.B.columns)

    def test_rejects_deterministic_spec(self):
        spec = deterministic_params(p=1, n=2, Delta=384.0, L=ell_p(1), eps=1.0)
        B = sample_orthonormal_columns(4, 2, seed=0)
        with pytest.raises(ValueError, match="randomized"):
            RandomizedHardInstance(spec, B)

    def test_rejects_wrong_b_shape(self):
        spec = randomized_params("randomized-individual", p=1, n=2,
                                 Delta=800.0, L=1.0, eps=1.0, ell_hat=1.0)
        bad = sample_orthonormal_columns(spec.d // spec.n, spec.n * spec.K - 1,
                                         seed=0)
        with pytest.raises(ValueError, match="B must be"):
            RandomizedHardInstance(spec, bad)


def _small_game_spec(p=1, n=4, rounds=3):
    return deterministic_params(p=p, n=n, Delta=192.0 * rounds, L=ell_p(p),
                                eps=1.0)


def _play(F, rng, steps):
    """Query F ``steps`` times at random indices, points and orders."""
    for _ in range(steps):
        F.component(int(rng.integers(F.n)),
                    rng.standard_normal(F.d) * rng.uniform(0.0, 5.0),
                    order=int(rng.integers(3)))


def _certificate_by_record(F) -> ResistingCertificate:
    """The certificate of a finalized game, measured one archived point at
    a time: a full-sum gradient per record, then its replay in chain
    coordinates against the recorded answer, padded with zeros for the
    directions committed after it."""
    spec = F.spec
    top = spec.K + 1
    v_last = F.directions[:, spec.K]
    inner, gnorms, max_replay = [], [], 0.0
    for rec in F._archive:
        inner.append(abs(float(v_last @ rec.x)))
        gnorms.append(float(np.linalg.norm(F.full(rec.x, order=1).grad)))
        replay = F._coordinates(F._chain(rec.i, rec.x, rec.order, top))
        a = rec.active
        assert a == rec.round - 1 and 1 <= a <= spec.K
        err = rel_err(replay.value, rec.response.value)
        if rec.order >= 1:
            assert rec.response.grad.shape == (a,)
            grad = np.zeros(top)
            grad[:a] = rec.response.grad
            err = max(err, rel_err(replay.grad, grad))
        if rec.order >= 2:
            assert rec.response.hess.shape == (a, a)
            hess = np.zeros((top, top))
            hess[:a, :a] = rec.response.hess
            err = max(err, rel_err(replay.hess, hess))
        max_replay = max(max_replay, err)
    inner, gnorms = np.asarray(inner), np.asarray(gnorms)
    empty = not F._archive
    bound = spec.lam * spec.sigma ** spec.p / 4.0
    return ResistingCertificate(
        num_queries=len(F._archive), rounds_closed=F.rounds_closed,
        bound=bound, inner_products=inner, grad_norms=gnorms,
        max_inner_product=0.0 if empty else float(inner.max()),
        min_grad_norm=math.inf if empty else float(gnorms.min()),
        all_orthogonal=bool(empty or inner.max() <= 1e-10),
        all_above_bound=bool(empty or gnorms.min() > bound),
        max_replay_rel_err=max_replay,
        replay_consistent=bool(max_replay <= 1e-10))


def _nbytes(obj) -> int:
    """Bytes an archive holds in arrays and numbers (8 per scalar), through
    lists, dataclasses and nested answers."""
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(item) for item in obj)
    if dataclasses.is_dataclass(obj):
        return sum(_nbytes(getattr(obj, f.name))
                   for f in dataclasses.fields(obj))
    return 8


def _relative_gap(dense, factored) -> float:
    return float(np.linalg.norm(factored.lift() - dense)) / max(
        float(np.linalg.norm(dense)), np.finfo(float).tiny)


class TestFactoredAnswers:
    """The charged and measured answers hold their Hessians as V S V^T; the
    public ones are their lifts."""

    @pytest.mark.parametrize("p", [1, 2])
    def test_charged_answers_lift_to_the_public_ones(self, rng, p):
        # two copies of one game, played with the same moves: through query
        # (factored) and through component (lifted); each pass over the four
        # components closes a round after its second row, so its mean pads
        # the first rows' S; the third pass finalizes the game mid-pass
        spec = _small_game_spec(p=p, rounds=6)
        charged, public = (ResistingOracle(spec, seed=12) for _ in range(2))
        ledger = OracleLedger(n=spec.n)
        passes = 0
        while True:
            done = public.finalized
            x = chain_points(public, rng, 1)[0]
            answers = [query(ledger, charged, i, x, order=2)
                       for i in range(spec.n)]
            dense = [public.component(i, x, 2) for i in range(spec.n)]
            for a, b in zip(answers, dense):
                assert a.value == b.value and np.array_equal(a.grad, b.grad)
                assert np.array_equal(b.hess, a.hess.lift())
            mean = mean_derivatives(answers, (spec.d,), 2)
            ref = mean_derivatives(dense, (spec.d,), 2)
            assert mean.value == ref.value
            assert np.array_equal(mean.grad, ref.grad)
            assert _relative_gap(ref.hess, mean.hess) <= 1e-14
            # the measurement behind mu against the public full
            measured = mean_derivatives(charged._answers(x, 2), (spec.d,), 2)
            full = public.full(x, 2)
            assert measured.value == full.value
            assert np.array_equal(measured.grad, full.grad)
            assert np.array_equal(full.hess, measured.hess.lift())
            passes += 1
            if done:
                break
        assert passes == 4 and charged.finalized
        assert charged.num_archived == public.num_archived == 10
        for a, b in zip(charged._archive, public._archive):
            assert (a.i, a.order, a.active) == (b.i, b.order, b.active)
            assert same_answer(a.response, b.response)
        assert charged.certificate().to_dict() == public.certificate().to_dict()

    def test_mu_matches_the_dense_measurement(self, rng):
        # at small L2 the curvature term can win: where the screen fails, mu
        # takes lambda_min from S; at large L2 the screen proves the floor
        spec = _small_game_spec(p=1, rounds=6)
        F = ResistingOracle(spec, seed=15)
        for i in range(spec.n):
            F.component(i, rng.standard_normal(spec.d), 1)
        for L2 in (1e-6, 1.0, 1e6):
            for x in chain_points(F, rng, 4):
                full = F.full(x, 2)
                gnorm = float(np.linalg.norm(full.grad))
                lam_min = float(np.linalg.eigh(full.hess)[0][0])
                ref = max(gnorm ** 1.5, -(lam_min ** 3) / L2 ** 1.5)
                assert mu(F, x, L2) == pytest.approx(ref, rel=1e-12)

    def test_archive_holds_no_dense_hessian(self):
        # a cubic game at d >= 1000: each record holds its point and its
        # answer in chain coordinates, at most 8 (d + (K+1)^2) bytes plus
        # its scalars, never a d x d Hessian
        spec = deterministic_params(p=1, n=4, Delta=192.0 * 21, L=ell_p(1),
                                    eps=1.0, budget=1000)
        assert spec.d >= 1000 and spec.K == 20
        F = ResistingOracle(spec, seed=14)
        ledger = OracleLedger(n=spec.n)
        rows = baseline_full_cubic(F, C_M * spec.L, 40, ledger=ledger)
        assert len(rows) == 5 and ledger.hess_queries == 20
        records = len(F._archive)
        assert records == 40 and F.rounds_closed == 20
        per_record = 8 * (spec.d + (spec.K + 1) ** 2) + 64
        assert _nbytes(F._archive) <= records * per_record


class TestResistingOracle:
    def test_rejects_randomized_spec(self):
        spec = randomized_params("randomized-individual", p=1, n=2,
                                 Delta=800.0, L=1.0, eps=1.0, ell_hat=1.0)
        with pytest.raises(ValueError, match="deterministic"):
            ResistingOracle(spec, seed=0)

    def test_first_round_truncation(self):
        # before any round closes, only the first chain term is active, and
        # only for the first ceil(n/2) components
        spec = _small_game_spec()
        F = ResistingOracle(spec, seed=1)
        pref = spec.lam * spec.sigma ** (spec.p + 1)
        x = np.zeros(spec.d)
        assert F.component(3, x, 0).value == 0.0
        assert F.component(0, x, 0).value == pytest.approx(
            -pref * PHI_AT_ZERO, rel=1e-13)

    def test_rounds_need_distinct_indices(self, rng):
        spec = _small_game_spec()
        F = ResistingOracle(spec, seed=2)
        for _ in range(10):
            F.component(0, rng.standard_normal(spec.d), 1)
        assert F.rounds_closed == 0
        F.component(1, rng.standard_normal(spec.d), 1)
        assert F.rounds_closed == 1          # ceil(4/2) = 2 distinct indices

    def test_full_game_certificate(self, rng):
        spec = _small_game_spec()
        F = ResistingOracle(spec, seed=3)
        while not F.finalized:
            F.component(int(rng.integers(spec.n)),
                        rng.standard_normal(spec.d) * rng.uniform(0.1, 3.0),
                        order=2)
        cert = F.certificate()
        assert cert.passed
        assert cert.rounds_closed == spec.K + 1 - 1  # rounds 2 .. K+1
        assert cert.max_inner_product <= 1e-10
        assert cert.min_grad_norm > cert.bound
        assert cert.max_replay_rel_err <= 1e-10
        assert cert.bound == pytest.approx(
            spec.lam * spec.sigma ** spec.p / 4.0, rel=1e-15)

    def test_certificate_requires_finalization(self):
        F = ResistingOracle(_small_game_spec(), seed=4)
        F.component(0, np.zeros(F.d), 1)
        with pytest.raises(NotFinalizedError):
            F.certificate()

    def test_finalize_force_closes(self):
        spec = _small_game_spec()
        F = ResistingOracle(spec, seed=5)
        F.component(0, np.ones(spec.d), 1)
        F.finalize()
        assert F.finalized
        cert = F.certificate()
        assert cert.num_queries == 1
        assert cert.passed

    def test_empty_game_certifies_vacuously(self):
        F = ResistingOracle(_small_game_spec(), seed=6)
        F.finalize()
        cert = F.certificate()
        assert cert.num_queries == 0
        assert cert.min_grad_norm == math.inf
        assert cert.passed

    def test_post_game_queries_not_archived(self, rng):
        spec = _small_game_spec()
        F = ResistingOracle(spec, seed=7)
        F.finalize()
        before = F.num_archived
        F.component(0, rng.standard_normal(spec.d), 2)
        assert F.num_archived == before

    def test_committed_directions_orthonormal(self, rng):
        spec = _small_game_spec()
        F = ResistingOracle(spec, seed=8)
        while not F.finalized:
            F.component(int(rng.integers(spec.n)),
                        rng.standard_normal(spec.d), 1)
        V = F.directions
        assert np.abs(V.T @ V - np.eye(spec.K + 1)).max() < 1e-12

    def test_directions_hold_every_column(self, rng):
        # all K + 1 columns, committed or not: during play the columns past
        # rounds_closed + 1 are zero, and finalize commits them all
        spec = _small_game_spec(rounds=6)
        F = ResistingOracle(spec, seed=16)
        for i in range(spec.n):
            F.component(i, rng.standard_normal(spec.d), 1)
        V = F.directions
        assert F.rounds_closed == 2 and spec.K + 1 > 3
        assert V.shape == (spec.d, spec.K + 1)
        assert np.allclose(np.linalg.norm(V[:, :3], axis=0), 1.0)
        assert not V[:, 3:].any()
        F.finalize()
        assert np.allclose(np.linalg.norm(F.directions, axis=0), 1.0)

    def test_truncated_vs_final_full_gradient(self):
        # the measurement channel follows the game state: truncated during
        # play, finalized afterwards
        spec = _small_game_spec()
        F = ResistingOracle(spec, seed=9)
        # a point deep along the first committed direction activates the
        # bump factor (argument 1 > 1/2), so later chain terms matter
        x = spec.sigma * F.directions[:, 0]
        g_play = F.full(x, 1).grad
        F.finalize()
        g_final = F.full(x, 1).grad
        assert g_play.shape == g_final.shape == (spec.d,)
        assert not np.allclose(g_play, g_final)

    def test_dimension_exhaustion_raises(self, rng):
        spec = deterministic_params(p=1, n=4, Delta=768.0, L=ell_p(1),
                                    eps=1.0, budget=2)
        F = ResistingOracle(spec, seed=10)
        with pytest.raises(RuntimeError, match="d|dimension"):
            for t in range(20):
                F.component(t % 4, rng.standard_normal(spec.d), 1)

    @pytest.mark.parametrize("steps", [0, 1, 7, 40])
    @pytest.mark.parametrize("p", [1, 2])
    def test_certificate_equals_the_per_record_measurement(self, p, steps):
        # an empty archive, a game cut short and closed by finalize, and a
        # game played to its end
        rng = np.random.default_rng(2000 + steps)
        F = ResistingOracle(_small_game_spec(p=p, rounds=6), seed=steps)
        while F.num_archived < steps and not F.finalized:
            _play(F, rng, 1)
        F.finalize()
        cert, ref = F.certificate(), _certificate_by_record(F)
        for field in dataclasses.fields(ResistingCertificate):
            a, b = getattr(cert, field.name), getattr(ref, field.name)
            if isinstance(b, np.ndarray):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            else:
                assert a == b, field.name
        assert cert.passed

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_play_always_certifies(self, seed):
        rng = np.random.default_rng(1000 + seed)
        spec = _small_game_spec(p=(seed % 2) + 1, n=3 + (seed % 3))
        F = ResistingOracle(spec, seed=seed)
        _play(F, rng, int(rng.integers(5, 40)))
        F.finalize()
        assert F.certificate().passed
