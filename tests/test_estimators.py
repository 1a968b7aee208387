"""Tests for the score estimators: closed forms, optimality, prediction, serialisation."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import steingrad as sg
from steingrad import (
    DegenerateDenominatorError,
    FittedEstimator,
    KernelSpec,
    build_matrices,
    entropy_gradient_surrogate,
    fit_estimator,
    ksd_v,
)
from steingrad.estimators import (
    KIND_KDE,
    KIND_SCORE,
    KIND_STEIN_PARAM_U,
    KIND_STEIN_PARAM_V,
    KIND_STEIN_U,
    KIND_STEIN_V,
    KINDS,
    MIN_U_ETA,
    _expansion_predict,
    _parametric_system,
    _stein_system,
)
from steingrad.kernels import cross_hess_trace, kernel_grad_first_arg
from steingrad.linalg import RESIDUAL_RTOL

RBF = KernelSpec("rbf", 1.3)
EPAN = KernelSpec("epanechnikov")
# every kind under the rbf kernel, and score matching under both families,
# so that properties drawing from it cover the Epanechnikov closed form too
KIND_FAMILIES = [(kind, "rbf") for kind in KINDS] + [(KIND_SCORE, "epanechnikov")]


def gaussian_sample(seed, n=12, d=2):
    return np.random.default_rng(seed).standard_normal((n, d))


class TestKde:
    def test_closed_form(self):
        xs = gaussian_sample(0)
        mats = build_matrices(xs, RBF)
        want = -mats.grad_sum / mats.k_matrix.sum(axis=1)[:, None]
        np.testing.assert_allclose(fit_estimator(KIND_KDE, xs, RBF).grads, want, atol=1e-14)

    def test_gaussian_mixture_score_one_dim(self):
        # In one dimension the KDE score has the explicit form
        # sum_k k(x, x_k)(x_k - x) / (s2 * sum_k k(x, x_k)).
        xs = np.array([[-1.0], [0.5], [2.0]])
        spec = KernelSpec("rbf", 0.7)
        grads = fit_estimator(KIND_KDE, xs, spec).grads
        for i, x in enumerate(xs[:, 0]):
            kv = np.exp(-0.5 * (x - xs[:, 0]) ** 2 / 0.7)
            want = float(kv @ (xs[:, 0] - x)) / (0.7 * kv.sum())
            assert grads[i, 0] == pytest.approx(want, rel=1e-13)

    def test_degenerate_denominator(self):
        # Two points at squared distance 4 in two dimensions make the
        # Epanechnikov row sums collapse exactly: 1 + (1 - 4/2) = 0.
        xs = np.array([[0.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateDenominatorError):
            fit_estimator(KIND_KDE, xs, EPAN)

    def test_predict_matches_fit_at_train(self):
        xs = gaussian_sample(1)
        fit = fit_estimator(KIND_KDE, xs, RBF)
        np.testing.assert_allclose(fit.predict(xs), fit.grads_at_train(), atol=1e-13)


class TestSteinNonparametric:
    def test_v_statistic_closed_form(self):
        xs = gaussian_sample(2)
        eta = 0.1
        mats = build_matrices(xs, RBF)
        system = mats.k_matrix + eta * np.eye(len(xs))
        want = np.linalg.solve(system, -mats.grad_sum)
        got = fit_estimator(KIND_STEIN_V, xs, RBF, eta=eta).grads
        np.testing.assert_allclose(got, want, atol=1e-11)

    def test_u_statistic_closed_form(self):
        xs = gaussian_sample(3)
        eta = 0.05
        mats = build_matrices(xs, RBF)
        system = mats.k_matrix.copy()
        np.fill_diagonal(system, eta)
        want = np.linalg.solve(system, -mats.grad_sum)
        got = fit_estimator(KIND_STEIN_U, xs, RBF, eta=eta).grads
        np.testing.assert_allclose(got, want, atol=1e-11)

    def test_u_statistic_fit_is_the_indefinite_solve(self):
        # the U system is indefinite, so Cholesky fails at once and the
        # ladder takes the LDL^T solve every U fit took before
        xs = gaussian_sample(9, n=20)
        grad_sum, system = _stein_system(xs, RBF, 0.05, "u")
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(system, lower=True)
        want = scipy.linalg.solve(system, -grad_sum, assume_a="sym")
        fit = fit_estimator(KIND_STEIN_U, xs, RBF, eta=0.05)
        assert fit.diagnostics["jitter_level"] == 0
        np.testing.assert_allclose(fit.grads, want, rtol=1e-12, atol=1e-12)

    def test_u_statistic_requires_positive_eta(self):
        xs = gaussian_sample(4)
        with pytest.raises(ValueError):
            fit_estimator(KIND_STEIN_U, xs, RBF, eta=0.0)
        with pytest.raises(ValueError):
            fit_estimator(KIND_STEIN_U, xs, RBF, eta=MIN_U_ETA / 10)
        fit_estimator(KIND_STEIN_U, xs, RBF, eta=MIN_U_ETA)

    def test_eta_validation(self):
        xs = gaussian_sample(5)
        with pytest.raises(ValueError):
            fit_estimator(KIND_STEIN_V, xs, RBF, eta=-0.1)
        with pytest.raises(ValueError):
            fit_estimator(KIND_STEIN_V, xs, RBF, eta=np.nan)

    def test_regularised_objective_local_minimum(self):
        # The V-statistic fit minimises the discrepancy plus the matching
        # Frobenius penalty; no small perturbation may improve it.
        xs = gaussian_sample(6)
        eta = 0.1
        n = len(xs)
        grads = fit_estimator(KIND_STEIN_V, xs, RBF, eta=eta).grads

        def objective(g):
            return ksd_v(xs, g, RBF).value + eta / n**2 * float(np.sum(g * g))

        base = objective(grads)
        rng = np.random.default_rng(60)
        scale = 0.01 * (1.0 + np.linalg.norm(grads))
        for _ in range(100):
            delta = rng.standard_normal(grads.shape)
            delta *= scale / np.linalg.norm(delta)
            assert objective(grads + delta) >= base - 1e-12 * max(1.0, abs(base))

    def test_relation_to_kde(self):
        # Both estimators share the kernel-gradient numerator, so
        # (K + eta I) G_stein equals diag(K 1) G_kde exactly.
        xs = gaussian_sample(7)
        eta = 0.2
        mats = build_matrices(xs, RBF)
        g_stein = fit_estimator(KIND_STEIN_V, xs, RBF, eta=eta).grads
        g_kde = fit_estimator(KIND_KDE, xs, RBF).grads
        lhs = (mats.k_matrix + eta * np.eye(len(xs))) @ g_stein
        rhs = mats.k_matrix.sum(axis=1)[:, None] * g_kde
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_translation_equivariance(self):
        xs = gaussian_sample(8)
        shift = np.array([3.0, -2.0])
        base = fit_estimator(KIND_STEIN_V, xs, RBF, eta=0.1).grads
        moved = fit_estimator(KIND_STEIN_V, xs + shift, RBF, eta=0.1).grads
        np.testing.assert_allclose(moved, base, atol=1e-10)


class TestSteinPredict:
    def test_matches_refit_on_augmented_sample(self):
        # Adding the query to the training set and refitting must reproduce
        # the block-solve prediction exactly.
        xs = gaussian_sample(9, n=15)
        eta = 0.1
        fit = fit_estimator(KIND_STEIN_V, xs, RBF, eta=eta)
        rng = np.random.default_rng(90)
        for _ in range(5):
            y = rng.standard_normal(2)
            got = fit.predict(y[None, :])[0]
            refit = fit_estimator(KIND_STEIN_V, np.vstack([xs, y]), RBF, eta=eta).grads
            np.testing.assert_allclose(got, refit[-1], atol=1e-9)

    def test_symmetric_sample_gives_zero_at_centre(self):
        # A sign-symmetric training set makes the estimated field odd, so
        # the prediction at the origin vanishes.
        rng = np.random.default_rng(91)
        half = rng.standard_normal((10, 2))
        xs = np.vstack([half, -half])
        fit = fit_estimator(KIND_STEIN_V, xs, RBF, eta=0.1)
        got = fit.predict(np.zeros((1, 2)))
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_u_fit_has_no_prediction(self):
        xs = gaussian_sample(11)
        fit = fit_estimator(KIND_STEIN_U, xs, RBF, eta=0.1)
        with pytest.raises(ValueError):
            fit.predict(xs[:1])

    def test_dimension_mismatch(self):
        xs = gaussian_sample(12)
        fit = fit_estimator(KIND_STEIN_V, xs, RBF, eta=0.1)
        with pytest.raises(ValueError):
            fit.predict(np.zeros((1, 3)))

    def test_predict_validates_each_batch_once(self, monkeypatch):
        # predict checks the batch and hands it on; the Stein rule does not
        # scan it for non-finite entries a second time
        from steingrad import estimators

        fit = fit_estimator(KIND_STEIN_V, gaussian_sample(13), RBF, eta=0.1)
        fit.kinv
        calls = []
        real = estimators.as_samples

        def counting(x, name="samples"):
            calls.append(name)
            return real(x, name)

        monkeypatch.setattr(estimators, "as_samples", counting)
        fit.predict(gaussian_sample(14, n=5))
        assert calls == ["points"]


def empirical_score_objective(coeffs, xs, spec):
    """(1/K) sum_i [2 div g(x_i) + ||g(x_i)||^2] for the kernel expansion g."""
    n = len(xs)
    total = 0.0
    for i in range(n):
        g = np.zeros(xs.shape[1])
        div = 0.0
        for k in range(n):
            g += coeffs[k] * kernel_grad_first_arg(xs[i], xs[k], spec)
            div -= coeffs[k] * cross_hess_trace(xs[i], xs[k], spec)
        total += 2.0 * div + g @ g
    return total / n


def rbf_score_matching_solution(xs, eta):
    """The rbf ridge system rebuilt from per-coordinate commutator blocks."""
    km = build_matrices(xs, RBF).k_matrix
    ksum = km.sum(axis=1)
    n = len(xs)
    sigma = np.zeros((n, n))
    vec = np.zeros(n)
    for xi in xs.T:
        d_i = np.diag(xi) @ km - km @ np.diag(xi)
        sigma += d_i.T @ d_i
        vec += RBF.sigma2 * ksum - (
            km @ (xi * xi) + np.diag(xi * xi) @ km @ np.ones(n) - 2 * np.diag(xi) @ km @ xi
        )
    return np.linalg.solve(sigma + eta * np.eye(n), vec)


def epanechnikov_score_matching_solution(xs, eta):
    """The Epanechnikov ridge system, entry by entry."""
    n, d = xs.shape
    sqn = np.einsum("kd,kd->k", xs, xs)
    sigma = np.empty((n, n))
    for k in range(n):
        for kp in range(n):
            sigma[k, kp] = (
                xs[k] @ xs[kp]
                + np.mean([sqn[j] - (xs[k] + xs[kp]) @ xs[j] for j in range(n)])
            ) / d**2
    return 0.5 * np.linalg.solve(sigma + eta * np.eye(n), np.ones(n))


class TestScoreMatching:
    def test_rbf_normal_equations(self):
        # Independent reconstruction of the ridge system from per-coordinate
        # commutator blocks.
        xs = gaussian_sample(13, n=9, d=3)
        want = rbf_score_matching_solution(xs, 0.1)
        got = fit_estimator(KIND_SCORE, xs, RBF, eta=0.1).coeffs
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rbf_objective_local_minimum(self):
        xs = gaussian_sample(14)
        eta = 0.1
        n = len(xs)
        coeffs = fit_estimator(KIND_SCORE, xs, RBF, eta=eta).coeffs

        def objective(c):
            return (
                n * RBF.sigma2**2 / 2 * empirical_score_objective(c, xs, RBF)
                + eta / 2 * float(c @ c)
            )

        base = objective(coeffs)
        rng = np.random.default_rng(140)
        for _ in range(60):
            delta = rng.standard_normal(n)
            delta *= 0.01 * np.linalg.norm(coeffs) / np.linalg.norm(delta)
            assert objective(coeffs + delta) >= base - 1e-10 * max(1.0, abs(base))

    def test_epanechnikov_normal_equations(self):
        xs = gaussian_sample(15, n=8, d=2)
        want = epanechnikov_score_matching_solution(xs, 0.1)
        got = fit_estimator(KIND_SCORE, xs, EPAN, eta=0.1).coeffs
        np.testing.assert_allclose(got, want, atol=1e-11)

    def test_epanechnikov_objective_local_minimum(self):
        xs = gaussian_sample(16)
        eta = 0.1
        coeffs = fit_estimator(KIND_SCORE, xs, EPAN, eta=eta).coeffs

        def objective(c):
            return empirical_score_objective(c, xs, EPAN) + 4 * eta * float(c @ c)

        base = objective(coeffs)
        rng = np.random.default_rng(160)
        for _ in range(60):
            delta = rng.standard_normal(len(xs))
            delta *= 0.01 * np.linalg.norm(coeffs) / np.linalg.norm(delta)
            assert objective(coeffs + delta) >= base - 1e-10 * max(1.0, abs(base))

    def test_predict_is_kernel_expansion(self):
        xs = gaussian_sample(17, n=6)
        fit = fit_estimator(KIND_SCORE, xs, RBF, eta=0.1)
        coeffs = fit.coeffs
        pts = gaussian_sample(18, n=4)
        got = fit.predict(pts)
        for i, y in enumerate(pts):
            want = sum(
                coeffs[k] * kernel_grad_first_arg(y, xs[k], RBF) for k in range(6)
            )
            np.testing.assert_allclose(got[i], want, atol=1e-13)

    def test_predict_validation(self):
        # a coefficient vector that does not match train can only arrive
        # through a record, which from_json_dict checks (coeffs-length)
        xs = gaussian_sample(19, n=5)
        fit = fit_estimator(KIND_SCORE, xs, RBF, eta=0.1)
        for bad in (np.zeros((2, 3)), np.zeros(2), np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="points"):
                fit.predict(bad)

    def test_family_dispatch_in_fit_estimator(self):
        # one kind, two closed forms: the kernel family picks the system
        xs = gaussian_sample(20, n=8)
        rbf = fit_estimator(KIND_SCORE, xs, RBF, eta=0.1)
        epan = fit_estimator(KIND_SCORE, xs, EPAN, eta=0.1)
        assert (rbf.kind, rbf.spec) == (KIND_SCORE, RBF)
        assert (epan.kind, epan.spec) == (KIND_SCORE, EPAN)
        np.testing.assert_allclose(rbf.coeffs, rbf_score_matching_solution(xs, 0.1), atol=1e-10)
        np.testing.assert_allclose(
            epan.coeffs, epanechnikov_score_matching_solution(xs, 0.1), atol=1e-11
        )


class TestSteinParametric:
    def test_matrices_match_explicit_sums(self):
        xs = gaussian_sample(21, n=6)
        sigma2 = 0.9
        spec = KernelSpec("rbf", sigma2)
        mats = build_matrices(xs, spec)
        km, gram = mats.k_matrix, xs @ xs.T
        n = len(xs)
        lam_v = np.zeros((n, n))
        lam_u = np.zeros((n, n))
        b = np.zeros(n)
        for k in range(n):
            for kp in range(n):
                for j in range(n):
                    for l in range(n):
                        term = (
                            km[k, j]
                            * km[j, l]
                            * km[l, kp]
                            * (gram[k, kp] + gram[j, l] - gram[k, l] - gram[j, kp])
                        )
                        lam_v[k, kp] += term
                        if j != l:
                            lam_u[k, kp] += term
            for j in range(n):
                for l in range(n):
                    b[k] -= (
                        km[k, j]
                        * km[j, l]
                        * (gram[k, j] - gram[k, l] - gram[j, j] + gram[j, l])
                    )
        eta = 0.1
        want_v = np.linalg.solve(lam_v + eta * np.eye(n), b)
        want_u = np.linalg.solve(lam_u + eta * np.eye(n), b)
        np.testing.assert_allclose(
            fit_estimator(KIND_STEIN_PARAM_V, xs, spec, eta=eta).coeffs, want_v, atol=1e-10
        )
        np.testing.assert_allclose(
            fit_estimator(KIND_STEIN_PARAM_U, xs, spec, eta=eta).coeffs, want_u, atol=1e-10
        )

    def test_discrepancy_local_minimum(self):
        # With no ridge the V-statistic coefficients are a stationary point
        # of the discrepancy itself.
        xs = gaussian_sample(22)
        coeffs = fit_estimator(KIND_STEIN_PARAM_V, xs, RBF, eta=0.0).coeffs

        def objective(c):
            return ksd_v(xs, _expansion_predict(c, xs, RBF, xs), RBF).value

        base = objective(coeffs)
        rng = np.random.default_rng(220)
        for _ in range(100):
            delta = rng.standard_normal(len(xs))
            delta *= 0.01 * np.linalg.norm(coeffs) / np.linalg.norm(delta)
            assert objective(coeffs + delta) >= base - 1e-12 * max(1.0, abs(base))

    def test_rbf_only(self):
        xs = gaussian_sample(23)
        with pytest.raises(ValueError):
            fit_estimator(KIND_STEIN_PARAM_V, xs, EPAN)

    def test_u_statistic_eta_floor(self):
        xs = gaussian_sample(24)
        with pytest.raises(ValueError):
            fit_estimator(KIND_STEIN_PARAM_U, xs, KernelSpec("rbf", 1.0), eta=0.0)


class TestEntropySurrogate:
    def test_identity_jacobians_reduce_to_mean(self):
        grads = np.array([[1.0, 2.0], [3.0, -4.0]])
        jac = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
        got = entropy_gradient_surrogate(grads, jac)
        np.testing.assert_allclose(got, [-2.0, 1.0], atol=1e-15)

    def test_scalar_scale_family(self):
        # z = sigma * eps: the Jacobian column is eps itself and the
        # surrogate is -(1/K) sum_k g(z_k) . eps_k.
        rng = np.random.default_rng(25)
        eps = rng.standard_normal((50, 1))
        sigma = 1.7
        z = sigma * eps
        grads = -z / sigma**2  # exact standard-normal-scaled score
        jac = eps[:, :, None]
        got = entropy_gradient_surrogate(grads, jac)
        want = float(np.mean(z * eps)) / sigma**2
        assert got.shape == (1,)
        assert got[0] == pytest.approx(want, rel=1e-12)

    def test_shape_validation(self):
        grads = np.zeros((3, 2))
        with pytest.raises(ValueError):
            entropy_gradient_surrogate(grads, np.zeros((3, 2)))
        with pytest.raises(ValueError):
            entropy_gradient_surrogate(grads, np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            entropy_gradient_surrogate(grads, np.full((3, 2, 1), np.nan))


class TestFittedEstimator:
    def test_round_trip_through_json(self):
        xs = gaussian_sample(26, n=10)
        pts = gaussian_sample(27, n=4)
        for kind, family in KIND_FAMILIES:
            spec = EPAN if family == "epanechnikov" else RBF
            fit = fit_estimator(kind, xs, spec, eta=0.1)
            blob = json.dumps(fit.to_json_dict())
            back = FittedEstimator.from_json_dict(json.loads(blob))
            assert back.kind == fit.kind
            assert back.eta == fit.eta
            assert back.spec == fit.spec
            np.testing.assert_array_equal(back.train, fit.train)
            if fit.grads is not None:
                np.testing.assert_array_equal(back.grads, fit.grads)
            if fit.coeffs is not None:
                np.testing.assert_array_equal(back.coeffs, fit.coeffs)
            if fit.kinv is not None:
                np.testing.assert_array_equal(back.kinv, fit.kinv)
            # parameters round-trip bit for bit; recomputed predictions may
            # differ in the last bits because BLAS picks kernels by the
            # memory alignment of the reconstructed arrays
            np.testing.assert_allclose(
                back.grads_at_train(), fit.grads_at_train(), atol=1e-12
            )
            if kind != KIND_STEIN_U:
                np.testing.assert_allclose(back.predict(pts), fit.predict(pts), atol=1e-12)

    def test_from_json_rejects_malformed_records(self):
        xs = gaussian_sample(28, n=4)
        fit = fit_estimator(KIND_KDE, xs, RBF)
        good = fit.to_json_dict()
        bad = dict(good)
        bad["kind"] = "mystery"
        with pytest.raises(ValueError):
            FittedEstimator.from_json_dict(bad)
        bad = dict(good)
        del bad["kernel"]
        with pytest.raises(ValueError):
            FittedEstimator.from_json_dict(bad)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda r: r.update(coeffs=[0.0] * len(r["train"])), "coeffs"),
            (lambda r: r.update(grads=None), "grads"),
            (lambda r: r.update(grads=r["grads"][:-1]), "grads"),
            (lambda r: r.update(grads=[row + [0.0] for row in r["grads"]]), "grads"),
            (lambda r: r["grads"][2].__setitem__(1, float("nan")), "grads"),
            (lambda r: r.update(eta=float("inf")), "eta"),
        ],
        ids=["both-params", "no-grads", "grads-rows", "grads-cols", "grads-nan", "eta-inf"],
    )
    def test_from_json_rejects_inconsistent_grad_record(self, edit, field):
        fit = fit_estimator(KIND_STEIN_V, gaussian_sample(32, n=6), RBF)
        record = json.loads(json.dumps(fit.to_json_dict()))
        edit(record)
        with pytest.raises(ValueError, match=field):
            FittedEstimator.from_json_dict(record)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda r: r.update(grads=[[0.0] * 2] * len(r["train"])), "grads"),
            (lambda r: r.update(coeffs=None), "coeffs"),
            (lambda r: r.update(coeffs=r["coeffs"] + [1.0]), "coeffs"),
            (lambda r: r.update(coeffs=[r["coeffs"]]), "coeffs"),
            (lambda r: r["coeffs"].__setitem__(0, float("inf")), "coeffs"),
        ],
        ids=["both-params", "no-coeffs", "coeffs-length", "coeffs-2d", "coeffs-inf"],
    )
    def test_from_json_rejects_inconsistent_coeff_record(self, edit, field):
        fit = fit_estimator(KIND_SCORE, gaussian_sample(33, n=6), RBF)
        record = json.loads(json.dumps(fit.to_json_dict()))
        edit(record)
        with pytest.raises(ValueError, match=field):
            FittedEstimator.from_json_dict(record)

    def test_from_json_ignores_legacy_kinv(self):
        # older sidecars stored the inverse; it is derivable, so a stale or
        # even wrong copy is dropped and the inverse solved afresh
        xs = gaussian_sample(34, n=8)
        fit = fit_estimator(KIND_STEIN_V, xs, RBF)
        record = fit.to_json_dict()
        assert "kinv" not in record
        record["kinv"] = np.zeros((8, 8)).tolist()
        back = FittedEstimator.from_json_dict(record)
        np.testing.assert_array_equal(back.kinv, fit.kinv)

    def test_fit_makes_one_solve_and_predict_adds_one(self, monkeypatch):
        from steingrad import estimators

        calls = []
        real = estimators.solve_symmetric

        def counting(mat, rhs, name="linear system"):
            calls.append(name)
            return real(mat, rhs, name)

        monkeypatch.setattr(estimators, "solve_symmetric", counting)
        xs = gaussian_sample(35, n=9)
        fit = fit_estimator(KIND_STEIN_V, xs, RBF)
        assert calls == ["stein v-statistic system"]
        pts = gaussian_sample(36, n=3)
        first = fit.predict(pts)
        fit.predict(pts)
        assert calls == ["stein v-statistic system", "stein predictive inverse"]
        # the lazily solved inverse is the one the eager fit used to store
        _, system = estimators._stein_system(xs, RBF, 0.1, "v")
        want, _, _ = real(system, np.eye(9), "stein predictive inverse")
        np.testing.assert_array_equal(fit.kinv, want)
        np.testing.assert_array_equal(fit.predict(pts), first)

    @staticmethod
    def _ladder_rungs(monkeypatch, xs, eta):
        from steingrad import estimators

        rungs = {}
        real = estimators.solve_symmetric

        def counting(mat, rhs, name="linear system"):
            z, jitter, level = real(mat, rhs, name)
            rungs[name] = (mat, rhs, z, jitter, level)
            return z, jitter, level

        monkeypatch.setattr(estimators, "solve_symmetric", counting)
        fit = fit_estimator(KIND_STEIN_V, xs, RBF, eta=eta)
        fit.kinv
        return fit, rungs

    def test_fit_and_kinv_share_the_ladder_rung(self, monkeypatch):
        xs = gaussian_sample(37, n=15)
        fit, rungs = self._ladder_rungs(monkeypatch, xs, 0.1)
        level = fit.diagnostics["jitter_level"]
        assert level == rungs["stein predictive inverse"][4] == 0
        # a positive-definite system: the inverse is the Cholesky solve
        _, system = _stein_system(xs, RBF, 0.1, "v")
        factor = (np.linalg.cholesky(system), True)
        want = scipy.linalg.cho_solve(factor, np.eye(15), check_finite=False)
        np.testing.assert_array_equal(fit.kinv, want)

    def test_near_duplicate_sample_resolves_through_jitter(self, monkeypatch):
        # two points 1e-9 apart make K + 0 I singular to working precision;
        # each solve meets the residual contract against its own jittered
        # system, and the identity right-hand side needs a jitter rung
        xs = gaussian_sample(38, n=9)
        xs[1] = xs[0] + 1e-9
        _, rungs = self._ladder_rungs(monkeypatch, xs, 0.0)
        assert rungs["stein predictive inverse"][4] > 0
        for mat, rhs, z, jitter, _ in rungs.values():
            residual = (mat + jitter * np.eye(9)) @ z - rhs
            assert np.linalg.norm(residual) <= RESIDUAL_RTOL * (1 + np.linalg.norm(rhs))

    def test_grads_at_train_for_expansion_kinds(self):
        xs = gaussian_sample(29, n=7)
        fit = fit_estimator(KIND_SCORE, xs, RBF, eta=0.1)
        want = [
            sum(c * kernel_grad_first_arg(x, xk, RBF) for c, xk in zip(fit.coeffs, xs))
            for x in xs
        ]
        np.testing.assert_allclose(fit.grads_at_train(), want, atol=1e-14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_estimator("unknown", gaussian_sample(30), RBF)
        # the earlier names still load from records, but fit nothing
        with pytest.raises(ValueError, match="score-rbf"):
            fit_estimator("score-rbf", gaussian_sample(30), RBF)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_checks_eta(self, kind):
        # kde does not use eta, but its record carries it, and a record
        # with a non-finite eta does not load
        for eta in (-0.1, np.nan):
            with pytest.raises(ValueError, match="eta"):
                fit_estimator(kind, gaussian_sample(30), RBF, eta=eta)

    # records as written before the kinds took their command-line names
    OLD_TRAIN = [[-1.125, -1.125], [-0.75, 0.75], [-1.0, -1.0], [-0.375, 1.375], [-0.875, -0.75]]
    OLD_RECORDS = [
        ("stein-nonparam-v", KIND_STEIN_V, "rbf", "grads", [
            [0.8529459698047662, 0.7679679929251377],
            [0.5607985709853659, -0.575662633575324],
            [-0.03343532494779379, 0.4073824462966628],
            [-0.6157317299783422, -0.489464085858209],
            [-0.8256183002568573, -0.3047340204642616],
        ]),
        ("stein-nonparam-u", KIND_STEIN_U, "rbf", "grads", [
            [-0.14212493816698157, 0.48185207586845474],
            [-0.5584878604243584, -1.0759765830805974],
            [0.17395589739815517, 0.5791422354109137],
            [-0.05014590794207723, -1.5554237110221167],
            [0.42521905415148864, 0.6876808596218229],
        ]),
        ("score-rbf", KIND_SCORE, "rbf", "coeffs", [
            13.250472229572722, -2.9985360977639384, 9.452144819306964,
            17.399672713792352, 1.0077814518219008,
        ]),
        ("score-epanechnikov", KIND_SCORE, "epanechnikov", "coeffs", [
            0.3076923076923077, 0.307692307692308, 0.3076923076923077,
            0.30769230769230765, 0.30769230769230765,
        ]),
    ]

    @pytest.mark.parametrize(
        "old, new, family, field, params", OLD_RECORDS, ids=[r[0] for r in OLD_RECORDS]
    )
    def test_old_kind_names_still_load(self, old, new, family, field, params):
        spec = KernelSpec(family, 1.5 if family == "rbf" else None)
        record = {
            "kind": old,
            "kernel": {"family": family, "sigma2": spec.sigma2},
            "eta": 0.25,
            "train": self.OLD_TRAIN,
            "grads": params if field == "grads" else None,
            "coeffs": params if field == "coeffs" else None,
            "diagnostics": {"jitter": 0.0, "jitter_level": 0},
        }
        back = FittedEstimator.from_json_dict(json.loads(json.dumps(record)))
        fresh = fit_estimator(new, np.array(self.OLD_TRAIN), spec, eta=0.25)
        assert (back.kind, back.spec, back.eta) == (new, spec, 0.25)
        np.testing.assert_array_equal(getattr(back, field), getattr(fresh, field))
        if new != KIND_STEIN_U:
            pts = gaussian_sample(39, n=6)
            np.testing.assert_array_equal(back.predict(pts), fresh.predict(pts))

    def test_unknown_record_kind_is_named(self):
        record = fit_estimator(KIND_KDE, gaussian_sample(30), RBF).to_json_dict()
        record["kind"] = "stein-nonparam-w"
        with pytest.raises(ValueError, match="stein-nonparam-w"):
            FittedEstimator.from_json_dict(record)

    def test_diagnostics_record_jitter(self):
        xs = gaussian_sample(31)
        fit = fit_estimator(KIND_STEIN_V, xs, RBF, eta=0.1)
        assert fit.diagnostics["jitter"] == 0.0
        assert fit.diagnostics["jitter_level"] == 0


@settings(max_examples=40, deadline=None)
@given(
    kind_family=st.sampled_from(KIND_FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    d=st.integers(1, 3),
    sigma2=st.floats(0.5, 4.0),
    eta=st.floats(0.05, 1.0),
)
def test_json_round_trip_is_exact(kind_family, seed, n, d, sigma2, eta):
    kind, family = kind_family
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n, d))
    spec = EPAN if family == "epanechnikov" else KernelSpec("rbf", sigma2)
    fit = fit_estimator(kind, xs, spec, eta=eta)
    back = FittedEstimator.from_json_dict(json.loads(json.dumps(fit.to_json_dict())))
    assert (back.kind, back.eta, back.spec) == (fit.kind, fit.eta, fit.spec)
    assert back.diagnostics == fit.diagnostics
    np.testing.assert_array_equal(back.train, fit.train)
    for name in ("grads", "coeffs"):
        want = getattr(fit, name)
        if want is None:
            assert getattr(back, name) is None
        else:
            np.testing.assert_array_equal(getattr(back, name), want)
    if kind == KIND_STEIN_V:
        pts = rng.standard_normal((4, d))
        want = fit.predict(pts)
        got = back.predict(pts)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _fit_params(kind, xs, spec, eta):
    fit = fit_estimator(kind, xs, spec, eta=eta)
    return fit.grads if fit.grads is not None else fit.coeffs


_RIGID_MOTION = dict(
    kind_family=st.sampled_from(KIND_FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    d=st.integers(1, 5),
    log2_scale=st.integers(-3, 3),
    eta=st.floats(0.05, 1.0),
)


def _rigid_motion_case(family, seed, n, d, log2_scale):
    # a sample of scale 2**log2_scale and an offset up to 1e4 times that
    # scale in every coordinate, both on a grid of scale * 2**-30, so that
    # the moved sample is an exact translate: otherwise rounding the input
    # itself, amplified by an ill-conditioned system (at eta = 1 the U
    # system is K itself), would move the fit by more than any fit could
    # help.  The bandwidth is fixed across the pair, so only the fit's own
    # arithmetic can break the symmetry.
    rng = np.random.default_rng(seed)
    scale = 2.0**log2_scale
    grid = scale * 2.0**-30
    xs = np.round(scale * rng.standard_normal((n, d)) / grid) * grid
    offset = np.round(1e4 * scale * rng.uniform(-1.0, 1.0, d) / grid) * grid
    if family == "epanechnikov":
        spec = EPAN
    else:
        spec = KernelSpec("rbf", sg.median_heuristic(xs))
    return rng, xs, offset, spec


def _u_system_condition(kind, xs, spec, eta):
    # the U systems can be near singular (at eta = 1 the nonparametric one
    # is K itself), and a fit then moves by the condition number times the
    # rounding of its inputs, which no tolerance fixed beforehand absorbs;
    # the V and score-matching systems are PSD plus eta I
    if kind == KIND_STEIN_U:
        system = _stein_system(xs, spec, eta, "u")[1]
    elif kind == KIND_STEIN_PARAM_U:
        system = _parametric_system(xs, spec, "u")[0] + eta * np.eye(len(xs))
    else:
        return 1.0
    return np.linalg.cond(system)


def _assert_close(got, want, rtol=1e-8):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(**_RIGID_MOTION)
def test_fits_are_translation_equivariant(kind_family, seed, n, d, log2_scale, eta):
    # the score of a translated sample is the score of the sample; the
    # expansion coefficients are translation invariant
    kind, family = kind_family
    _, xs, offset, spec = _rigid_motion_case(family, seed, n, d, log2_scale)
    assume(_u_system_condition(kind, xs, spec, eta) < 1e6)
    want = _fit_params(kind, xs, spec, eta)
    _assert_close(_fit_params(kind, xs + offset, spec, eta), want)


@settings(max_examples=60, deadline=None)
@given(**_RIGID_MOTION)
def test_fits_are_reflection_equivariant(kind_family, seed, n, d, log2_scale, eta):
    # reflecting coordinates (then translating) reflects the score field
    # and leaves the expansion coefficients unchanged
    kind, family = kind_family
    rng, xs, offset, spec = _rigid_motion_case(family, seed, n, d, log2_scale)
    assume(_u_system_condition(kind, xs, spec, eta) < 1e6)
    signs = rng.choice([-1.0, 1.0], d)
    signs[rng.integers(d)] = -1.0
    want = _fit_params(kind, xs, spec, eta)
    if kind in (KIND_KDE, KIND_STEIN_V, KIND_STEIN_U):
        want = want * signs
    _assert_close(_fit_params(kind, signs * xs + offset, spec, eta), want)


class TestAccuracyOnGaussian:
    def test_stein_beats_kde_on_standard_normal(self):
        # On a well-sampled Gaussian the regularised fit is closer to the
        # true score -x than the plug-in density estimate.
        seeds_won = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            xs = rng.standard_normal((200, 2))
            spec = KernelSpec("rbf", sg.median_heuristic(xs))
            truth = -xs
            mse_stein = np.mean(
                (fit_estimator(KIND_STEIN_V, xs, spec, eta=0.1).grads - truth) ** 2
            )
            mse_kde = np.mean((fit_estimator(KIND_KDE, xs, spec).grads - truth) ** 2)
            if mse_stein < mse_kde:
                seeds_won += 1
        assert seeds_won == 5
