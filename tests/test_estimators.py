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
    _score_sigma_closed_form,
    _score_system,
    _stein_system,
)
from steingrad import kernels
from steingrad.kernels import cross_hess_trace, cross_kernel, kernel_grad_first_arg
from steingrad.linalg import RESIDUAL_RTOL

RBF = KernelSpec("rbf", 1.3)
EPAN = KernelSpec("epanechnikov")
# the solve name of each kind fitted by a ridge solve
RIDGE_SOLVES = {
    KIND_STEIN_V: "stein v-statistic system",
    KIND_STEIN_U: "stein u-statistic system",
    KIND_SCORE: "score matching system",
    KIND_STEIN_PARAM_V: "parametric stein v-statistic system",
    KIND_STEIN_PARAM_U: "parametric stein u-statistic system",
}
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

    def test_negative_row_sum_is_refused_in_fit(self):
        # A standard normal sample in two dimensions spreads beyond
        # ||x - y||^2 = d, where the Epanechnikov kernel is negative; 21 of
        # these 30 row sums are, and the ratio form would flip their sign.
        xs = np.random.default_rng(0).standard_normal((30, 2))
        with pytest.raises(
            DegenerateDenominatorError, match=r"kernel row sum at sample 1 is -[0-9.]+, not > 0"
        ):
            fit_estimator(KIND_KDE, xs, EPAN)
        fit_estimator(KIND_KDE, 0.1 * xs, EPAN)  # shrunk, every sum is positive

    @pytest.mark.parametrize(
        "far, value", [([1.0, 1.0], "0.0"), ([2.0, 0.0], "-1.0")], ids=["zero", "negative"]
    )
    def test_non_positive_row_sum_is_refused_in_predict(self, far, value):
        # one training point at the origin: k(y, 0) = 1 - ||y||^2 / 2
        fit = fit_estimator(KIND_KDE, np.zeros((1, 2)), EPAN)
        fit.predict([[0.5, 0.0]])
        with pytest.raises(
            DegenerateDenominatorError,
            match=rf"kernel row sum at prediction point 1 is {value}, not > 0",
        ):
            fit.predict([[0.5, 0.0], far, [0.0, 0.5]])

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
        system, rhs, _ = _stein_system(xs, RBF, "u")
        system += 0.05 * np.eye(20)
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(system, lower=True)
        want = scipy.linalg.solve(system, rhs, assume_a="sym")
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

    @pytest.mark.parametrize("kind", [KIND_STEIN_PARAM_V, KIND_STEIN_PARAM_U])
    def test_epanechnikov_record_refused(self, kind):
        # no fit makes such a record, and none loads or is built
        fit = fit_estimator(kind, gaussian_sample(25, n=6), KernelSpec("rbf", 1.0))
        record = json.loads(json.dumps(fit.to_json_dict()))
        record["kernel"] = {"family": "epanechnikov", "sigma2": None}
        with pytest.raises(ValueError, match="rbf family only"):
            FittedEstimator.from_json_dict(record)
        with pytest.raises(ValueError, match="rbf family only"):
            FittedEstimator(kind=kind, train=fit.train, spec=EPAN, eta=fit.eta, coeffs=fit.coeffs)


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


class TestSystemLayout:
    # the solver may take an exactly symmetric system column-major, which
    # spares its Cholesky a transposing copy; a system that is symmetric
    # only up to rounding stays C-ordered, so its C lower triangle is read
    @pytest.mark.parametrize("statistic", ["v", "u"])
    @pytest.mark.parametrize("spec", [RBF, EPAN], ids=["rbf", "epanechnikov"])
    def test_stein_system_is_column_major_and_exactly_symmetric(self, spec, statistic):
        system, _, _ = _stein_system(gaussian_sample(40, n=30), spec, statistic)
        assert system.flags.f_contiguous and not system.flags.c_contiguous
        assert np.array_equal(system, system.T)

    @pytest.mark.parametrize("d", [1, 2])
    def test_coordinate_sum_sigma_is_column_major_and_exactly_symmetric(self, d):
        sigma, _, _ = _score_system(gaussian_sample(41, n=30, d=d), RBF)
        assert sigma.flags.f_contiguous and not sigma.flags.c_contiguous
        assert np.array_equal(sigma, sigma.T)

    @pytest.mark.parametrize(
        "build",
        [
            lambda xs: _score_system(xs, RBF),
            lambda xs: _score_system(xs, EPAN),
            lambda xs: _parametric_system(xs, RBF, "v"),
            lambda xs: _parametric_system(xs, RBF, "u"),
        ],
        ids=["score-rbf", "score-epanechnikov", "param-v", "param-u"],
    )
    def test_systems_symmetric_up_to_rounding_stay_c_ordered(self, build):
        system, _, _ = build(gaussian_sample(42, n=30, d=3))
        assert system.flags.c_contiguous and not system.flags.f_contiguous


def _whole_gram_parametric_system(xs, spec, statistic):
    """The parametric system as it was built from the whole Gram matrix,
    kept as the reference for the row-block build."""
    mats = build_matrices(xs, spec, with_grad_sum=False)
    km = mats.k_matrix
    xs = xs - xs.mean(axis=0)
    gram = xs @ xs.T
    ksum = km.sum(axis=1)
    sqn = np.diag(gram)
    kk = km @ km
    kx = km * gram
    b = km @ (sqn * ksum) + np.einsum("ij,ij->i", kk, gram) - km @ kx.sum(axis=1) - kx @ ksum
    if statistic == "u":
        np.fill_diagonal(kx, 0.0)
        km0 = km.copy()
        np.fill_diagonal(km0, 0.0)
        kk = km @ km0
    kxk = (km @ kx) @ km
    lam = kk @ km
    lam *= gram
    lam += kxk
    kk *= gram
    t = kk @ km
    lam -= t
    lam -= t.T
    return lam, b


def _whole_gram_score_sigma(xs, km, sqn):
    """The closed-form score Sigma as it was built from the whole Gram
    matrix, kept as the reference for the row-block build."""
    gram = xs @ xs.T
    buf = np.subtract(0.5 * sqn, gram)
    buf *= km
    b = buf @ km
    np.matmul(km, km, out=buf)
    buf *= gram
    buf += b
    buf += b.T
    return buf


class TestGramRowBlocks:
    # n = 60: the default block size takes the whole Gram matrix in one
    # block, bit for bit the full product; 1000 entries make blocks of 16
    # rows with a shorter last one, and 30 entries one row each
    N, D = 60, 5

    def assert_matches(self, got, want, pair_block):
        if pair_block is None:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("pair_block", [None, 1000, 30])
    @pytest.mark.parametrize("statistic", ["v", "u"])
    def test_parametric_system(self, statistic, pair_block, monkeypatch):
        xs = gaussian_sample(43, n=self.N, d=self.D)
        if pair_block is not None:
            monkeypatch.setattr(kernels, "PAIR_BLOCK", pair_block)
        lam, b, _ = _parametric_system(xs, RBF, statistic)
        want_lam, want_b = _whole_gram_parametric_system(xs, RBF, statistic)
        self.assert_matches(lam, want_lam, pair_block)
        self.assert_matches(b, want_b, pair_block)

    @pytest.mark.parametrize("pair_block", [None, 1000, 30])
    def test_score_sigma(self, pair_block, monkeypatch):
        xs = gaussian_sample(44, n=self.N, d=self.D)
        km = build_matrices(xs, RBF, with_grad_sum=False).k_matrix
        xs = xs - xs.mean(axis=0)
        sqn = np.einsum("kd,kd->k", xs, xs)
        if pair_block is not None:
            monkeypatch.setattr(kernels, "PAIR_BLOCK", pair_block)
        got = _score_sigma_closed_form(xs, km, sqn)
        self.assert_matches(got, _whole_gram_score_sigma(xs, km, sqn), pair_block)


def _cross_kernel_expansion(coeffs, train, spec):
    """The expansion at the training points as it was computed through
    ``cross_kernel(train, train)``, kept as the bitwise reference."""
    weights = -cross_kernel(train, train, spec) * coeffs[None, :] / spec.sigma2
    return weights.sum(axis=1)[:, None] * train - weights @ train


class TestOneDistancePass:
    @pytest.mark.parametrize("d", [1, 2, 50])
    @pytest.mark.parametrize("n", [1, 2, 7, 200])
    @pytest.mark.parametrize("kind", [KIND_SCORE, KIND_STEIN_PARAM_V])
    def test_grads_at_train_is_the_cross_kernel_expansion_bitwise(self, kind, n, d):
        xs = np.random.default_rng(60 + n + d).standard_normal((n, d))
        fit = fit_estimator(kind, xs, KernelSpec("rbf", 1.3 * d))
        want = _cross_kernel_expansion(fit.coeffs, fit.train, fit.spec)
        np.testing.assert_array_equal(fit.grads_at_train(), want)

    @pytest.mark.parametrize("kind", KINDS)
    def test_median_rule_fit_is_the_resolved_fit(self, kind):
        # the fit resolves the rule on its sample and records the bandwidth:
        # the same fit, bit for bit, as one given median_heuristic * scale
        xs = gaussian_sample(61, n=25, d=3)
        fit = fit_estimator(kind, xs, KernelSpec("rbf", median_scale=2.0))
        resolved = KernelSpec("rbf", sg.median_heuristic(xs) * 2.0)
        assert fit.spec == resolved
        want = fit_estimator(kind, xs, resolved)
        np.testing.assert_array_equal(fit.grads_at_train(), want.grads_at_train())
        assert fit.to_json_dict() == want.to_json_dict()

    @pytest.mark.parametrize("kind", [KIND_SCORE, KIND_STEIN_PARAM_V, KIND_STEIN_PARAM_U])
    @pytest.mark.parametrize("sigma2", [None, 1.3])
    def test_expansion_kernel_is_built_on_the_sample_as_given(self, monkeypatch, kind, sigma2):
        # the fit's kernel and its grads_at_train kernel both come from the
        # training sample itself, not a centred copy, so they are one kernel
        from steingrad import estimators

        seen = []

        def spy(samples, spec, with_grad_sum=True):
            seen.append(np.array(samples))
            return build_matrices(samples, spec, with_grad_sum)

        monkeypatch.setattr(estimators, "build_matrices", spy)
        xs = gaussian_sample(64, n=25, d=3) + 5.0
        spec = KernelSpec("rbf", median_scale=1.0) if sigma2 is None else KernelSpec("rbf", sigma2)
        fit_estimator(kind, xs, spec).grads_at_train()
        assert len(seen) == 2
        for arr in seen:
            np.testing.assert_array_equal(arr, xs)

    def test_estimator_refuses_the_unresolved_rule(self):
        xs = gaussian_sample(62)
        fit = fit_estimator(KIND_STEIN_V, xs, RBF)
        with pytest.raises(ValueError, match="spec carries the median rule"):
            FittedEstimator(KIND_STEIN_V, xs, KernelSpec("rbf", median_scale=1.0), 0.1, grads=fit.grads)

    @pytest.mark.parametrize("sigma2", [None, "median", 0.0, -1.0])
    def test_record_bandwidth_must_be_a_positive_number(self, sigma2):
        record = fit_estimator(KIND_STEIN_V, gaussian_sample(63), RBF).to_json_dict()
        record["kernel"]["sigma2"] = sigma2
        with pytest.raises(ValueError, match="'kernel'"):
            FittedEstimator.from_json_dict(json.loads(json.dumps(record)))


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
            (lambda r: r.update(eta=-0.1), "eta"),
            (lambda r: r.update(eta="abc"), "eta"),
            (lambda r: r.update(diagnostics=5), "diagnostics"),
        ],
        ids=[
            "both-params", "no-grads", "grads-rows", "grads-cols", "grads-nan", "eta-inf",
            "eta-negative", "eta-string", "diagnostics-int",
        ],
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

    @pytest.mark.parametrize(
        "kind, edit, field",
        [
            (KIND_STEIN_V, lambda r: r["train"][0].__setitem__(0, True), "train"),
            (KIND_STEIN_V, lambda r: r["train"][1].__setitem__(1, "2.0"), "train"),
            (KIND_STEIN_V, lambda r: r["grads"][0].__setitem__(0, "1.5"), "grads"),
            (KIND_STEIN_V, lambda r: r["grads"][2].__setitem__(1, False), "grads"),
            (KIND_SCORE, lambda r: r["coeffs"].__setitem__(0, True), "coeffs"),
            (KIND_SCORE, lambda r: r["coeffs"].__setitem__(3, "0.5"), "coeffs"),
            (KIND_STEIN_V, lambda r: r.update(diagnostics=[["jitter", 0.0]]), "diagnostics"),
            (KIND_STEIN_V, lambda r: r.update(diagnostics=[]), "diagnostics"),
            (KIND_STEIN_V, lambda r: r.update(diagnostics="{}"), "diagnostics"),
        ],
        ids=[
            "train-bool", "train-string", "grads-string", "grads-bool", "coeffs-bool",
            "coeffs-string", "diagnostics-pairs", "diagnostics-empty-list",
            "diagnostics-string",
        ],
    )
    def test_from_json_refuses_what_it_would_coerce(self, kind, edit, field):
        # a bool or string in an array field, or diagnostics that are not an
        # object, would be read as a number or a dict; each is refused
        # naming the field, as eta and sigma2 are
        fit = fit_estimator(kind, gaussian_sample(43, n=6), RBF)
        record = json.loads(json.dumps(fit.to_json_dict()))
        edit(record)
        with pytest.raises(ValueError, match=field):
            FittedEstimator.from_json_dict(record)

    def test_from_json_takes_json_integers(self):
        # integers are numbers: a record whose arrays hold them loads as floats
        xs = np.round(5.0 * gaussian_sample(44, n=6))
        fit = fit_estimator(KIND_SCORE, xs, RBF)
        record = json.loads(json.dumps(fit.to_json_dict()))
        record["train"] = [[int(v) for v in row] for row in record["train"]]
        record["coeffs"] = [int(round(v)) for v in record["coeffs"]]
        back = FittedEstimator.from_json_dict(record)
        np.testing.assert_array_equal(back.train, xs)
        assert back.train.dtype == back.coeffs.dtype == np.float64
        np.testing.assert_array_equal(back.coeffs, np.round(fit.coeffs))

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

    @pytest.mark.parametrize("kind", list(RIDGE_SOLVES))
    def test_fit_makes_one_solve_and_predict_adds_none(self, monkeypatch, kind):
        # every ridge kind makes one named solve and one factorisation;
        # predict adds neither, stein-v's included: its inverse is one
        # np.linalg.inv, not a ladder solve
        from steingrad import estimators

        solve = RIDGE_SOLVES[kind]
        calls, factorisations = [], []
        real = estimators.solve_symmetric
        real_cholesky = np.linalg.cholesky

        def counting(mat, rhs, name="linear system"):
            calls.append(name)
            return real(mat, rhs, name)

        def cholesky(a, *args, **kwargs):
            factorisations.append(a.shape)
            return real_cholesky(a, *args, **kwargs)

        monkeypatch.setattr(estimators, "solve_symmetric", counting)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        xs = gaussian_sample(35, n=9)
        fit = fit_estimator(kind, xs, RBF)
        assert calls == [solve]
        assert factorisations == [(9, 9)]
        assert set(fit.diagnostics) == {"jitter", "jitter_level"}
        if kind == KIND_STEIN_U:
            return  # no out-of-sample rule
        pts = gaussian_sample(36, n=3)
        first = fit.predict(pts)
        fit.predict(pts)
        assert calls == [solve]
        assert factorisations == [(9, 9)]
        np.testing.assert_array_equal(fit.predict(pts), first)

    @pytest.mark.parametrize("rung", [0, 1])
    def test_kinv_is_numpys_inverse_of_the_fits_system(self, monkeypatch, rung):
        # a fresh fit, its reloaded record and a direct construction all
        # form kinv as one np.linalg.inv of K + eta I + jitter I, built as
        # the fit built it, and call no scipy.linalg routine.  Rung 1: the
        # ladder is made to refuse the unjittered system once, so the fit
        # is accepted on its first jitter rung.  At rung 0 the direct
        # construction holds no diagnostics, so its jitter is 0.0.
        from steingrad import linalg

        if rung:
            real = linalg._factor_and_solve
            refused = []

            def refuse_first(system, rhs):
                if not refused:
                    refused.append(True)
                    raise np.linalg.LinAlgError("refused")
                return real(system, rhs)

            monkeypatch.setattr(linalg, "_factor_and_solve", refuse_first)
        xs = gaussian_sample(37, n=15)
        fit = fit_estimator(KIND_STEIN_V, xs, RBF)
        jitter = fit.diagnostics["jitter"]
        assert fit.diagnostics["jitter_level"] == rung
        assert (jitter > 0) == bool(rung)
        back = FittedEstimator.from_json_dict(json.loads(json.dumps(fit.to_json_dict())))
        direct = FittedEstimator(
            kind=KIND_STEIN_V, train=xs, spec=fit.spec, eta=0.1, grads=fit.grads,
            diagnostics={"jitter": jitter} if rung else {},
        )

        def refuse(*args, **kwargs):
            raise AssertionError("kinv called scipy.linalg")

        for name in ("cho_solve", "solve", "cho_factor"):
            monkeypatch.setattr(scipy.linalg, name, refuse)
        system = _stein_system(xs, RBF, "v")[0]
        system[np.diag_indices(15)] += 0.1
        system[np.diag_indices(15)] += jitter
        want = np.linalg.inv(system)
        for estimator in (fit, back, direct):
            np.testing.assert_array_equal(estimator.kinv, want)
            estimator.predict(gaussian_sample(36, n=3))

    @pytest.mark.parametrize(
        "jitter", [-1e-12, float("nan"), float("inf"), "0.1", True, None, [0.0]],
        ids=["negative", "nan", "inf", "string", "bool", "null", "list"],
    )
    def test_record_jitter_must_be_a_number_at_least_0(self, jitter):
        fit = fit_estimator(KIND_STEIN_V, gaussian_sample(37, n=6), RBF)
        record = json.loads(json.dumps(fit.to_json_dict()))
        record["diagnostics"]["jitter"] = jitter
        with pytest.raises(ValueError, match="jitter"):
            FittedEstimator.from_json_dict(record)
        with pytest.raises(ValueError, match="jitter"):
            FittedEstimator(
                kind=KIND_STEIN_V, train=fit.train, spec=fit.spec, eta=0.1,
                grads=fit.grads, diagnostics={"jitter": jitter},
            )

    @staticmethod
    def _ladder_rungs(monkeypatch, xs, eta):
        # each ladder call by name: (matrix, rhs, result, jitter, level),
        # the inverse's rhs being the identity it is tested against
        from steingrad import estimators

        rungs = {}
        solve, invert = estimators.solve_symmetric, estimators.invert_symmetric

        def solving(mat, rhs, name="linear system"):
            z, jitter, level = solve(mat, rhs, name)
            rungs[name] = (mat, rhs, z, jitter, level)
            return z, jitter, level

        def inverting(mat, name="linear system"):
            z, jitter, level = invert(mat, name)
            rungs[name] = (mat, np.eye(len(mat)), z, jitter, level)
            return z, jitter, level

        monkeypatch.setattr(estimators, "solve_symmetric", solving)
        monkeypatch.setattr(estimators, "invert_symmetric", inverting)
        fit = fit_estimator(KIND_STEIN_V, xs, RBF, eta=eta)
        fit.kinv
        return fit, rungs

    @pytest.mark.parametrize(
        "offset, fit_factored", [(1e-9, False), (1e-5, True)], ids=["ldlt", "check-fails"]
    )
    def test_near_duplicate_sample_falls_back_to_the_ladder(self, monkeypatch, offset, fit_factored):
        # two points close together make K + 0 I near singular.  At 1e-9 the
        # fit's Cholesky fails and LDL^T solves it; at 1e-5 the fit accepts
        # its Cholesky rung.  Either way the inverse of the fit's system
        # fails the identity residual test, so kinv climbs the ladder from
        # the fit's own system to a jitter rung, and each ladder call meets
        # the residual contract against its own jittered system.
        xs = gaussian_sample(38, n=9)
        xs[1] = xs[0] + offset
        fit, rungs = self._ladder_rungs(monkeypatch, xs, 0.0)
        mat = rungs["stein v-statistic system"][0]
        assert rungs["stein v-statistic system"][4] == 0
        try:
            np.linalg.cholesky(mat)
            factored = True
        except np.linalg.LinAlgError:
            factored = False
        assert factored == fit_factored
        _, _, z, _, level = rungs["stein predictive inverse"]
        assert level > 0
        np.testing.assert_array_equal(fit.kinv, z)
        for mat, rhs, z, jitter, _ in rungs.values():
            residual = (mat + jitter * np.eye(9)) @ z - rhs
            assert np.linalg.norm(residual) <= RESIDUAL_RTOL * (1 + np.linalg.norm(rhs))

    @pytest.mark.parametrize("offset", [1e-9, 1e-5])
    def test_near_duplicate_inverse_calls_no_scipy_linalg(self, monkeypatch, offset):
        # the inverse that fails at the fit's system climbs the ladder with
        # np.linalg.inv at each rung, never a scipy solve against the identity
        xs = gaussian_sample(38, n=9)
        xs[1] = xs[0] + offset
        fit = fit_estimator(KIND_STEIN_V, xs, RBF, eta=0.0)

        def refuse(*args, **kwargs):
            raise AssertionError("kinv called scipy.linalg")

        for name in ("cho_solve", "solve", "cho_factor"):
            monkeypatch.setattr(scipy.linalg, name, refuse)
        assert fit.kinv.shape == (9, 9)
        assert np.all(np.isfinite(fit.predict(gaussian_sample(36, n=3))))

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
        # an earlier name is not a kind: it neither fits nor loads
        with pytest.raises(ValueError, match="score-rbf"):
            fit_estimator("score-rbf", gaussian_sample(30), RBF)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_checks_eta(self, kind):
        # kde does not use eta, but its record carries it, and a record
        # with a non-finite eta does not load
        for eta in (-0.1, np.nan):
            with pytest.raises(ValueError, match="eta"):
                fit_estimator(kind, gaussian_sample(30), RBF, eta=eta)

    OLD_KINDS = {
        "stein-nonparam-v": KIND_STEIN_V,
        "stein-nonparam-u": KIND_STEIN_U,
        "score-rbf": KIND_SCORE,
        "score-epanechnikov": KIND_SCORE,
    }

    @pytest.mark.parametrize("old, kind", OLD_KINDS.items(), ids=list(OLD_KINDS))
    def test_old_kind_names_are_refused(self, old, kind):
        # each kind has one name; a record under an earlier one does not load
        record = fit_estimator(kind, gaussian_sample(39, n=5), RBF).to_json_dict()
        record["kind"] = old
        with pytest.raises(ValueError, match=old):
            FittedEstimator.from_json_dict(json.loads(json.dumps(record)))

    @pytest.mark.parametrize("kind", [KIND_STEIN_U, KIND_STEIN_PARAM_U])
    def test_u_statistic_record_needs_positive_eta(self, kind):
        # a record passes the checks a fit's arguments pass
        record = fit_estimator(kind, gaussian_sample(40, n=6), RBF).to_json_dict()
        record["eta"] = 0.0
        with pytest.raises(ValueError, match="eta"):
            FittedEstimator.from_json_dict(json.loads(json.dumps(record)))

    @pytest.mark.parametrize("kind", [KIND_STEIN_V, KIND_SCORE])
    def test_construction_takes_exactly_its_own_parameters(self, kind):
        fit = fit_estimator(kind, gaussian_sample(41, n=6), RBF)
        own, other = ("grads", "coeffs") if kind == KIND_STEIN_V else ("coeffs", "grads")
        fields = dict(kind=kind, train=fit.train, spec=fit.spec, eta=fit.eta)
        pts = gaussian_sample(42, n=3)
        same = FittedEstimator(**fields, **{own: getattr(fit, own)})
        np.testing.assert_array_equal(same.predict(pts), fit.predict(pts))
        with pytest.raises(ValueError, match=other):
            FittedEstimator(**fields, grads=fit.grads_at_train(), coeffs=np.zeros(6))
        with pytest.raises(ValueError, match=own):
            FittedEstimator(**fields)

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
        system = _stein_system(xs, spec, "u")[0] + eta * np.eye(len(xs))
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
