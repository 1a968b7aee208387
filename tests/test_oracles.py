"""Tests for the independent reference implementations used to cross-check fits."""

import numpy as np
import pytest

from steingrad import KernelSpec, NumericalError
from steingrad.oracles import brute_ksd, fd_gradient, quadratic_minimiser


class TestFiniteDifferences:
    def test_gradient_of_quadratic_is_exact_to_tolerance(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(x):
            return 0.5 * x @ a @ x

        x0 = np.array([1.0, -2.0])
        got = fd_gradient(f, x0)
        np.testing.assert_allclose(got, a @ x0, atol=1e-8)

    def test_gradient_of_exponential(self):
        x0 = np.array([0.3, -0.1, 0.7])

        def f(x):
            return float(np.exp(x).sum())

        np.testing.assert_allclose(fd_gradient(f, x0), np.exp(x0), atol=1e-8)

    def test_custom_step(self):
        got = fd_gradient(lambda x: float(np.sin(x[0])), np.array([0.5]), step=1e-6)
        assert got[0] == pytest.approx(np.cos(0.5), abs=1e-8)

    def test_step_validation(self):
        for step in (0.0, -1e-5, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite-difference step must be > 0"):
                fd_gradient(lambda x: float(x[0]), np.array([0.5]), step=step)


class TestQuadraticMinimiser:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, 6))
        a = m @ m.T + 0.5 * np.eye(6)
        c = rng.standard_normal(6)
        got = quadratic_minimiser(a, c)
        np.testing.assert_allclose(got, np.linalg.solve(a, -c), atol=1e-10)

    def test_ridge_shifts_spectrum(self):
        a = np.diag([1.0, 2.0])
        c = np.array([1.0, 1.0])
        got = quadratic_minimiser(a, c, ridge=0.5)
        np.testing.assert_allclose(got, [-1 / 1.5, -1 / 2.5], atol=1e-12)

    def test_matrix_valued_linear_term(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4))
        a = m @ m.T + np.eye(4)
        c = rng.standard_normal((4, 3))
        got = quadratic_minimiser(a, c)
        np.testing.assert_allclose(got, np.linalg.solve(a, -c), atol=1e-10)

    def test_argmin_property(self):
        # The returned point must not be improved by small perturbations.
        rng = np.random.default_rng(2)
        m = rng.standard_normal((5, 5))
        a = m @ m.T + np.eye(5)
        c = rng.standard_normal(5)
        ridge = 0.3
        z = quadratic_minimiser(a, c, ridge=ridge)

        def obj(w):
            return 0.5 * w @ (a + ridge * np.eye(5)) @ w + c @ w

        base = obj(z)
        for _ in range(50):
            delta = rng.standard_normal(5)
            delta *= 0.01 / np.linalg.norm(delta)
            assert obj(z + delta) >= base - 1e-12

    def test_rejects_indefinite_system(self):
        a = np.diag([1.0, -2.0])
        with pytest.raises(NumericalError):
            quadratic_minimiser(a, np.array([1.0, 1.0]))

    def test_rejects_asymmetric_matrix(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            quadratic_minimiser(a, np.array([1.0, 1.0]))


class TestBruteKsd:
    def test_zero_gradients_without_constant(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((6, 2))
        spec = KernelSpec("rbf", 1.0)
        grads = np.zeros((6, 2))
        assert brute_ksd(xs, grads, spec) == pytest.approx(0.0, abs=1e-15)

    def test_single_point_v_statistic(self):
        # With one sample the double sum collapses to the diagonal term
        # g^T k(x,x) g, and the kernel gradient at coincident points is zero.
        xs = np.array([[0.5, -0.5]])
        grads = np.array([[2.0, 1.0]])
        spec = KernelSpec("rbf", 2.0)
        assert brute_ksd(xs, grads, spec) == pytest.approx(5.0, rel=1e-14)

    def test_u_statistic_needs_two_points(self):
        spec = KernelSpec("rbf", 1.0)
        with pytest.raises(ValueError):
            brute_ksd(np.zeros((1, 2)), np.zeros((1, 2)), spec, statistic="u")

    def test_unknown_statistic_rejected(self):
        spec = KernelSpec("rbf", 1.0)
        with pytest.raises(ValueError):
            brute_ksd(np.zeros((2, 1)), np.zeros((2, 1)), spec, statistic="w")
        # one spelling, as ksd_to_target and ksd --statistic take
        for statistic in ("V", "U"):
            with pytest.raises(ValueError, match="statistic must be 'v' or 'u'"):
                brute_ksd(np.ones((2, 1)), -np.ones((2, 1)), spec, statistic=statistic)
