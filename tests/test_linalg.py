"""Tests for the shared symmetric solver and its jitter ladder."""

import numpy as np
import pytest
import scipy.linalg

from steingrad import SingularSolveError
from steingrad.linalg import (
    JITTER_LADDER,
    RESIDUAL_RTOL,
    invert_symmetric,
    solve_symmetric,
)


class TestSolveSymmetric:
    def test_well_conditioned_system_uses_no_jitter(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8))
        mat = m @ m.T + np.eye(8)
        rhs = rng.standard_normal((8, 3))
        z, jitter, level = solve_symmetric(mat, rhs)
        assert jitter == 0.0
        assert level == 0
        np.testing.assert_allclose(mat @ z, rhs, atol=1e-10)

    def test_vector_rhs(self):
        mat = np.diag([2.0, 4.0])
        z, _, _ = solve_symmetric(mat, np.array([2.0, 8.0]))
        np.testing.assert_allclose(z, [1.0, 2.0], atol=1e-14)

    def test_indefinite_but_invertible_system(self):
        mat = np.diag([1.0, -1.0])
        rhs = np.array([3.0, 5.0])
        z, jitter, _ = solve_symmetric(mat, rhs)
        assert jitter == 0.0
        np.testing.assert_allclose(z, [3.0, -5.0], atol=1e-14)

    def test_singular_system_escalates_jitter(self):
        # A rank-deficient PSD matrix with a consistent right-hand side:
        # some ladder level must produce an acceptable residual.
        v = np.array([1.0, 2.0, 3.0])
        mat = np.outer(v, v)
        rhs = mat @ np.array([0.5, -0.25, 1.0])
        z, jitter, level = solve_symmetric(mat, rhs)
        assert level > 0
        assert jitter == JITTER_LADDER[level] * np.trace(mat) / 3
        residual = np.linalg.norm((mat + jitter * np.eye(3)) @ z - rhs)
        assert residual <= RESIDUAL_RTOL * (1 + np.linalg.norm(rhs))

    def test_inconsistent_singular_system_resolves_through_jitter(self):
        # rhs outside the range of a rank-1 matrix: the plain solve fails,
        # but the ladder regularises it and the residual contract is stated
        # against the jittered system
        v = np.array([1.0, 0.0])
        mat = np.outer(v, v)
        rhs = np.array([0.0, 1.0])
        z, jitter, level = solve_symmetric(mat, rhs, name="test system")
        assert level > 0 and jitter > 0
        np.testing.assert_allclose(
            (mat + jitter * np.eye(2)) @ z, rhs, atol=RESIDUAL_RTOL * 2
        )

    def test_hopeless_system_fails(self):
        # the zero matrix has zero trace, so the ladder has nothing to add
        # and every level fails
        with pytest.raises(SingularSolveError, match="eta"):
            solve_symmetric(np.zeros((3, 3)), np.ones(3), name="test system")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_symmetric(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            solve_symmetric(np.eye(2), np.zeros(3))

    def test_reported_jitter_reproduces_solution(self):
        # the accepted rung is np.linalg.solve of mat + jitter I, bit for
        # bit, and meets the residual bound against that system
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        mat = q @ np.diag([1.0, 1.0, 1.0, 1e-16, 1e-16, 1e-16]) @ q.T
        mat = (mat + mat.T) / 2
        rhs = mat @ rng.standard_normal(6)
        z, jitter, _ = solve_symmetric(mat, rhs)
        system = mat + jitter * np.eye(6)
        assert _same_bits(z, np.linalg.solve(system, rhs))
        assert _residual_within_bound(system, z, rhs)

    def test_positive_definite_solve_is_one_np_linalg_solve(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((30, 30))
        mat = m @ m.T + 0.1 * np.eye(30)
        rhs = rng.standard_normal((30, 4))
        z, jitter, level = solve_symmetric(mat, rhs)
        assert (jitter, level) == (0.0, 0)
        assert _same_bits(z, np.linalg.solve(mat, rhs))
        assert _residual_within_bound(mat, z, rhs)

    def test_indefinite_system_is_the_same_solve(self):
        # Cholesky would fail on the first negative pivot; LU does not care,
        # so an indefinite system takes the one np.linalg.solve at rung 0
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        mat = q @ np.diag([-2.0, -1.0, 0.5, 1.0, 2.0, 3.0, 4.0]) @ q.T
        mat = (mat + mat.T) / 2
        rhs = rng.standard_normal(7)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mat)
        z, jitter, level = solve_symmetric(mat, rhs)
        assert (jitter, level) == (0.0, 0)
        assert _same_bits(z, np.linalg.solve(mat, rhs))
        assert _residual_within_bound(mat, z, rhs)

    @pytest.mark.parametrize("triangle", ["upper", "lower"])
    def test_nan_in_one_triangle_is_singular(self, triangle):
        # LU reads the whole matrix, so the NaN reaches every rung's
        # solution, and the residual against the whole matrix catches it
        m = np.random.default_rng(4).standard_normal((5, 5))
        mat = m @ m.T + np.eye(5)
        i, j = (1, 3) if triangle == "upper" else (3, 1)
        mat[i, j] = np.nan
        with pytest.raises(SingularSolveError):
            solve_symmetric(mat, np.ones(5), name="test system")


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _residual_within_bound(system, z, rhs):
    # the ladder's acceptance test, written out
    bound = RESIDUAL_RTOL * (1 + np.linalg.norm(rhs))
    return bool(np.linalg.norm(system @ z - rhs) <= bound)


def _solve_in_both_orders(mat, rhs):
    # an exactly symmetric system solves to the same bits whether it is
    # passed C-ordered or column-major
    assert np.array_equal(mat, mat.T)
    assert mat.flags.c_contiguous
    col = np.asfortranarray(mat)
    assert col.flags.f_contiguous
    z, jitter, level = solve_symmetric(mat, rhs)
    z_col, jitter_col, level_col = solve_symmetric(col, rhs)
    assert _same_bits(z, z_col)
    assert (jitter, level) == (jitter_col, level_col)
    return z, jitter, level


class TestMemoryOrder:
    @pytest.mark.parametrize("k", [1, 2, 7, 200])
    @pytest.mark.parametrize("rhs_shape", ["vector", "column", "block", "identity"])
    def test_positive_definite_system(self, k, rhs_shape):
        rng = np.random.default_rng(k)
        m = rng.standard_normal((k, k))
        mat = m @ m.T + 0.1 * np.eye(k)  # syrk: exactly symmetric
        rhs = {
            "vector": rng.standard_normal(k),
            "column": rng.standard_normal((k, 1)),
            "block": rng.standard_normal((k, 3)),
            "identity": np.eye(k),
        }[rhs_shape]
        z, jitter, level = _solve_in_both_orders(mat, rhs)
        assert (jitter, level) == (0.0, 0)
        assert _same_bits(z, np.linalg.solve(mat, rhs))
        assert _residual_within_bound(mat, z, rhs)

    def test_near_singular_system_takes_a_jitter_rung(self):
        # LU accepts a rung on its residual alone, so the residual of the
        # two orders must be the same product: the ladder checks the
        # column-major view of either (rung 3 C-ordered and rung 4
        # column-major when each order was checked as given)
        b = np.random.default_rng(5).standard_normal((6, 2))
        mat = b @ b.T  # rank 2
        rhs = np.ones(6)
        z, jitter, level = _solve_in_both_orders(mat, rhs)
        assert level > 0 and jitter > 0
        system = mat + jitter * np.eye(6)
        assert _same_bits(z, np.linalg.solve(system, rhs))
        assert _residual_within_bound(system.T, z, rhs)

    def test_jitter_rung_keeps_signed_zeros(self):
        # the rung adds jitter on the diagonal only, as mat + jitter * I
        # would: -0.0 off the diagonal becomes +0.0
        mat = np.array([[1.0, -0.0], [-0.0, 0.0]])
        rhs = np.array([1.0, -0.0])  # z[1] is -0.0 only with +0.0 off the diagonal
        z, jitter, level = _solve_in_both_orders(mat, rhs)
        assert level > 0
        system = mat + jitter * np.eye(2)
        assert _same_bits(z, np.linalg.solve(system, rhs))

    def test_indefinite_system(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        mat = q @ np.diag([-3.0, -1.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]) @ q.T
        mat = (mat + mat.T) / 2
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mat)
        rhs = rng.standard_normal((9, 2))
        z, jitter, level = _solve_in_both_orders(mat, rhs)
        assert (jitter, level) == (0.0, 0)
        assert _same_bits(z, np.linalg.solve(mat, rhs))
        assert _residual_within_bound(mat, z, rhs)

    def test_asymmetric_by_rounding_solves_the_column_major_view(self):
        # a C-ordered matrix that is symmetric only up to rounding is solved
        # as its column-major view, the transpose; a column-major one as it
        # is.  Either way the residual is checked on the matrix solved.
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        mat = q @ np.diag(np.linspace(0.5, 3.0, 40)) @ q.T
        assert not np.array_equal(mat, mat.T)
        rhs = rng.standard_normal((40, 3))
        for given, solved in ((mat, mat.T), (np.asfortranarray(mat), mat)):
            z, jitter, level = solve_symmetric(given, rhs)
            assert (jitter, level) == (0.0, 0)
            assert _same_bits(z, np.linalg.solve(solved, rhs))
            assert _residual_within_bound(solved, z, rhs)


def _ladder_accepts_inverse(mat, inv):
    # the ladder's test of a solve against the identity, written out
    n = len(mat)
    return bool(np.all(np.isfinite(inv))) and np.linalg.norm(
        mat @ inv - np.eye(n)
    ) <= RESIDUAL_RTOL * (1 + np.linalg.norm(np.eye(n)))


class TestInvertSymmetric:
    @pytest.mark.parametrize("n", [6, 7])
    def test_rung_0_is_numpys_inverse(self, n):
        # one np.linalg.inv, bit for bit, and it passes the ladder's test
        mat = scipy.linalg.hilbert(n)
        inv, jitter, level = invert_symmetric(mat)
        assert (jitter, level) == (0.0, 0)
        assert _same_bits(inv, np.linalg.inv(mat))
        assert _ladder_accepts_inverse(mat, inv)

    def test_escalates_to_an_inverse_of_its_own_jittered_system(self):
        # Hilbert 8's inverse fails the residual test at rung 0; the
        # accepted rung's inverse is np.linalg.inv of the jittered system
        # and meets the bound against it
        mat = scipy.linalg.hilbert(8)
        assert not _ladder_accepts_inverse(mat, np.linalg.inv(mat))
        inv, jitter, level = invert_symmetric(mat, name="test system")
        assert level > 0
        assert jitter == JITTER_LADDER[level] * np.trace(mat) / 8
        system = mat + jitter * np.eye(8)
        assert _same_bits(inv, np.linalg.inv(system))
        assert _ladder_accepts_inverse(system, inv)

    @pytest.mark.parametrize("case", ["zeros", "nan"])
    def test_hopeless_system_fails_naming_it(self, case):
        # zeros: zero trace, so the ladder has nothing to add and inv finds
        # every rung singular.  nan: every rung's inverse is not finite.
        mat = np.zeros((3, 3)) if case == "zeros" else scipy.linalg.hilbert(3)
        if case == "nan":
            mat[0, 2] = mat[2, 0] = np.nan
        with pytest.raises(SingularSolveError, match="test system"):
            invert_symmetric(mat, name="test system")

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            invert_symmetric(np.zeros((2, 3)))
