"""Tests for the shared symmetric solver and its jitter ladder.

Every test runs on both paths: Cholesky in place on numpy's own LAPACK
(``lapack``), and the ``np.linalg`` fallback (``numpy``), forced by making
the symbol lookup fail.  The solver consumes the matrix it is given, so
each test hands it a copy and checks against the original.
"""

import ctypes
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from steingrad import SingularSolveError, linalg
from steingrad.linalg import (
    JITTER_LADDER,
    RESIDUAL_RTOL,
    invert_symmetric,
    solve_symmetric,
)

LAPACK, NUMPY = "lapack", "numpy"


@pytest.fixture(params=[LAPACK, NUMPY], autouse=True)
def path(request):
    if request.param == NUMPY:
        request.getfixturevalue("numpy_linalg_only")
    assert (linalg._lapack() is None) == (request.param == NUMPY)
    return request.param


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _residual_within_bound(system, z, rhs):
    # the ladder's acceptance test, written out
    bound = RESIDUAL_RTOL * (1 + np.linalg.norm(rhs))
    return bool(np.linalg.norm(system @ z - rhs) <= bound)


def _is_the_paths_solve(path, system, rhs, z, rtol=1e-12):
    # the numpy path is one np.linalg.solve of the rung's system, bit for
    # bit; the Cholesky path agrees with it to rtol, and neither path
    # accepts a solution short of the residual bound
    want = np.linalg.solve(system, rhs)
    if path == NUMPY:
        assert _same_bits(z, want)
    else:
        assert np.max(np.abs(z - want)) <= rtol * np.max(np.abs(want))
    assert _residual_within_bound(system, z, rhs)


def _refusing_lu(monkeypatch):
    # np.linalg.solve and inv as the ladder calls them, raising instead
    def refuse(*args):
        raise AssertionError("called np.linalg")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)


def _refuse_rung_0(monkeypatch):
    # the first rung runs, then is refused, so the next one starts from what
    # the first left in the array
    real, refused = linalg._rung, []

    def rung(*args):
        z = real(*args)
        if not refused:
            refused.append(True)
            return None
        return z

    monkeypatch.setattr(linalg, "_rung", rung)


class TestSolveSymmetric:
    def test_well_conditioned_system_uses_no_jitter(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8))
        mat = m @ m.T + np.eye(8)
        rhs = rng.standard_normal((8, 3))
        z, jitter, level = solve_symmetric(mat.copy(), rhs)
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
        z, jitter, level = solve_symmetric(mat.copy(), rhs)
        assert level > 0
        assert jitter == JITTER_LADDER[level] * np.trace(mat) / 3
        assert _residual_within_bound(mat + jitter * np.eye(3), z, rhs)

    def test_inconsistent_singular_system_resolves_through_jitter(self):
        # rhs outside the range of a rank-1 matrix: the plain solve fails,
        # but the ladder regularises it and the residual contract is stated
        # against the jittered system
        v = np.array([1.0, 0.0])
        mat = np.outer(v, v)
        rhs = np.array([0.0, 1.0])
        z, jitter, level = solve_symmetric(mat.copy(), rhs, name="test system")
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

    def test_reported_jitter_reproduces_solution(self, path):
        # the accepted rung meets the residual bound against mat + jitter I;
        # on the numpy path it is np.linalg.solve of that system, bit for bit
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        mat = q @ np.diag([1.0, 1.0, 1.0, 1e-16, 1e-16, 1e-16]) @ q.T
        mat = (mat + mat.T) / 2
        rhs = mat @ rng.standard_normal(6)
        z, jitter, _ = solve_symmetric(mat.copy(), rhs)
        system = mat + jitter * np.eye(6)
        if path == NUMPY:
            assert _same_bits(z, np.linalg.solve(system, rhs))
        assert _residual_within_bound(system, z, rhs)

    def test_positive_definite_solve_is_the_paths_one_factorisation(self, monkeypatch, path):
        # Cholesky in place calls no np.linalg routine; the fallback is one
        # np.linalg.solve
        rng = np.random.default_rng(2)
        m = rng.standard_normal((30, 30))
        mat = m @ m.T + 0.1 * np.eye(30)
        rhs = rng.standard_normal((30, 4))
        with monkeypatch.context() as patched:
            if path == LAPACK:
                _refusing_lu(patched)
            z, jitter, level = solve_symmetric(mat.copy(), rhs)
        assert (jitter, level) == (0.0, 0)
        _is_the_paths_solve(path, mat, rhs, z)

    def test_indefinite_system_is_the_same_solve(self, monkeypatch):
        # Cholesky stops at the first negative pivot, and the same rung
        # falls back to one np.linalg.solve of the system rebuilt from the
        # intact triangle: bit for bit the system, so bit for bit LU's answer
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        mat = q @ np.diag([-2.0, -1.0, 0.5, 1.0, 2.0, 3.0, 4.0]) @ q.T
        mat = (mat + mat.T) / 2
        rhs = rng.standard_normal(7)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(mat)
        solved, real = [], np.linalg.solve

        def counting(a, b):
            solved.append(a.copy())
            return real(a, b)

        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "solve", counting)
            z, jitter, level = solve_symmetric(mat.copy(), rhs)
        assert (jitter, level) == (0.0, 0)
        assert len(solved) == 1 and _same_bits(solved[0], mat)
        assert _same_bits(z, np.linalg.solve(mat, rhs))
        assert _residual_within_bound(mat, z, rhs)

    def test_jitter_rung_is_rebuilt_from_the_intact_triangle(self, monkeypatch, path):
        # rung 0 is factored, then refused; rung 1 rebuilds mat + jitter I
        # from the triangle the factor did not touch and the kept diagonal
        rng = np.random.default_rng(8)
        m = rng.standard_normal((40, 40))
        mat = m @ m.T + np.eye(40)
        rhs = rng.standard_normal((40, 2))
        _refuse_rung_0(monkeypatch)
        z, jitter, level = solve_symmetric(mat.copy(), rhs)
        assert level == 1 and jitter == JITTER_LADDER[1] * np.trace(mat) / 40
        _is_the_paths_solve(path, mat + jitter * np.eye(40), rhs, z)

    @pytest.mark.parametrize("triangle", ["upper", "lower"])
    def test_nan_in_one_triangle_is_singular(self, triangle):
        # LU reads the whole matrix, so the NaN reaches every rung's
        # solution.  Cholesky reads one triangle, so the NaN makes the
        # factor non-finite and stops the ladder; the residual reads the
        # other, so there it fails every rung's test
        m = np.random.default_rng(4).standard_normal((5, 5))
        mat = m @ m.T + np.eye(5)
        i, j = (1, 3) if triangle == "upper" else (3, 1)
        mat[i, j] = np.nan
        with pytest.raises(SingularSolveError):
            solve_symmetric(mat, np.ones(5), name="test system")

    def test_read_only_system_is_copied_not_written(self):
        m = np.random.default_rng(10).standard_normal((6, 6))
        mat = m @ m.T + np.eye(6)
        given = mat.copy()
        given.flags.writeable = False
        rhs = np.ones(6)
        z, _, _ = solve_symmetric(given, rhs)
        inv, _, _ = invert_symmetric(given)
        assert _same_bits(given, mat)
        assert _residual_within_bound(mat, z, rhs)
        np.testing.assert_allclose(inv @ mat, np.eye(6), atol=1e-12)

    def test_solve_holds_no_second_system(self, path):
        # the Cholesky path works in the system's own buffer: its traced
        # peak is a few vectors; np.linalg.solve's work copy is malloc'd
        # where tracemalloc does not see it, so only the Cholesky path is
        # bounded here (tests/test_memory.py measures both in RSS)
        import tracemalloc

        k = 300
        m = np.random.default_rng(9).standard_normal((k, k))
        mat = m @ m.T + np.eye(k)
        rhs = np.ones(k)
        tracemalloc.start()
        try:
            solve_symmetric(mat, rhs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if path == LAPACK:
            assert peak < 0.05 * 8 * k * k


class TestSymbolLookup:
    def test_lookup_runs_once_per_process(self, monkeypatch, path):
        opened, real = [], ctypes.CDLL

        def counting(*args, **kwargs):
            opened.append(args[0])
            return real(*args, **kwargs)

        linalg._lapack.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", counting)
        mat = np.diag([2.0, 4.0])
        for _ in range(3):
            solve_symmetric(mat.copy(), np.ones(2))
            invert_symmetric(mat.copy())
        assert len(opened) == 1
        assert (linalg._lapack() is None) == (path == NUMPY)

    def test_a_fresh_process_finds_numpys_symbols_where_they_exist(self):
        # a numpy built on scipy-openblas exports them; the fixture's
        # fallback is forced, not found
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
        code = "from steingrad import linalg; print(linalg._lapack() is not None)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == str(lapack == "scipy-openblas")


def _solve_in_both_orders(mat, rhs):
    # an exactly symmetric system solves to the same bits whether it is
    # passed C-ordered or column-major
    assert np.array_equal(mat, mat.T)
    assert mat.flags.c_contiguous
    col = np.asfortranarray(mat)
    assert col.flags.f_contiguous
    z, jitter, level = solve_symmetric(mat.copy(), rhs)
    z_col, jitter_col, level_col = solve_symmetric(col, rhs)
    assert _same_bits(z, z_col)
    assert (jitter, level) == (jitter_col, level_col)
    return z, jitter, level


class TestMemoryOrder:
    @pytest.mark.parametrize("k", [1, 2, 7, 200])
    @pytest.mark.parametrize("rhs_shape", ["vector", "column", "block", "identity"])
    def test_positive_definite_system(self, k, rhs_shape, path):
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
        _is_the_paths_solve(path, mat, rhs, z, rtol=1e-11)

    def test_near_singular_system_takes_a_jitter_rung(self, path):
        # a rung is accepted on its residual alone, so the residual of the
        # two orders must be the same product: the ladder checks the
        # column-major view of either (rung 3 C-ordered and rung 4
        # column-major when each order was checked as given)
        b = np.random.default_rng(5).standard_normal((6, 2))
        mat = b @ b.T  # rank 2
        rhs = np.ones(6)
        z, jitter, level = _solve_in_both_orders(mat, rhs)
        assert level > 0 and jitter > 0
        system = mat + jitter * np.eye(6)
        if path == NUMPY:
            assert _same_bits(z, np.linalg.solve(system, rhs))
        assert _residual_within_bound(system.T, z, rhs)

    def test_jitter_rung_adds_to_the_diagonal_only(self, path):
        # a rung's system is the intact triangle as given plus the jittered
        # diagonal: -0.0 off the diagonal stays -0.0, so z[1] is +0.0 on
        # both paths, where np.linalg.solve(mat + jitter * I) gives -0.0
        mat = np.array([[1.0, -0.0], [-0.0, 0.0]])
        rhs = np.array([1.0, -0.0])
        z, jitter, level = _solve_in_both_orders(mat, rhs)
        assert level > 0
        system = mat.copy()
        system[np.diag_indices(2)] += jitter
        assert z[1] == 0.0 and not np.signbit(z[1])
        if path == NUMPY:
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

    def test_asymmetric_by_rounding_solves_the_column_major_view(self, path):
        # a C-ordered matrix that is symmetric only up to rounding is read
        # as its column-major view, the transpose; a column-major one as it
        # is.  The numpy path solves that view; the Cholesky path factors
        # its lower triangle and checks the residual on its upper one.
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        mat = q @ np.diag(np.linspace(0.5, 3.0, 40)) @ q.T
        assert not np.array_equal(mat, mat.T)
        rhs = rng.standard_normal((40, 3))
        for given, solved in ((mat.copy(), mat.T), (np.asfortranarray(mat), mat)):
            z, jitter, level = solve_symmetric(given, rhs)
            assert (jitter, level) == (0.0, 0)
            if path == NUMPY:
                assert _same_bits(z, np.linalg.solve(solved, rhs))
            else:
                lower = np.tril(solved) + np.tril(solved, -1).T
                _is_the_paths_solve(path, lower, rhs, z)
            assert _residual_within_bound(np.triu(solved) + np.triu(solved, 1).T, z, rhs)


def _ladder_accepts_inverse(mat, inv):
    # the ladder's test of a solve against the identity, written out
    n = len(mat)
    return bool(np.all(np.isfinite(inv))) and np.linalg.norm(
        mat @ inv - np.eye(n)
    ) <= RESIDUAL_RTOL * (1 + np.linalg.norm(np.eye(n)))


class TestInvertSymmetric:
    @pytest.mark.parametrize("n", [6, 7])
    def test_rung_0_is_the_paths_inverse(self, n, path):
        # the numpy path is one np.linalg.inv, bit for bit; the Cholesky
        # path's inverse lies in the system's own buffer, exactly symmetric.
        # Each passes the ladder's test.
        mat = scipy.linalg.hilbert(n)
        given = mat.copy()
        inv, jitter, level = invert_symmetric(given)
        assert (jitter, level) == (0.0, 0)
        if path == NUMPY:
            assert _same_bits(inv, np.linalg.inv(mat))
        else:
            assert np.shares_memory(inv, given)
            assert np.array_equal(inv, inv.T)
            np.testing.assert_allclose(inv, np.linalg.inv(mat), rtol=1e-6)
        assert _ladder_accepts_inverse(mat, inv)

    @pytest.mark.parametrize("k", [1, 9, 200])
    def test_blocked_residual_is_the_whole_test(self, k, path):
        # the Cholesky path tests its inverse column block by column block;
        # the inverse agrees with numpy's and passes the whole-matrix test
        m = np.random.default_rng(k).standard_normal((k, k))
        mat = m @ m.T + 0.5 * np.eye(k)
        inv, jitter, level = invert_symmetric(mat.copy())
        assert (jitter, level) == (0.0, 0)
        np.testing.assert_allclose(inv, np.linalg.inv(mat), rtol=1e-9, atol=1e-12)
        assert _ladder_accepts_inverse(mat, inv)

    def test_escalates_to_an_inverse_of_its_own_jittered_system(self, path):
        # Hilbert 8's inverse fails the residual test at rung 0; the
        # accepted rung's inverse meets the bound against its jittered
        # system, and on the numpy path is np.linalg.inv of that system
        mat = scipy.linalg.hilbert(8)
        assert not _ladder_accepts_inverse(mat, np.linalg.inv(mat))
        inv, jitter, level = invert_symmetric(mat.copy(), name="test system")
        assert level > 0
        assert jitter == JITTER_LADDER[level] * np.trace(mat) / 8
        system = mat + jitter * np.eye(8)
        if path == NUMPY:
            assert _same_bits(inv, np.linalg.inv(system))
        assert _ladder_accepts_inverse(system, inv)

    @pytest.mark.parametrize("case", ["zeros", "nan"])
    def test_hopeless_system_fails_naming_it(self, case):
        # zeros: zero trace, so the ladder has nothing to add and every
        # rung is singular.  nan: no rung's inverse is finite and passes.
        mat = np.zeros((3, 3)) if case == "zeros" else scipy.linalg.hilbert(3)
        if case == "nan":
            mat[0, 2] = mat[2, 0] = np.nan
        with pytest.raises(SingularSolveError, match="test system"):
            invert_symmetric(mat, name="test system")

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="square"):
            invert_symmetric(np.zeros((2, 3)))


class TestMirror:
    @pytest.mark.parametrize("k", [1, 5, 256, 300, 600])
    def test_copies_one_strict_triangle_over_the_other(self, k):
        a = np.asfortranarray(np.random.default_rng(k).standard_normal((k, k)))
        want_lower = np.triu(a) + np.triu(a, 1).T
        want_upper = np.tril(a) + np.tril(a, -1).T
        b = a.copy(order="F")
        linalg._mirror(b)
        assert _same_bits(b, want_lower)
        linalg._mirror(a.T)
        assert _same_bits(a, want_upper)


class TestAddProductAndTranspose:
    # c += a @ b + (a @ b).T for symmetric b: one dsyr2k, or the fallback's
    # row-block products and two adds each, then the upper triangle mirrored
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [1, 7, 300])
    def test_is_the_product_and_its_transpose_added(self, k, order, path):
        rng = np.random.default_rng(k)
        a = np.asarray(rng.standard_normal((k, k)), order=order)
        s = rng.standard_normal((k, k))
        b, c = s + s.T, s @ s.T
        want = c + a @ b + (a @ b).T
        got = c.copy()
        linalg.add_product_and_transpose(got, a, b)
        assert np.array_equal(got, got.T)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        if path == NUMPY:
            # the product in the fallback's row blocks, whose bits may
            # differ from the whole product's; each upper entry gets t's
            # entry and then its transpose's, the whole product's order
            t = np.vstack([a[start:stop] @ b for start, stop in linalg._blocks(k)])
            c += t
            c += t.T
            assert _same_bits(got, np.triu(c) + np.triu(c, 1).T)
