"""Dense symmetric solves with a deterministic jitter-escalation ladder.

Every regularised system in this library is symmetric: positive definite in
the common case (a PSD matrix plus eta I), possibly indefinite for the
U-statistic variants.  All of them climb one diagonal-jitter ladder, and a
rung is accepted when its result is finite and its residual against the
rung's (jittered) system is small.  The ladder is deterministic, so a given
system always resolves the same way, and the jitter actually used is
reported back to the caller.

One factor, in place, in one array.  :func:`solve_symmetric` and
:func:`invert_symmetric` consume ``mat``: every caller hands them a system
it built for that call, and the ladder works in it.  Each rung factors the
lower triangle of the system's column-major view where it lies, with
LAPACK's Cholesky ``dpotrf``, then solves with ``dpotrs`` or inverts in the
same place with ``dpotri``: half LU's flops, and no work copy.  The strict
upper triangle is not written until an inverse is accepted, and the
system's diagonal is kept as a K-vector, so a rung's residual (``dsymm`` on
the upper triangle) and a jitter rung's system (the upper triangle mirrored
onto the lower, plus the jittered diagonal) both come from the system
itself.  A solve holds one (K, K) array, the system, besides vectors of the
right-hand side's shape; an inverse is returned in the system's own buffer,
mirrored to a full matrix, and its residual is taken column block by column
block, two blocks of at most an eighth of the system each.  The caller
must not read ``mat`` afterwards: it holds the factor, the inverse, or the
system with a rung's jitter on its diagonal.

The routines are numpy's own: the OpenBLAS its wheel loads exports them
under the ILP64 names ``scipy_dpotrf_64_`` and so on, looked up once per
process through ctypes, so they run on numpy's thread pool, the only one
the package loads.  The one second path is numpy's LU, one
``np.linalg.solve`` or ``np.linalg.inv`` of the rung's system rebuilt in
full from the intact triangle: a rung takes it when Cholesky refuses the
system (``info > 0``, as on an indefinite U-statistic system), and every
rung takes it when numpy's library does not export those symbols (a numpy
not built on scipy-openblas).  LU reads the whole matrix and mallocs a work
copy of it, where tracemalloc does not see it.

Cholesky reads one triangle and the residual the other.  A non-finite
entry in the upper one fails every residual; one in the lower one makes
the factor non-finite, and the ladder stops there, as no jitter mends it.

The estimators' systems are built with one more of those routines:
:func:`add_product_and_transpose` adds ``a @ b + (a @ b).T`` into a
symmetric ``c`` by BLAS ``dsyr2k`` with beta = 1, one product's flops and
no product array, then mirrors the triangle it wrote.  Where the symbols
are missing it makes the product in row blocks of at most an eighth of it
and adds each block and its transpose, then makes the same mirror.
"""

import ctypes
import functools
import math

import numpy as np

from .errors import SingularSolveError

# Accepted residual for a solve of M z = b, relative to 1 + ||b||_F.
RESIDUAL_RTOL = 1e-8

# Diagonal jitter ladder, in units of mean(diag(M)) = trace(M)/K: try the
# system as given, then add 1e-10 * trace/K escalating tenfold to 1e-4.
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)

# numpy's LAPACK and BLAS routines, by their names in scipy-openblas' ILP64
# build, with their Fortran arguments: characters, int64 sizes by
# reference, arrays, and each character argument's hidden length last
_SYMBOL = "scipy_{}_64_"
_CHAR, _SIZE, _ARRAY = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
_SCALAR, _LEN = ctypes.POINTER(ctypes.c_double), ctypes.c_size_t
_ROUTINES = {
    "dpotrf": (_CHAR, _SIZE, _ARRAY, _SIZE, _SIZE, _LEN),
    "dpotri": (_CHAR, _SIZE, _ARRAY, _SIZE, _SIZE, _LEN),
    "dpotrs": (_CHAR, _SIZE, _SIZE, _ARRAY, _SIZE, _ARRAY, _SIZE, _SIZE, _LEN),
    "dsymm": (_CHAR, _CHAR, _SIZE, _SIZE, _SCALAR, _ARRAY, _SIZE, _ARRAY, _SIZE,
              _SCALAR, _ARRAY, _SIZE, _LEN, _LEN),
    "dsyr2k": (_CHAR, _CHAR, _SIZE, _SIZE, _SCALAR, _ARRAY, _SIZE, _ARRAY, _SIZE,
               _SCALAR, _ARRAY, _SIZE, _LEN, _LEN),
}
# rows and columns of a square tile of the triangle mirror
_MIRROR_TILE = 256
# a (K, K) temporary is made in blocks of at most 1/8 of it: an inverse's
# residual in column blocks, the fallback's product in row blocks
_BLOCKS = 8


@functools.cache
def _lapack():
    """numpy's own routines ``{name: function}``, or None when it lacks them.

    Looked up once per process in the library numpy's linear algebra loads,
    whose dependencies include the OpenBLAS numpy's products run on.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        routines = {name: getattr(lib, _SYMBOL.format(name)) for name in _ROUTINES}
    except (OSError, AttributeError):
        return None
    for name, fn in routines.items():
        fn.argtypes, fn.restype = _ROUTINES[name], None
    return routines


def _blocks(k):
    """``(start, stop)`` of the ``_BLOCKS`` rule's blocks of k rows or columns."""
    step = -(-k // _BLOCKS)
    for start in range(0, k, step):
        yield start, min(start + step, k)


def _int(value):
    return ctypes.byref(ctypes.c_int64(value))


def _factor_call(lapack, routine, a, *rest):
    # dpotrf, dpotri (no rest) or dpotrs (rest: nrhs and b) on the lower
    # triangle of the column-major float64 a; returns LAPACK's info
    info = ctypes.c_int64()
    k = _int(len(a))
    if rest:
        nrhs, b = rest
        lapack[routine](
            b"L", k, _int(nrhs), a.ctypes.data, k, b.ctypes.data, k, ctypes.byref(info), 1
        )
    else:
        lapack[routine](b"L", k, a.ctypes.data, k, ctypes.byref(info), 1)
    return info.value


def _symmetric_product(lapack, a, b):
    """``M @ b`` for the column-major (K, m) ``b``, M read from ``a``'s upper
    triangle and diagonal (``dsymm``), as a new column-major array."""
    k, m = b.shape
    out = np.empty((k, m), order="F")
    one, zero = ctypes.byref(ctypes.c_double(1.0)), ctypes.byref(ctypes.c_double(0.0))
    lapack["dsymm"](
        b"L", b"U", _int(k), _int(m), one, a.ctypes.data, _int(k),
        b.ctypes.data, _int(k), zero, out.ctypes.data, _int(k), 1, 1,
    )
    return out


def add_product_and_transpose(c, a, b):
    """``c += a @ b + (a @ b).T`` in place, for symmetric ``b``, mirrored exact.

    ``c`` and ``b`` are C-contiguous (K, K) arrays, ``b`` symmetric, and
    ``a`` a C- or F-contiguous one.  One BLAS ``dsyr2k`` with beta = 1 adds
    the sum into ``c``'s upper triangle: one product's flops, not two, and
    no product array.  The triangle is then mirrored, so ``c`` comes out
    exactly symmetric.  Without numpy's routines each row block of
    ``_blocks`` makes ``t = a[rows] @ b`` and adds ``c[rows] += t;
    c[:, rows] += t.T``, so the upper triangle gets ``t``'s entry and then
    its transpose's, the whole product's order, with an eighth of a (K, K)
    array beside ``c``; then the same mirror.
    """
    lapack = _lapack()
    if lapack is None:
        for start, stop in _blocks(len(c)):
            t = a[start:stop] @ b
            c[start:stop] += t
            c[:, start:stop] += t.T
    else:
        # column-major, c reads as c^T, whose lower triangle is c's upper;
        # an F-ordered a reads as a (C += A B^T + B A^T), a C-ordered one as
        # a^T (C += A^T B + B^T A), and b as b
        k = _int(len(c))
        one = ctypes.byref(ctypes.c_double(1.0))
        trans = b"N" if a.flags.f_contiguous else b"T"
        lapack["dsyr2k"](
            b"L", trans, k, k, one, a.ctypes.data, k, b.ctypes.data, k,
            one, c.ctypes.data, k, 1, 1,
        )
    _mirror(c)


def _mirror(a):
    """Copy the strict upper triangle of the square ``a`` over its strict lower one.

    Tile by tile: numpy's transposing copy of a whole triangle is several
    times slower.  ``_mirror(a.T)`` copies the lower triangle over the upper.
    """
    k, t = len(a), _MIRROR_TILE
    below = np.tri(min(k, t), k=-1, dtype=bool)
    for j0 in range(0, k, t):
        tile = a[j0:j0 + t, j0:j0 + t]
        n = len(tile)
        np.copyto(tile, tile.T, where=below[:n, :n])
        for i0 in range(j0 + t, k, t):
            a[i0:i0 + t, j0:j0 + t] = a[j0:j0 + t, i0:i0 + t].T


class _NonFiniteFactor(Exception):
    """A factor that is not finite: the triangle it read holds a non-finite entry."""


def _rung(a, system_diag, rhs, bound):
    """One rung on the system held in ``a``: the accepted result, or None.

    ``a`` holds the rung's system, with ``system_diag`` on its diagonal.
    Cholesky factors it in place; when it refuses, the system is rebuilt
    from the upper triangle and ``system_diag`` for numpy's LU, which also
    serves every rung when the routines are missing.
    """
    lapack = _lapack()
    if lapack is not None:
        info = _factor_call(lapack, "dpotrf", a)
        if not np.all(np.isfinite(a if info else a.diagonal())):
            raise _NonFiniteFactor
        if info == 0:
            if rhs is None:
                return _invert_factored(lapack, a, system_diag, bound)
            return _solve_factored(lapack, a, system_diag, rhs, bound)
        _mirror(a)
        np.fill_diagonal(a, system_diag)
    try:
        z = np.linalg.inv(a) if rhs is None else np.linalg.solve(a, rhs)
    except (np.linalg.LinAlgError, ValueError):
        return None
    residual = a @ z
    if rhs is None:
        residual[np.diag_indices_from(residual)] -= 1.0
    else:
        residual -= rhs
    return z if np.all(np.isfinite(z)) and np.linalg.norm(residual) <= bound else None


def _solve_factored(lapack, a, system_diag, rhs, bound):
    # dpotrs on a copy of rhs, then the residual on the upper triangle with
    # the system's diagonal put back, which the factor no longer needs
    z = np.array(rhs, order="F")
    cols = z.reshape(len(z), -1)
    _factor_call(lapack, "dpotrs", a, cols.shape[1], cols)
    np.fill_diagonal(a, system_diag)
    residual = _symmetric_product(lapack, a, cols)
    residual -= rhs.reshape(cols.shape)
    return z if np.all(np.isfinite(z)) and np.linalg.norm(residual) <= bound else None


def _invert_factored(lapack, a, system_diag, bound):
    """dpotri in place, tested column block by column block, then mirrored.

    The inverse Z lies in the lower triangle and the system in the upper
    one, each with its diagonal beside it, so each block of Z's columns is
    put together from the lower triangle for ``dsymm``.
    """
    if _factor_call(lapack, "dpotri", a):
        return None
    k = len(a)
    z_diag = a.diagonal().copy()
    np.fill_diagonal(a, system_diag)
    sum_sq = 0.0
    for j0, j1 in _blocks(k):
        cols = np.empty((k, j1 - j0), order="F")  # Z[:, j0:j1]
        cols[:j0] = a[j0:j1, :j0].T
        cols[j0:] = a[j0:, j0:j1]
        _mirror(cols[j0:j1].T)
        np.fill_diagonal(cols[j0:j1], z_diag[j0:j1])
        if not np.all(np.isfinite(cols)):
            return None
        residual = _symmetric_product(lapack, a, cols)
        del cols
        residual[j0:j1][np.diag_indices(j1 - j0)] -= 1.0
        sum_sq += float(np.linalg.norm(residual)) ** 2
    if not math.sqrt(sum_sq) <= bound:
        return None
    _mirror(a.T)
    np.fill_diagonal(a, z_diag)
    return a.T


def _ladder(mat, rhs, name):
    # the one ladder loop: solves mat z = rhs, or inverts mat when rhs is
    # None, with the bound of a solve against the identity, 1 + sqrt(K)
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name}: system matrix must be square, got {mat.shape}")
    # the column-major view, or a column-major copy of a system that is
    # neither contiguous nor writeable
    a = np.require(mat.T if mat.flags.c_contiguous else mat, requirements="FAW")
    k = a.shape[0]
    if rhs is None:
        bound = RESIDUAL_RTOL * (1.0 + math.sqrt(k))
    elif rhs.shape[0] != k:
        raise ValueError(f"{name}: rhs has {rhs.shape[0]} rows, system has {k}")
    else:
        bound = RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(rhs)))
    scale = abs(float(np.trace(a))) / k
    diag = a.diagonal().copy()
    for level, mult in enumerate(JITTER_LADDER):
        jitter = mult * scale
        system_diag = diag + jitter if level else diag
        if level:
            if _lapack() is not None:
                _mirror(a)  # the lower triangle the last rung's factor overwrote
            np.fill_diagonal(a, system_diag)
        try:
            z = _rung(a, system_diag, rhs, bound)
        except _NonFiniteFactor:
            break
        if z is not None:
            return z, jitter, level
    raise SingularSolveError(
        f"{name}: singular or numerically unsolvable even with diagonal "
        f"jitter up to {JITTER_LADDER[-1] * scale:.3e}; increase the ridge eta"
    )


def solve_symmetric(mat, rhs, name: str = "linear system"):
    """Solve ``mat @ z = rhs`` for symmetric ``mat``, consuming ``mat``.

    Each ladder rung factors ``mat + jitter I`` in place with Cholesky and
    solves with the factor, or, when Cholesky refuses the system (an
    indefinite one) or numpy's LAPACK symbols are missing, makes one
    ``np.linalg.solve`` of it (see the module docstring).  A rung is
    accepted when its solution is finite and its residual against the
    (jittered) system is small.

    Parameters
    ----------
    mat : (K, K) array
        Symmetric system matrix, in either memory order: it is read as its
        column-major view, the factor from that view's lower triangle and
        the residual from its upper one.  The solve works in its buffer, so
        the caller must not read it afterwards.
    rhs : (K,) or (K, m) array
        Right-hand side.
    name : str
        Label used in error messages.

    Returns
    -------
    z : ndarray
        Solution with the same trailing shape as ``rhs``.
    jitter : float
        Diagonal jitter that was added to obtain the accepted solution
        (0.0 when the system solved as given).
    level : int
        Index into the jitter ladder of the accepted attempt.

    Raises
    ------
    SingularSolveError
        If no ladder level produces a finite solution with residual at most
        ``RESIDUAL_RTOL * (1 + ||rhs||_F)`` against the (jittered) system.
    """
    return _ladder(mat, np.asarray(rhs, dtype=float), name)


def invert_symmetric(mat, name: str = "linear system"):
    """``mat^-1`` for symmetric ``mat``, on the jitter ladder, consuming ``mat``.

    Each rung factors ``mat + jitter I`` in place and inverts with the
    factor (``dpotri``), or makes one ``np.linalg.inv`` where
    :func:`solve_symmetric` makes ``np.linalg.solve``.  A rung is accepted
    when its inverse is finite and ``||(mat + jitter I) Z - I||_F <=
    RESIDUAL_RTOL (1 + sqrt(K))``: the test and bound of
    :func:`solve_symmetric` against the identity, with no identity matrix.
    On the Cholesky path the accepted inverse is exactly symmetric and is
    returned in ``mat``'s own buffer.  Returns ``(inverse, jitter,
    level)`` and raises :class:`SingularSolveError` as
    :func:`solve_symmetric` does.
    """
    return _ladder(mat, None, name)
