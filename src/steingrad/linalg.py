"""Dense symmetric solves with a deterministic jitter-escalation ladder.

Every regularised system in this library is symmetric: positive definite in
the common case (a PSD matrix plus eta I), possibly indefinite for the
U-statistic variants.  All of them climb one diagonal-jitter ladder.
:func:`solve_symmetric` tries a Cholesky factorisation at each rung first
and, only if that fails (the matrix is not numerically positive definite),
scipy's symmetric-indefinite LDL^T solver at the same rung; it moves to the
next rung when neither yields a finite solution with an acceptable
residual.  The ladder is deterministic, so a given system always resolves
the same way, and the jitter actually used is reported back to the caller.

Layout: Cholesky reads the lower triangle, and its factor goes to LAPACK
``potrs`` transposed, as the column-major upper factor, so it is read in
place rather than copied.  A system that is exactly symmetric may arrive
column-major (the transpose view of a C-ordered matrix): numpy's Cholesky
then copies it contiguously instead of transposing it, and the solution
keeps its bits.  The LDL^T fallback reads the upper triangle.

An inverse the caller needs outright, the Stein fit's predictive
(K + eta I)^-1, is :func:`invert_symmetric`: the same ladder, with one
``np.linalg.inv`` at each rung in place of the factorisation, on numpy's
BLAS pool, and the residual test of a solve against the identity.
scipy's OpenBLAS is a second thread pool beside numpy's, and a wide scipy
triangular solve wakes it.  On a 2-core host, after ``cho_solve`` against
a 200 x 200 identity its worker accrued 0.04-0.13 s of CPU across the next
0.2 s (``tools/blas_spin.py``), and a 50-chain, 100-iteration ``run_hmc``
on a stein-v fit that followed took 330-346 ms against 265-267 ms without
it (medians of 8).  The fits' own solves at d = 2 leave it asleep; a
K = 1000, d = 50 fit's does not.  This module is the only one that
imports ``scipy.linalg``.
"""

import math
import warnings

import numpy as np
import scipy.linalg

from .errors import SingularSolveError

# Accepted residual for a solve of M z = b, relative to 1 + ||b||_F.
RESIDUAL_RTOL = 1e-8

# Diagonal jitter ladder, in units of mean(diag(M)) = trace(M)/K: try the
# system as given, then add 1e-10 * trace/K escalating tenfold to 1e-4.
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


def _factor_and_solve(system, rhs):
    # Cholesky reads the lower triangle only; a pivot that is not positive
    # raises LinAlgError, and the indefinite solver takes over, reading the
    # upper triangle.  numpy's factorisation runs on the same BLAS thread
    # pool as the library's matrix products; scipy's cho_factor, on scipy's
    # own pool, stalled for up to 0.1 s on a 2-core host while numpy's
    # threads still spun after a product (the factor itself is the same:
    # same LAPACK routine).  numpy returns the factor C-ordered, so its
    # transpose is the column-major upper factor, which potrs reads in
    # place; (lower, True) cost a transposing copy, 21 of 24 ms at
    # K = 2000, for the same bits.  An exactly symmetric system may arrive
    # column-major, which spares numpy's Cholesky the same kind of copy.
    try:
        lower = np.linalg.cholesky(system)
    except np.linalg.LinAlgError:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            return scipy.linalg.solve(system, rhs, assume_a="sym")
    return scipy.linalg.cho_solve((lower.T, False), rhs, check_finite=False)


def _residual_norm(system, z, rhs):
    # ||system @ z - rhs||_F from one product buffer; rhs None is the identity
    residual = system @ z
    if rhs is None:
        residual[np.diag_indices_from(residual)] -= 1.0
    else:
        residual -= rhs
    return float(np.linalg.norm(residual))


def _ladder(mat, rhs, name):
    # the one ladder loop: solves mat z = rhs, or inverts mat when rhs is
    # None, with the bound of a solve against the identity, 1 + sqrt(K)
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name}: system matrix must be square, got {mat.shape}")
    k = mat.shape[0]
    if rhs is None:
        bound = RESIDUAL_RTOL * (1.0 + math.sqrt(k))
    elif rhs.shape[0] != k:
        raise ValueError(f"{name}: rhs has {rhs.shape[0]} rows, system has {k}")
    else:
        bound = RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(rhs)))
    scale = abs(float(np.trace(mat))) / k
    for level, mult in enumerate(JITTER_LADDER):
        jitter = mult * scale
        system = mat
        if jitter:
            # mat + jitter I in mat's own layout: + 0.0 turns -0.0 into +0.0
            # off the diagonal as adding jitter * eye(k) would, same bits
            system = mat + 0.0
            system[np.diag_indices(k)] += jitter
        try:
            z = np.linalg.inv(system) if rhs is None else _factor_and_solve(system, rhs)
        except (np.linalg.LinAlgError, ValueError):
            continue
        if np.all(np.isfinite(z)) and _residual_norm(system, z, rhs) <= bound:
            return z, jitter, level
        del z  # a rejected rung's solution goes before the next rung's
    raise SingularSolveError(
        f"{name}: singular or numerically unsolvable even with diagonal "
        f"jitter up to {JITTER_LADDER[-1] * scale:.3e}; increase the ridge eta"
    )


def solve_symmetric(mat, rhs, name: str = "linear system"):
    """Solve ``mat @ z = rhs`` for symmetric ``mat``.

    Each ladder rung factorises ``mat + jitter I`` by Cholesky, falling back
    to the symmetric-indefinite LDL^T solver at the same rung when the
    Cholesky factorisation fails.  A rung is accepted when its solution is
    finite and its residual against the full (jittered) matrix is small.

    Parameters
    ----------
    mat : (K, K) array
        Symmetric system matrix, in either memory order (see the module
        docstring).
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
    """``mat^-1`` for symmetric ``mat``, on the jitter ladder.

    Each rung makes one ``np.linalg.inv`` of ``mat + jitter I`` and accepts
    it when it is finite and ``||(mat + jitter I) Z - I||_F <= RESIDUAL_RTOL
    (1 + sqrt(K))``: the test and bound of :func:`solve_symmetric` against
    the identity, from one product buffer and no identity matrix.  Rung 0 is
    ``np.linalg.inv(mat)`` itself, bit for bit.  Runs on numpy's BLAS pool
    only (see the module docstring).  Returns ``(inverse, jitter, level)``
    and raises :class:`SingularSolveError` as :func:`solve_symmetric` does.
    """
    return _ladder(mat, None, name)
