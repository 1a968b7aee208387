"""Dense symmetric solves with a deterministic jitter-escalation ladder.

Every regularised system in this library is symmetric: positive definite in
the common case (a PSD matrix plus eta I), possibly indefinite for the
U-statistic variants.  All of them climb one diagonal-jitter ladder.  Each
rung is one LAPACK LU solve through numpy: :func:`solve_symmetric` makes one
``np.linalg.solve`` of ``mat + jitter I`` and :func:`invert_symmetric` one
``np.linalg.inv`` (a solve against the identity).  A rung is accepted when
its result is finite and its residual against the jittered system is small,
so definite and indefinite systems take the same path, and which rung a
system lands on is decided by that residual alone.  The ladder is
deterministic, so a given system always resolves the same way, and the
jitter actually used is reported back to the caller.

One pool: every factorisation and product runs on numpy's OpenBLAS thread
pool, the only one the package loads.

One layout: the ladder solves, and checks the residual of, the column-major
view of a C-contiguous system, so LAPACK's work copy is a plain copy.  A
system that is exactly symmetric is the same matrix in either memory order,
so it gets the same bits and the same rung whichever order it arrives in.

Memory: numpy mallocs LU's work copy of the system, where tracemalloc does
not see it, so rung 0 holds two (K, K) arrays, the system and that copy,
besides the solution and one residual product of the solution's shape; a
jitter rung adds its jittered system.
"""

import math

import numpy as np

from .errors import SingularSolveError

# Accepted residual for a solve of M z = b, relative to 1 + ||b||_F.
RESIDUAL_RTOL = 1e-8

# Diagonal jitter ladder, in units of mean(diag(M)) = trace(M)/K: try the
# system as given, then add 1e-10 * trace/K escalating tenfold to 1e-4.
JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4)


def _factor_and_solve(system, rhs):
    # one LU factorisation and solve (LAPACK gesv) on numpy's pool; rhs
    # None asks for the inverse, a solve against the identity
    return np.linalg.inv(system) if rhs is None else np.linalg.solve(system, rhs)


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
    if mat.flags.c_contiguous:
        mat = mat.T  # the column-major view (see the module docstring)
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
            z = _factor_and_solve(system, rhs)
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

    Each ladder rung makes one ``np.linalg.solve`` of ``mat + jitter I``, an
    LU factorisation that serves definite and indefinite systems alike.  A
    rung is accepted when its solution is finite and its residual against
    the full (jittered) matrix is small.

    Parameters
    ----------
    mat : (K, K) array
        Symmetric system matrix, in either memory order: it is solved as
        its column-major view (see the module docstring).
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
    ``np.linalg.inv`` of ``mat``'s column-major view, which for an exactly
    symmetric ``mat`` is ``np.linalg.inv(mat)`` bit for bit.  Returns
    ``(inverse, jitter, level)`` and raises :class:`SingularSolveError` as
    :func:`solve_symmetric` does.
    """
    return _ladder(mat, None, name)
