"""Independent reference implementations used to cross-check the estimators.

Everything here is deliberately slow and literal: central finite
differences, an eigendecomposition-based quadratic minimiser, and a
double-python-loop kernelised Stein discrepancy.  None of it shares a
linear-algebra path with the production code (which assembles matrices
vectorised and solves through the jittered symmetric factorisation), so
agreement between the two is evidence rather than tautology.

Shipped inside the package, not the test tree, so that demo scripts and
downstream users can run the same cross-checks.
"""

import numpy as np

from .errors import NumericalError
from .kernels import (
    KernelSpec,
    as_samples,
    check_number,
    cross_hess_trace,
    kernel_eval,
    kernel_grad_first_arg,
)


def fd_gradient(f, x, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function at x, h = step.

    out[i] = (f(x + h e_i) - f(x - h e_i)) / (2 h)
    """
    check_number(step, "finite-difference step", gt=0)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x must be a 1-D vector, got shape {x.shape}")
    out = np.empty(x.size)
    for i in range(x.size):
        shift = np.zeros(x.size)
        shift[i] = step
        out[i] = (float(f(x + shift)) - float(f(x - shift))) / (2.0 * step)
    return out


def quadratic_minimiser(a_matrix, c, ridge: float = 0.0) -> np.ndarray:
    """Minimise 0.5 z^T (A + ridge I) z + c^T z by eigendecomposition.

    ``c`` may be a vector or a (K, m) matrix; columns are minimised
    independently.  Raises NumericalError if A + ridge I is not positive
    definite (the quadratic would be unbounded or flat).
    """
    a_matrix = np.asarray(a_matrix, dtype=float)
    c = np.asarray(c, dtype=float)
    if a_matrix.ndim != 2 or a_matrix.shape[0] != a_matrix.shape[1]:
        raise ValueError(f"A must be square, got shape {a_matrix.shape}")
    if not np.allclose(a_matrix, a_matrix.T, atol=1e-10 * (1 + np.abs(a_matrix).max())):
        raise ValueError("A must be symmetric")
    if c.shape[0] != a_matrix.shape[0]:
        raise ValueError(
            f"c has leading dimension {c.shape[0]}, A is {a_matrix.shape[0]} square"
        )
    check_number(ridge, "ridge", ge=0)
    w, vecs = np.linalg.eigh(0.5 * (a_matrix + a_matrix.T))
    shifted = w + ridge
    if shifted.min() <= 0:
        raise NumericalError(
            f"quadratic form is not positive definite (min eigenvalue "
            f"{shifted.min():.3e} after ridge); minimiser undefined"
        )
    proj = vecs.T @ c
    if proj.ndim == 1:
        return -vecs @ (proj / shifted)
    return -vecs @ (proj / shifted[:, None])


def brute_ksd(
    samples,
    grads,
    spec: KernelSpec,
    statistic: str = "v",
    includes_constant: bool = False,
) -> float:
    """Kernelised Stein discrepancy by explicit double loop over pairs.

    Per pair (j, l) the summand is

        g_j . g_l k(x^j, x^l) + g_j . d/dx^l k + d/dx^j k . g_l
            [+ trace(d^2 k / dx^j dx^l)]

    V-statistic: all K^2 ordered pairs, divided by K^2.  U-statistic: j != l
    only, divided by K (K - 1).
    """
    xs = as_samples(samples)
    gs = as_samples(grads, name="grads")
    if gs.shape != xs.shape:
        raise ValueError(f"grads shape {gs.shape} does not match samples {xs.shape}")
    if statistic not in ("v", "u"):
        raise ValueError(f"statistic must be 'v' or 'u', got {statistic!r}")
    n = xs.shape[0]
    if statistic == "u" and n < 2:
        raise ValueError("U-statistic needs at least two samples")
    total = 0.0
    for j in range(n):
        for l in range(n):
            if statistic == "u" and j == l:
                continue
            k = kernel_eval(xs[j], xs[l], spec)
            grad_j = kernel_grad_first_arg(xs[j], xs[l], spec)
            # second-argument gradient, via symmetry of the kernel
            grad_l = kernel_grad_first_arg(xs[l], xs[j], spec)
            term = float(gs[j] @ gs[l]) * k
            term += float(gs[j] @ grad_l)
            term += float(grad_j @ gs[l])
            if includes_constant:
                term += cross_hess_trace(xs[j], xs[l], spec)
            total += term
    if statistic == "v":
        return total / n**2
    return total / (n * (n - 1))
