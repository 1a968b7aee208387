"""Kernelised Stein discrepancy between a sample and a gradient field.

For samples x^1..x^K with gradient rows g_j (estimated or exact scores),
the V-statistic is the full double sum

    S_V^2 = (1/K^2) sum_{j,l} [ g_j . g_l k_jl + g_j . grad_{x^l} k_jl
                                + grad_{x^j} k_jl . g_l
                                + trace(grad_{x^j} grad_{x^l} k_jl) ]

computed here in matrix form as trace(G^T K G + 2 G^T <grad, K>) plus the
sum of the pairwise trace term, which the kernel layer returns as one
scalar, all from one distance pass over the sample; a median-rule kernel
takes its bandwidth from that pass too, and the estimate reports the
resolved kernel.  The last (gradient-free) term is constant in G, so it
is optional: fits minimise the constant-free part, sample-quality metrics
want it included.  The U-statistic drops the j = l terms and normalises by
K (K - 1); for the translation-invariant families here the diagonal of the
cross terms vanishes identically, leaving only the quadratic and trace
diagonals to subtract.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, as_samples, build_matrices, call_score, cross_hess_trace


@dataclass(frozen=True)
class KsdEstimate:
    """One discrepancy value plus the conventions used to compute it."""

    value: float
    statistic: str  # "v" or "u"
    includes_constant: bool
    spec: KernelSpec  # the kernel used, its bandwidth resolved


def _terms(samples, grads, spec, includes_constant):
    """The kernel matrices of the sample and the quadratic and cross sums.

    The matrices come first, so a sample the median rule refuses is
    reported before grads that do not match it.
    """
    xs = as_samples(samples)
    mats = build_matrices(xs, spec, with_trace=includes_constant)
    gs = as_samples(grads, name="grads")
    if gs.shape != xs.shape:
        raise ValueError(f"grads shape {gs.shape} does not match samples {xs.shape}")
    # tr(G^T K G) through one BLAS matrix product
    quad = float((gs * (mats.k_matrix @ gs)).sum())
    cross = float((gs * mats.grad_sum).sum())
    return xs, gs, mats, quad, cross


def ksd_v(samples, grads, spec: KernelSpec, includes_constant: bool = False) -> KsdEstimate:
    """V-statistic kernelised Stein discrepancy (squared)."""
    xs, _, mats, quad, cross = _terms(samples, grads, spec, includes_constant)
    total = quad + 2.0 * cross
    if includes_constant:
        total += mats.trace
    n = xs.shape[0]
    return KsdEstimate(total / n**2, "v", includes_constant, mats.spec)


def ksd_u(samples, grads, spec: KernelSpec, includes_constant: bool = False) -> KsdEstimate:
    """U-statistic variant: diagonal terms removed, 1/(K(K-1)) normalised."""
    xs, gs, mats, quad, cross = _terms(samples, grads, spec, includes_constant)
    n = xs.shape[0]
    if n < 2:
        raise ValueError("U-statistic needs at least two samples")
    quad_diag = float(np.diag(mats.k_matrix) @ np.einsum("kd,kd->k", gs, gs))
    # the j = l cross terms contain grad k(x, x') at x' = x, which is zero
    # for translation-invariant kernels, so only the quadratic diagonal and
    # (optionally) the trace diagonal, K times its value at zero
    # displacement, are subtracted
    total = quad - quad_diag + 2.0 * cross
    if includes_constant:
        total += mats.trace - n * cross_hess_trace(xs[0], xs[0], mats.spec)
    return KsdEstimate(total / (n * (n - 1)), "u", includes_constant, mats.spec)


def ksd_to_target(samples, score_fn, spec: KernelSpec, statistic: str = "v") -> KsdEstimate:
    """Discrepancy of a sample against a target given by its score function.

    ``score_fn`` follows the batched contract (K, d) -> (K, d): it is called
    once, on the whole sample, and any other return shape raises ValueError.
    The constant term is always included, making the value a genuine
    sample-quality measure (near zero only when the sample matches the
    target).
    """
    xs = as_samples(samples)
    if statistic not in ("v", "u"):
        raise ValueError(f"statistic must be 'v' or 'u', got {statistic!r}")
    gs = call_score(score_fn, xs)
    if statistic == "v":
        return ksd_v(xs, gs, spec, includes_constant=True)
    return ksd_u(xs, gs, spec, includes_constant=True)
