"""Kernelised Stein discrepancy between a sample and a gradient field.

For samples x^1..x^K with gradient rows g_j (estimated or exact scores),
the V-statistic is the full double sum

    S_V^2 = (1/K^2) sum_{j,l} [ g_j . g_l k_jl + g_j . grad_{x^l} k_jl
                                + grad_{x^j} k_jl . g_l
                                + trace(grad_{x^j} grad_{x^l} k_jl) ]

summed here over the sample's unordered pairs, a row block at a time, so
no (K, K) matrix is held: per block the quadratic term through K G, the
cross term through the centred row sums and K x, and the pairwise trace
term as one numpy reduction, which no BLAS thread pool touches.  Each
unordered pair stands for its two ordered ones; the diagonal, where k = 1
and the cross term vanishes, is added in closed form.  All of it comes
from one distance pass over the sample; a median-rule kernel takes its
bandwidth from that pass too, and the estimate reports the resolved
kernel.  The last (gradient-free) term is constant in G, so it is
optional: fits minimise the constant-free part, sample-quality metrics
want it included.  The U-statistic drops the j = l terms and normalises by
K (K - 1).  Memory is O(B + K d) doubles for a given bandwidth, B the
pairs per block, ``kernels.PAIR_BLOCK``; a median-rule kernel adds the one
condensed vector of K (K - 1) / 2 distances its bandwidth is taken from.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import RBF, KernelSpec, as_samples, call_score, cross_hess_trace, pair_blocks


@dataclass(frozen=True)
class KsdEstimate:
    """One discrepancy value plus the conventions used to compute it."""

    value: float
    statistic: str  # "v" or "u"
    includes_constant: bool
    spec: KernelSpec  # the kernel used, its bandwidth resolved


def _pair_sums(samples, grads, spec, includes_constant):
    """The quadratic, cross and trace sums over the ordered pairs j != l.

    The kernel's bandwidth is resolved first, so a sample the median rule
    refuses is reported before grads that do not match it.  Returns the
    samples, grads and resolved spec with the three sums; the trace sum is
    0.0 without the constant.
    """
    xs = as_samples(samples)
    spec, blocks = pair_blocks(xs, spec, with_trace=includes_constant)
    gs = as_samples(grads, name="grads")
    if gs.shape != xs.shape:
        raise ValueError(f"grads shape {gs.shape} does not match samples {xs.shape}")
    n, d = xs.shape
    rbf = spec.family == RBF
    # the cross term depends only on differences x^j - x^l; centring keeps
    # its cancellation at their scale, not at the scale of the coordinates
    mean = xs.mean(axis=0)
    if rbf:
        gx = np.einsum("ij,ij->i", gs, xs - mean)  # g_j . x^j
    quad = cross = trace = 0.0
    for start, stop, kern, block_trace in blocks:
        # one product per block: kern times the later rows' [G | x]
        if rbf:
            h = np.empty((n - start, 2 * d))
            h[:, :d] = gs[start:]
            np.subtract(xs[start:], mean, out=h[:, d:])
        else:
            h = gs[start:]
        prod = kern @ h
        ga = gs[start:stop]
        quad += float(np.einsum("ij,ij->", ga, prod[:, :d]))
        if rbf:
            # sum k_jl g_j . (x^j - x^l), the kernel's second-argument
            # gradient times sigma2, made symmetric in j and l and halved:
            # the rows' side g_j . (rowsum_j x^j - (K x)_j) plus the
            # columns' side g_l . (colsum_l x^l - (K^T x)_l), whose product
            # is taken from K G as x . (K G)
            xa = h[: stop - start, d:]
            cross += 0.5 * (
                float((kern.sum(axis=1) * gx[start:stop]).sum())
                - float(np.einsum("ij,ij->", ga, prod[:, d:]))
                + float((kern.sum(axis=0) * gx[start:]).sum())
                - float(np.einsum("ij,ij->", xa, prod[:, :d]))
            )
        if includes_constant:
            trace += block_trace
    if rbf:
        cross /= spec.sigma2
    else:
        # the Epanechnikov kernel gradient is (2/d) (x^j - x^l) at every
        # pair: a sum the kernel values do not enter
        x = xs - mean
        cross = float((gs * ((2.0 / d) * (n * x - x.sum(axis=0)[None, :]))).sum())
    return xs, gs, spec, quad, cross, trace


def ksd_v(samples, grads, spec: KernelSpec, includes_constant: bool = False) -> KsdEstimate:
    """V-statistic kernelised Stein discrepancy (squared)."""
    xs, gs, spec, quad, cross, trace = _pair_sums(samples, grads, spec, includes_constant)
    n = xs.shape[0]
    # the diagonal: k = 1, so g_j . g_j, and no cross term
    total = quad + float((gs * gs).sum()) + 2.0 * cross
    if includes_constant:
        total += trace + n * cross_hess_trace(xs[0], xs[0], spec)
    return KsdEstimate(total / n**2, "v", includes_constant, spec)


def ksd_u(samples, grads, spec: KernelSpec, includes_constant: bool = False) -> KsdEstimate:
    """U-statistic variant: diagonal terms removed, 1/(K(K-1)) normalised."""
    xs, _, spec, quad, cross, trace = _pair_sums(samples, grads, spec, includes_constant)
    n = xs.shape[0]
    if n < 2:
        raise ValueError("U-statistic needs at least two samples")
    return KsdEstimate((quad + 2.0 * cross + trace) / (n * (n - 1)), "u", includes_constant, spec)


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
