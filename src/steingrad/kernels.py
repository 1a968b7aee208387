"""Kernel families, their derivatives, and the matrices built from samples.

Two translation-invariant families are supported:

    rbf            k(x, y) = exp(-||x - y||^2 / (2 * sigma2))
    epanechnikov   k(x, y) = (1/d) * sum_j (1 - (x_j - y_j)^2)

Both satisfy k(x, x) = 1.  The RBF matrix is positive semi-definite; the
Epanechnikov kernel goes negative beyond ||x - y||^2 = d, which downstream
code has to tolerate or guard against: the KDE score divides by kernel row
sums and refuses any that is <= 0, which a sample spread beyond about one
unit per coordinate gives.

Conventions used throughout the package:

    K[i, j]     = k(x^i, x^j)                      "k_matrix"
    <grad, K>   [i, j] = sum_k d/d x^k_j k(x^i, x^k)   "grad_sum"
                (derivative in the *second* kernel argument, summed over
                 training points)

``grad_sum`` is the K x d matrix written <nabla, K> in the score-estimation
literature; for translation-invariant kernels it equals minus the sum of
first-argument gradients.

The kernel-value formulas live here only: ``build_matrices`` (sample pairs)
and ``cross_kernel`` (new points against the sample) share one evaluation.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import DegenerateBandwidthError

RBF = "rbf"
EPANECHNIKOV = "epanechnikov"
FAMILIES = (RBF, EPANECHNIKOV)


def as_samples(x, name: str = "samples") -> np.ndarray:
    """Validate a sample matrix: 2-D, at least 1 x 1, all entries finite."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D (K, d) array, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def call_score(score_fn, x: np.ndarray) -> np.ndarray:
    """``score_fn`` on the (n, d) points ``x``, held to the (n, d) -> (n, d) contract."""
    g = np.asarray(score_fn(x), dtype=float)
    if g.shape != x.shape:
        raise ValueError(
            f"score_fn returned shape {g.shape} for points of shape {x.shape}"
        )
    return g


def _as_point(x, name: str = "point") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its bandwidth.

    ``sigma2`` is the squared bandwidth of the RBF family and must be a
    positive finite float there; the Epanechnikov family carries no
    bandwidth, so ``sigma2`` must be left as None.
    """

    family: str
    sigma2: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family == RBF:
            if self.sigma2 is None or not np.isfinite(self.sigma2) or self.sigma2 <= 0:
                raise ValueError(f"rbf kernel needs sigma2 > 0, got {self.sigma2!r}")
            object.__setattr__(self, "sigma2", float(self.sigma2))
        elif self.sigma2 is not None:
            raise ValueError("epanechnikov kernel carries no bandwidth")


@dataclass(frozen=True)
class KernelMatrices:
    """Matrices built from one sample set: kernel and summed gradient.

    ``trace`` is the sum of cross_hess_trace over all ordered pairs (i, j),
    the diagonal included, filled only when requested.
    """

    k_matrix: np.ndarray  # (K, K), symmetric, unit diagonal
    grad_sum: np.ndarray  # (K, d), <nabla, K>
    trace: float | None = None  # sum_ij cross_hess_trace(x^i, x^j)


def kernel_eval(x, y, spec: KernelSpec) -> float:
    """Evaluate k(x, y) for a single pair of points."""
    x = _as_point(x, "x")
    y = _as_point(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"point dimensions differ: {x.shape} vs {y.shape}")
    diff = x - y
    sq = float(diff @ diff)
    if spec.family == RBF:
        return float(np.exp(-0.5 * sq / spec.sigma2))
    return 1.0 - sq / x.size


def kernel_grad_first_arg(x, y, spec: KernelSpec) -> np.ndarray:
    """Gradient of k(., y) at x, i.e. the derivative in the first argument.

    rbf:           -k(x, y) * (x - y) / sigma2
    epanechnikov:  -(2/d) * (x - y)

    Both families are symmetric and even in the displacement, so this also
    equals the second-argument gradient with the roles of x and y swapped.
    """
    x = _as_point(x, "x")
    y = _as_point(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"point dimensions differ: {x.shape} vs {y.shape}")
    diff = x - y
    if spec.family == RBF:
        return -np.exp(-0.5 * float(diff @ diff) / spec.sigma2) * diff / spec.sigma2
    return -2.0 * diff / x.size


def cross_hess_trace(x, y, spec: KernelSpec) -> float:
    """Trace of the mixed second derivative d^2 k / dx dy at one pair.

    rbf:           k(x, y) * (d / sigma2 - ||x - y||^2 / sigma2^2)
    epanechnikov:  2
    """
    x = _as_point(x, "x")
    y = _as_point(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"point dimensions differ: {x.shape} vs {y.shape}")
    if spec.family == RBF:
        diff = x - y
        sq = float(diff @ diff)
        s2 = spec.sigma2
        return float(np.exp(-0.5 * sq / s2)) * (x.size / s2 - sq / s2**2)
    return 2.0


def _kernel_of_sq(sq, spec: KernelSpec, d: int) -> np.ndarray:
    """exp(-0.5 * sq / sigma2) or 1 - sq / d, bit for bit, in ``sq``'s buffer."""
    if spec.family == RBF:
        np.multiply(sq, -0.5, out=sq)
        np.divide(sq, spec.sigma2, out=sq)
        return np.exp(sq, out=sq)
    np.divide(sq, d, out=sq)
    return np.subtract(1.0, sq, out=sq)


def cross_kernel(points, train, spec: KernelSpec) -> np.ndarray:
    """The (M, K) matrix k(y^m, x^k) of validated (M, d) and (K, d) arrays."""
    sq = cdist(points, train, "sqeuclidean")
    return _kernel_of_sq(sq, spec, train.shape[1])


def build_matrices(samples, spec: KernelSpec, with_trace: bool = False) -> KernelMatrices:
    """Build k_matrix and grad_sum for one sample set.

    The grad_sum column j holds sum_k d/d x^k_j k(x^i, x^k): the kernel
    gradient taken in its second argument and summed over the sample, the
    quantity every estimator in this package consumes.  With ``with_trace``
    the sum of cross_hess_trace over all pairs is taken from the same
    squared distances, so a discrepancy makes one distance pass instead of
    two and never holds the pairwise trace as a matrix.
    """
    xs = as_samples(samples)
    n, d = xs.shape
    # pdist computes each unordered pair once; the kernel is evaluated on
    # that condensed vector and squareform mirrors it, so the matrix is
    # exactly symmetric, with no (K, K, d) difference tensor and no (K, K)
    # distance matrix
    sq = pdist(xs, "sqeuclidean")
    trace = None
    if with_trace and spec.family == RBF:
        # k (d / s2 - sq / s2^2) per pair, twice for i != j, plus d / s2 on
        # the diagonal, where k = 1 and sq = 0; the factor is taken before
        # the kernel overwrites sq
        s2 = spec.sigma2
        factor = np.divide(sq, s2**2)
        np.subtract(d / s2, factor, out=factor)
    kern = _kernel_of_sq(sq, spec, d)
    del sq
    if with_trace:
        if spec.family == RBF:
            trace = 2.0 * float(kern @ factor) + n * (d / s2)
            del factor
        else:
            trace = 2.0 * n * n  # 2 at every pair
    k_matrix = squareform(kern, checks=False)
    del kern
    # k(x, x) = 1 for both families
    np.fill_diagonal(k_matrix, 1.0)
    # grad_sum depends only on differences x^i - x^k; centring keeps its
    # cancellation at their scale, not at the scale of the coordinates
    xs = xs - xs.mean(axis=0)
    if spec.family == RBF:
        # sum_k K_ik (x^i - x^k) / sigma2, written with row sums to avoid
        # materialising the (K, K, d) difference tensor
        grad_sum = (k_matrix.sum(axis=1)[:, None] * xs - k_matrix @ xs) / spec.sigma2
    else:
        grad_sum = (2.0 / d) * (n * xs - xs.sum(axis=0)[None, :])
    return KernelMatrices(k_matrix=k_matrix, grad_sum=grad_sum, trace=trace)


def median_heuristic(samples) -> float:
    """Median-heuristic squared bandwidth: (median pairwise distance)^2.

    All K(K-1)/2 distinct unordered pairs enter; for an even pair count the
    median is the mean of the two central order statistics.  Needs K >= 2.
    The distances are partitioned in their own buffer, so the call holds one
    condensed vector of them, not ``np.median``'s copy as well; it takes the
    same order statistics and halves their sum as ``np.median`` does, so the
    bandwidth is bit for bit the square of ``np.median(pdist(samples))``.
    """
    xs = as_samples(samples)
    if xs.shape[0] < 2:
        raise ValueError("median heuristic needs at least two samples")
    dist = pdist(xs)
    k = dist.size // 2
    dist.partition(k)
    if dist.size % 2:
        med = float(dist[k])
    else:
        # np.median's mean of the pair: their sum halved
        med = float((dist[:k].max() + dist[k]) / 2)
    if med == 0.0:
        raise DegenerateBandwidthError(
            "median pairwise distance is zero (too many identical samples); "
            "supply an explicit bandwidth"
        )
    return med * med
