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

The kernel-value formulas live here only: ``build_matrices`` and
``pair_blocks`` (sample pairs) and ``cross_kernel`` (new points against the
sample) share one evaluation.

One distance pass per sample: every (K, K) kernel matrix over a sample's own
pairs is assembled by ``build_matrices`` from one condensed squared-distance
pass, and a median-rule spec (``KernelSpec(RBF, median_scale=s)``) takes its
bandwidth from that same pass, bit for bit ``median_heuristic(sample) * s``.
``pair_blocks`` hands out the same pairs' kernel values, with the same
bits, in row blocks of at most ``PAIR_BLOCK`` pairs, for a sum over pairs
that needs no (K, K) matrix; its one distance pass is made block by block,
and under the median rule it is kept for the bandwidth, K (K - 1) / 2
doubles.  ``resolve_bandwidth`` makes a pass of its own, for a caller that
needs the bandwidth apart from the kernel.  ``cross_kernel`` serves new
points only.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import DegenerateBandwidthError

RBF = "rbf"
EPANECHNIKOV = "epanechnikov"
FAMILIES = (RBF, EPANECHNIKOV)

# unordered sample pairs per row block of ``pair_blocks`` (1 MiB of
# doubles): a block's arrays are a few times this, whatever the sample size
PAIR_BLOCK = 1 << 17


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


def check_number(value, name: str, *, gt=None, ge=None, integer: bool = False):
    """``value`` itself, once it passes as a finite real number in range.

    Refused, in this order: a bool (``np.bool_`` too), a string or any
    other non-number, and a non-integer when ``integer`` is set; then a
    value not ``> gt`` or not ``>= ge``, where that bound is given, NaN and
    the infinities included; then, with no bound, a value that is not
    finite.  The ValueError names the field ``name``.  Nothing is
    converted: a caller that stores the value as a float converts it.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kind):
        what = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    try:
        finite = integer or math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if gt is not None and not (finite and value > gt):
        raise ValueError(f"{name} must be > {gt}, got {value!r}")
    if ge is not None and not (finite and value >= ge):
        raise ValueError(f"{name} must be >= {ge}, got {value!r}")
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def call_score(score_fn, x: np.ndarray) -> np.ndarray:
    """``score_fn`` on the (n, d) points ``x``, held to the (n, d) -> (n, d) contract."""
    g = np.asarray(score_fn(x), dtype=float)
    if g.shape != x.shape:
        raise ValueError(
            f"score_fn returned shape {g.shape} for points of shape {x.shape}"
        )
    return g


def _as_point(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _as_pair(x, y):
    """The points ``x`` and ``y`` of a single-pair function, of one dimension."""
    x, y = _as_point(x, "x"), _as_point(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"point dimensions differ: {x.shape} vs {y.shape}")
    return x, y


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its bandwidth.

    ``sigma2`` is the squared bandwidth of the RBF family and must be a
    positive real number there.  An RBF spec may instead carry the median
    rule, ``median_scale`` > 0 with ``sigma2`` left None: its bandwidth is
    ``median_heuristic(sample) * median_scale`` of the sample it is used
    on, which ``build_matrices`` and ``resolve_bandwidth`` return set.
    Either passes ``check_number`` and is stored as a float.  The
    Epanechnikov family carries no bandwidth, so both must be left as None.
    """

    family: str
    sigma2: float | None = None
    median_scale: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family == EPANECHNIKOV:
            if self.sigma2 is not None or self.median_scale is not None:
                raise ValueError("epanechnikov kernel carries no bandwidth")
        else:
            if self.sigma2 is not None and self.median_scale is not None:
                raise ValueError("rbf kernel takes sigma2 or median_scale, not both")
            name = "sigma2" if self.median_scale is None else "median_scale"
            object.__setattr__(self, name, float(check_number(getattr(self, name), name, gt=0)))


def _sigma2(spec: KernelSpec) -> float:
    """The RBF bandwidth of ``spec``, which must not still be the median rule."""
    if spec.median_scale is not None:
        raise ValueError(
            "kernel spec carries the median rule, not a bandwidth; take it from "
            "a sample with resolve_bandwidth"
        )
    return spec.sigma2


@dataclass(frozen=True)
class KernelMatrices:
    """Matrices built from one sample set: kernel and summed gradient.

    ``spec`` is the kernel they were built with, its bandwidth resolved.
    ``grad_sum`` is None when it was not asked for.
    """

    k_matrix: np.ndarray  # (K, K), symmetric, unit diagonal
    grad_sum: np.ndarray | None  # (K, d), <nabla, K>
    spec: KernelSpec


def kernel_eval(x, y, spec: KernelSpec) -> float:
    """Evaluate k(x, y) for a single pair of points."""
    x, y = _as_pair(x, y)
    diff = x - y
    sq = float(diff @ diff)
    if spec.family == RBF:
        return float(np.exp(-0.5 * sq / _sigma2(spec)))
    return 1.0 - sq / x.size


def kernel_grad_first_arg(x, y, spec: KernelSpec) -> np.ndarray:
    """Gradient of k(., y) at x, i.e. the derivative in the first argument.

    rbf:           -k(x, y) * (x - y) / sigma2
    epanechnikov:  -(2/d) * (x - y)

    Both families are symmetric and even in the displacement, so this also
    equals the second-argument gradient with the roles of x and y swapped.
    """
    x, y = _as_pair(x, y)
    diff = x - y
    if spec.family == RBF:
        s2 = _sigma2(spec)
        return -np.exp(-0.5 * float(diff @ diff) / s2) * diff / s2
    return -2.0 * diff / x.size


def cross_hess_trace(x, y, spec: KernelSpec) -> float:
    """Trace of the mixed second derivative d^2 k / dx dy at one pair.

    rbf:           k(x, y) * (d / sigma2 - ||x - y||^2 / sigma2^2)
    epanechnikov:  2
    """
    x, y = _as_pair(x, y)
    if spec.family == RBF:
        diff = x - y
        sq = float(diff @ diff)
        s2 = _sigma2(spec)
        return float(np.exp(-0.5 * sq / s2)) * (x.size / s2 - sq / s2**2)
    return 2.0


def _kernel_of_sq(sq, spec: KernelSpec, d: int) -> np.ndarray:
    """exp(-0.5 * sq / sigma2) or 1 - sq / d, bit for bit, in ``sq``'s buffer."""
    if spec.family == RBF:
        np.multiply(sq, -0.5, out=sq)
        np.divide(sq, _sigma2(spec), out=sq)
        return np.exp(sq, out=sq)
    np.divide(sq, d, out=sq)
    return np.subtract(1.0, sq, out=sq)


def cross_kernel(points, train, spec: KernelSpec) -> np.ndarray:
    """The (M, K) matrix k(y^m, x^k) of validated (M, d) and (K, d) arrays.

    For new points against a sample; the kernel over a sample's own pairs is
    ``build_matrices``', from half the distance work and with the same bits.
    """
    sq = cdist(points, train, "sqeuclidean")
    return _kernel_of_sq(sq, spec, train.shape[1])


def build_matrices(samples, spec: KernelSpec, with_grad_sum: bool = True) -> KernelMatrices:
    """Build k_matrix and grad_sum for one sample set, from one distance pass.

    The grad_sum column j holds sum_k d/d x^k_j k(x^i, x^k): the kernel
    gradient taken in its second argument and summed over the sample, the
    quantity every estimator in this package consumes; a caller that needs
    the kernel alone passes ``with_grad_sum=False`` and skips its product.
    A median-rule spec takes its bandwidth from the same distances (see the
    module docstring); the returned ``spec`` carries it.  Nothing of the
    pass outlives the call.
    """
    xs = as_samples(samples)
    n, d = xs.shape
    # pdist computes each unordered pair once; the kernel is evaluated on
    # that condensed vector and squareform mirrors it, so the matrix is
    # exactly symmetric, with no (K, K, d) difference tensor and no (K, K)
    # distance matrix
    sq = pdist(xs, "sqeuclidean")
    if spec.median_scale is not None:
        # the order statistics from a copy: sq keeps its pair order
        spec = KernelSpec(RBF, _median_sigma2(sq.copy()) * spec.median_scale)
    kern = _kernel_of_sq(sq, spec, d)
    del sq
    k_matrix = squareform(kern, checks=False)
    del kern
    # k(x, x) = 1 for both families
    np.fill_diagonal(k_matrix, 1.0)
    grad_sum = None
    if with_grad_sum:
        # grad_sum depends only on differences x^i - x^k; centring keeps its
        # cancellation at their scale, not at the scale of the coordinates
        xs = xs - xs.mean(axis=0)
        if spec.family == RBF:
            # sum_k K_ik (x^i - x^k) / sigma2, written with row sums to avoid
            # materialising the (K, K, d) difference tensor
            grad_sum = (k_matrix.sum(axis=1)[:, None] * xs - k_matrix @ xs) / spec.sigma2
        else:
            grad_sum = (2.0 / d) * (n * xs - xs.sum(axis=0)[None, :])
    return KernelMatrices(k_matrix=k_matrix, grad_sum=grad_sum, spec=spec)


def pair_blocks(samples, spec: KernelSpec, with_trace: bool = False):
    """The kernel over a sample's pairs of distinct points, in row blocks.

    Returns the spec, its bandwidth resolved, and an iterator of blocks
    ``(start, stop, kern, trace)`` that covers every pair once.  ``kern`` is
    the (b, K - start) kernel of rows [start, stop) against rows [start, K),
    laid out for sums over ordered pairs: the block's own pairs stand in
    both orders, its diagonal is zero, and each pair with a later row stands
    once at twice its value.  So for f symmetric in (i, j), summing
    ``kern[i - start, j - start] * f(i, j)`` over all blocks gives the sum
    of k_ij f(i, j) over all i != j.  ``trace`` is the sum of
    cross_hess_trace over the block's ordered pairs when ``with_trace`` is
    set, else None.

    A block holds at most ``PAIR_BLOCK`` pairs unless one row alone has
    more, so its arrays are bounded whatever K is; one block covers a
    sample of up to 512 points, where ``kern`` is the mirrored kernel
    matrix with a zero diagonal.  The distances are one pass, ``pdist`` among a block's rows
    and ``cdist`` against the later ones: ``build_matrices``' bits, pair by
    pair.  Under the median rule that pass is made here, before the first
    block, and kept, K (K - 1) / 2 doubles, for the bandwidth and then for
    the blocks; a sample the rule refuses is refused by this call, not by
    the iterator.
    """
    xs = as_samples(samples)
    dists = _distance_blocks(xs)
    if spec.median_scale is not None:
        held = list(dists)
        # every pair once, in block order: the values of one pdist pass,
        # so the same order statistics; the copy is partitioned
        parts = [a.ravel() for _, _, tri, rect in held for a in (tri, rect)]
        flat = np.concatenate(parts) if parts else np.empty(0)
        del parts
        spec = KernelSpec(RBF, _median_sigma2(flat) * spec.median_scale)
        del flat
        # handed out in order and dropped from the list as they go, so
        # each block's distances are freed once its kernel is made
        held.reverse()
        dists = (held.pop() for _ in range(len(held)))
    return spec, _kernel_blocks(xs.shape[1], spec, dists, with_trace)


def _distance_blocks(xs):
    """(start, stop, tri, rect): the condensed squared distances among rows
    [start, stop) and the dense ones from them to every later row."""
    n = xs.shape[0]
    start = 0
    while start < n - 1:  # the last row has no later row to pair with
        stop = _block_stop(start, n)
        rows = xs[start:stop]
        later = cdist(rows, xs[stop:], "sqeuclidean") if stop < n else np.empty((stop - start, 0))
        yield start, stop, pdist(rows, "sqeuclidean"), later
        start = stop


def _kernel_blocks(d, spec, dists, with_trace):
    """``pair_blocks``' blocks, from their squared distances."""
    for start, stop, tri, rect in dists:
        b = stop - start
        traces = [_kernel_and_trace(sq, spec, d, with_trace) for sq in (tri, rect)]
        # each pair stands for its two orders
        trace = 2.0 * sum(traces) if with_trace else None
        square = squareform(tri, checks=False)
        del tri
        if rect.shape[1]:
            kern = np.empty((b, b + rect.shape[1]))
            kern[:, :b] = square
            np.multiply(rect, 2.0, out=kern[:, b:])
        else:
            kern = square
        del square, rect
        yield start, stop, kern, trace


def _kernel_and_trace(sq, spec, d, with_trace):
    """The kernel at the squared distances ``sq``, in their buffer, and,
    with ``with_trace``, the sum of cross_hess_trace over those pairs."""
    if not with_trace or spec.family != RBF:
        _kernel_of_sq(sq, spec, d)
        return 2.0 * sq.size if with_trace else None  # 2 at every pair
    # k (d / s2 - sq / s2^2), the factor taken before the kernel overwrites
    # sq and summed by numpy, not a BLAS dot, so no thread pool enters
    s2 = spec.sigma2
    factor = np.divide(sq, s2**2)
    np.subtract(d / s2, factor, out=factor)
    _kernel_of_sq(sq, spec, d)
    return float(np.multiply(factor, sq, out=factor).sum())


def _block_stop(start, n):
    """End of the row block from ``start``: the most rows, at least one,
    whose pairs with each other and with every later row are at most
    ``PAIR_BLOCK``."""
    m = n - start
    if m * (m - 1) // 2 <= PAIR_BLOCK:
        return n
    # rows [start, start + b) hold b (2 m - b - 1) / 2 pairs, at most
    # PAIR_BLOCK for b up to the smaller root of that quadratic; with the
    # discriminant's square root rounded up, isqrt(D - 1) + 1, in integers,
    # b never passes the root
    b = (2 * m - 2 - math.isqrt((2 * m - 1) ** 2 - 8 * PAIR_BLOCK - 1)) // 2
    return start + max(b, 1)


def _median_sigma2(sq: np.ndarray) -> float:
    """(median pairwise distance)^2 from condensed squared distances ``sq``.

    ``sq`` is partitioned in its own buffer.  For an even pair count the
    median is the mean of the two central order statistics, their sum
    halved, as ``np.median`` takes it.  The square root is monotone and
    ``sqrt(pdist(x, "sqeuclidean"))`` is bit for bit ``pdist(x)``, so the
    order statistics' roots are the distances' own order statistics: the
    result is bit for bit ``m * m`` for ``m = float(np.median(pdist(x)))``.
    """
    if sq.size == 0:
        raise ValueError("median heuristic needs at least two samples")
    k = sq.size // 2
    sq.partition(k)
    if sq.size % 2:
        med = float(np.sqrt(sq[k]))
    else:
        med = float((np.sqrt(sq[:k].max()) + np.sqrt(sq[k])) / 2)
    if med == 0.0:
        raise DegenerateBandwidthError(
            "median pairwise distance is zero (too many identical samples); "
            "supply an explicit bandwidth"
        )
    return med * med


def median_heuristic(samples) -> float:
    """Median-heuristic squared bandwidth: (median pairwise distance)^2.

    All K(K-1)/2 distinct unordered pairs enter; for an even pair count the
    median is the mean of the two central order statistics.  Needs K >= 2.
    One condensed vector of squared distances is held and partitioned in
    place (see ``_median_sigma2``).
    """
    return _median_sigma2(pdist(as_samples(samples), "sqeuclidean"))


def resolve_bandwidth(samples, spec: KernelSpec) -> KernelSpec:
    """``spec`` with its median rule, if it carries one, taken on ``samples``.

    A spec that carries its bandwidth comes back as it is, with no pass; a
    caller that also needs the sample's kernel matrix leaves the rule to
    ``build_matrices``, which takes it from the kernel's own pass.
    """
    if spec.median_scale is None:
        return spec
    return KernelSpec(RBF, median_heuristic(samples) * spec.median_scale)
