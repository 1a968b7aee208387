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

The kernel-value formulas live here only, in one evaluation that three
routes share, one per job: ``build_matrices`` is a fit's own pass over its
sample, ``pair_blocks`` the discrepancy's, and ``cross_kernel`` serves every
kernel a fitted estimator evaluates, at new points or at its training
sample.

Squared distances come from one routine, ``_sq_distances``, in one of two
forms picked by the dimension d.  Below ``GRAM_MIN_D`` coordinates it sums
the squared coordinate differences in order, scipy's ``sqeuclidean`` bits,
so every value below is the same whatever rows a pass is split into.  From
``GRAM_MIN_D`` it takes the Gram form on the centred rows, whose bits depend
on the product's block shape: there the "bit for bit" claims below read
"agree to rounding".

One distance pass per kernel: a fit's (K, K) kernel matrix is assembled by
``build_matrices`` from one squared-distance pass, and a median-rule spec
(``KernelSpec(RBF, median_scale=s)``) takes its bandwidth from that same
pass, bit for bit ``median_heuristic(sample) * s``.  ``cross_kernel`` of a
sample with itself takes the same pairs path, so it is ``build_matrices``'
kernel bit for bit: a fitted estimator's kernel at its training sample
(``grads_at_train``, ``kinv``) is one ``cross_kernel`` pass.
``pair_blocks`` hands out the same pairs' kernel values, with the same
bits, in row blocks for a sum over pairs that needs no (K, K) matrix, and
sums the RBF trace term as it makes each block's kernel.  Its one distance
pass is made block by block, and under the median rule it is kept for the
bandwidth, about K^2 / 2 doubles.  Its blocks, and the fits' Gram and
Sigma blocks, follow one rule, ``row_blocks``: ``max(1, PAIR_BLOCK // K)``
rows a block, at most ``PAIR_BLOCK`` entries.  ``resolve_bandwidth``
makes a pass of its own, for a caller that needs the bandwidth apart from
the kernel.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBandwidthError

RBF = "rbf"
EPANECHNIKOV = "epanechnikov"
FAMILIES = (RBF, EPANECHNIKOV)

# entries per row block of a pass over a sample's pairs (1 MiB of
# doubles): a block's arrays are a few times this, whatever the sample size
PAIR_BLOCK = 1 << 17
# coordinates from which squared distances take the Gram form
GRAM_MIN_D = 8
# doubles in each temporary of a distance pass (128 KiB)
_TILE = 1 << 14


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


def _sq_distances(a, b, out=None) -> np.ndarray:
    """The dense (m, n) squared distances ||a_i - b_j||^2 of (m, d) and (n, d) rows.

    ``b is a`` means a sample's own pairs.  Below ``GRAM_MIN_D`` coordinates
    the squared differences are summed coordinate by coordinate, in order:
    scipy's ``sqeuclidean`` bits, exactly symmetric with a zero diagonal
    for a sample's pairs, ``inf`` where the sum overflows.  From
    ``GRAM_MIN_D`` the rows are centred on b's mean and each entry is
    (|a_i|^2 + |b_j|^2) - 2 a_i . b_j, the norm sum first, clipped at 0; a
    sample's pairs come from one symmetric product, so they are exactly
    symmetric, and their diagonal is set to 0.  If the squared norms may
    overflow there, the in-order sum is taken instead.  Each temporary
    beside the result and the centred rows is at most ``_TILE`` doubles.
    ``out``, an (m, n) C-contiguous array, takes the result in place of a
    new one, with the same bits.
    """
    pairs = b is a
    m, d = a.shape
    step = max(1, _TILE // b.shape[0])
    if d >= GRAM_MIN_D:
        centre = b.mean(axis=0)
        ac = a - centre
        bc = ac if pairs else b - centre
        na = np.einsum("ij,ij->i", ac, ac)
        nb = na if pairs else np.einsum("ij,ij->i", bc, bc)
        # every entry is at most 4 times the largest squared norm
        if max(na.max(initial=0.0), nb.max(initial=0.0)) <= np.finfo(float).max / 4:
            sq = np.matmul(ac, bc.T, out=out)
            sq *= -2.0
            for lo in range(0, m, step):
                sq[lo:lo + step] += na[lo:lo + step, None] + nb
            np.maximum(sq, 0.0, out=sq)
            if pairs:
                np.fill_diagonal(sq, 0.0)
            return sq
    sq = np.subtract.outer(a[:, 0], b[:, 0], out=out)
    sq *= sq
    for lo in range(0, m, step):
        rows = sq[lo:lo + step]
        for j in range(1, d):
            diff = np.subtract.outer(a[lo:lo + step, j], b[:, j])
            diff *= diff
            rows += diff
    return sq


def _condensed(blocks) -> np.ndarray:
    """The pairs of row blocks of squared distances, one vector.

    Each (b, m) block holds rows against the rows from the block's first
    on; row i gives its entries from column i + 1.  For one square block,
    or for blocks that cover a sample in order, that is every pair once in
    scipy's condensed (``pdist``) order.
    """
    return np.concatenate([row[i + 1:] for sq in blocks for i, row in enumerate(sq)] or [np.empty(0)])


def cross_kernel(points, train, spec: KernelSpec) -> np.ndarray:
    """The (M, K) matrix k(y^m, x^k) of validated (M, d) and (K, d) arrays.

    Every kernel a fitted estimator evaluates, at new points or, with
    ``points is train``, at its training sample: then the distances take
    the sample's pairs path, so the result is ``build_matrices``' kernel
    bit for bit, with a diagonal of exactly 1 for both families.  The
    bandwidth must be resolved.
    """
    return _kernel_of_sq(_sq_distances(points, train), spec, train.shape[1])


def build_matrices(samples, spec: KernelSpec, with_grad_sum: bool = True) -> KernelMatrices:
    """Build k_matrix and grad_sum for one sample set, from one distance pass.

    A fit's own pass.  The grad_sum column j holds sum_k d/d x^k_j
    k(x^i, x^k): the kernel gradient taken in its second argument and
    summed over the sample, the quantity every estimator in this package
    consumes; a fit that needs the kernel alone passes
    ``with_grad_sum=False`` and skips its product.  A median-rule spec
    takes its bandwidth from the same distances (see the module
    docstring); the returned ``spec`` carries it.  The kernel's diagonal
    is exactly 1: a sample's own squared distances have a zero diagonal.
    Nothing of the pass outlives the call.
    """
    xs = as_samples(samples)
    n, d = xs.shape
    sq = _sq_distances(xs, xs)
    if spec.median_scale is not None:
        spec = KernelSpec(RBF, _median_sigma2(_condensed([sq])) * spec.median_scale)
    k_matrix = _kernel_of_sq(sq, spec, d)
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


def row_blocks(n):
    """``(start, stop)`` of the row blocks of a pass over n rows, each row
    against at most n columns: ``max(1, PAIR_BLOCK // n)`` rows a block, so
    a block holds at most ``PAIR_BLOCK`` entries unless one row alone has
    more.  Up to 362 rows are one block.  The one row-block rule of every
    pass over a sample's pairs: ``pair_blocks`` and the fits' Gram and Sigma
    blocks."""
    rows = max(1, PAIR_BLOCK // n)
    for start in range(0, n, rows):
        yield start, min(start + rows, n)


def pair_blocks(xs, spec: KernelSpec, with_trace: bool = False):
    """The kernel over a sample's pairs of distinct points, in row blocks.

    ``xs`` is a validated (K, d) sample.  Returns the spec, its bandwidth
    resolved, and an iterator of blocks ``(start, stop, kern, trace)`` that
    covers every pair once.  ``kern`` is the (b, K - start) kernel of rows
    [start, stop) against rows [start, K), laid out for sums over ordered
    pairs: the block's own pairs stand in both orders, its diagonal is
    zero, and each pair with a later row stands once at twice its value.
    So for f symmetric in (i, j), summing ``kern[i - start, j - start] *
    f(i, j)`` over all blocks gives the sum of k_ij f(i, j) over all
    i != j.  ``trace`` is the sum of cross_hess_trace over the block's
    ordered pairs when ``with_trace`` is set, else None.

    The blocks are ``row_blocks``' (the last row, which has no later row to
    pair with, makes none), so a block's arrays are bounded whatever K is;
    one block covers a sample of up to 362 points, where ``kern`` is the
    kernel matrix with a zero diagonal.  The distances are one pass, one
    ``_sq_distances`` call per block, of its rows against the rows from its
    first on: ``build_matrices``' bits, pair by pair.  Under the median rule
    that pass is made here, before the first block, and kept for the
    bandwidth and then for the blocks; a sample the rule refuses is refused
    by this call, not by the iterator.
    """
    n = xs.shape[0]
    dists = (
        (start, stop, _sq_distances(xs[start:stop], xs[start:]))
        for start, stop in row_blocks(n)
        if start < n - 1
    )
    if spec.median_scale is not None:
        held = list(dists)
        flat = _condensed(sq for _, _, sq in held)  # every pair once
        spec = KernelSpec(RBF, _median_sigma2(flat) * spec.median_scale)
        # handed out in order and dropped from the list as they go, so
        # each block's distances are freed once its kernel is made
        held.reverse()
        dists = (held.pop() for _ in range(len(held)))
    return spec, _kernel_blocks(xs.shape[1], spec, dists, with_trace)


def _kernel_blocks(d, spec, dists, with_trace):
    """``pair_blocks``' blocks, from their squared distances, each kernel
    made in its distances' buffer.  The RBF trace is summed as the kernel
    is made, a row chunk of at most ``_TILE`` entries at a time: each
    entry's cross_hess_trace, zeroed at the block's diagonal, the block's
    own pairs added once and its later pairs twice, by numpy's own sums,
    not a BLAS dot, so no thread pool enters."""
    rbf_trace = with_trace and spec.family == RBF
    for start, stop, sq in dists:
        b = stop - start
        trace = None
        if rbf_trace:
            trace = 0.0
            step = max(1, _TILE // sq.shape[1])
            for lo in range(0, b, step):
                chunk = sq[lo:lo + step]
                # d / s2 - sq / s2^2, cross_hess_trace over the kernel value
                terms = np.divide(chunk, spec.sigma2**2)
                np.subtract(d / spec.sigma2, terms, out=terms)
                terms *= _kernel_of_sq(chunk, spec, d)
                np.fill_diagonal(terms[:, lo:], 0.0)
                trace += float(terms[:, :b].sum()) + 2.0 * float(terms[:, b:].sum())
            del chunk, terms
        else:
            _kernel_of_sq(sq, spec, d)
            if with_trace:  # 2 at every ordered pair
                trace = 2.0 * (b * (b - 1) + 2 * (sq.size - b * b))
        np.fill_diagonal(sq, 0.0)
        sq[:, b:] *= 2.0
        yield start, stop, sq, trace
        del sq  # before the next block's distances are made


def _median_sigma2(sq: np.ndarray) -> float:
    """(median pairwise distance)^2 from condensed squared distances ``sq``.

    ``sq`` is partitioned in its own buffer.  For an even pair count the
    median is the mean of the two central order statistics, their sum
    halved, as ``np.median`` takes it.  The square root is monotone, so the
    order statistics' roots are the distances' own order statistics: below
    ``GRAM_MIN_D``, where the squared distances are scipy's, the result is
    bit for bit ``m * m`` for ``m = float(np.median(pdist(x)))``.
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


def _median_tile_rows(n: int) -> int:
    """Rows t of a square tile of ``median_heuristic``'s pass over n points.

    Tiles off the diagonal are written in place, so a pass holds a diagonal
    tile, its upper triangle and the distance form's own temporaries: the
    in-order sum's row blocks of at most a tile, or the Gram form's centred
    copies of the tile rows, 2 t d doubles.  So a tile stays at a 64th of
    the condensed vector, at every d, and at least 40 rows.
    """
    return max(40, math.isqrt(n * (n - 1) // 2 // 64))


def median_heuristic(samples) -> float:
    """Median-heuristic squared bandwidth: (median pairwise distance)^2.

    All K(K-1)/2 distinct unordered pairs enter; for an even pair count the
    median is the mean of the two central order statistics.  Needs K >= 2.
    One condensed vector of squared distances is held and partitioned in
    place (see ``_median_sigma2``).  It is filled from square tiles of the
    distance matrix, of ``_median_tile_rows`` rows at every d: a diagonal
    tile gives its upper triangle, and each tile right of it is written
    straight into the vector.  The pairs' order is not pdist's, which the
    median ignores.
    """
    xs = as_samples(samples)
    n = len(xs)
    sq = np.empty(n * (n - 1) // 2)
    t = _median_tile_rows(n)
    above = ~np.tri(t, dtype=bool)
    pos = 0
    for r0 in range(0, n, t):
        rows = xs[r0:r0 + t]
        m = len(rows)
        part = _sq_distances(rows, rows)[above[:m, :m]]
        sq[pos:pos + part.size] = part
        pos += part.size
        for c0 in range(r0 + t, n, t):
            cols = xs[c0:c0 + t]
            size = m * len(cols)
            _sq_distances(rows, cols, out=sq[pos:pos + size].reshape(m, len(cols)))
            pos += size
    return _median_sigma2(sq)


def resolve_bandwidth(samples, spec: KernelSpec) -> KernelSpec:
    """``spec`` with its median rule, if it carries one, taken on ``samples``.

    A spec that carries its bandwidth comes back as it is, with no pass; a
    caller that also needs the sample's kernel matrix leaves the rule to
    ``build_matrices``, which takes it from the kernel's own pass.
    """
    if spec.median_scale is None:
        return spec
    return KernelSpec(RBF, median_heuristic(samples) * spec.median_scale)
