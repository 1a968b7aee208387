"""Traced peak memory of the kernel layer and the fits stays O(K^2).

Each call below holds a handful of (K, K) matrices at once, never a
(K, K, d) difference tensor; at d = 50 such a tensor alone would be 50 K^2
doubles.  tracemalloc sees numpy's allocations in this process only.
"""

import os
import tracemalloc

import numpy as np
import pytest

from steingrad import KernelSpec, build_matrices, fit_estimator, ksd_v, median_heuristic
from steingrad.cli import main
from steingrad.estimators import (
    KIND_SCORE,
    KIND_STEIN_PARAM_U,
    KIND_STEIN_PARAM_V,
    KIND_STEIN_V,
)

K, D = 400, 50
MAX_KK_DOUBLES = 6.0

XS = np.random.default_rng(0).standard_normal((K, D))
SPEC = KernelSpec("rbf", median_heuristic(XS))
# the median rule, resolved by the fit from its own distance pass
MEDIAN = KernelSpec("rbf", median_scale=1.0)
# d = 1 takes the per-coordinate score-matching Sigma, d = 50 the closed form
XS1 = np.random.default_rng(1).standard_normal((K, 1))
SPEC1 = KernelSpec("rbf", median_heuristic(XS1))

CALLS = {
    "build_matrices": lambda: build_matrices(XS, SPEC),
    "ksd_v": lambda: ksd_v(XS, -XS, SPEC, includes_constant=True),
    "stein-v fit": lambda: fit_estimator(KIND_STEIN_V, XS, SPEC),
    "stein-v fit median": lambda: fit_estimator(KIND_STEIN_V, XS, MEDIAN),
    "ksd_v median": lambda: ksd_v(XS, -XS, MEDIAN, includes_constant=True),
    "stein-v kinv": lambda: fit_estimator(KIND_STEIN_V, XS, SPEC).kinv,
    "score-rbf fit": lambda: fit_estimator(KIND_SCORE, XS, SPEC),
    "score-rbf fit d=1": lambda: fit_estimator(KIND_SCORE, XS1, SPEC1),
    "score-rbf fit median": lambda: fit_estimator(KIND_SCORE, XS, MEDIAN),
    "score-rbf fit d=1 median": lambda: fit_estimator(KIND_SCORE, XS1, MEDIAN),
    "stein-param-v fit": lambda: fit_estimator(KIND_STEIN_PARAM_V, XS, SPEC),
    "stein-param-v fit median": lambda: fit_estimator(KIND_STEIN_PARAM_V, XS, MEDIAN),
    # n = K, d = 1: three fits in turn, each dropped before the next
    "entropy-check": lambda: main([
        "entropy-check", "--seed", "0", "--n", str(K),
        "--estimators", "kde,stein-v,score", "--output", os.devnull,
    ]),
}
# fitted outside the traced call, which is grads_at_train alone
FITS = {kind: fit_estimator(kind, XS, SPEC) for kind in (KIND_SCORE, KIND_STEIN_PARAM_V)}
for _kind, _fit in FITS.items():
    CALLS[f"{_kind} grads_at_train"] = _fit.grads_at_train

# tighter bounds, in K^2 doubles, a little above the peaks measured when
# they were set (ksd_v 1.62, and 1.64 summed in row blocks, at K = 400 one
# block: the condensed kernel, then its mirrored matrix; score-rbf at
# d = 1 3.01: K, one D_i buffer, Sigma and one product; stein-v fit 2.25:
# the system, the Cholesky factor, released when the solve returns, and the
# residual check, which subtracts rhs in place (2.39 while the fit held
# its factor through that check).  stein-v kinv, fit included, 3.26: the
# kernel rebuilt as the fit's system, np.linalg.inv's result and the
# check's product (numpy's linalg module mallocs inv's two working copies,
# which tracemalloc does not see; 4.38 and then 3.26 when kinv was a
# cho_solve of a held factor).  entropy-check peaks in its score fit
# (3.07).  A median-rule fit or discrepancy keeps the same bound: holding
# the condensed distances through the fit would add 0.5 (median-rule
# score 3.01 at d = 1 and 4.14 at d = 50, stein-param-v 5.14, each as with
# the bandwidth given; 4.19 and 5.13 when the fits held the whole Gram
# matrix, whose 327-row blocks at K = 400 are 0.82 K^2).  The expansion
# kinds' grads_at_train measured 1.50, the condensed kernel and its
# mirrored matrix, with the weights formed in place (2.05 when the kernel
# came from cross_kernel and the weights were new arrays).
TIGHT = {
    "ksd_v": 1.75,
    "ksd_v median": 1.75,
    "score-rbf fit d=1": 3.25,
    "score-rbf fit d=1 median": 3.25,
    "stein-v fit": 2.35,
    "stein-v fit median": 2.35,
    "stein-v kinv": 3.5,
    "entropy-check": 3.25,
    f"{KIND_SCORE} grads_at_train": 1.6,
    f"{KIND_STEIN_PARAM_V} grads_at_train": 1.6,
}


def traced_peak(call):
    """Peak bytes numpy allocated in this process during ``call()``."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("name", sorted(CALLS))
def test_peak_memory_is_a_few_kernel_matrices(name):
    assert traced_peak(CALLS[name]) / (8 * K * K) <= TIGHT.get(name, MAX_KK_DOUBLES)


# at K = 1200, d = 50 the Gram matrix's row blocks of at most
# kernels.PAIR_BLOCK entries are 109 rows, a small part of one K^2 array;
# measured 3.23 for score's closed-form Sigma (K, its buffer and B) and
# 4.23 for both parametric systems (K, K K and two more), against 4.05 and
# 5.04 when each held the whole Gram matrix.  K = 400 cannot show this:
# a block there is 327 rows, 0.82 K^2 (see above).
LARGE_K = 1200
XS_LARGE = np.random.default_rng(3).standard_normal((LARGE_K, D))
LARGE_FITS = {KIND_SCORE: 3.35, KIND_STEIN_PARAM_V: 4.35, KIND_STEIN_PARAM_U: 4.35}


@pytest.mark.parametrize("kind", sorted(LARGE_FITS))
def test_expansion_fit_holds_no_gram_matrix(kind):
    peak = traced_peak(lambda: fit_estimator(kind, XS_LARGE, MEDIAN))
    assert peak / (8 * LARGE_K * LARGE_K) <= LARGE_FITS[kind]


def test_ksd_holds_no_pairwise_matrix():
    # under a given bandwidth the discrepancy sums row blocks of about
    # kernels.PAIR_BLOCK pairs, so at n = 2000 its peak is a small part of
    # one n^2 matrix (measured 0.13; the whole matrix, as the kernel layer
    # once mirrored it, was 1.5)
    n = 2000
    xs = np.random.default_rng(2).standard_normal((n, 2))
    spec = KernelSpec("rbf", 1.0)
    peak = traced_peak(lambda: ksd_v(xs, -xs, spec, includes_constant=True))
    assert peak / (8 * n * n) <= 0.25


def test_median_heuristic_holds_one_condensed_vector():
    # the K(K-1)/2 pairwise distances, partitioned in place: no second copy
    # of them for the median (measured 1.005 vectors; np.median's copy gave 2.006)
    assert traced_peak(lambda: median_heuristic(XS)) / (8 * K * (K - 1) / 2) <= 1.25
