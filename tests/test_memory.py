"""Traced peak memory of the kernel layer and the fits stays O(K^2).

Each call below holds a handful of (K, K) matrices at once, never a
(K, K, d) difference tensor; at d = 50 such a tensor alone would be 50 K^2
doubles.  tracemalloc sees numpy's allocations in this process only.
"""

import tracemalloc

import numpy as np
import pytest

from steingrad import KernelSpec, build_matrices, fit_estimator, ksd_v, median_heuristic
from steingrad.estimators import KIND_SCORE, KIND_STEIN_PARAM_V, KIND_STEIN_V

K, D = 400, 50
MAX_KK_DOUBLES = 6.0

XS = np.random.default_rng(0).standard_normal((K, D))
SPEC = KernelSpec("rbf", median_heuristic(XS))
# d = 1 takes the per-coordinate score-matching Sigma, d = 50 the closed form
XS1 = np.random.default_rng(1).standard_normal((K, 1))
SPEC1 = KernelSpec("rbf", median_heuristic(XS1))

CALLS = {
    "build_matrices": lambda: build_matrices(XS, SPEC),
    "build_matrices with_trace": lambda: build_matrices(XS, SPEC, with_trace=True),
    "ksd_v": lambda: ksd_v(XS, -XS, SPEC, includes_constant=True),
    "stein-v fit": lambda: fit_estimator(KIND_STEIN_V, XS, SPEC),
    "stein-v kinv": lambda: fit_estimator(KIND_STEIN_V, XS, SPEC).kinv,
    "score-rbf fit": lambda: fit_estimator(KIND_SCORE, XS, SPEC),
    "score-rbf fit d=1": lambda: fit_estimator(KIND_SCORE, XS1, SPEC1),
    "stein-param-v fit": lambda: fit_estimator(KIND_STEIN_PARAM_V, XS, SPEC),
}

# tighter bounds, in K^2 doubles, a little above the peaks measured when
# they were set (ksd_v 1.62: condensed distances and kernel, then the
# mirrored matrix; score-rbf at d = 1 3.01: K, one D_i buffer, Sigma and
# one product; stein-v fit 2.25 and stein-v kinv, fit included, 4.38,
# each 1.00 below the peak when cho_solve took a transposing copy of the
# Cholesky factor)
TIGHT = {
    "ksd_v": 1.75,
    "score-rbf fit d=1": 3.25,
    "stein-v fit": 2.5,
    "stein-v kinv": 4.6,
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_peak_memory_is_a_few_kernel_matrices(name):
    tracemalloc.start()
    try:
        result = CALLS[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    assert peak / (8 * K * K) <= TIGHT.get(name, MAX_KK_DOUBLES)


def test_median_heuristic_holds_one_condensed_vector():
    # the K(K-1)/2 pairwise distances, partitioned in place: no second copy
    # of them for the median (measured 1.005 vectors; np.median's copy gave 2.006)
    tracemalloc.start()
    try:
        median_heuristic(XS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * K * (K - 1) / 2) <= 1.25
