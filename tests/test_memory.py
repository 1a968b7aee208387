"""Traced peak memory of the kernel layer stays O(K^2).

Each call below holds a handful of (K, K) matrices at once, never a
(K, K, d) difference tensor; at d = 50 such a tensor alone would be 50 K^2
doubles.  tracemalloc sees numpy's allocations in this process only.
"""

import tracemalloc

import numpy as np
import pytest

from steingrad import KernelSpec, build_matrices, fit_estimator, ksd_v, median_heuristic
from steingrad.estimators import KIND_SCORE_RBF, KIND_STEIN_V
from steingrad.kernels import cross_hess_trace_matrix

K, D = 400, 50
MAX_KK_DOUBLES = 6.0

XS = np.random.default_rng(0).standard_normal((K, D))
SPEC = KernelSpec("rbf", median_heuristic(XS))

CALLS = {
    "build_matrices": lambda: build_matrices(XS, SPEC),
    "cross_hess_trace_matrix": lambda: cross_hess_trace_matrix(XS, SPEC),
    "ksd_v": lambda: ksd_v(XS, -XS, SPEC, includes_constant=True),
    "stein-v fit": lambda: fit_estimator(KIND_STEIN_V, XS, SPEC),
    "score-rbf fit": lambda: fit_estimator(KIND_SCORE_RBF, XS, SPEC),
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
    assert peak / (8 * K * K) <= MAX_KK_DOUBLES
