"""Traced peak memory of the kernel layer and the fits stays O(K^2).

Each call below holds a handful of (K, K) matrices at once, never a
(K, K, d) difference tensor; at d = 50 such a tensor alone would be 50 K^2
doubles.  tracemalloc sees numpy's allocations in this process only; the
last test measures a solve's resident set in a fresh process, which counts
what numpy mallocs too.
"""

import os
import subprocess
import sys
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
# they were set (ksd_v 1.41, and 1.52 under the median rule, at K = 400:
# a 327-row block of 0.82 K^2 and a 73-row one, beside the sums' (K, d)
# arrays; 1.60 when a block's kernel, products and trace chunk were still
# held while the next block's distances were made; 1.68 each when a
# sample of up to 512 points was one block, its trace summed from a
# condensed copy; score-rbf at
# d = 1 2.01: K, which becomes the last coordinate's D_i, and Sigma; stein-v
# fit 1.50: the condensed kernel and its mirrored matrix, which is then the
# system.  A fit's solve factors the system in place, so it adds vectors
# only (when it was one np.linalg.solve, numpy malloc'd LU's work copy of
# the system, which tracemalloc does not see; the RSS test below does).
# Before the solve was LU these read 3.01 and 2.25: a D_i buffer beside K,
# and numpy's Cholesky factor.  stein-v kinv, fit included, 1.85: the kernel
# rebuilt as the fit's system, inverted in its own buffer, and the check's
# two column blocks of an eighth of it (3.26 with np.linalg.inv's result
# and the check's whole product beside it, numpy malloc'ing inv's two
# working copies too; 4.38 when kinv was a cho_solve of a held factor).
# entropy-check peaks in its score fit (2.08; 3.08 before).  A median-rule
# fit or discrepancy keeps the same bound: holding the condensed distances
# through the fit would add 0.5 (median-rule score 2.01 at d = 1 and 4.14
# at d = 50, stein-param-v 5.14, each as with the bandwidth given; 4.19 and
# 5.13 when the fits held the whole Gram matrix, whose 327-row blocks at
# K = 400 are 0.82 K^2).  The expansion kinds' grads_at_train measured
# 1.375: one cross_kernel pass of the training sample with itself, the
# weights formed in its buffer, and three (K, d) arrays (2.05 when the
# weights were new arrays).
TIGHT = {
    "ksd_v": 1.5,
    "ksd_v median": 1.56,
    "score-rbf fit d=1": 2.15,
    "score-rbf fit d=1 median": 2.15,
    "stein-v fit": 1.6,
    "stein-v fit median": 1.6,
    "stein-v kinv": 2.0,
    "entropy-check": 2.2,
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
# measured 3.23 for score's closed-form Sigma (K, Sigma and M) and 3.32
# for both parametric systems (K, K K, whose rows become W^T, and Lambda),
# each adding its product-and-transpose by one dsyr2k.  The parametric
# systems read 4.23 when built from general products (K, K K and two
# more), and 4.05 and 5.04 when each held the whole Gram matrix.  K = 400
# cannot show this: a block there is 327 rows, 0.82 K^2 (see above).
LARGE_K = 1200
XS_LARGE = np.random.default_rng(3).standard_normal((LARGE_K, D))
LARGE_FITS = {KIND_SCORE: 3.35, KIND_STEIN_PARAM_V: 3.45, KIND_STEIN_PARAM_U: 3.45}
# without numpy's dsyr2k the product is made in row blocks of an eighth
# of a (K, K) array: measured 3.30 for score and 3.32 for stein-param-v
# (4.10 each when the whole product was held)
LARGE_FALLBACK_FITS = {KIND_SCORE: 3.35, KIND_STEIN_PARAM_V: 3.45}


@pytest.mark.parametrize("kind", sorted(LARGE_FITS))
def test_expansion_fit_holds_no_gram_matrix(kind):
    peak = traced_peak(lambda: fit_estimator(kind, XS_LARGE, MEDIAN))
    assert peak / (8 * LARGE_K * LARGE_K) <= LARGE_FITS[kind]


@pytest.mark.parametrize("kind", sorted(LARGE_FALLBACK_FITS))
def test_expansion_fit_on_the_fallback_holds_no_gram_matrix(kind, numpy_linalg_only):
    peak = traced_peak(lambda: fit_estimator(kind, XS_LARGE, MEDIAN))
    assert peak / (8 * LARGE_K * LARGE_K) <= LARGE_FALLBACK_FITS[kind]


def test_ksd_holds_no_pairwise_matrix():
    # under a given bandwidth the discrepancy sums row blocks of at most
    # kernels.PAIR_BLOCK entries, so at n = 2000 its peak is a small part
    # of one n^2 matrix (measured 0.046; 0.080 when a block was held while
    # the next one was made, 0.136 when blocks held up to PAIR_BLOCK
    # pairs; the whole matrix, as the kernel layer once mirrored it, was
    # 1.5)
    n = 2000
    xs = np.random.default_rng(2).standard_normal((n, 2))
    spec = KernelSpec("rbf", 1.0)
    peak = traced_peak(lambda: ksd_v(xs, -xs, spec, includes_constant=True))
    assert peak / (8 * n * n) <= 0.06


@pytest.mark.parametrize("xs", [XS, XS1], ids=["d=50", "d=1"])
def test_median_heuristic_holds_one_condensed_vector(xs):
    # the K(K-1)/2 pairwise distances, partitioned in place: no second copy
    # of them for the median, and tiles of at most a 64th of the vector at
    # every d (measured 1.13 vectors at d = 50 and 1.08 at d = 1; 1.09 at
    # d = 1 when the in-order sum's tiles were a 40th of it, up to 256
    # rows; np.median's copy gave 2.006)
    assert traced_peak(lambda: median_heuristic(xs)) / (8 * K * (K - 1) / 2) <= 1.25


# one solve_symmetric of a K = 3000 system built before it, in a fresh
# process: the growth of its resident-set high-water mark, in units of the
# (K, K) system.  VmHWM, not ru_maxrss, which keeps the high-water mark of
# the forked parent's image across exec, so that under pytest it may start
# above anything the solve adds.
_RSS_SOLVE = """
import sys
import numpy as np
from steingrad import linalg

def high_water():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

if sys.argv[1] == "numpy":
    linalg._SYMBOL = "steingrad_missing_{}"
k = 3000
mat = np.full((k, k), 1.0 / k)
mat[np.diag_indices(k)] += 1.0
rhs = np.ones(k)
linalg.solve_symmetric(np.eye(400) + 1.0, np.ones(400))  # BLAS buffers
before = high_water()
linalg.solve_symmetric(mat, rhs)
print((high_water() - before) * 1024 / (8 * k * k))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("path", ["lapack", "numpy"])
def test_solve_adds_no_second_system_to_the_resident_set(path):
    # tracemalloc does not see LU's malloc'd work copy, so the resident set
    # measures it: the np.linalg fallback's solve adds about one more
    # system (measured 1.09), the in-place Cholesky vectors and OpenBLAS's
    # buffers (0.09)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", _RSS_SOLVE, path], capture_output=True, text=True,
        check=True, env=env, timeout=120,
    )
    growth = float(out.stdout)
    if path == "lapack":
        assert growth <= 0.25, growth
    else:
        assert growth >= 0.75, growth
