"""Batched score functions agree with the same functions called row by row.

The sampler hands every score function an (n, d) batch of positions, one row
per chain; each row's result must not depend on the rest of the batch.
Elementwise arithmetic gives identical bits; prediction rules that use a
matrix product may round differently per batch size (BLAS takes other code
paths for few rows), so they are held to a relative tolerance of 1e-12,
scaled by how much the rule itself magnifies rounding.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

from steingrad import (
    KernelSpec,
    NumericalError,
    banana_log_density,
    banana_score,
    fit_estimator,
)
from steingrad.estimators import (
    KIND_KDE,
    KIND_SCORE,
    KIND_STEIN_PARAM_U,
    KIND_STEIN_PARAM_V,
    KIND_STEIN_V,
)

RBF = KernelSpec("rbf", 1.3)
EPAN = KernelSpec("epanechnikov")
TRAIN = np.random.default_rng(0).standard_normal((30, 2))
FITS = {
    "kde-rbf": (KIND_KDE, RBF),
    "kde-epanechnikov": (KIND_KDE, EPAN),
    "stein-v-rbf": (KIND_STEIN_V, RBF),
    "stein-v-epanechnikov": (KIND_STEIN_V, EPAN),
    "score-rbf": (KIND_SCORE, RBF),
    "score-epanechnikov": (KIND_SCORE, EPAN),
    "stein-param-v": (KIND_STEIN_PARAM_V, RBF),
    "stein-param-u": (KIND_STEIN_PARAM_U, RBF),
}
PREDICT_RTOL = 1e-12
# the Epanechnikov KDE refuses a kernel row sum <= 0, so its sample and its
# prediction points are shrunk tenfold: every pair is then within
# ||x - y||^2 < d of each other and every kernel value is positive
SHRINK = {"kde-epanechnikov": 0.1}


def batches(low, high, max_rows=40):
    coords = st.floats(low, high, allow_nan=False, allow_infinity=False)
    return st.integers(1, max_rows).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=coords)
    )


@settings(max_examples=200, deadline=None)
@given(batches(-1e3, 1e3))
def test_banana_functions_batch_equals_rows(xs):
    np.testing.assert_array_equal(banana_score(xs), [banana_score(x) for x in xs])
    np.testing.assert_array_equal(
        banana_log_density(xs), [banana_log_density(x) for x in xs]
    )


@pytest.fixture(scope="module")
def fits():
    return {
        name: fit_estimator(kind, SHRINK.get(name, 1.0) * TRAIN, spec)
        for name, (kind, spec) in FITS.items()
    }


def rounding_gain(fit, points):
    """Per row, the factor by which a prediction magnifies rounding.

    The Stein rule divides by the Schur complement 1 + eta - k^T s with
    s = (K + eta I)^-1 k, a difference of terms that can be far larger than
    the result (Epanechnikov kernel values reach -15 at distance 5.6), so
    its rounding grows by (1 + eta + sum |k_i s_i|) / |Schur|.  The other
    rules divide by nothing that cancels.
    """
    if fit.kind != KIND_STEIN_V:
        return np.ones((len(points), 1))
    sq = cdist(points, fit.train, "sqeuclidean")
    if fit.spec.family == "rbf":
        k = np.exp(-0.5 * sq / fit.spec.sigma2)
    else:
        k = 1.0 - sq / fit.train.shape[1]
    terms = k * (k @ fit.kinv.T)
    gain = (1.0 + fit.eta + np.abs(terms).sum(axis=1)) / np.abs(
        1.0 + fit.eta - terms.sum(axis=1)
    )
    return gain[:, None]


@pytest.mark.parametrize("name", sorted(FITS))
@settings(max_examples=60, deadline=None)
@given(points=batches(-4.0, 4.0))
def test_predict_batch_equals_rows(fits, name, points):
    fit = fits[name]
    points = SHRINK.get(name, 1.0) * points
    rows = np.array([fit.predict(y[None, :])[0] for y in points])
    batch = fit.predict(points)
    assert batch.shape == points.shape
    scale = np.abs(rows).max(axis=1, keepdims=True) * rounding_gain(fit, points)
    assert np.all(np.abs(batch - rows) <= PREDICT_RTOL * scale)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_degenerate_schur_point_is_named(fits, data):
    # Scaling the cached inverse tenfold drives the Schur complement below
    # zero near the training sample and leaves it at 1 + eta far from it.
    # kinv is derived state, so the scaled copy is seeded into the cache of
    # a fresh copy of the fit.
    fit = fits["stein-v-rbf"]
    broken = dataclasses.replace(fit)
    vars(broken)["kinv"] = 10.0 * fit.kinv
    far = data.draw(batches(60.0, 100.0), label="far")
    row = data.draw(st.integers(0, len(far)), label="row")
    near = TRAIN[data.draw(st.integers(0, len(TRAIN) - 1), label="train point")]
    points = np.insert(far, row, near, axis=0)
    with pytest.raises(NumericalError, match=rf"at prediction point {row};"):
        broken.predict(points)
    broken.predict(far)  # the far rows alone are not degenerate
