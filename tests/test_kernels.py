"""Tests for kernel evaluations, gradients, batched matrices, and bandwidth selection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

from steingrad import (
    DegenerateBandwidthError,
    KernelSpec,
    build_matrices,
    median_heuristic,
    resolve_bandwidth,
)
from steingrad.kernels import (
    cross_hess_trace,
    cross_kernel,
    kernel_eval,
    kernel_grad_first_arg,
)
from steingrad.oracles import fd_gradient


def rbf_spec(sigma2=2.0):
    return KernelSpec("rbf", sigma2)


EPAN = KernelSpec("epanechnikov")


class TestKernelSpec:
    def test_rbf_requires_positive_sigma2(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf", 0.0)
        with pytest.raises(ValueError):
            KernelSpec("rbf", -1.0)
        with pytest.raises(ValueError):
            KernelSpec("rbf", np.inf)
        with pytest.raises(ValueError):
            KernelSpec("rbf", None)

    def test_epanechnikov_rejects_sigma2(self):
        with pytest.raises(ValueError):
            KernelSpec("epanechnikov", 1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec("matern", 1.0)

    def test_median_rule_takes_a_positive_scale_and_no_sigma2(self):
        assert KernelSpec("rbf", median_scale=2).median_scale == 2.0
        for scale in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="median_scale"):
                KernelSpec("rbf", median_scale=scale)
        with pytest.raises(ValueError, match="not both"):
            KernelSpec("rbf", 1.0, median_scale=1.0)
        with pytest.raises(ValueError, match="no bandwidth"):
            KernelSpec("epanechnikov", median_scale=1.0)

    def test_median_rule_is_no_bandwidth_to_evaluate_with(self):
        # the rule needs a sample: without one, the kernel refuses to guess
        spec = KernelSpec("rbf", median_scale=1.0)
        x, y = np.zeros(2), np.ones(2)
        for fn in (kernel_eval, kernel_grad_first_arg, cross_hess_trace):
            with pytest.raises(ValueError, match="median rule"):
                fn(x, y, spec)
        with pytest.raises(ValueError, match="median rule"):
            cross_kernel(x[None], y[None], spec)


class TestScalarEvaluations:
    def test_rbf_known_values(self):
        spec = rbf_spec(2.0)
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        # squared distance 2, so k = exp(-2 / 4) = exp(-0.5)
        assert kernel_eval(x, y, spec) == pytest.approx(np.exp(-0.5), rel=1e-15)
        assert kernel_eval(x, x, spec) == 1.0

    def test_epanechnikov_known_values(self):
        x = np.array([1.0, 0.0])
        y = np.array([0.0, 1.0])
        # k = 1 - ||x - y||^2 / d = 1 - 2 / 2 = 0
        assert kernel_eval(x, y, EPAN) == pytest.approx(0.0, abs=1e-15)
        assert kernel_eval(x, x, EPAN) == 1.0
        z = np.array([0.5, 0.0])
        assert kernel_eval(x, z, EPAN) == pytest.approx(1.0 - 0.125, rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for spec in (rbf_spec(0.7), EPAN):
            for _ in range(20):
                x = rng.standard_normal(3)
                y = rng.standard_normal(3)
                assert kernel_eval(x, y, spec) == pytest.approx(
                    kernel_eval(y, x, spec), rel=1e-15
                )

    def test_rbf_gradient_matches_finite_differences(self):
        spec = rbf_spec(1.3)
        rng = np.random.default_rng(11)
        for _ in range(25):
            x = rng.standard_normal(4)
            y = rng.standard_normal(4)
            got = kernel_grad_first_arg(x, y, spec)
            want = fd_gradient(lambda z: kernel_eval(z, y, spec), x, step=1e-5)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_epanechnikov_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            got = kernel_grad_first_arg(x, y, EPAN)
            want = fd_gradient(lambda z: kernel_eval(z, y, EPAN), x, step=1e-5)
            np.testing.assert_allclose(got, want, atol=1e-8)

    def test_gradient_vanishes_at_coincident_points(self):
        x = np.array([0.3, -0.7, 1.1])
        for spec in (rbf_spec(0.9), EPAN):
            np.testing.assert_array_equal(kernel_grad_first_arg(x, x, spec), 0.0)

    def test_cross_hess_trace_rbf(self):
        # For the exponentiated-quadratic kernel the mixed second derivative
        # trace is k(x,y) * (d / s2 - ||x-y||^2 / s2^2).
        spec = rbf_spec(1.7)
        x = np.array([0.2, -1.0])
        y = np.array([1.5, 0.3])
        sq = float(np.sum((x - y) ** 2))
        k = np.exp(-sq / (2 * 1.7))
        want = k * (2 / 1.7 - sq / 1.7**2)
        assert cross_hess_trace(x, y, spec) == pytest.approx(want, rel=1e-14)

    def test_cross_hess_trace_epanechnikov(self):
        x = np.array([0.2, -1.0, 0.5])
        y = np.array([1.5, 0.3, -0.2])
        assert cross_hess_trace(x, y, EPAN) == pytest.approx(2.0, rel=1e-15)

    def test_cross_hess_trace_matches_finite_differences(self):
        # Central second differences of k along each matched coordinate pair.
        spec = rbf_spec(0.8)
        rng = np.random.default_rng(13)
        h = 1e-4
        for _ in range(10):
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            acc = 0.0
            for i in range(2):
                ei = np.zeros(2)
                ei[i] = h
                acc += (
                    kernel_eval(x + ei, y + ei, spec)
                    - kernel_eval(x + ei, y - ei, spec)
                    - kernel_eval(x - ei, y + ei, spec)
                    + kernel_eval(x - ei, y - ei, spec)
                ) / (4 * h * h)
            assert cross_hess_trace(x, y, spec) == pytest.approx(acc, abs=1e-6)


class TestBatchedMatrices:
    def test_matches_scalar_helpers(self):
        rng = np.random.default_rng(21)
        xs = rng.standard_normal((7, 3))
        for spec in (rbf_spec(1.4), EPAN):
            mats = build_matrices(xs, spec)
            n = xs.shape[0]
            km = np.empty((n, n))
            gs = np.zeros((n, 3))
            for i in range(n):
                for j in range(n):
                    km[i, j] = kernel_eval(xs[i], xs[j], spec)
                    # row j accumulates gradients w.r.t. the second argument,
                    # which for these even kernels equal the first-argument
                    # gradients with the inputs swapped
                    gs[j] += kernel_grad_first_arg(xs[i], xs[j], spec)
            np.testing.assert_allclose(mats.k_matrix, km, atol=1e-13)
            np.testing.assert_allclose(mats.grad_sum, gs, atol=1e-12)

    def test_kernel_matrix_exactly_symmetric(self):
        rng = np.random.default_rng(22)
        xs = rng.standard_normal((40, 5))
        for spec in (rbf_spec(0.6), EPAN):
            km = build_matrices(xs, spec).k_matrix
            np.testing.assert_array_equal(km, km.T)
            np.testing.assert_array_equal(np.diag(km), 1.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(23)
        xs = rng.standard_normal((15, 4))
        shift = rng.standard_normal(4)
        for spec in (rbf_spec(1.1), EPAN):
            base = build_matrices(xs, spec)
            moved = build_matrices(xs + shift, spec)
            np.testing.assert_allclose(moved.k_matrix, base.k_matrix, atol=1e-12)
            np.testing.assert_allclose(moved.grad_sum, base.grad_sum, atol=1e-11)

    def test_input_validation(self):
        spec = rbf_spec(1.0)
        with pytest.raises(ValueError):
            build_matrices(np.zeros((0, 2)), spec)
        with pytest.raises(ValueError):
            build_matrices(np.zeros(3), spec)
        with pytest.raises(ValueError):
            build_matrices(np.array([[1.0, np.nan]]), spec)


def family_spec(family, d):
    # an RBF bandwidth on the scale of d keeps the values away from underflow
    return rbf_spec(1.3 * d) if family == "rbf" else EPAN


class TestCrossKernel:
    @pytest.mark.parametrize("d", [1, 2, 7, 50])
    @pytest.mark.parametrize("family", ["rbf", "epanechnikov"])
    def test_matches_scalar_kernel(self, family, d):
        rng = np.random.default_rng(25 + d)
        pts = rng.standard_normal((5, d))
        train = rng.standard_normal((8, d))
        spec = family_spec(family, d)
        want = np.array([[kernel_eval(y, x, spec) for x in train] for y in pts])
        got = cross_kernel(pts, train, spec)
        assert got.shape == (5, 8)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 7, 50])
    @pytest.mark.parametrize("family", ["rbf", "epanechnikov"])
    def test_sample_kernel_matrix_is_bitwise_the_cross_kernel(self, family, d):
        # build_matrices and the predict rules share one evaluation, so the
        # kernel at the sample's own pairs carries the same bits either way
        xs = np.random.default_rng(35 + d).standard_normal((30, d))
        spec = family_spec(family, d)
        np.testing.assert_array_equal(
            build_matrices(xs, spec).k_matrix, cross_kernel(xs, xs, spec)
        )


class TestMedianHeuristic:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        xs = rng.standard_normal((25, 3))
        dists = sorted(
            float(np.linalg.norm(xs[i] - xs[j]))
            for i in range(25)
            for j in range(i + 1, 25)
        )
        m = len(dists)
        if m % 2 == 1:
            med = dists[m // 2]
        else:
            med = 0.5 * (dists[m // 2 - 1] + dists[m // 2])
        assert median_heuristic(xs) == pytest.approx(med**2, rel=1e-12)

    def test_simple_exact_value(self):
        xs = np.array([[0.0], [1.0], [3.0]])
        # pairwise distances 1, 3, 2; median 2; bandwidth 4
        assert median_heuristic(xs) == 4.0

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            median_heuristic(np.array([[1.0, 2.0]]))

    def test_degenerate_sample_rejected(self):
        xs = np.ones((5, 2))
        with pytest.raises(DegenerateBandwidthError):
            median_heuristic(xs)

    def test_degenerate_majority_rejected(self):
        # median of pairwise distances is zero when most points coincide
        xs = np.vstack([np.zeros((8, 2)), np.ones((2, 2))])
        with pytest.raises(DegenerateBandwidthError):
            median_heuristic(xs)


def _np_median_heuristic(xs):
    """The np.median form median_heuristic replaced, as the reference.

    It squares with ``med * med``, as median_heuristic always has: ``** 2``
    on a Python float raises OverflowError where the square overflows.
    """
    if xs.shape[0] < 2:
        raise ValueError("median heuristic needs at least two samples")
    med = float(np.median(pdist(xs)))
    if med == 0.0:
        raise DegenerateBandwidthError("median pairwise distance is zero")
    return med * med


def _bits_or_error(fn, xs):
    try:
        return np.float64(fn(xs)).tobytes()
    except (ValueError, DegenerateBandwidthError) as exc:
        return type(exc)


# small integers give ties; the large magnitudes overflow the squared
# distance (1e154) or the distance itself (1.7e308)
_MEDIAN_ELEMENTS = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-2, 2).map(float),
    st.sampled_from([5e-324, 1e154, -1e154, 1.3e154, 1.7e308, -1.7e308]),
)


@st.composite
def _samples_with_repeats(draw):
    d = draw(st.integers(1, 3))
    pool = draw(arrays(np.float64, (draw(st.integers(1, 12)), d), elements=_MEDIAN_ELEMENTS))
    # up to 40 rows: numpy sorts short arrays outright when it partitions
    rows = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
    return pool[rows]


@settings(max_examples=300, deadline=None)
@given(xs=_samples_with_repeats())
@example(xs=np.array([[0.0], [1.0]]))  # K = 2: one pair
@example(xs=np.array([[0.0], [1.0], [3.0]]))  # K = 3: three pairs
@example(xs=np.array([[0.0], [1.0], [3.0], [7.0]]))  # K = 4: six pairs
@example(xs=np.array([[0.0], [0.0], [0.0], [1.0]]))  # ties at the median
@example(xs=np.array([[-1.7e308], [1.7e308], [0.0], [1.0]]))  # infinite distances
# K = 25: numpy's partition leaves another value than the lower central
# distance at k - 1 of these 300 pairs
@example(xs=np.random.default_rng(5).standard_normal((25, 2)))
def test_median_heuristic_is_np_median_bitwise(xs):
    with np.errstate(over="ignore"):
        want = _bits_or_error(_np_median_heuristic, xs)
        got = _bits_or_error(median_heuristic, xs)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(xs=_samples_with_repeats(), scale=st.sampled_from([1.0, 2.0, 0.3]))
@example(xs=np.array([[1.0, 2.0]]), scale=1.0)  # K = 1: no pair
@example(xs=np.array([[0.0], [0.0], [0.0], [1.0]]), scale=1.0)  # zero median
@example(xs=np.array([[-1.7e308], [1.7e308], [0.0], [1.0]]), scale=1.0)
@example(xs=np.random.default_rng(5).standard_normal((25, 2)), scale=2.0)
def test_median_rule_from_squared_distances_is_np_median_bitwise(xs, scale):
    # the kernel pass takes the bandwidth from its condensed squared
    # distances, resolve_bandwidth from a pass of its own; both are the
    # np.median reference times the scale, bit for bit, errors included (an
    # overflowing distance is an infinite bandwidth, which the spec refuses)
    rule = KernelSpec("rbf", median_scale=scale)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _bits_or_error(lambda xs: KernelSpec("rbf", _np_median_heuristic(xs) * scale).sigma2, xs)
        built = _bits_or_error(
            lambda xs: build_matrices(xs, rule, with_grad_sum=False).spec.sigma2, xs
        )
        resolved = _bits_or_error(lambda xs: resolve_bandwidth(xs, rule).sigma2, xs)
    assert built == want
    assert resolved == want


class TestOneDistancePass:
    def test_median_rule_kernel_is_the_resolved_kernel(self):
        xs = np.random.default_rng(36).standard_normal((40, 3))
        mats = build_matrices(xs, KernelSpec("rbf", median_scale=2.0))
        assert mats.spec == KernelSpec("rbf", 2.0 * median_heuristic(xs))
        want = build_matrices(xs, mats.spec)
        np.testing.assert_array_equal(mats.k_matrix, want.k_matrix)
        np.testing.assert_array_equal(mats.grad_sum, want.grad_sum)

    def test_kernel_alone_skips_grad_sum(self):
        xs = np.random.default_rng(37).standard_normal((20, 2))
        spec = rbf_spec(1.5)
        alone = build_matrices(xs, spec, with_grad_sum=False)
        assert alone.grad_sum is None
        np.testing.assert_array_equal(alone.k_matrix, build_matrices(xs, spec).k_matrix)

    def test_resolved_spec_makes_no_pass(self, monkeypatch):
        from steingrad import kernels

        monkeypatch.setattr(kernels, "pdist", None)
        spec = rbf_spec(1.5)
        assert resolve_bandwidth(np.zeros((3, 2)), spec) is spec


def collect_blocks(xs, spec, with_trace=False):
    from steingrad.kernels import pair_blocks

    resolved, blocks = pair_blocks(xs, spec, with_trace=with_trace)
    return resolved, list(blocks)


class TestPairBlocks:
    # sample sizes that make one block at the default size, and, with the
    # block size patched down, several rows per block, single-row blocks
    # and a ragged last block
    @pytest.mark.parametrize("pair_block", [None, 40, 3])
    @pytest.mark.parametrize("spec", [rbf_spec(0.9), EPAN, KernelSpec("rbf", median_scale=1.5)],
                             ids=["rbf", "epanechnikov", "median"])
    def test_blocks_are_the_kernel_matrix_bitwise(self, monkeypatch, pair_block, spec):
        from steingrad import kernels

        if pair_block is not None:
            monkeypatch.setattr(kernels, "PAIR_BLOCK", pair_block)
        xs = np.random.default_rng(38).standard_normal((23, 3))
        full = build_matrices(xs, spec)
        resolved, blocks = collect_blocks(xs, spec)
        assert resolved == full.spec
        km = full.k_matrix.copy()
        np.fill_diagonal(km, 0.0)
        starts = [start for start, *_ in blocks]
        stops = [stop for _, stop, *_ in blocks]
        assert starts == [0] + stops[:-1] and stops[-1] == len(xs)
        if pair_block is not None:
            assert len(blocks) >= 4
        for start, stop, kern, trace in blocks:
            b = stop - start
            assert trace is None
            assert kern.shape == (b, len(xs) - start)
            # the block's own pairs in both orders, a zero diagonal, and the
            # pairs with later rows at twice their value
            np.testing.assert_array_equal(kern[:, :b], km[start:stop, start:stop])
            np.testing.assert_array_equal(kern[:, b:], 2.0 * km[start:stop, stop:])
            if pair_block is not None and b > 1:
                assert b * (b - 1) // 2 + b * (len(xs) - stop) <= pair_block

    @pytest.mark.parametrize("pair_block", [None, 40])
    def test_block_trace_is_the_scalar_sum(self, monkeypatch, pair_block):
        from steingrad import kernels

        if pair_block is not None:
            monkeypatch.setattr(kernels, "PAIR_BLOCK", pair_block)
        xs = np.random.default_rng(39).standard_normal((15, 2))
        for spec in (rbf_spec(0.9), EPAN):
            _, blocks = collect_blocks(xs, spec, with_trace=True)
            for start, stop, _, trace in blocks:
                want = sum(
                    cross_hess_trace(xs[i], xs[j], spec)
                    for i in range(start, stop)
                    for j in range(start, len(xs))
                    if j != i
                ) + sum(
                    cross_hess_trace(xs[i], xs[j], spec)
                    for i in range(start, stop)
                    for j in range(stop, len(xs))
                )
                assert trace == pytest.approx(want, rel=1e-13)

    def test_one_sample_has_no_pairs(self):
        assert collect_blocks(np.zeros((1, 2)), rbf_spec())[1] == []

    def test_median_rule_refused_by_the_call(self):
        from steingrad.kernels import pair_blocks

        with pytest.raises(DegenerateBandwidthError):
            pair_blocks(np.zeros((5, 2)), KernelSpec("rbf", median_scale=1.0))
        with pytest.raises(ValueError, match="at least two samples"):
            pair_blocks(np.zeros((1, 2)), KernelSpec("rbf", median_scale=1.0))
