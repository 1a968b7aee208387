"""Tests for the kernelised Stein discrepancy statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from steingrad import KernelSpec, kernels, ksd_to_target, ksd_u, ksd_v, median_heuristic
from steingrad.kernels import (
    cross_hess_trace,
    kernel_eval,
    kernel_grad_first_arg,
)
from steingrad.oracles import brute_ksd

RBF = KernelSpec("rbf", 1.1)
EPAN = KernelSpec("epanechnikov")


def stein_terms(x, gx, y, gy, spec):
    """The four terms of u(x, y) for gradient field values gx, gy."""
    k = kernel_eval(x, y, spec)
    gkx = kernel_grad_first_arg(x, y, spec)
    gky = kernel_grad_first_arg(y, x, spec)  # gradient in the second slot
    return (float(gx @ gy * k), float(gx @ gky), float(gkx @ gy), cross_hess_trace(x, y, spec))


def stein_kernel(x, gx, y, gy, spec):
    """u(x, y) for gradient field values gx, gy: the full four-term form."""
    return sum(stein_terms(x, gx, y, gy, spec))


def term_magnitude(xs, gs, spec):
    """Sum over all pairs of the absolute Stein-kernel terms.

    Rounding in any order of summing the discrepancy's terms stays within
    a small multiple of machine epsilon times this.
    """
    return sum(
        sum(abs(t) for t in stein_terms(x, gx, y, gy, spec))
        for x, gx in zip(xs, gs)
        for y, gy in zip(xs, gs)
    )


def random_case(seed, n=7, d=2):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.standard_normal((n, d))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("spec", [RBF, EPAN], ids=["rbf", "epanechnikov"])
    @pytest.mark.parametrize("constant", [False, True])
    def test_v_statistic(self, spec, constant):
        xs, gs = random_case(1)
        got = ksd_v(xs, gs, spec, includes_constant=constant)
        want = brute_ksd(xs, gs, spec, statistic="v", includes_constant=constant)
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert got.statistic == "v"
        assert got.includes_constant is constant

    @pytest.mark.parametrize("spec", [RBF, EPAN], ids=["rbf", "epanechnikov"])
    @pytest.mark.parametrize("constant", [False, True])
    def test_u_statistic(self, spec, constant):
        xs, gs = random_case(2)
        got = ksd_u(xs, gs, spec, includes_constant=constant)
        want = brute_ksd(xs, gs, spec, statistic="u", includes_constant=constant)
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert got.statistic == "u"


MEDIAN = KernelSpec("rbf", median_scale=1.5)


class TestBlockEdges:
    # with the block size patched down, 30 samples span nine row blocks:
    # two-row blocks, growing ones, and a ragged four-row last block
    N, PAIR_BLOCK = 30, 60

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "PAIR_BLOCK", self.PAIR_BLOCK)

    def test_sample_spans_several_blocks_and_a_ragged_last(self, small_blocks):
        xs, _ = random_case(13, n=self.N)
        _, blocks = kernels.pair_blocks(xs, RBF)
        rows = [(start, stop) for start, stop, *_ in blocks]
        pairs = [(e - a) * (e - a - 1) // 2 + (e - a) * (self.N - e) for a, e in rows]
        assert len(rows) >= 4
        assert rows[-1][1] == self.N
        assert max(pairs) <= self.PAIR_BLOCK
        assert pairs[-1] < min(pairs[:-1])

    @pytest.mark.parametrize("spec", [RBF, EPAN, MEDIAN], ids=["rbf", "epanechnikov", "median"])
    @pytest.mark.parametrize("statistic", ["v", "u"])
    @pytest.mark.parametrize("constant", [False, True])
    def test_blocked_sums_match_brute_force(self, small_blocks, spec, statistic, constant):
        xs, gs = random_case(14, n=self.N, d=3)
        ksd = ksd_v if statistic == "v" else ksd_u
        got = ksd(xs, gs, spec, includes_constant=constant)
        want = brute_ksd(xs, gs, got.spec, statistic=statistic, includes_constant=constant)
        assert got.value == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("spec", [RBF, EPAN, MEDIAN], ids=["rbf", "epanechnikov", "median"])
    def test_block_size_moves_only_rounding(self, monkeypatch, spec):
        xs, gs = random_case(15, n=self.N, d=3)
        one = ksd_v(xs, gs, spec, includes_constant=True)
        monkeypatch.setattr(kernels, "PAIR_BLOCK", self.PAIR_BLOCK)
        many = ksd_v(xs, gs, spec, includes_constant=True)
        assert many.spec == one.spec
        assert many.value == pytest.approx(one.value, rel=1e-13)


class TestTraceTerm:
    # with a zero gradient field only the pairwise trace term is left, so
    # n^2 V is the sum of cross_hess_trace over all ordered pairs
    @pytest.mark.parametrize("pair_block", [None, 5])
    def test_trace_sum_matches_scalar(self, monkeypatch, pair_block):
        if pair_block is not None:
            monkeypatch.setattr(kernels, "PAIR_BLOCK", pair_block)
        rng = np.random.default_rng(24)
        xs = rng.standard_normal((6, 2))
        for spec in (KernelSpec("rbf", 0.9), EPAN):
            got = ksd_v(xs, np.zeros_like(xs), spec, includes_constant=True).value * 36
            want = sum(cross_hess_trace(xi, xj, spec) for xi in xs for xj in xs)
            assert got == pytest.approx(want, rel=1e-13)
            assert ksd_v(xs, np.zeros_like(xs), spec).value == 0.0

    def test_median_rule_trace_is_the_resolved_trace(self):
        xs = np.random.default_rng(36).standard_normal((40, 3))
        got = ksd_v(xs, np.zeros_like(xs), KernelSpec("rbf", median_scale=2.0), includes_constant=True)
        assert got.spec == KernelSpec("rbf", 2.0 * median_heuristic(xs))
        assert got == ksd_v(xs, np.zeros_like(xs), got.spec, includes_constant=True)


def samples_and_grads(max_n=9, max_d=3):
    """(xs, gs) pairs of equal shape with bounded finite entries."""
    coords = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
    grads = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
    shapes = st.tuples(st.integers(2, max_n), st.integers(1, max_d))
    return shapes.flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, shape, elements=coords),
            arrays(np.float64, shape, elements=grads),
        )
    )


class TestMedianRule:
    @pytest.mark.parametrize("ksd", [ksd_v, ksd_u])
    @pytest.mark.parametrize("includes_constant", [True, False])
    def test_rule_is_resolved_from_the_sample_bitwise(self, ksd, includes_constant):
        # the discrepancy takes the bandwidth from its own distance pass and
        # reports the kernel it used
        xs = np.random.default_rng(70).standard_normal((30, 3))
        gs = -xs
        est = ksd(xs, gs, KernelSpec("rbf", median_scale=2.0), includes_constant)
        resolved = KernelSpec("rbf", median_heuristic(xs) * 2.0)
        assert est.spec == resolved
        assert est == ksd(xs, gs, resolved, includes_constant)


class TestStructure:
    @settings(max_examples=100, deadline=None)
    @given(case=samples_and_grads(), sigma2=st.floats(0.05, 20.0))
    def test_v_statistic_with_constant_is_nonnegative(self, case, sigma2):
        # The full Stein kernel is positive semi-definite, so the V-statistic
        # (a quadratic form in it) cannot go negative beyond rounding.
        xs, gs = case
        spec = KernelSpec("rbf", sigma2)
        value = ksd_v(xs, gs, spec, includes_constant=True).value
        assert value >= -1e-12 * term_magnitude(xs, gs, spec) / len(xs) ** 2

    @settings(max_examples=100, deadline=None)
    @given(
        case=samples_and_grads(),
        sigma2=st.floats(0.05, 20.0),
        family=st.sampled_from(["rbf", "epanechnikov"]),
        constant=st.booleans(),
    )
    def test_u_and_v_differ_by_diagonal(self, case, sigma2, family, constant):
        # K^2 V - K(K-1) U telescopes to the diagonal sum_i u(x_i, x_i),
        # which is sum_i (k_ii |g_i|^2 + trace_ii), the trace only with the
        # constant.
        xs, gs = case
        n = len(xs)
        spec = KernelSpec("rbf", sigma2) if family == "rbf" else EPAN
        v = ksd_v(xs, gs, spec, includes_constant=constant).value
        u = ksd_u(xs, gs, spec, includes_constant=constant).value
        diag = sum(
            stein_kernel(x, g, x, g, spec)
            - (0.0 if constant else cross_hess_trace(x, x, spec))
            for x, g in zip(xs, gs)
        )
        slack = 1e-12 * term_magnitude(xs, gs, spec)
        assert abs(n * n * v - n * (n - 1) * u - diag) <= slack

    def test_zero_gradient_field_without_constant_is_zero(self):
        xs, _ = random_case(4)
        got = ksd_v(xs, np.zeros_like(xs), RBF)
        assert got.value == 0.0

    def test_translation_invariance(self):
        xs, gs = random_case(5)
        shift = np.array([10.0, -4.0])
        base = ksd_v(xs, gs, RBF).value
        moved = ksd_v(xs + shift, gs, RBF).value
        assert moved == pytest.approx(base, rel=1e-12)

    def test_u_statistic_needs_two_samples(self):
        with pytest.raises(ValueError):
            ksd_u(np.zeros((1, 2)), np.zeros((1, 2)), RBF)

    def test_shape_mismatch_rejected(self):
        xs, gs = random_case(6)
        with pytest.raises(ValueError):
            ksd_v(xs, gs[:-1], RBF)


class TestToTarget:
    def test_matches_explicit_gradient_field(self):
        xs, _ = random_case(7, n=12)

        def score(x):
            return -x  # standard normal target

        got = ksd_to_target(xs, score, RBF)
        want = ksd_v(xs, -xs, RBF, includes_constant=True)
        assert got.value == pytest.approx(want.value, rel=1e-13)
        assert got.includes_constant is True

    def test_u_statistic_variant(self):
        xs, _ = random_case(8, n=12)
        got = ksd_to_target(xs, lambda x: -x, RBF, statistic="u")
        want = ksd_u(xs, -xs, RBF, includes_constant=True)
        assert got.value == pytest.approx(want.value, rel=1e-13)

    def test_statistic_matches_exactly(self):
        # as ksd --statistic V is refused, so is the library argument
        xs, _ = random_case(12)
        for stat in ("V", "U", " v", "vu"):
            with pytest.raises(ValueError, match="statistic"):
                ksd_to_target(xs, lambda x: -x, RBF, statistic=stat)

    def test_well_matched_sample_scores_lower_than_mismatched(self):
        rng = np.random.default_rng(9)
        xs = rng.standard_normal((300, 2))
        spec = KernelSpec("rbf", 2.0)
        good = ksd_to_target(xs, lambda x: -x, spec).value
        shifted = ksd_to_target(xs + 2.0, lambda x: -x, spec).value
        assert good < shifted

    def test_rejects_bad_score_shapes(self):
        xs, _ = random_case(10)
        with pytest.raises(ValueError):
            ksd_to_target(xs, lambda x: np.zeros(3), RBF)
        with pytest.raises(ValueError):
            ksd_to_target(xs, lambda x: float(x[0, 0]), RBF)
        # one row's score must not broadcast over the sample
        with pytest.raises(ValueError, match=r"\(2,\).*\(7, 2\)"):
            ksd_to_target(xs, lambda x: -x[0], RBF)

    def test_scores_whole_sample_in_one_call(self):
        xs, _ = random_case(11, n=9, d=3)
        calls = []

        def score(x):
            calls.append(x.shape)
            return -x

        got = ksd_to_target(xs, score, RBF, statistic="u")
        assert calls == [(9, 3)]
        assert got.value == ksd_u(xs, -xs, RBF, includes_constant=True).value
