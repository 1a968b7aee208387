"""Tests for the banana target, the leapfrog integrator, and the HMC harness."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from steingrad import (
    ChainStats,
    HmcConfig,
    KernelSpec,
    banana_log_density,
    banana_sample,
    banana_score,
    ksd_to_target,
    leapfrog,
    run_hmc,
)
from steingrad import sampler
from steingrad.oracles import fd_gradient


def std_normal_logp(q):
    return -0.5 * np.einsum("...d,...d->...", q, q)


def std_normal_score(q):
    return -q


def reference_chains(target_logp, score_fn, cfg, init, seeds):
    """Per-chain Metropolis-Hastings loop with a scalar log density.

    The accept step as it was before it was vectorised over chains, kept as
    the reference the batched sampler must reproduce bit for bit.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    q = np.array(init, dtype=float)
    n_chains, d = q.shape
    traj = np.empty((n_chains, cfg.n_iters, d))
    accepts = np.zeros((n_chains, cfg.n_iters), dtype=bool)
    n_div = np.zeros(n_chains, dtype=int)
    logp = [float(target_logp(x)) for x in q]
    p = np.empty_like(q)
    u = np.empty(n_chains)
    for t in range(cfg.n_iters):
        for c, rng in enumerate(rngs):
            p[c] = rng.standard_normal(d)
            u[c] = rng.uniform()
        q_new, p_new, diverged_at = leapfrog(q, p, cfg.stepsize, cfg.n_leapfrog, score_fn)
        for c in range(n_chains):
            if diverged_at[c] >= 0:
                n_div[c] += 1
                continue
            logp_new = float(target_logp(q_new[c]))
            log_alpha = (logp_new - 0.5 * float(p_new[c] @ p_new[c])) - (
                logp[c] - 0.5 * float(p[c] @ p[c])
            )
            if log_alpha >= 0.0 or math.log(u[c]) < log_alpha:
                q[c], logp[c] = q_new[c], logp_new
                accepts[c, t] = True
        traj[:, t] = q
    return traj, accepts, n_div


class ZeroUniform:
    """A generator whose uniform() returns 0.0, the closed end of [0, 1)."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, size):
        return self._rng.standard_normal(size)

    def uniform(self):
        return 0.0


class TestBananaTarget:
    def test_log_density_spot_value(self):
        # At (0, -3) the curvature term cancels the offset exactly, leaving
        # only the two Gaussian normalising constants.
        want = -0.5 * math.log(2 * math.pi * 100.0) - 0.5 * math.log(2 * math.pi)
        assert banana_log_density([0.0, -3.0]) == pytest.approx(want, abs=1e-13)
        assert want == pytest.approx(-4.140462159403391, abs=1e-12)

    def test_score_spot_value(self):
        np.testing.assert_array_equal(banana_score([0.0, -3.0]), [0.0, 0.0])

    def test_score_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(0.0, 5.0, size=2)
            got = banana_score(x)
            want = fd_gradient(lambda z: banana_log_density(z), x)
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_density_normalisation_one_dim_slices(self):
        # Integrating exp(logp) over x2 at fixed x1 gives the x1 marginal.
        x1 = 4.0
        grid = np.linspace(-40, 40, 20001)
        vals = np.array([math.exp(banana_log_density([x1, t])) for t in grid])
        integral = np.trapezoid(vals, grid)
        want = math.exp(-0.5 * x1**2 / 100.0) / math.sqrt(2 * math.pi * 100.0)
        assert integral == pytest.approx(want, rel=1e-8)

    def test_sample_moments(self):
        rng = np.random.default_rng(1)
        xs = banana_sample(200_000, rng)
        assert xs.shape == (200_000, 2)
        assert abs(xs[:, 0].mean()) < 0.15
        assert xs[:, 0].var() == pytest.approx(100.0, rel=0.03)
        # Var(x2) = 1 + 2 b^2 v^2 = 19 for the default parameters
        assert xs[:, 1].var() == pytest.approx(19.0, rel=0.05)

    def test_samples_follow_generative_recipe(self):
        rng = np.random.default_rng(2)
        xs = banana_sample(100_000, rng)
        resid = xs[:, 1] - 0.03 * (xs[:, 0] ** 2 - 100.0)
        assert stats.kstest(resid, "norm").statistic < 0.01

    def test_non_default_parameters(self):
        # b = 0.05, v = 50 at (1, 2): the residual is 2 - 0.05 (1 - 50) = 4.45
        x = np.array([1.0, 2.0])
        want = (
            -0.5 * math.log(2 * math.pi * 50.0)
            - 0.5 / 50.0
            - 0.5 * math.log(2 * math.pi)
            - 0.5 * 4.45**2
        )
        assert banana_log_density(x, 0.05, 50.0) == pytest.approx(want, abs=1e-13)
        np.testing.assert_allclose(
            banana_score(x, 0.05, 50.0), [-1.0 / 50.0 + 2 * 0.05 * 4.45, -4.45], rtol=1e-13
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            banana_log_density([0.0, 0.0], v=-1.0)
        with pytest.raises(ValueError):
            banana_score([0.0, 0.0], b=np.inf)
        with pytest.raises(ValueError):
            banana_log_density([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            banana_sample(0, np.random.default_rng(0))


class TestLeapfrog:
    # one chain is the (1, d) case of the batched integrator

    def test_reversibility(self):
        # Integrate, flip the momentum, integrate again: back to the start.
        q0 = np.array([[1.0, -0.5]])
        p0 = np.array([[0.3, 0.7]])
        q1, p1, _ = leapfrog(q0, p0, 0.1, 50, banana_score)
        q2, p2, _ = leapfrog(q1, -p1, 0.1, 50, banana_score)
        np.testing.assert_allclose(q2, q0, atol=1e-10)
        np.testing.assert_allclose(p2, -p0, atol=1e-10)

    def test_energy_conservation_on_gaussian(self):
        q0 = np.array([[1.0, -0.5]])
        p0 = np.array([[0.3, 0.7]])
        h0 = -std_normal_logp(q0[0]) + 0.5 * p0[0] @ p0[0]
        q1, p1, _ = leapfrog(q0, p0, 0.1, 1000, std_normal_score)
        h1 = -std_normal_logp(q1[0]) + 0.5 * p1[0] @ p1[0]
        assert abs(h1 - h0) < 0.01

    def test_volume_preservation_on_gaussian(self):
        # With score(q) = -q one leapfrog step is a linear map of (q, p);
        # its Jacobian determinant must be exactly one.
        eps = 0.3
        cols = []
        for e in np.eye(2):
            q, p, _ = leapfrog(e[None, :1], e[None, 1:], eps, 1, std_normal_score)
            cols.append([q[0, 0], p[0, 0]])
        det = np.linalg.det(np.array(cols).T)
        assert det == pytest.approx(1.0, abs=1e-12)

    def test_zero_steps_returns_inputs(self):
        q0 = np.array([[1.0, 2.0]])
        p0 = np.array([[-1.0, 0.5]])
        q, p, diverged_at = leapfrog(q0, p0, 0.1, 0, std_normal_score)
        np.testing.assert_array_equal(q, q0)
        np.testing.assert_array_equal(p, p0)
        np.testing.assert_array_equal(diverged_at, [-1])
        assert q is not q0 and p is not p0

    def test_exact_harmonic_rotation(self):
        # For a 1-D standard normal, leapfrog at small stepsize tracks the
        # exact flow (a rotation of phase space) to O(eps^2) per unit time.
        q0, p0 = np.array([[1.0]]), np.array([[0.0]])
        t = 1.0
        n = 1000
        q, p, _ = leapfrog(q0, p0, t / n, n, std_normal_score)
        assert q[0, 0] == pytest.approx(math.cos(t), abs=1e-5)
        assert p[0, 0] == pytest.approx(-math.sin(t), abs=1e-5)

    def test_divergence_reports_step_index(self):
        # a non-finite score at the first half kick diverges the chain at
        # step 0, and the chain keeps its input state
        def bad_score(q):
            return np.full_like(q, np.nan)

        q0, p0 = np.zeros((1, 1)), np.ones((1, 1))
        q, p, diverged_at = leapfrog(q0, p0, 0.1, 5, bad_score)
        np.testing.assert_array_equal(diverged_at, [0])
        np.testing.assert_array_equal(q, q0)
        np.testing.assert_array_equal(p, p0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            leapfrog(np.zeros((2, 2)), np.zeros(4), 0.1, 1, std_normal_score)
        with pytest.raises(ValueError):
            leapfrog(np.zeros((1, 2)), np.zeros((1, 3)), 0.1, 1, std_normal_score)
        with pytest.raises(ValueError, match="n_chains"):
            leapfrog(np.zeros(2), np.zeros(2), 0.1, 1, std_normal_score)
        with pytest.raises(ValueError):
            leapfrog(np.zeros((1, 2)), np.zeros((1, 2)), -0.1, 1, std_normal_score)
        with pytest.raises(ValueError):
            leapfrog(np.zeros((1, 2)), np.zeros((1, 2)), 0.1, -1, std_normal_score)


class TestHmcConfig:
    def test_validation(self):
        good = dict(n_chains=2, n_iters=10, stepsize=0.1, n_leapfrog=5)
        HmcConfig(**good)
        for key, bad in [
            ("n_chains", 0),
            ("n_iters", 0),
            ("stepsize", 0.0),
            ("n_leapfrog", 0),
            ("burn_in_fraction", 1.0),
            ("burn_in_fraction", -0.1),
        ]:
            kwargs = dict(good)
            kwargs[key] = bad
            with pytest.raises(ValueError):
                HmcConfig(**kwargs)


class TestRunChain:
    """Single-chain runs: run_hmc with one chain and one chain seed."""

    def test_tiny_stepsize_accepts_everything(self):
        # At stepsize 1e-6 the Hamiltonian error is negligible, so every
        # proposal is accepted.
        cfg = HmcConfig(n_chains=1, n_iters=10, stepsize=1e-6, n_leapfrog=3)
        res = run_hmc(std_normal_logp, std_normal_score, cfg, np.zeros((1, 2)), chain_seeds=[3])
        assert res.accepts.all()
        assert res.n_divergent == 0
        assert res.trajectories.shape == (1, 10, 2)

    def test_divergent_proposals_are_rejected_in_place(self):
        def bad_score(q):
            return np.full_like(q, np.inf)

        cfg = HmcConfig(n_chains=1, n_iters=7, stepsize=0.1, n_leapfrog=3)
        q0 = np.array([[1.5, -2.0]])
        res = run_hmc(banana_log_density, bad_score, cfg, q0, chain_seeds=[4])
        assert res.n_divergent == 7
        assert not res.accepts.any()
        np.testing.assert_array_equal(res.trajectories[0], np.tile(q0, (7, 1)))

    def test_zero_uniform_accepts_every_finite_proposal(self, monkeypatch):
        # log 0 = -inf lies below every log acceptance ratio, so even moves
        # up this steep slope, with log_alpha near -1000 per unit, are taken
        def slope_logp(q):
            return -1e3 * q[:, 0]

        monkeypatch.setattr(sampler, "_chain_rngs", lambda *args: [ZeroUniform(6)])
        cfg = HmcConfig(n_chains=1, n_iters=20, stepsize=0.5, n_leapfrog=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_hmc(slope_logp, std_normal_score, cfg, np.zeros((1, 2)), seed=0)
        assert res.accepts.all()
        assert res.n_divergent == 0
        assert np.diff(res.trajectories[0, :, 0]).max() > 0.1

    def test_zero_uniform_still_rejects_nan_and_zero_density(self, monkeypatch):
        cfg = HmcConfig(n_chains=1, n_iters=5, stepsize=0.5, n_leapfrog=3)
        q0 = np.array([[0.5, -0.5]])
        for bad in (np.nan, -np.inf):
            calls = []

            def logp(q):
                calls.append(q.shape)
                return np.full(1, 0.0 if len(calls) == 1 else bad)

            monkeypatch.setattr(sampler, "_chain_rngs", lambda *args: [ZeroUniform(7)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = run_hmc(logp, std_normal_score, cfg, q0, seed=0)
            assert calls == [(1, 2)] * (cfg.n_iters + 1)
            assert not res.accepts.any()
            np.testing.assert_array_equal(res.trajectories[0], np.tile(q0, (5, 1)))

    def test_non_finite_start_is_rejected(self):
        cfg = HmcConfig(n_chains=1, n_iters=3, stepsize=0.5, n_leapfrog=2)
        for init in ([[np.nan, 0.0]], [[0.0, np.inf]], np.zeros(2)):
            with pytest.raises(ValueError, match="init"):
                run_hmc(std_normal_logp, std_normal_score, cfg, init, chain_seeds=[0])

    @pytest.mark.parametrize(
        "bad", [lambda q: -0.5 * (q * q).sum(axis=1, keepdims=True), lambda q: 0.0]
    )
    def test_target_logp_shape_is_checked(self, bad):
        cfg = HmcConfig(n_chains=1, n_iters=3, stepsize=0.5, n_leapfrog=3)
        with pytest.raises(ValueError, match="target_logp returned shape"):
            run_hmc(bad, std_normal_score, cfg, np.zeros((1, 2)), chain_seeds=[8])


class TestRunHmc:
    def test_bitwise_reproducible(self):
        cfg = HmcConfig(n_chains=4, n_iters=50, stepsize=0.5, n_leapfrog=5)
        init = np.zeros((4, 2))
        a = run_hmc(banana_log_density, banana_score, cfg, init, seed=11)
        b = run_hmc(banana_log_density, banana_score, cfg, init, seed=11)
        np.testing.assert_array_equal(a.trajectories, b.trajectories)
        np.testing.assert_array_equal(a.accepts, b.accepts)
        assert a.acceptance_rate == b.acceptance_rate
        assert a.mean_x1 == b.mean_x1

    def test_chains_commute_with_seed_permutation(self):
        # A chain's path depends only on its own seed and start, never on
        # its position in the batch.
        cfg = HmcConfig(n_chains=4, n_iters=30, stepsize=0.5, n_leapfrog=5)
        rng = np.random.default_rng(13)
        init = rng.standard_normal((4, 2))
        seeds = [101, 202, 303, 404]
        perm = [2, 0, 3, 1]
        a = run_hmc(banana_log_density, banana_score, cfg, init, chain_seeds=seeds)
        b = run_hmc(
            banana_log_density,
            banana_score,
            cfg,
            init[perm],
            chain_seeds=[seeds[i] for i in perm],
        )
        np.testing.assert_array_equal(b.trajectories, a.trajectories[perm])

    def test_divergence_mask_matches_chains_run_alone(self):
        # The score is infinite beyond x0 = 1, so chains that step there
        # diverge.  The two chains that start there diverge on every
        # iteration; the others only when a trajectory crosses the line.
        threshold = 1.0
        calls = []

        def capped_score(x):
            assert np.all(np.isfinite(x)), "non-finite position reached the score"
            calls.append(x.shape)
            return np.where(x[..., :1] > threshold, np.inf, -x)

        cfg = HmcConfig(n_chains=6, n_iters=30, stepsize=0.5, n_leapfrog=5)
        init = np.array(
            [[-1.5, 0.0], [-0.5, 1.0], [0.0, 0.0], [0.5, -1.0], [1.5, 0.5], [2.0, -2.0]]
        )
        seeds = [11, 22, 33, 44, 55, 66]
        res = run_hmc(std_normal_logp, capped_score, cfg, init, chain_seeds=seeds)
        assert calls == [(6, 2)] * (cfg.n_iters * (cfg.n_leapfrog + 1))

        one = HmcConfig(n_chains=1, n_iters=30, stepsize=0.5, n_leapfrog=5)
        alone = [
            run_hmc(std_normal_logp, capped_score, one, init[c:c + 1], chain_seeds=[seeds[c]])
            for c in range(6)
        ]
        for c, run in enumerate(alone):
            np.testing.assert_array_equal(res.trajectories[c], run.trajectories[0])
            np.testing.assert_array_equal(res.accepts[c], run.accepts[0])
        n_div = [run.n_divergent for run in alone]
        assert res.n_divergent == sum(n_div)
        assert n_div[4] == n_div[5] == cfg.n_iters
        assert 0 < sum(n_div[:4]) < 4 * cfg.n_iters
        for c in (4, 5):
            np.testing.assert_array_equal(res.trajectories[c], np.tile(init[c], (30, 1)))
            assert not res.accepts[c].any()

    @settings(max_examples=60, deadline=None)
    @given(
        n_chains=st.integers(1, 7),
        data=st.data(),
        stepsize=st.sampled_from([0.3, 0.8, 1.5]),
    )
    def test_batched_accept_matches_per_chain_loop(self, n_chains, data, stepsize):
        seeds = data.draw(
            st.lists(st.integers(0, 2**32 - 1), min_size=n_chains, max_size=n_chains)
        )
        init = data.draw(
            arrays(float, (n_chains, 2), elements=st.floats(-4.0, 4.0, width=64))
        )
        threshold = 2.5

        def capped_score(x):
            return np.where(x[..., :1] > threshold, np.inf, banana_score(x))

        calls = []

        def logp(q):
            calls.append(q.shape)
            return banana_log_density(q)

        cfg = HmcConfig(n_chains=n_chains, n_iters=12, stepsize=stepsize, n_leapfrog=4)
        res = run_hmc(logp, capped_score, cfg, init, chain_seeds=seeds)
        traj, accepts, n_div = reference_chains(
            banana_log_density, capped_score, cfg, init, seeds
        )
        np.testing.assert_array_equal(res.trajectories, traj)
        np.testing.assert_array_equal(res.accepts, accepts)
        assert res.n_divergent == n_div.sum()
        assert calls == [(n_chains, 2)] * (cfg.n_iters + 1)

    def test_diverged_chain_is_rejected_whatever_its_logp(self):
        # every call scores every row 1e6 higher than the last, so each
        # proposal passes the Metropolis test unless its chain diverged
        threshold = 1.0
        calls = []

        def rising_logp(q):
            assert np.all(np.isfinite(q)), "non-finite position reached target_logp"
            calls.append(q.shape)
            return np.full(q.shape[0], 1e6 * len(calls))

        def capped_score(x):
            return np.where(x[..., :1] > threshold, np.inf, -x)

        cfg = HmcConfig(n_chains=3, n_iters=10, stepsize=0.5, n_leapfrog=5)
        init = np.array([[-1.0, 0.0], [2.0, 0.0], [3.0, 1.0]])
        res = run_hmc(rising_logp, capped_score, cfg, init, seed=9)
        assert calls == [(3, 2)] * (cfg.n_iters + 1)
        # chains 1 and 2 start beyond the threshold and diverge every time;
        # chain 0 takes every proposal that did not diverge
        div_0 = res.n_divergent - 2 * cfg.n_iters
        assert 0 <= div_0 < cfg.n_iters
        assert res.accepts[0].sum() == cfg.n_iters - div_0
        assert not res.accepts[1:].any()
        np.testing.assert_array_equal(
            res.trajectories[1:], np.tile(init[1:, None], (1, cfg.n_iters, 1))
        )

    def test_summaries_recomputable_from_trajectories(self):
        cfg = HmcConfig(
            n_chains=3, n_iters=25, stepsize=0.5, n_leapfrog=5, burn_in_fraction=0.2
        )
        init = np.zeros((3, 2))
        res = run_hmc(banana_log_density, banana_score, cfg, init, seed=14)
        n_burn = int(25 * 0.2)
        post = res.trajectories[:, n_burn:, 0]
        chain_means = post.mean(axis=1)
        assert res.mean_x1 == pytest.approx(chain_means.mean(), abs=1e-15)
        assert res.se_mean_x1 == pytest.approx(
            chain_means.std(ddof=1) / math.sqrt(3), abs=1e-15
        )
        assert res.acceptance_rate == res.accepts.mean()

    def test_ksd_fields_nan_without_target_score(self):
        cfg = HmcConfig(n_chains=2, n_iters=10, stepsize=0.5, n_leapfrog=3)
        res = run_hmc(banana_log_density, banana_score, cfg, np.zeros((2, 2)), seed=15)
        assert math.isnan(res.ksd_pooled)
        assert math.isnan(res.ksd_mean_per_chain)

    def test_ksd_fields_match_manual_computation(self):
        spec = KernelSpec("rbf", 4.0)
        cfg = HmcConfig(
            n_chains=2, n_iters=20, stepsize=0.5, n_leapfrog=3, burn_in_fraction=0.2
        )
        res = run_hmc(
            banana_log_density,
            banana_score,
            cfg,
            np.zeros((2, 2)),
            seed=16,
            ksd_score_fn=banana_score,
            ksd_spec=spec,
            ksd_pool_cap=10,
        )
        post = res.trajectories[:, 4:, :]
        per_chain = [ksd_to_target(post[c], banana_score, spec).value for c in range(2)]
        assert res.ksd_mean_per_chain == pytest.approx(np.mean(per_chain), rel=1e-12)
        pooled = post.reshape(-1, 2)
        step = math.ceil(pooled.shape[0] / 10)
        want = ksd_to_target(pooled[::step], banana_score, spec).value
        assert res.ksd_pooled == pytest.approx(want, rel=1e-12)

    def test_single_chain_has_nan_standard_error(self):
        cfg = HmcConfig(n_chains=1, n_iters=10, stepsize=0.5, n_leapfrog=3)
        res = run_hmc(banana_log_density, banana_score, cfg, np.zeros((1, 2)), seed=17)
        assert math.isnan(res.se_mean_x1)

    def test_keep_trajectories_flag(self):
        cfg = HmcConfig(n_chains=2, n_iters=10, stepsize=0.5, n_leapfrog=3)
        res = run_hmc(
            banana_log_density,
            banana_score,
            cfg,
            np.zeros((2, 2)),
            seed=18,
            keep_trajectories=False,
        )
        assert res.trajectories is None
        assert res.accepts is None
        assert isinstance(res, ChainStats)

    def test_argument_validation(self):
        cfg = HmcConfig(n_chains=2, n_iters=10, stepsize=0.5, n_leapfrog=3)
        with pytest.raises(ValueError):
            run_hmc(banana_log_density, banana_score, cfg, np.zeros((3, 2)), seed=19)
        with pytest.raises(ValueError):
            run_hmc(banana_log_density, banana_score, cfg, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            run_hmc(
                banana_log_density,
                banana_score,
                cfg,
                np.zeros((2, 2)),
                seed=19,
                ksd_score_fn=banana_score,
            )
        with pytest.raises(ValueError):
            run_hmc(
                banana_log_density,
                banana_score,
                cfg,
                np.zeros((2, 2)),
                chain_seeds=[1],
            )

    def test_standard_normal_marginal_matches_exact_law(self):
        # Long exact-score run on a 1-D standard normal: the pooled
        # post-burn-in draws pass a loose Kolmogorov-Smirnov check.
        cfg = HmcConfig(
            n_chains=20, n_iters=800, stepsize=0.8, n_leapfrog=5, burn_in_fraction=0.2
        )
        init = np.linspace(-2.0, 2.0, 20)[:, None]
        res = run_hmc(std_normal_logp, std_normal_score, cfg, init, seed=123)
        post = res.trajectories[:, 160:, :].reshape(-1)
        assert stats.kstest(post, "norm").statistic < 0.02
        assert 0.6 < res.acceptance_rate <= 1.0
