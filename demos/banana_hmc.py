"""Gradient-free HMC on the banana target: exact score vs estimated score.

Both runs share the seed, the chain starting points, and the sample-quality
kernel, so their summary statistics are directly comparable.  The estimated
run never touches the target's gradient: the leapfrog integrator is driven
entirely by a score fitted to 200 samples.
"""

import math

import numpy as np

from steingrad import (
    HmcConfig,
    KernelSpec,
    banana_log_density,
    banana_sample,
    banana_score,
    fit_estimator,
    ksd_to_target,
    median_heuristic,
    run_hmc,
)

SEED = 0
N_TRAIN = 200


def main():
    ss_train, ss_init, ss_chains = np.random.SeedSequence(SEED).spawn(3)
    train = banana_sample(N_TRAIN, np.random.default_rng(ss_train))
    cfg = HmcConfig(n_chains=50, n_iters=500, stepsize=0.5, n_leapfrog=10)

    rng_init = np.random.default_rng(ss_init)
    init = banana_sample(cfg.n_chains, rng_init) + 2.0 * rng_init.standard_normal(
        (cfg.n_chains, 2)
    )
    metric = KernelSpec("rbf", median_heuristic(train))
    chain_seeds = ss_chains.spawn(cfg.n_chains)

    def bench(score_fn):
        stats = run_hmc(banana_log_density, score_fn, cfg, init, chain_seeds=chain_seeds)
        # grade the post-burn-in states: the mean of x1 with its standard
        # error across chains, and the KSD against the exact score, the pool
        # thinned evenly to at most 2000 points
        post = stats.trajectories[:, cfg.n_burn:]
        chain_means = post[:, :, 0].mean(axis=1)
        se = chain_means.std(ddof=1) / math.sqrt(cfg.n_chains)
        pooled = post.reshape(-1, 2)
        step = max(1, math.ceil(pooled.shape[0] / 2000))
        ksd = ksd_to_target(pooled[::step], banana_score, metric).value
        return stats, chain_means.mean(), se, ksd

    print(f"{cfg.n_chains} chains x {cfg.n_iters} iterations, "
          f"stepsize {cfg.stepsize}, {cfg.n_leapfrog} leapfrog steps")
    print()

    exact, exact_mean, exact_se, exact_ksd = bench(banana_score)
    fit = fit_estimator("stein-v", train, metric, eta=0.1)
    estimated, estimated_mean, estimated_se, estimated_ksd = bench(fit.predict)

    print(f"{'':<18} {'exact score':>12} {'estimated score':>16}")
    for label, a, b in [
        ("acceptance rate", exact.acceptance_rate, estimated.acceptance_rate),
        ("mean of x1", exact_mean, estimated_mean),
        ("se of mean(x1)", exact_se, estimated_se),
        ("pooled ksd", exact_ksd, estimated_ksd),
    ]:
        print(f"{label:<18} {a:>12.4f} {b:>16.4f}")
    print(f"{'divergences':<18} {exact.n_divergent:>12d} {estimated.n_divergent:>16d}")

    print()
    print("the banana's true E[x1] is 0; both runs should cover it within a")
    print("few standard errors, and the estimated run should stay close to")
    print("the exact one in acceptance rate and pooled sample quality")


if __name__ == "__main__":
    main()
