"""Gradient-free HMC on the banana target: exact score vs estimated score.

Both runs share the seed, the chain starting points, and the sample-quality
kernel, so their summary statistics are directly comparable.  The estimated
run never touches the target's gradient: the leapfrog integrator is driven
entirely by a score fitted to 200 samples.
"""

import numpy as np

from steingrad import (
    HmcConfig,
    KernelSpec,
    banana_log_density,
    banana_sample,
    banana_score,
    fit_estimator,
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
        return run_hmc(
            banana_log_density,
            score_fn,
            cfg,
            init,
            chain_seeds=chain_seeds,
            ksd_score_fn=banana_score,
            ksd_spec=metric,
        )

    print(f"{cfg.n_chains} chains x {cfg.n_iters} iterations, "
          f"stepsize {cfg.stepsize}, {cfg.n_leapfrog} leapfrog steps")
    print()

    exact = bench(banana_score)
    fit = fit_estimator("stein-v", train, metric, eta=0.1)
    estimated = bench(fit.predict)

    print(f"{'':<18} {'exact score':>12} {'estimated score':>16}")
    for label, attr in [
        ("acceptance rate", "acceptance_rate"),
        ("mean of x1", "mean_x1"),
        ("se of mean(x1)", "se_mean_x1"),
        ("pooled ksd", "ksd_pooled"),
    ]:
        a, b = getattr(exact, attr), getattr(estimated, attr)
        print(f"{label:<18} {a:>12.4f} {b:>16.4f}")
    print(f"{'divergences':<18} {exact.n_divergent:>12d} {estimated.n_divergent:>16d}")

    print()
    print("the banana's true E[x1] is 0; both runs should cover it within a")
    print("few standard errors, and the estimated run should stay close to")
    print("the exact one in acceptance rate and pooled sample quality")


if __name__ == "__main__":
    main()
