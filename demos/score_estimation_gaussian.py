"""Fit every score estimator to Gaussian samples and compare against truth.

The target is a correlated 2-D Gaussian, so the exact score is available in
closed form and each estimator's gradient field can be scored by mean squared
error, both at the training samples and at fresh held-out points.
"""

import numpy as np

from steingrad import (
    KernelSpec,
    fit_estimator,
    median_heuristic,
)
from steingrad.estimators import KINDS, KIND_SCORE, KIND_STEIN_U


def main():
    rng = np.random.default_rng(0)
    cov = np.array([[1.0, 0.6], [0.6, 1.5]])
    prec = np.linalg.inv(cov)
    chol = np.linalg.cholesky(cov)

    train = rng.standard_normal((300, 2)) @ chol.T
    held_out = rng.standard_normal((100, 2)) @ chol.T

    def true_score(xs):
        return -xs @ prec.T

    sigma2 = median_heuristic(train)
    rbf = KernelSpec("rbf", sigma2)
    epan = KernelSpec("epanechnikov")
    print(f"training samples: {train.shape[0]}, median bandwidth sigma2 = {sigma2:.3f}")
    print()
    print(f"{'estimator':<22} {'train mse':>10} {'held-out mse':>13}")

    # every kind with the rbf kernel, and score matching with both families
    for kind, spec in [(kind, rbf) for kind in KINDS] + [(KIND_SCORE, epan)]:
        label = f"{kind} ({spec.family})"
        fit = fit_estimator(kind, train, spec, eta=0.1)
        mse_train = float(np.mean((fit.grads_at_train() - true_score(train)) ** 2))
        if kind == KIND_STEIN_U:
            # the U-statistic gradient field is defined at the samples only
            print(f"{label:<22} {mse_train:>10.4f} {'n/a':>13}")
            continue
        mse_out = float(np.mean((fit.predict(held_out) - true_score(held_out)) ** 2))
        print(f"{label:<22} {mse_train:>10.4f} {mse_out:>13.4f}")

    print()
    print("the trivial baseline g(x) = 0 scores", end=" ")
    print(f"{float(np.mean(true_score(train) ** 2)):.4f} on the training points")


if __name__ == "__main__":
    main()
