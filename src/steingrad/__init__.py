"""steingrad: kernel-based score estimation and gradient-free HMC.

Estimate grad_x log q(x) from samples of q alone (kernel density, Stein, and
score-matching estimators), measure sample quality with the kernelised Stein
discrepancy, and drive Hamiltonian Monte Carlo with the estimated scores.
"""

from .discrepancy import KsdEstimate, ksd_to_target, ksd_u, ksd_v
from .errors import (
    DegenerateBandwidthError,
    DegenerateDenominatorError,
    NumericalError,
    SingularSolveError,
    SteinGradError,
)
from .estimators import (
    DEFAULT_ETA,
    KIND_KDE,
    KIND_SCORE,
    KIND_STEIN_PARAM_U,
    KIND_STEIN_PARAM_V,
    KIND_STEIN_U,
    KIND_STEIN_V,
    KINDS,
    FittedEstimator,
    entropy_gradient_surrogate,
    fit_estimator,
)
from .kernels import (
    EPANECHNIKOV,
    RBF,
    KernelMatrices,
    KernelSpec,
    build_matrices,
    cross_hess_trace,
    kernel_eval,
    kernel_grad_first_arg,
    median_heuristic,
)
from .oracles import FiniteDiffConfig, brute_ksd, fd_gradient, quadratic_minimiser
from .sampler import (
    ChainStats,
    HmcConfig,
    banana_log_density,
    banana_sample,
    banana_score,
    leapfrog,
    run_hmc,
)

__version__ = "0.1.0"

__all__ = [
    "ChainStats",
    "DEFAULT_ETA",
    "DegenerateBandwidthError",
    "DegenerateDenominatorError",
    "EPANECHNIKOV",
    "FiniteDiffConfig",
    "FittedEstimator",
    "HmcConfig",
    "KIND_KDE",
    "KIND_SCORE",
    "KIND_STEIN_PARAM_U",
    "KIND_STEIN_PARAM_V",
    "KIND_STEIN_U",
    "KIND_STEIN_V",
    "KINDS",
    "KernelMatrices",
    "KernelSpec",
    "KsdEstimate",
    "NumericalError",
    "RBF",
    "SingularSolveError",
    "SteinGradError",
    "banana_log_density",
    "banana_sample",
    "banana_score",
    "brute_ksd",
    "build_matrices",
    "cross_hess_trace",
    "entropy_gradient_surrogate",
    "fd_gradient",
    "fit_estimator",
    "kernel_eval",
    "kernel_grad_first_arg",
    "ksd_to_target",
    "ksd_u",
    "ksd_v",
    "leapfrog",
    "median_heuristic",
    "quadratic_minimiser",
    "run_hmc",
]
