"""Hamiltonian Monte Carlo with a pluggable score function, plus the banana.

The sampler follows the gradient-free HMC protocol: the leapfrog integrator
consumes whatever score function it is given (exact, or the prediction rule
of a fitted estimator), while the Metropolis-Hastings correction always uses
the exact target log density and the standard Gaussian kinetic energy.  When
the score is only an estimate the invariant distribution is therefore not
exactly the target; the point of the harness is to measure how close the
samples get.

The benchmark target is the banana distribution

    x1 ~ N(0, v),    x2 = eps + b (x1^2 - v),   eps ~ N(0, 1)

with defaults b = 0.03, v = 100, so E[x2] = 0 and Var(x2) = 1 + 2 b^2 v^2.

All chains advance in lockstep: positions and momenta are (n_chains, d)
arrays, and each leapfrog step makes one score call on every chain's row at
once, so score functions follow the batched contract (n, d) -> (n, d).  The
target log density follows the matching contract (n, d) -> (n,): each
iteration makes one call on every chain's proposal, and the accept test runs
as array operations over the chain axis.  The chains stay independent: each
one owns a private RNG stream derived from (master seed, chain index), and a
chain whose trajectory diverges is masked out of its iteration without
touching the others, so a chain's path depends only on its own seed and
start and results are bitwise reproducible.
"""

import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import ksd_v
from .kernels import KernelSpec, as_samples

BANANA_B = 0.03
BANANA_V = 100.0


def _check_banana_params(b, v):
    if not np.isfinite(b):
        raise ValueError(f"banana curvature b must be finite, got {b!r}")
    if not np.isfinite(v) or v <= 0:
        raise ValueError(f"banana variance v must be > 0, got {v!r}")
    return float(b), float(v)


def _banana_points(x):
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 2:
        raise ValueError(
            f"banana target is 2-D: expected shape (2,) or (n, 2), got {arr.shape}"
        )
    return arr


def banana_log_density(x, b: float = BANANA_B, v: float = BANANA_V):
    """log N(x1; 0, v) + log N(x2; b (x1^2 - v), 1), normalising constants in.

    A point of shape (2,) gives a float, a batch of shape (n, 2) an (n,)
    array.
    """
    b, v = _check_banana_params(b, v)
    x = _banana_points(x)
    x1, x2 = x[..., 0], x[..., 1]
    # products, not ** 2: numpy's scalar power can round differently from
    # its array square, and a point must score as it does inside a batch
    resid = x2 - b * (x1 * x1 - v)
    logp = (
        -0.5 * math.log(2.0 * math.pi * v)
        - 0.5 * (x1 * x1) / v
        - 0.5 * math.log(2.0 * math.pi)
        - 0.5 * (resid * resid)
    )
    return float(logp) if x.ndim == 1 else logp


def banana_score(x, b: float = BANANA_B, v: float = BANANA_V) -> np.ndarray:
    """Gradient of the banana log density: (-x1/v + 2 b x1 r, -r).

    Returns the shape of ``x``: (2,) for a point, (n, 2) for a batch.
    """
    b, v = _check_banana_params(b, v)
    x = _banana_points(x)
    x1, x2 = x[..., 0], x[..., 1]
    resid = x2 - b * (x1 * x1 - v)
    return np.stack([-x1 / v + 2.0 * b * x1 * resid, -resid], axis=-1)


def banana_sample(n: int, rng: np.random.Generator, b: float = BANANA_B, v: float = BANANA_V) -> np.ndarray:
    """Draw n exact banana samples through the generative definition."""
    b, v = _check_banana_params(b, v)
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n!r}")
    x1 = rng.normal(0.0, math.sqrt(v), size=n)
    x2 = rng.standard_normal(n) + b * (x1**2 - v)
    return np.column_stack([x1, x2])


@dataclass(frozen=True)
class HmcConfig:
    """Static parameters of one HMC run."""

    n_chains: int
    n_iters: int
    stepsize: float
    n_leapfrog: int
    burn_in_fraction: float = 0.2

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError(f"n_chains must be >= 1, got {self.n_chains}")
        if self.n_iters < 1:
            raise ValueError(f"n_iters must be >= 1, got {self.n_iters}")
        if not np.isfinite(self.stepsize) or self.stepsize <= 0:
            raise ValueError(f"stepsize must be > 0, got {self.stepsize!r}")
        if self.n_leapfrog < 1:
            raise ValueError(f"n_leapfrog must be >= 1, got {self.n_leapfrog}")
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ValueError(
                f"burn_in_fraction must be in [0, 1), got {self.burn_in_fraction!r}"
            )


@dataclass(frozen=True)
class ChainStats:
    """Diagnostics of one multi-chain run, post burn-in where applicable.

    ``ksd_pooled`` and ``ksd_mean_per_chain`` are NaN unless the run was
    given a target score function to measure against.  ``trajectories`` has
    shape (n_chains, n_iters, d) and holds the post-decision state of every
    iteration (burn-in included).
    """

    acceptance_rate: float
    mean_x1: float
    se_mean_x1: float
    ksd_pooled: float
    ksd_mean_per_chain: float
    n_divergent: int
    trajectories: np.ndarray | None
    accepts: np.ndarray | None  # (n_chains, n_iters) bool


def leapfrog(q, p, stepsize: float, n_steps: int, score_fn):
    """Integrate Hamilton's equations with the leapfrog scheme.

    Kinetic energy is ||p||^2 / 2 (identity mass); the force is the score,
    i.e. d p / d t = grad log pi(q).  ``q`` and ``p`` are (n_chains, d), so
    one chain is the (1, d) case, and ``score_fn`` maps an (n, d) array of
    positions to the (n, d) array of their scores; each step makes one
    ``score_fn`` call on all chains.

    Returns ``(q, p, diverged_at)``, where ``diverged_at[c]`` is the step at
    which chain c's position, momentum or score first went non-finite, or
    -1.  A diverged chain's rows of ``q`` and ``p`` are its inputs, and from
    its divergence on it is evaluated at its input position, so ``score_fn``
    only ever sees finite rows.  n_steps = 0 returns copies of the inputs.
    """
    q = np.array(q, dtype=float)
    p = np.array(p, dtype=float)
    if q.ndim != 2 or q.shape != p.shape:
        raise ValueError(
            f"q and p must be (n_chains, d) arrays of equal shape, "
            f"got {q.shape}, {p.shape}"
        )
    if not np.isfinite(stepsize) or stepsize <= 0:
        raise ValueError(f"stepsize must be > 0, got {stepsize!r}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    eps = float(stepsize)
    q0, p0 = q, p
    diverged_at = np.full(q.shape[0], -1)
    if n_steps == 0:
        return q, p, diverged_at

    def force(x):
        g = np.asarray(score_fn(x), dtype=float)
        if g.shape != x.shape:
            raise ValueError(
                f"score_fn returned shape {g.shape} for positions of shape {x.shape}"
            )
        return g

    def settle(q, p, checked, step):
        # chains with a non-finite row in `checked` diverge at this step; every
        # diverged chain is put back at its input state
        new = ~np.isfinite(checked).all(axis=1) & (diverged_at < 0)
        diverged_at[new] = step
        if diverged_at.max() < 0:
            return q, p
        dead = (diverged_at >= 0)[:, None]
        return np.where(dead, q0, q), np.where(dead, p0, p)

    # a non-finite score leaves a non-finite momentum, so checking p after
    # each kick also covers the score
    p = p + 0.5 * eps * force(q)
    q, p = settle(q, p, p, 0)
    for step in range(n_steps):
        q = q + eps * p
        q, p = settle(q, p, q, step)
        scale = eps if step < n_steps - 1 else 0.5 * eps
        p = p + scale * force(q)
        q, p = settle(q, p, p, step)
    return q, p, diverged_at


def _log_density(target_logp, q):
    """``target_logp`` on the rows of ``q``, held to the (n, d) -> (n,) contract."""
    logp = np.array(target_logp(q), dtype=float)
    if logp.shape != q.shape[:1]:
        raise ValueError(
            f"target_logp returned shape {logp.shape} for positions of shape {q.shape}"
        )
    return logp


def _kinetic(p):
    return 0.5 * np.einsum("nd,nd->n", p, p)


def _run_chains(target_logp, score_fn, cfg: HmcConfig, init, rngs):
    """Advance the chains of ``init`` (n_chains, d) in lockstep.

    Returns the trajectories (n_chains, n_iters, d), the accept flags
    (n_chains, n_iters) and the number of divergent iterations per chain.
    """
    q = np.array(init, dtype=float)
    n_chains, d = q.shape
    traj = np.empty((n_chains, cfg.n_iters, d))
    accepts = np.zeros((n_chains, cfg.n_iters), dtype=bool)
    n_div = np.zeros(n_chains, dtype=int)
    logp = _log_density(target_logp, q)
    p = np.empty_like(q)
    u = np.empty(n_chains)
    for t in range(cfg.n_iters):
        for c, rng in enumerate(rngs):
            p[c] = rng.standard_normal(d)
            u[c] = rng.uniform()
        q_new, p_new, diverged_at = leapfrog(q, p, cfg.stepsize, cfg.n_leapfrog, score_fn)
        diverged = diverged_at >= 0
        # a diverged chain's row of q_new is its current, finite position
        logp_new = _log_density(target_logp, q_new)
        # u = 0 gives log u = -inf, an accept; a NaN log_alpha rejects
        with np.errstate(divide="ignore", invalid="ignore"):
            log_alpha = (logp_new - _kinetic(p_new)) - (logp - _kinetic(p))
            accept = ~diverged & ((log_alpha >= 0.0) | (np.log(u) < log_alpha))
        q[accept] = q_new[accept]
        logp[accept] = logp_new[accept]
        accepts[:, t] = accept
        n_div += diverged
        traj[:, t] = q
    return traj, accepts, n_div


def _chain_rngs(seed, n_chains, chain_seeds):
    if chain_seeds is not None:
        if len(chain_seeds) != n_chains:
            raise ValueError(
                f"got {len(chain_seeds)} chain seeds for {n_chains} chains"
            )
        return [np.random.default_rng(s) for s in chain_seeds]
    if seed is None:
        raise ValueError("run_hmc needs a master seed (or explicit chain seeds)")
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_chains)]


def run_hmc(
    target_logp,
    score_fn,
    cfg: HmcConfig,
    init,
    seed=None,
    *,
    chain_seeds=None,
    ksd_score_fn=None,
    ksd_spec: KernelSpec | None = None,
    ksd_pool_cap: int = 2000,
    keep_trajectories: bool = True,
) -> ChainStats:
    """Run cfg.n_chains independent HMC chains in lockstep and summarise them.

    Parameters
    ----------
    target_logp
        Exact log density, used in the accept step, on the batched contract
        (n, d) -> (n,): it is called once on the initial states and then once
        per iteration, with every chain's proposal, and only ever sees finite
        rows.  A proposal whose log density is NaN or -inf is rejected, and
        a return of any shape but (n,) raises ValueError.
    score_fn
        The (possibly estimated) score driving the leapfrog dynamics, on
        the batched contract (n, d) -> (n, d): each leapfrog step calls it
        once with the positions of all chains.
    init : (n_chains, d) array
        One starting state per chain.
    seed : int
        Master seed; chain i draws from a stream spawned at index i, so the
        run is reproducible bit for bit and chains never share randomness.
    chain_seeds : sequence, optional
        Explicit per-chain seeds overriding the derivation from ``seed``.
    ksd_score_fn, ksd_spec : optional
        When both are given, the kernelised Stein discrepancy (constant term
        included) of the post-burn-in samples against that score is
        reported, per chain (averaged) and pooled.  ``ksd_score_fn`` follows
        the (n, d) -> (n, d) contract and is called once, on every
        post-burn-in sample.  The pooled sample is thinned evenly to at most
        ``ksd_pool_cap`` points to keep the quadratic cost bounded.
    """
    init = as_samples(init, name="init")
    if init.shape[0] != cfg.n_chains:
        raise ValueError(
            f"init has {init.shape[0]} rows for {cfg.n_chains} chains"
        )
    if (ksd_score_fn is None) != (ksd_spec is None):
        raise ValueError("ksd_score_fn and ksd_spec must be supplied together")
    if ksd_pool_cap < 2:
        raise ValueError(f"ksd_pool_cap must be >= 2, got {ksd_pool_cap}")
    rngs = _chain_rngs(seed, cfg.n_chains, chain_seeds)

    traj, accepts, n_div = _run_chains(target_logp, score_fn, cfg, init, rngs)
    n_burn = int(cfg.n_iters * cfg.burn_in_fraction)
    post = traj[:, n_burn:, :]
    chain_means = post[:, :, 0].mean(axis=1)
    mean_x1 = float(chain_means.mean())
    if cfg.n_chains > 1:
        se_mean_x1 = float(chain_means.std(ddof=1) / math.sqrt(cfg.n_chains))
    else:
        se_mean_x1 = float("nan")

    ksd_pooled = ksd_mean = float("nan")
    if ksd_score_fn is not None:
        pooled = post.reshape(-1, traj.shape[2])
        grads = np.asarray(ksd_score_fn(pooled), dtype=float)
        if grads.shape != pooled.shape:
            raise ValueError(
                f"ksd_score_fn returned shape {grads.shape} for samples of "
                f"shape {pooled.shape}"
            )
        chain_grads = grads.reshape(post.shape)
        per_chain = [
            ksd_v(post[c], chain_grads[c], ksd_spec, includes_constant=True).value
            for c in range(cfg.n_chains)
        ]
        ksd_mean = float(np.mean(per_chain))
        step = max(1, math.ceil(pooled.shape[0] / ksd_pool_cap))
        ksd_pooled = ksd_v(
            pooled[::step], grads[::step], ksd_spec, includes_constant=True
        ).value

    return ChainStats(
        acceptance_rate=float(accepts.mean()),
        mean_x1=mean_x1,
        se_mean_x1=se_mean_x1,
        ksd_pooled=ksd_pooled,
        ksd_mean_per_chain=ksd_mean,
        n_divergent=int(n_div.sum()),
        trajectories=traj if keep_trajectories else None,
        accepts=accepts if keep_trajectories else None,
    )
