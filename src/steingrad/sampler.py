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
once, so score functions follow the batched contract (n, d) -> (n, d).  A
score row may depend only on its own position: chain independence requires
it, and each chain carries its score from one iteration to the next (the
score at an accepted proposal is the one its trajectory's last kick used), so
a run makes one score call on the initial states and then n_leapfrog per
iteration.  The target log density follows the matching contract
(n, d) -> (n,): each iteration makes one call on every chain's proposal, and
the accept test runs as array operations over the chain axis.  The chains
stay independent: each one owns a private RNG stream built from its own
chain seed, and a chain whose trajectory diverges is masked out of its
iteration without touching the others, so a chain's path depends only on its
own seed and start and results are bitwise reproducible.  Each iteration a
chain draws its d momenta, written in place into its row of one (n_chains,
d) buffer, and then its accept uniform, ``random()``; ``uniform()`` would
return the same bits from the same draw.  The per-chain loop is the only
Python loop over chains; drawing all chains in one call would change every
stream.  The sampler only samples: the caller grades a run, on
``trajectories[:, cfg.n_burn:]``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import as_samples, call_score, check_number

BANANA_B = 0.03
BANANA_V = 100.0


def _check_banana_params(b, v):
    b = check_number(b, "banana curvature b")
    v = check_number(v, "banana variance v", gt=0)
    return float(b), float(v)


def _banana_terms(x, b, v):
    """Checked ``(b, v)``, x1 and x2 - b (x1^2 - v) of a point (2,) or a batch (n, 2)."""
    b, v = _check_banana_params(b, v)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 2:
        raise ValueError(
            f"banana target is 2-D: expected shape (2,) or (n, 2), got {x.shape}"
        )
    x1, x2 = x[..., 0], x[..., 1]
    # products, not ** 2: numpy's scalar power can round differently from
    # its array square, and a point must score as it does inside a batch
    return b, v, x1, x2 - b * (x1 * x1 - v)


def banana_log_density(x, b: float = BANANA_B, v: float = BANANA_V):
    """log N(x1; 0, v) + log N(x2; b (x1^2 - v), 1), normalising constants in.

    A point of shape (2,) gives a float, a batch of shape (n, 2) an (n,)
    array.
    """
    b, v, x1, resid = _banana_terms(x, b, v)
    logp = (
        -0.5 * math.log(2.0 * math.pi * v)
        - 0.5 * (x1 * x1) / v
        - 0.5 * math.log(2.0 * math.pi)
        - 0.5 * (resid * resid)
    )
    return float(logp) if x1.ndim == 0 else logp


def banana_score(x, b: float = BANANA_B, v: float = BANANA_V) -> np.ndarray:
    """Gradient of the banana log density: (-x1/v + 2 b x1 r, -r).

    Returns the shape of ``x``: (2,) for a point, (n, 2) for a batch.
    """
    b, v, x1, resid = _banana_terms(x, b, v)
    return np.stack([-x1 / v + 2.0 * b * x1 * resid, -resid], axis=-1)


def banana_sample(n: int, rng: np.random.Generator, b: float = BANANA_B, v: float = BANANA_V) -> np.ndarray:
    """Draw n exact banana samples through the generative definition."""
    b, v = _check_banana_params(b, v)
    check_number(n, "n", ge=1, integer=True)
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
        for field in ("n_chains", "n_iters", "n_leapfrog"):
            check_number(getattr(self, field), field, ge=1, integer=True)
        check_number(self.stepsize, "stepsize", gt=0)
        if not check_number(self.burn_in_fraction, "burn_in_fraction", ge=0) < 1:
            raise ValueError(
                f"burn_in_fraction must be in [0, 1), got {self.burn_in_fraction!r}"
            )

    @property
    def n_burn(self) -> int:
        """Leading iterations of each chain discarded as burn-in."""
        return int(self.n_iters * self.burn_in_fraction)


@dataclass(frozen=True)
class ChainStats:
    """What one multi-chain run did, over all iterations, burn-in included.

    ``trajectories[c, t]`` is chain c's state after iteration t's decision.
    Grading the run (moments, discrepancy) is the caller's, on
    ``trajectories[:, cfg.n_burn:]``.
    """

    acceptance_rate: float
    n_divergent: int
    trajectories: np.ndarray
    accepts: np.ndarray  # (n_chains, n_iters) bool


def leapfrog(q, p, stepsize: float, n_steps: int, score_fn, *, score=None):
    """Integrate Hamilton's equations with the leapfrog scheme.

    Kinetic energy is ||p||^2 / 2 (identity mass); the force is the score,
    i.e. d p / d t = grad log pi(q).  ``q`` and ``p`` are (n_chains, d), so
    one chain is the (1, d) case, and ``score_fn`` maps an (n, d) array of
    positions to the (n, d) array of their scores; each step makes one
    ``score_fn`` call on all chains.  ``score``, when given, holds the scores
    at ``q`` and stands in for the first half kick's call, so a trajectory
    makes n_steps calls instead of n_steps + 1.

    Returns ``(q, p, diverged_at, score)``, where ``diverged_at[c]`` is the
    step at which chain c's position, momentum or score first went
    non-finite, or -1, and ``score`` holds the scores at the returned
    positions.  A diverged chain's rows of ``q``, ``p`` and ``score`` are its
    inputs, and from its divergence on it is evaluated at its input
    position, so ``score_fn`` only ever sees finite rows.  n_steps counts
    position updates, as ``HmcConfig.n_leapfrog`` does, and must be an
    integer >= 1 under the same rule.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.ndim != 2 or q.shape != p.shape:
        raise ValueError(
            f"q and p must be (n_chains, d) arrays of equal shape, "
            f"got {q.shape}, {p.shape}"
        )
    eps = float(check_number(stepsize, "stepsize", gt=0))
    check_number(n_steps, "n_steps", ge=1, integer=True)
    if score is None:
        score = call_score(score_fn, q)
    # a private copy: the returned rows of diverged chains come from it
    score0 = np.array(score, dtype=float)
    if score0.shape != q.shape:
        raise ValueError(
            f"score has shape {score0.shape} for positions of shape {q.shape}"
        )
    q0, p0 = q, p
    diverged_at = np.full(q.shape[0], -1)
    dead = None  # (n_chains, 1) mask of diverged chains; None until one diverges

    def settle(q, p, checked, step):
        # chains with a non-finite row in `checked` diverge at this step; every
        # diverged chain is put back at its input state.  Until some chain
        # diverges, one all-finite test is the whole check.
        nonlocal dead
        if dead is None and np.isfinite(checked).all():
            return q, p
        new = ~np.isfinite(checked).all(axis=1) & (diverged_at < 0)
        diverged_at[new] = step
        dead = (diverged_at >= 0)[:, None]
        return np.where(dead, q0, q), np.where(dead, p0, p)

    # a non-finite score leaves a non-finite momentum, so checking p after
    # each kick also covers the score
    p = p + 0.5 * eps * score0
    q, p = settle(q, p, p, 0)
    for step in range(n_steps):
        q = q + eps * p
        q, p = settle(q, p, q, step)
        scale = eps if step < n_steps - 1 else 0.5 * eps
        score = call_score(score_fn, q)
        p = p + scale * score
        q, p = settle(q, p, p, step)
    if dead is not None:
        score = np.where(dead, score0, score)
    return q, p, diverged_at, score


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


def run_hmc(
    target_logp,
    score_fn,
    cfg: HmcConfig,
    init,
    *,
    chain_seeds,
) -> ChainStats:
    """Run cfg.n_chains independent HMC chains in lockstep.

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
        the batched contract (n, d) -> (n, d): it is called once on the
        initial states and then once per leapfrog step, with the positions
        of all chains, n_leapfrog calls per iteration.  Each chain carries
        its score across iterations (an accepted proposal's from the last
        kick of its trajectory), so a row may depend only on its own
        position, and a return of any shape but (n, d) raises ValueError.
    init : (n_chains, d) array
        One starting state per chain.
    chain_seeds : sequence of n_chains seeds
        Chain i draws only from ``np.random.default_rng(chain_seeds[i])``,
        so the run is reproducible bit for bit and chains never share
        randomness; ``np.random.SeedSequence(seed).spawn(n_chains)`` derives
        them from one master seed.

    The run is not graded here: ``ksd_to_target`` or any moment of the
    returned ``trajectories[:, cfg.n_burn:]`` measures it against a target.
    """
    init = as_samples(init, name="init")
    if init.shape[0] != cfg.n_chains:
        raise ValueError(
            f"init has {init.shape[0]} rows for {cfg.n_chains} chains"
        )
    if len(chain_seeds) != cfg.n_chains:
        raise ValueError(
            f"got {len(chain_seeds)} chain seeds for {cfg.n_chains} chains"
        )
    rngs = [np.random.default_rng(s) for s in chain_seeds]

    # the chains advance in lockstep, each drawing from its own stream
    q = init.copy()
    n_chains, d = q.shape
    traj = np.empty((n_chains, cfg.n_iters, d))
    accepts = np.zeros((n_chains, cfg.n_iters), dtype=bool)
    n_div = np.zeros(n_chains, dtype=int)
    logp = _log_density(target_logp, q)
    # a copy: score_fn may hand back the same buffer on every call
    score = call_score(score_fn, q).copy()
    p = np.empty_like(q)
    # one row view per chain, made once, which its momentum is drawn into
    rows = list(p)
    u = np.empty(n_chains)
    for t in range(cfg.n_iters):
        for c, (rng, row) in enumerate(zip(rngs, rows)):
            rng.standard_normal(out=row)
            # uniform() returns 0.0 + 1.0 * random() for this same draw
            u[c] = rng.random()
        q_new, p_new, diverged_at, score_new = leapfrog(
            q, p, cfg.stepsize, cfg.n_leapfrog, score_fn, score=score
        )
        diverged = diverged_at >= 0
        # a diverged chain's row of q_new is its current, finite position
        logp_new = _log_density(target_logp, q_new)
        # u = 0 gives log u = -inf, an accept; a NaN log_alpha rejects
        with np.errstate(divide="ignore", invalid="ignore"):
            log_alpha = (logp_new - _kinetic(p_new)) - (logp - _kinetic(p))
            accept = ~diverged & ((log_alpha >= 0.0) | (np.log(u) < log_alpha))
        q[accept] = q_new[accept]
        logp[accept] = logp_new[accept]
        score[accept] = score_new[accept]
        accepts[:, t] = accept
        n_div += diverged
        traj[:, t] = q

    return ChainStats(
        acceptance_rate=float(accepts.mean()),
        n_divergent=int(n_div.sum()),
        trajectories=traj,
        accepts=accepts,
    )
