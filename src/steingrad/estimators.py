"""Score estimators: gradients of a log density learned from samples alone.

Given K samples x^1..x^K from an unnormalised or implicit density q, every
estimator kind here produces grad_x log q, either as a (K, d) gradient field
at the samples or as a K-vector of kernel-expansion coefficients:

- ``kde``: plug-in kernel density estimate, -diag(K 1)^-1 <grad, K>.
- ``stein-v`` / ``stein-u``: ridge-regularised minimiser of the kernelised
  Stein discrepancy over free gradient matrices,
  G = -(K + eta I)^-1 <grad, K> (V-statistic) or with the kernel diagonal
  removed (U-statistic).  The V-statistic fit extends to new points via the
  block (Schur-complement) solve of the augmented system.
- ``score``: closed-form ridge score matching in the expansion
  g(x) = sum_k a_k grad_x k(x, x^k), with per-family closed forms for RBF
  and Epanechnikov kernels.
- ``stein-param-v`` / ``stein-param-u``: the same expansion fitted by
  minimising the kernelised Stein discrepancy (RBF only).

A kind's fixed rules live in one place, the kind table ``_KIND_RULES``,
one record per kind: its system builder, its statistic (V or U), whether
its parameter is the gradient field or expansion coefficients, its predict
rule, whether it takes the RBF kernel only, and its system's name.
``check_fit``, ``fit_estimator``, :class:`FittedEstimator`'s checks,
``kinv`` and ``predict`` read it, and so does the command line's refusal
of a kind with no out-of-sample rule; :data:`KINDS` is its keys, in order.

Every kind but kde is fitted the same way: a builder returns its (matrix,
rhs) system before the ridge, and ``fit_estimator`` adds eta and makes the
one solve, :func:`steingrad.linalg.solve_symmetric`, which consumes the
system: one Cholesky factorisation in the system's own buffer per
jitter-ladder rung.  A stein-v fit's predictive inverse is
:func:`steingrad.linalg.invert_symmetric` of its own jittered system, built
afresh: one factorisation and inversion in place per rung.  Both run on
numpy's BLAS pool, the one every product here uses, and fall back to
numpy's LU where Cholesky refuses a system (see :mod:`steingrad.linalg`).
Kernel values come from :mod:`steingrad.kernels`, which holds the only copy
of the kernel formulas: a fit's kernel matrix is one ``build_matrices``
pass over the sample as given, which also resolves a median-rule
bandwidth, and every kernel a :class:`FittedEstimator` evaluates, at new
points, at its training sample or for ``kinv``, is one ``cross_kernel``
pass at the resolved bandwidth.

``fit_estimator`` fits any kind into a serialisable :class:`FittedEstimator`,
whose ``predict`` takes (n, d) points and whose constructor holds the checks.
``entropy_gradient_surrogate`` turns estimated scores and reparameterised
sample Jacobians into a gradient of the entropy term.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import kernels
from .errors import DegenerateDenominatorError, NumericalError
from .kernels import (
    RBF, KernelSpec, as_samples, build_matrices, check_number, cross_kernel,
)
from .linalg import add_product_and_transpose, invert_symmetric, solve_symmetric

DEFAULT_ETA = 0.1
# U-statistic systems can be indefinite; a strictly positive ridge keeps the
# solve meaningful.
MIN_U_ETA = 1e-8

KIND_KDE = "kde"
KIND_STEIN_V = "stein-v"
KIND_STEIN_U = "stein-u"
KIND_STEIN_PARAM_V = "stein-param-v"
KIND_STEIN_PARAM_U = "stein-param-u"
KIND_SCORE = "score"
# KINDS, in this order, is the kind table's keys (see _KIND_RULES)


def check_fit(kind: str, spec: KernelSpec, eta) -> float:
    """The ridge ``eta`` of a fit of ``kind`` with the kernel ``spec``, as a float.

    The one statement of a fit's argument rules, which fits, records and the
    command line all pass: ``kind`` is one of :data:`KINDS`, a kind whose
    record is RBF-only (the parametric Stein kinds) takes the RBF kernel
    only, and ``eta`` is a number >= 0, at least ``MIN_U_ETA`` for a kind
    whose record's statistic is "u".  Refused in that order, with a
    ValueError naming the field.  ``kind`` is tested against :data:`KINDS`
    before the table is read, so an unhashable kind is refused the same way.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}; expected one of {KINDS}")
    rules = _KIND_RULES[kind]
    if rules.rbf_only and spec.family != RBF:
        raise ValueError("parametric Stein fits support the rbf family only")
    eta = float(check_number(eta, "eta", ge=0))
    if rules.statistic == "u" and eta < MIN_U_ETA:
        raise ValueError(
            f"U-statistic fits need eta >= {MIN_U_ETA:g} (the shifted system "
            f"can be indefinite), got {eta!r}"
        )
    return eta


def _kde_fit(xs, spec):
    """Gradient field of the kernel density estimate at the samples.

    Row i is grad log qhat(x^i) for qhat(x) propto sum_k k(x, x^k), which in
    matrix form is -diag(K 1)^-1 <grad, K>.  Returns the field and the
    resolved spec.
    """
    mats = build_matrices(xs, spec)
    denom = _kde_row_sums(mats.k_matrix, "sample")
    return -mats.grad_sum / denom[:, None], mats.spec


def _kde_predict(fitted, points):
    # same ratio form as _kde_fit, evaluated at new points
    train, spec = fitted.train, fitted.spec
    n, d = train.shape
    kmat = cross_kernel(points, train, spec)
    denom = _kde_row_sums(kmat, "prediction point")
    if spec.family == RBF:
        # sum_k k(y, x^k) (y - x^k) in row-sum/matmul form, O(M K) memory
        num = -(denom[:, None] * points - kmat @ train) / spec.sigma2
    else:
        num = -(2.0 / d) * (n * points - train.sum(axis=0)[None, :])
    return num / denom[:, None]


def _kde_row_sums(kmat, where):
    """Row sums of a KDE kernel block, each required to be > 0.

    A row sum is the unnormalised density estimate at that point.  The
    Epanechnikov kernel goes negative beyond ||x - y||^2 = d, so a spread
    sample can give a sum <= 0, where the ratio form would return a score
    of the wrong sign or none at all.
    """
    denom = kmat.sum(axis=1)
    bad = np.nonzero(denom <= 0.0)[0]
    if bad.size:
        i = int(bad[0])
        raise DegenerateDenominatorError(
            f"kernel row sum at {where} {i} is {float(denom[i])!r}, not > 0; "
            f"the kernel density estimate is not positive there, so its "
            f"score is undefined"
        )
    return denom


def _stein_system(xs, spec, statistic):
    """System (K, -<grad, K>) of the nonparametric Stein gradient field.

    The ridge solve (K + eta I) G = -<grad, K> gives the V-statistic field;
    the U-statistic removes the kernel diagonal from the system matrix and
    requires a strictly positive eta.  The matrix is the kernel matrix's
    buffer.  The resolved spec comes back third.
    """
    mats = build_matrices(xs, spec)
    system = mats.k_matrix
    if statistic == "u":
        np.fill_diagonal(system, 0.0)
    return system, -mats.grad_sum, mats.spec


def _stein_predict(fitted, pts):
    """Out-of-sample gradients for a V-statistic nonparametric Stein fit.

    For each query y, with S the Schur complement of the training block in
    the augmented kernel system,

        g(y)^T = -S^-1 ( K_yX G - (K_yX (K + eta I)^-1 + 1^T) grad_y k(., y) )

    where grad_y k(., y) stacks the second-argument kernel gradients, one
    row per training point.  Equivalent to refitting on the augmented sample
    and reading off the new row, without the refit.  (K + eta I)^-1 is
    ``fitted.kinv``, formed on the first call and kept on the fitted object
    for later ones.  ``pts`` is the (M, d) batch that
    :meth:`FittedEstimator.predict` has already validated.
    """
    train, grads, kinv = fitted.train, fitted.grads, fitted.kinv
    spec, eta = fitted.spec, fitted.eta
    d = train.shape[1]
    # one row per query: k_yX, (K + eta I)^-1 k_Xy, and the weights w that
    # turn the kernel gradients into w @ X - sum(w) y, all O(M K) memory
    kmat = cross_kernel(pts, train, spec)
    smoothed = kmat @ kinv.T
    # k(y, y) = 1 for both families
    schur = 1.0 + eta - np.einsum("mk,mk->m", kmat, smoothed)
    bad = np.nonzero(schur <= 0)[0]
    if bad.size:
        i = int(bad[0])
        raise NumericalError(
            f"Schur complement {schur[i]:.3e} <= 0 at prediction point {i}; "
            f"the augmented system is numerically degenerate"
        )
    # the weights in smoothed's own buffer, with the products and rounding
    # of (smoothed + 1) * kmat (rbf) or smoothed + 1 (epanechnikov)
    weights = smoothed
    weights += 1.0
    if spec.family == RBF:
        weights *= kmat
        scale = 1.0 / spec.sigma2
    else:
        scale = 2.0 / d
    pulled = scale * (weights @ train - weights.sum(axis=1)[:, None] * pts)
    return -(kmat @ grads - pulled) / schur[:, None]


def _expansion_predict(coeffs, train, spec, points):
    """Rows sum_k a_k grad_first k(y^i, x^k) = sum_k w_ik (y^i - x^k).

    ``points`` is ``train`` itself for the gradients at the training
    sample, whose ``cross_kernel`` is then ``build_matrices``' kernel, bit
    for bit.  The RBF weights are formed in the kernel's buffer, with the
    products and rounding of ``-k * a / sigma2``.
    """
    if spec.family != RBF:
        weights = (-2.0 / train.shape[1]) * coeffs
        return weights.sum() * points - (weights @ train)[None, :]
    weights = cross_kernel(points, train, spec)
    np.negative(weights, out=weights)
    weights *= coeffs
    weights /= spec.sigma2
    return weights.sum(axis=1)[:, None] * points - weights @ train


def _fitted_expansion(fitted, points):
    # the expansion kinds' predict rule, and their gradients at the sample
    return _expansion_predict(fitted.coeffs, fitted.train, fitted.spec, points)


# from this dimension on, Sigma's coordinate-free form (one symmetric
# product and one rank-2k update) beats the d symmetric products of the
# per-coordinate sum.  K = 1000, 2-core host, medians of 9 in each of 3
# processes: at d = 2 the sum is ahead, 30-68 ms against 34-76 ms; at d = 3
# the form, 44-48 against 33-37 ms, and at d = 4, 64-77 against 38-46 ms.
# Kept at 3, so no d <= 2 output moves.
_SIGMA_CLOSED_FORM_MIN_D = 3


def _score_sigma_by_coordinate(xs, km):
    """Sigma = sum_i D_i^T D_i with D_i[j, k] = (x_ij - x_ik) K_jk.

    Consumes K: every coordinate but the last is rebuilt in one scratch
    buffer, and the last is formed in K's own buffer, in
    ``kernels.row_blocks``, as ``K_jk (x_ij - x_ik)``, the same product and
    bits, since nothing reads K after it.  So a d = 1 Sigma holds two
    (K, K) arrays, K as D_1 and Sigma.  The first coordinate's product is
    Sigma itself.
    """
    d = xs.shape[1]
    d_i = np.empty_like(km) if d > 1 else km
    sigma = None
    for i, xi in enumerate(xs.T):
        if i < d - 1:
            np.subtract(xi[:, None], xi[None, :], out=d_i)
            d_i *= km
        else:
            d_i = km  # drops the scratch buffer
            for start, stop in kernels.row_blocks(len(xs)):
                d_i[start:stop] *= xi[start:stop, None] - xi[None, :]
        if sigma is None:
            sigma = d_i.T @ d_i
        else:
            sigma += d_i.T @ d_i
    return sigma


def _gram_blocks(xs):
    """Row blocks ``(start, stop, xs[start:stop] @ xs.T)`` of the Gram matrix.

    The blocks are ``kernels.row_blocks``', so the (K, K) matrix is never
    formed.  A sample of up to 362 points is one block, bit for bit numpy's
    full product; above that the blocks may differ from it by rounding.
    """
    for start, stop in kernels.row_blocks(len(xs)):
        yield start, stop, xs[start:stop] @ xs.T


def _score_sigma_closed_form(xs, km, sqn):
    # (K K) o G from numpy's symmetric product, then + M K + K M^T by one
    # rank-2k update, M = K o (1/2 1 n^T - G), with G in row blocks: three
    # (K, K) arrays, K, Sigma and M, and Sigma exactly symmetric
    half_sqn = 0.5 * sqn
    sigma = km.T @ km
    m = np.empty_like(km)
    for start, stop, gram in _gram_blocks(xs):
        sigma[start:stop] *= gram
        rows = m[start:stop]
        np.subtract(half_sqn, gram, out=rows)
        rows *= km[start:stop]
    add_product_and_transpose(sigma, m, km)
    return sigma


def _score_system(xs, spec):
    """System (Sigma, v) of closed-form ridge score matching.

    The fitted score is g(x) = sum_k a_k grad_x k(x, x^k).  Per family:

    rbf: a = (Sigma + eta I)^-1 v with
         Sigma = sum_i D_i^T D_i,    D_i = diag(x_i) K - K diag(x_i)
               = (K K) o G + M K + K M^T,    M = K o (1/2 1 n^T - G),
         v = d sigma2 K 1 - (K n + n o K 1 - 2 rowsum(X o (K X))),
         x_i the i-th coordinate column of the sample matrix X, n its
         squared row norms, G = X X^T and o the elementwise product.
         The sum over coordinates costs d symmetric K x K x K products
         (syrk, half a general product's flops each); the
         coordinate-free form one symmetric product and one rank-2k
         update, M K + K M^T by ``dsyr2k`` (one general product's flops,
         see :func:`steingrad.linalg.add_product_and_transpose`).  So
         Sigma is the sum for d <= 2 and the coordinate-free form from
         d = 3 on; both are exactly symmetric.  The sum is formed after
         v, since its last coordinate consumes K.

    epanechnikov: a = 1/2 (Sigma + eta I)^-1 1 with
         Sigma_kk' = (1/d^2) [ x^k . x^k'
                               + (1/K) sum_j (||x^j||^2 - (x^k + x^k') . x^j) ].

    Both ridge solutions are the exact minimisers of the empirical
    score-matching objective under an l2 penalty (the penalty scale absorbed
    into eta).  Both systems depend on the sample only through differences
    x^j - x^k: K is built on the sample as given, with a median-rule
    bandwidth from its own pass, and X is then centred on its mean, which
    keeps G and n at the scale of the differences.  The resolved spec comes
    back third.
    """
    n, d = xs.shape
    if spec.family == RBF:
        mats = build_matrices(xs, spec, with_grad_sum=False)
        km, spec = mats.k_matrix, mats.spec
    xs = xs - xs.mean(axis=0)
    if spec.family != RBF:
        gram = xs @ xs.T
        sqn = np.einsum("kd,kd->k", xs, xs)
        row = gram.sum(axis=1)
        sigma = (gram + (sqn.sum() - row[:, None] - row[None, :]) / n) / d**2
        return sigma, np.full(n, 0.5), spec
    ksum = km.sum(axis=1)
    sqn = np.einsum("kd,kd->k", xs, xs)
    v = d * spec.sigma2 * ksum - (
        km @ sqn + sqn * ksum - 2.0 * (xs * (km @ xs)).sum(axis=1)
    )
    if d < _SIGMA_CLOSED_FORM_MIN_D:
        return _score_sigma_by_coordinate(xs, km), v, spec
    return _score_sigma_closed_form(xs, km, sqn), v, spec


def _parametric_system(xs, spec, statistic):
    """Quadratic form (Lambda, b) of the parametric Stein objective.

    RBF kernel only, as ``check_fit`` holds.  The expansion coefficients
    minimising the kernelised Stein discrepancy are a = (Lambda + eta I)^-1 b,
    where, with X the Gram matrix and K the kernel matrix,

        Lambda = X o (K K K) + K (K o X) K - ((K K) o X) K - K ((K K) o X)
        b = (K diag(X) K + (K K) o X - K (K o X) - (K o X) K) 1

    The U-statistic variant replaces the inner K of each triple product
    with K - diag(K) (Lambda tilde), keeping the same b; o is the
    elementwise product.  Lambda is built as

        Lambda = X o (P K) + W K + K W^T,    W = 1/2 K Q - P o X,

    with P = K K (K (K - I) for U, as diag(K) = I) and Q = K o X (its
    diagonal zeroed for U): P by numpy's symmetric product, Q K in row
    blocks, and W K + K W^T by one rank-2k update (``dsyr2k``, see
    :func:`steingrad.linalg.add_product_and_transpose`).  That is 7
    K^3-flop units, a general product being 2, where the five general
    products of the form above take 10, and Lambda comes out exactly
    symmetric.  K, the centring and the returned
    spec are as in ``_score_system``.
    """
    mats = build_matrices(xs, spec, with_grad_sum=False)
    km, spec = mats.k_matrix, mats.spec
    xs = xs - xs.mean(axis=0)
    n = len(xs)
    ksum = km.sum(axis=1)
    p = km.T @ km
    # G = X X^T only in row blocks: this pass takes the squared norms from
    # the blocks' diagonals, and the row sums of (K K) o G and of Q = K o G
    # and Q's product with K 1
    sqn, kk_gram, q_sum, q_ksum = (np.empty(n) for _ in range(4))
    for start, stop, gram in _gram_blocks(xs):
        q = km[start:stop] * gram
        sqn[start:stop] = np.diagonal(gram, offset=start)
        kk_gram[start:stop] = np.einsum("ij,ij->i", p[start:stop], gram)
        q_sum[start:stop] = q.sum(axis=1)
        q_ksum[start:stop] = q @ ksum
    # the row sums of K diag(n) K + (K K) o G - K (K o G) - (K o G) K, each
    # as a matrix-vector product
    b = km @ (sqn * ksum) + kk_gram - km @ q_sum - q_ksum
    # lam = G o (P K) + W K + K W^T with W = 1/2 K Q - P o G.  U takes
    # P = K (K - I), the inner K's unit diagonal removed, and Q with its
    # diagonal zeroed.  W^T's rows are written over P's once P K is made,
    # so three (K, K) arrays are alive at once: K, P and lam.
    if statistic == "u":
        p -= km
    lam = p @ km
    for start, stop, gram in _gram_blocks(xs):
        lam[start:stop] *= gram
        q = km[start:stop] * gram
        if statistic == "u":
            np.fill_diagonal(q[:, start:], 0.0)
        q *= 0.5
        w_t = p[start:stop]
        w_t *= gram
        np.subtract(q @ km, w_t, out=w_t)
    add_product_and_transpose(lam, p.T, km)
    return lam, b, spec


# One record per estimator kind, the one place a kind's fixed rules live;
# every per-kind decision reads it.  ``system`` builds the kind's (matrix,
# rhs, resolved spec) from (xs, spec) before the ridge, None for kde's direct
# fit; ``statistic`` is "v" or "u"; ``grad_field`` is whether the parameter
# is the (K, d) gradient field, not (K,) expansion coefficients; ``predict``
# maps a fit and validated (n, d) points to scores, None where the kind has
# no out-of-sample rule; ``rbf_only`` refuses the other kernel families;
# ``system_name`` names the system in the solver's errors.  The entries are
# this module's private builders and rules, which reach ``build_matrices``
# and ``cross_kernel`` through the module's globals, as ``fit_estimator``
# reaches ``solve_symmetric``, so ``bench/tracing.py``, which rebinds those
# names, still sees every call.
_Kind = namedtuple("_Kind", "system statistic grad_field predict rbf_only system_name")
_KIND_RULES = {
    KIND_KDE: _Kind(None, "v", True, _kde_predict, False, None),
    KIND_STEIN_V: _Kind(partial(_stein_system, statistic="v"), "v", True,
                        _stein_predict, False, "stein v-statistic system"),
    KIND_STEIN_U: _Kind(partial(_stein_system, statistic="u"), "u", True,
                        None, False, "stein u-statistic system"),
    KIND_STEIN_PARAM_V: _Kind(partial(_parametric_system, statistic="v"), "v",
                              False, _fitted_expansion, True,
                              "parametric stein v-statistic system"),
    KIND_STEIN_PARAM_U: _Kind(partial(_parametric_system, statistic="u"), "u",
                              False, _fitted_expansion, True,
                              "parametric stein u-statistic system"),
    KIND_SCORE: _Kind(_score_system, "v", False, _fitted_expansion, False,
                      "score matching system"),
}
KINDS = tuple(_KIND_RULES)


def entropy_gradient_surrogate(grads, jacobians) -> np.ndarray:
    """Entropy gradient from estimated scores and sample Jacobians.

    For samples z^k = f(eps^k; phi) with Jacobians J^k = d z^k / d phi of
    shape (d, p), the surrogate for grad_phi H[q] is

        -(1/K) sum_k g(z^k)^T J^k

    returned as a p-vector.
    """
    gs = as_samples(grads, name="grads")
    jac = np.asarray(jacobians, dtype=float)
    if jac.ndim != 3:
        raise ValueError(
            f"jacobians must have shape (K, d, p), got ndim={jac.ndim}"
        )
    if jac.shape[:2] != gs.shape:
        raise ValueError(
            f"jacobians leading shape {jac.shape[:2]} does not match grads "
            f"{gs.shape}"
        )
    if not np.all(np.isfinite(jac)):
        raise ValueError("jacobians contain non-finite entries")
    return -np.einsum("kd,kdp->p", gs, jac) / gs.shape[0]


@dataclass(frozen=True)
class FittedEstimator:
    """A fitted score estimator: parameters plus everything prediction needs.

    Exactly one of ``grads`` (nonparametric kinds: the gradient field is the
    parameter set) and ``coeffs`` (expansion kinds) is populated.  ``kinv``
    is derived state, not a field: (K + eta I)^-1 of the predictive
    V-statistic nonparametric fit, formed on first use and then kept, and
    not in the record, ``==`` or ``repr``.

    Fits, records and direct calls are all checked here, on construction:
    ``kind``, the kernel family and ``eta`` pass :func:`check_fit`,
    ``train`` is a finite (K, d) sample, ``spec`` carries its bandwidth
    (not the median rule, which a fit resolves), only the kind's own
    parameter set is given, finite, of shape (K, d) or (K,), and a
    ``diagnostics`` jitter, where there is one, is a number >= 0.
    ValueError names the field.
    """

    kind: str
    train: np.ndarray
    spec: KernelSpec
    eta: float
    grads: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        kind = self.kind
        object.__setattr__(self, "eta", check_fit(kind, self.spec, self.eta))
        object.__setattr__(self, "train", as_samples(self.train, name="train"))
        if self.spec.median_scale is not None:
            raise ValueError(
                "spec carries the median rule, not a bandwidth; fit_estimator "
                "resolves it on the sample"
            )
        grad_field = _KIND_RULES[kind].grad_field
        name, other = ("grads", "coeffs") if grad_field else ("coeffs", "grads")
        if getattr(self, other) is not None:
            raise ValueError(f"{kind!r} estimator carries {other!r}; it takes {name!r}")
        if getattr(self, name) is None:
            raise ValueError(f"{kind!r} estimator lacks {name!r}")
        params = np.asarray(getattr(self, name), dtype=float)
        want = self.train.shape if grad_field else self.train.shape[:1]
        if params.shape != want:
            raise ValueError(
                f"{name} has shape {params.shape}, expected {want} for train {self.train.shape}"
            )
        if not np.all(np.isfinite(params)):
            raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, name, params)
        check_number(self.diagnostics.get("jitter", 0.0), "jitter", ge=0)

    @cached_property
    def kinv(self) -> np.ndarray | None:
        """(K + eta I)^-1 for a stein-v fit, None for other kinds.

        Which kinds have it is read from the kind table: those whose record
        holds the Schur-complement predict rule, ``_stein_predict``, the
        one that uses it.  It is formed on first access and kept on this
        object; fits that never predict never form it.  The system is the
        fit's own: the kernel, ``cross_kernel`` of the training sample with
        itself and so the fit's kernel bit for bit, then ``+= eta``, then
        ``+= jitter``, the jitter being ``diagnostics["jitter"]`` (0.0 when
        the record holds none).  Its inverse is
        :func:`steingrad.linalg.invert_symmetric` of that system, in the
        system's own buffer: one Cholesky factorisation and inversion per
        rung on numpy's BLAS pool, held to the ladder's identity
        right-hand-side residual test.  At rung 0 it inverts the
        fit's system, so a fresh fit, its reloaded record and a direct
        construction get the same bits, on the fit's rung, which the
        Schur-complement predict assumes.  Only an inverse that fails
        there, singular or short of the test, climbs the ladder,
        from the fit's own system, so it never lands below the fit's
        jitter.  Each rung is decided by its own residual test, the fit's
        against its right-hand side and this one against the identity, so
        on a near-singular system the inverse may land above the fit.
        """
        if _KIND_RULES[self.kind].predict is not _stein_predict:
            return None
        system = cross_kernel(self.train, self.train, self.spec)
        diag = np.diag_indices_from(system)
        system[diag] += self.eta
        system[diag] += self.diagnostics.get("jitter", 0.0)
        return invert_symmetric(system, "stein predictive inverse")[0]

    def grads_at_train(self) -> np.ndarray:
        """Gradient field at the training samples (the fit output).

        An expansion kind evaluates its expansion there from the kernel over
        the training pairs, one ``cross_kernel`` pass that the call drops
        when it returns.
        """
        if self.grads is not None:
            return self.grads.copy()
        return _fitted_expansion(self, self.train)

    def predict(self, points) -> np.ndarray:
        """Gradient field at new points; not every kind supports this.

        ``points`` is an (n, d) batch and the result holds one score row per
        point, so ``predict`` serves directly as the score function of
        :func:`steingrad.run_hmc`.  The rule is the one the kind's record in
        the kind table holds; a kind whose record has none (stein-u) is
        refused with ValueError once the points are checked.
        """
        pts = as_samples(points, name="points")
        if pts.shape[1] != self.train.shape[1]:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, training data "
                f"{self.train.shape[1]}"
            )
        rule = _KIND_RULES[self.kind].predict
        if rule is None:
            raise ValueError(
                f"{self.kind!r} has no out-of-sample prediction rule; refit on "
                f"the augmented sample instead"
            )
        return rule(self, pts)

    def _json_record(self) -> dict:
        """The record of :meth:`to_json_dict` with its arrays left as arrays."""
        return {
            "kind": self.kind,
            "kernel": {
                "family": self.spec.family,
                "sigma2": self.spec.sigma2,
            },
            "eta": self.eta,
            "train": self.train,
            "grads": self.grads,
            "coeffs": self.coeffs,
            "diagnostics": dict(self.diagnostics),
        }

    def to_json_dict(self) -> dict:
        """Plain-python dict for JSON serialisation (exact float round trip)."""
        record = self._json_record()
        for key in ("train", "grads", "coeffs"):
            if record[key] is not None:
                record[key] = record[key].tolist()
        return record

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FittedEstimator":
        """Rebuild an estimator written by :meth:`to_json_dict`.

        Fields are read, not checked: a record loads only if it passes the
        checks a fit's arguments pass (see the class).  ``eta`` and the
        kernel's ``sigma2`` go to the constructors as the record holds
        them, so ``true`` or ``"0.1"`` is refused, not read as a number; a
        bool or string in ``train``, ``grads`` or ``coeffs`` is refused too,
        and ``diagnostics`` must be an object.  A missing or unreadable
        field raises ValueError naming it; ``grads``, ``coeffs`` and
        ``diagnostics`` may be null, and an old ``kinv`` is ignored.
        """

        def array(value):
            if any(isinstance(x, (bool, str)) for x in np.asarray(value, dtype=object).flat):
                raise ValueError("holds a bool or string, not a number")
            return np.asarray(value, dtype=float)

        def mapping(value):
            if not isinstance(value, dict):
                raise ValueError(f"must be an object, got {type(value).__name__}")
            return dict(value)

        def read(name, convert, optional=False):
            try:
                value = obj.get(name) if optional else obj[name]
                return None if optional and value is None else convert(value)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"estimator record field {name!r}: {exc}") from exc

        return cls(
            kind=read("kind", lambda kind: kind),
            train=read("train", array),
            spec=read("kernel", lambda k: KernelSpec(k["family"], k.get("sigma2"))),
            eta=read("eta", lambda eta: eta),
            grads=read("grads", array, optional=True),
            coeffs=read("coeffs", array, optional=True),
            diagnostics=read("diagnostics", mapping, optional=True) or {},
        )


def fit_estimator(
    kind: str, samples, spec: KernelSpec, eta: float = DEFAULT_ETA
) -> FittedEstimator:
    """Fit any estimator kind and package the result.

    ``kind`` is one of :data:`KINDS`; ``score`` takes either kernel family.
    Every kind but ``kde`` builds its (matrix, rhs) system and makes one
    ridge solve; the builder, the solve's name and the parameter set are
    the kind's record in the kind table.  The V-statistic nonparametric
    Stein fit can predict out of sample; the inverse that needs is formed
    on its first prediction (see :attr:`FittedEstimator.kinv`), not here.
    A median-rule ``spec`` is resolved on ``samples`` by the fit (see the
    module docstring), and the result holds the resolved spec.  The
    arguments pass :func:`check_fit` before the sample is read.
    """
    eta = check_fit(kind, spec, eta)  # kde ignores it, but its record keeps it
    xs = as_samples(samples)
    rules = _KIND_RULES[kind]
    diagnostics: dict = {}
    if rules.system is None:
        params, spec = _kde_fit(xs, spec)
    else:
        system, rhs, spec = rules.system(xs, spec)
        system[np.diag_indices_from(system)] += eta
        params, jitter, level = solve_symmetric(system, rhs, name=rules.system_name)
        diagnostics = {"jitter": jitter, "jitter_level": level}
    grads, coeffs = (params, None) if rules.grad_field else (None, params)
    return FittedEstimator(
        kind=kind,
        train=xs.copy(),
        spec=spec,
        eta=eta,
        grads=grads,
        coeffs=coeffs,
        diagnostics=diagnostics,
    )
