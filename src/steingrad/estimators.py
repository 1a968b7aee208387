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

Every kind but kde is fitted the same way: a builder returns its (matrix,
rhs) system before the ridge, and ``fit_estimator`` adds eta and makes the
one solve.  A stein-v fit's predictive inverse is
:func:`steingrad.linalg.invert_symmetric` of its own jittered system: one
``np.linalg.inv`` per ladder rung, on numpy's BLAS pool, so a sampler run
after it does not share the host with scipy's spinning pool (see
:mod:`steingrad.linalg`).  Kernel values come from
:mod:`steingrad.kernels`, which holds the only copy of the kernel formulas:
each kernel matrix over the sample's own pairs, the fits' and the expansion
kinds' ``grads_at_train``, is one ``build_matrices`` pass over the sample as
given, and ``cross_kernel`` serves new points only.  A fit resolves a
median-rule bandwidth from its kernel's own pass.

``fit_estimator`` fits any kind into a serialisable :class:`FittedEstimator`,
whose ``predict`` takes (n, d) points and whose constructor holds the checks.
``entropy_gradient_surrogate`` turns estimated scores and reparameterised
sample Jacobians into a gradient of the entropy term.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import DegenerateDenominatorError, NumericalError
from .kernels import (
    RBF,
    KernelSpec,
    as_samples,
    build_matrices,
    check_number,
    cross_kernel,
)
from .linalg import invert_symmetric, solve_symmetric

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
KINDS = (
    KIND_KDE,
    KIND_STEIN_V,
    KIND_STEIN_U,
    KIND_STEIN_PARAM_V,
    KIND_STEIN_PARAM_U,
    KIND_SCORE,
)

# kinds whose parameters are the gradient field itself; the others are
# parameterised by expansion coefficients
_GRAD_KINDS = (KIND_KDE, KIND_STEIN_V, KIND_STEIN_U)
# kinds fitted by a U-statistic, whose ridge must be at least MIN_U_ETA
_U_KINDS = (KIND_STEIN_U, KIND_STEIN_PARAM_U)


def check_fit(kind: str, spec: KernelSpec, eta) -> float:
    """The ridge ``eta`` of a fit of ``kind`` with the kernel ``spec``, as a float.

    The one statement of a fit's argument rules, which fits, records and the
    command line all pass: ``kind`` is one of :data:`KINDS`, a parametric
    Stein kind takes the RBF kernel only, and ``eta`` is a number >= 0, at
    least ``MIN_U_ETA`` for a U-statistic kind.  Refused in that order, with
    a ValueError naming the field.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}; expected one of {KINDS}")
    if kind in (KIND_STEIN_PARAM_V, KIND_STEIN_PARAM_U) and spec.family != RBF:
        raise ValueError("parametric Stein fits support the rbf family only")
    eta = float(check_number(eta, "eta", ge=0))
    if kind in _U_KINDS and eta < MIN_U_ETA:
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


def _kde_predict(train: np.ndarray, spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    # same ratio form as _kde_fit, evaluated at new points
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
    buffer, returned as its column-major transpose view: squareform mirrors
    it, so it is exactly symmetric and the view is the same matrix, which
    the solver's Cholesky copies without transposing.  The resolved spec
    comes back third.
    """
    mats = build_matrices(xs, spec)
    system = mats.k_matrix.T
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


def _expansion_predict(coeffs, train, spec, points=None):
    """Rows sum_k a_k grad_first k(y^i, x^k) = sum_k w_ik (y^i - x^k).

    ``points`` None means the training points themselves, whose kernel is
    ``build_matrices``' over the sample's pairs: bit for bit the cross
    kernel of train with itself, from half the distance work.  The RBF
    weights are formed in the kernel's buffer, with the products and
    rounding of ``-k * a / sigma2``.
    """
    at_train = points is None
    if at_train:
        points = train
    if spec.family != RBF:
        weights = (-2.0 / train.shape[1]) * coeffs
        return weights.sum() * points - (weights @ train)[None, :]
    if at_train:
        weights = build_matrices(train, spec, with_grad_sum=False).k_matrix
    else:
        weights = cross_kernel(points, train, spec)
    np.negative(weights, out=weights)
    weights *= coeffs
    weights /= spec.sigma2
    return weights.sum(axis=1)[:, None] * points - weights @ train


# from this dimension on, Sigma's 2 coordinate-free K^3 products beat the
# d symmetric products of the per-coordinate sum; at d = 2 they run about
# even (K = 1000, 2-core host: 0.041 s for the sum, 0.047 s for the form)
_SIGMA_CLOSED_FORM_MIN_D = 3


def _score_sigma_by_coordinate(xs, km):
    # D_i[j, k] = (x_ij - x_ik) K_jk, rebuilt in one buffer per coordinate;
    # the first coordinate's product is Sigma itself
    d_i = np.empty_like(km)
    sigma = None
    for xi in xs.T:
        np.subtract(xi[:, None], xi[None, :], out=d_i)
        d_i *= km
        if sigma is None:
            sigma = d_i.T @ d_i
        else:
            sigma += d_i.T @ d_i
    return sigma


def _gram_blocks(xs):
    """Row blocks ``(start, stop, xs[start:stop] @ xs.T)`` of the Gram matrix.

    Each block holds at most ``kernels.PAIR_BLOCK`` entries (one row when a
    row alone has more), so the (K, K) matrix is never formed.  A sample of
    up to 362 points is one block, bit for bit numpy's full product; above
    that the blocks may differ from it by rounding.
    """
    n = len(xs)
    rows = max(1, kernels.PAIR_BLOCK // n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        yield start, stop, xs[start:stop] @ xs.T


def _score_sigma_closed_form(xs, km, sqn):
    # B + B^T + (K K) o G in one scratch buffer besides B, with G in row
    # blocks: K o (1/2 n^T - G), then K K o G, then + B + B^T.  At most
    # three (K, K) arrays are alive at once: K, the buffer and B.
    half_sqn = 0.5 * sqn
    buf = np.empty_like(km)
    for start, stop, gram in _gram_blocks(xs):
        rows = buf[start:stop]
        np.subtract(half_sqn, gram, out=rows)
        rows *= km[start:stop]
    b = buf @ km
    np.matmul(km, km, out=buf)
    for start, stop, gram in _gram_blocks(xs):
        buf[start:stop] *= gram
    buf += b
    buf += b.T
    return buf


def _score_system(xs, spec):
    """System (Sigma, v) of closed-form ridge score matching.

    The fitted score is g(x) = sum_k a_k grad_x k(x, x^k).  Per family:

    rbf: a = (Sigma + eta I)^-1 v with
         Sigma = sum_i D_i^T D_i,    D_i = diag(x_i) K - K diag(x_i)
               = B + B^T + (K K) o G,    B = (K o (1/2 1 n^T - G)) K,
         v = d sigma2 K 1 - (K n + n o K 1 - 2 rowsum(X o (K X))),
         x_i the i-th coordinate column of the sample matrix X, n its
         squared row norms, G = X X^T and o the elementwise product.
         The sum over coordinates costs d K x K x K products (symmetric
         ones, at half the flops of a general product) and the
         coordinate-free form 2 general ones, so Sigma is the sum for
         d <= 2 and the coordinate-free form from d = 3 on.  The sum is
         exactly symmetric and is returned column-major; the closed form
         is symmetric only up to rounding and stays C-ordered, so the
         solver's Cholesky reads its C lower triangle as before.

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
        return _score_sigma_by_coordinate(xs, km).T, v, spec
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
    elementwise product.  K, the centring and the returned spec are as in
    ``_score_system``.
    """
    mats = build_matrices(xs, spec, with_grad_sum=False)
    km, spec = mats.k_matrix, mats.spec
    xs = xs - xs.mean(axis=0)
    ksum = km.sum(axis=1)
    kk = km @ km
    # G = X X^T only in row blocks: this pass fills Q = K o G, the squared
    # norms from the blocks' diagonals and the rows of (K K) o G's row sums
    kx = np.empty_like(km)
    sqn = np.empty(len(xs))
    kk_gram = np.empty(len(xs))
    for start, stop, gram in _gram_blocks(xs):
        np.multiply(km[start:stop], gram, out=kx[start:stop])
        sqn[start:stop] = np.diagonal(gram, offset=start)
        kk_gram[start:stop] = np.einsum("ij,ij->i", kk[start:stop], gram)
    # the row sums of K diag(n) K + (K K) o G - K (K o G) - (K o G) K, each
    # as a matrix-vector product
    b = km @ (sqn * ksum) + kk_gram - km @ kx.sum(axis=1) - kx @ ksum
    # lam = G o (P K) + K Q K - t - t^T with t = (P o G) K, P = K K and
    # Q = K o G; U zeroes the diagonal of Q and of P's second factor.  The
    # last term is t^T because K and G are symmetric.  Built in place,
    # freeing each product once used, with G's blocks made again for the
    # two elementwise products, so that at most four (K, K) arrays are
    # alive at once: K, P and two more.
    if statistic == "u":
        np.fill_diagonal(kx, 0.0)
        del kk
        km0 = km.copy()
        np.fill_diagonal(km0, 0.0)
        kk = km @ km0
        del km0
    kxk = km @ kx
    del kx
    kxk = kxk @ km
    lam = kk @ km
    for start, stop, gram in _gram_blocks(xs):
        lam[start:stop] *= gram
        kk[start:stop] *= gram
    lam += kxk
    del kxk
    t = kk @ km
    del kk
    lam -= t
    lam -= t.T
    return lam, b, spec


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
        name, other = ("grads", "coeffs") if kind in _GRAD_KINDS else ("coeffs", "grads")
        if getattr(self, other) is not None:
            raise ValueError(f"{kind!r} estimator carries {other!r}; it takes {name!r}")
        if getattr(self, name) is None:
            raise ValueError(f"{kind!r} estimator lacks {name!r}")
        params = np.asarray(getattr(self, name), dtype=float)
        want = self.train.shape if kind in _GRAD_KINDS else self.train.shape[:1]
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

        Formed on first access and kept on this object; fits that never
        predict never form it.  The system is the fit's own: the kernel,
        then ``+= eta``, then ``+= jitter``, the jitter being
        ``diagnostics["jitter"]`` (0.0 when the record holds none), taken
        column-major as in ``_stein_system``.  Its inverse is
        :func:`steingrad.linalg.invert_symmetric` of that system: one
        ``np.linalg.inv`` per rung, held to the ladder's identity
        right-hand-side residual test.  At rung 0 it is ``np.linalg.inv``
        of the fit's system, so a fresh fit, its reloaded record and a
        direct construction get the same bits, on the fit's rung, which the
        Schur-complement predict assumes.  Only an inverse that fails there,
        singular or short of the test, climbs the ladder, from the fit's
        own system, so it never lands below the fit's jitter.
        """
        if self.kind != KIND_STEIN_V:
            return None
        system = build_matrices(self.train, self.spec, with_grad_sum=False).k_matrix.T
        diag = np.diag_indices_from(system)
        system[diag] += self.eta
        system[diag] += self.diagnostics.get("jitter", 0.0)
        return invert_symmetric(system, "stein predictive inverse")[0]

    def grads_at_train(self) -> np.ndarray:
        """Gradient field at the training samples (the fit output).

        An expansion kind evaluates its expansion there from the kernel over
        the training pairs, one ``build_matrices`` pass that the call drops
        when it returns.
        """
        if self.grads is not None:
            return self.grads.copy()
        return _expansion_predict(self.coeffs, self.train, self.spec)

    def predict(self, points) -> np.ndarray:
        """Gradient field at new points; not every kind supports this.

        ``points`` is an (n, d) batch and the result holds one score row per
        point, so ``predict`` serves directly as the score function of
        :func:`steingrad.run_hmc`.
        """
        pts = as_samples(points, name="points")
        if pts.shape[1] != self.train.shape[1]:
            raise ValueError(
                f"points have dimension {pts.shape[1]}, training data "
                f"{self.train.shape[1]}"
            )
        if self.kind == KIND_KDE:
            return _kde_predict(self.train, self.spec, pts)
        if self.kind == KIND_STEIN_V:
            return _stein_predict(self, pts)
        if self.coeffs is not None:
            return _expansion_predict(self.coeffs, self.train, self.spec, pts)
        raise ValueError(
            f"{self.kind!r} has no out-of-sample prediction rule; refit on "
            f"the augmented sample instead"
        )

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
    ridge solve.  The V-statistic nonparametric Stein fit can predict out of
    sample; the inverse that needs is formed on its first prediction (see
    :attr:`FittedEstimator.kinv`), not here.  A median-rule ``spec`` is
    resolved on ``samples`` by the fit (see the module docstring), and the
    result holds the resolved spec.  The arguments pass :func:`check_fit`
    before the sample is read.
    """
    eta = check_fit(kind, spec, eta)  # kde ignores it, but its record keeps it
    xs = as_samples(samples)
    stat = "u" if kind in _U_KINDS else "v"
    diagnostics: dict = {}
    if kind == KIND_KDE:
        params, spec = _kde_fit(xs, spec)
    else:
        if kind in (KIND_STEIN_V, KIND_STEIN_U):
            system, rhs, spec = _stein_system(xs, spec, stat)
            name = f"stein {stat}-statistic system"
        elif kind == KIND_SCORE:
            system, rhs, spec = _score_system(xs, spec)
            name = "score matching system"
        else:
            system, rhs, spec = _parametric_system(xs, spec, stat)
            name = f"parametric stein {stat}-statistic system"
        system[np.diag_indices_from(system)] += eta
        params, jitter, level = solve_symmetric(system, rhs, name=name)
        diagnostics = {"jitter": jitter, "jitter_level": level}
    grads, coeffs = (params, None) if kind in _GRAD_KINDS else (None, params)
    return FittedEstimator(
        kind=kind,
        train=xs.copy(),
        spec=spec,
        eta=eta,
        grads=grads,
        coeffs=coeffs,
        diagnostics=diagnostics,
    )
