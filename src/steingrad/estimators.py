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

``fit_estimator`` fits any kind and returns a serialisable
:class:`FittedEstimator`, whose ``predict`` takes (n, d) points.
``entropy_gradient_surrogate`` turns estimated scores and reparameterised
sample Jacobians into a gradient of the entropy term.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DegenerateDenominatorError, NumericalError
from .kernels import RBF, KernelSpec, as_samples, build_matrices
from .linalg import solve_symmetric

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
# the kinds of serialised records written under the earlier names
_OLD_KINDS = {
    "stein-nonparam-v": KIND_STEIN_V,
    "stein-nonparam-u": KIND_STEIN_U,
    "score-rbf": KIND_SCORE,
    "score-epanechnikov": KIND_SCORE,
}


def _check_eta(eta: float, statistic: str = "v") -> float:
    eta = float(eta)
    if not np.isfinite(eta) or eta < 0:
        raise ValueError(f"eta must be finite and >= 0, got {eta!r}")
    if statistic == "u" and eta < MIN_U_ETA:
        raise ValueError(
            f"U-statistic fits need eta >= {MIN_U_ETA:g} (the shifted system "
            f"can be indefinite), got {eta!r}"
        )
    return eta


def _kde_fit(xs, spec):
    """Gradient field of the kernel density estimate at the samples.

    Row i is grad log qhat(x^i) for qhat(x) propto sum_k k(x, x^k), which in
    matrix form is -diag(K 1)^-1 <grad, K>.
    """
    mats = build_matrices(xs, spec)
    denom = mats.k_matrix.sum(axis=1)
    zero = np.nonzero(denom == 0.0)[0]
    if zero.size:
        raise DegenerateDenominatorError(
            f"kernel row {int(zero[0])} sums to zero; the KDE gradient is "
            f"undefined there"
        )
    return -mats.grad_sum / denom[:, None]


def _kde_predict(train: np.ndarray, spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    # same ratio form as _kde_fit, evaluated at new points
    sq = cdist(points, train, "sqeuclidean")
    n, d = train.shape
    if spec.family == RBF:
        kmat = np.exp(-0.5 * sq / spec.sigma2)
        # sum_k k(y, x^k) (y - x^k) in row-sum/matmul form, O(M K) memory
        num = -(kmat.sum(axis=1)[:, None] * points - kmat @ train) / spec.sigma2
    else:
        kmat = 1.0 - sq / d
        num = -(2.0 / d) * (n * points - train.sum(axis=0)[None, :])
    denom = kmat.sum(axis=1)
    zero = np.nonzero(denom == 0.0)[0]
    if zero.size:
        raise DegenerateDenominatorError(
            f"kernel row sum vanishes at prediction point {int(zero[0])}"
        )
    return num / denom[:, None]


def _stein_system(xs, spec, eta, statistic):
    # grad_sum and the system matrix, built in the kernel matrix's buffer
    mats = build_matrices(xs, spec)
    system = mats.k_matrix
    if statistic == "u":
        np.fill_diagonal(system, 0.0)
    system[np.diag_indices_from(system)] += eta
    return mats.grad_sum, system


def _stein_nonparametric_fit(xs, spec, eta, statistic):
    """Nonparametric Stein gradient field at the samples.

    Solves (K + eta I) G = -<grad, K> for the V-statistic; the U-statistic
    removes the kernel diagonal from the system matrix and requires a
    strictly positive eta.
    """
    grad_sum, system = _stein_system(xs, spec, eta, statistic)
    grads, jitter, level = solve_symmetric(
        system, -grad_sum, name=f"stein {statistic}-statistic system"
    )
    return grads, {"jitter": jitter, "jitter_level": level}


def _stein_predict(fitted, pts):
    """Out-of-sample gradients for a V-statistic nonparametric Stein fit.

    For each query y, with S the Schur complement of the training block in
    the augmented kernel system,

        g(y)^T = -S^-1 ( K_yX G - (K_yX (K + eta I)^-1 + 1^T) grad_y k(., y) )

    where grad_y k(., y) stacks the second-argument kernel gradients, one
    row per training point.  Equivalent to refitting on the augmented sample
    and reading off the new row, without the refit.  (K + eta I)^-1 is
    ``fitted.kinv``, solved from train, kernel and eta on the first call and
    kept on the fitted object for later ones.  ``pts`` is the (M, d) batch
    that :meth:`FittedEstimator.predict` has already validated.
    """
    train, grads, kinv = fitted.train, fitted.grads, fitted.kinv
    spec, eta = fitted.spec, fitted.eta
    d = train.shape[1]
    # one row per query: k_yX, (K + eta I)^-1 k_Xy, and the weights w that
    # turn the kernel gradients into w @ X - sum(w) y, all O(M K) memory
    sq = cdist(pts, train, "sqeuclidean")
    if spec.family == RBF:
        kmat = np.exp(-0.5 * sq / spec.sigma2)
    else:
        kmat = 1.0 - sq / d
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
    if spec.family == RBF:
        weights, scale = (smoothed + 1.0) * kmat, 1.0 / spec.sigma2
    else:
        weights, scale = smoothed + 1.0, 2.0 / d
    pulled = scale * (weights @ train - weights.sum(axis=1)[:, None] * pts)
    return -(kmat @ grads - pulled) / schur[:, None]


def _expansion_predict(coeffs, train, spec, points):
    # rows: sum_k a_k * grad_first k(y^i, x^k) = sum_k w_ik (y^i - x^k)
    d = train.shape[1]
    if spec.family == RBF:
        sq = cdist(points, train, "sqeuclidean")
        weights = -np.exp(-0.5 * sq / spec.sigma2) * coeffs[None, :] / spec.sigma2
        return weights.sum(axis=1)[:, None] * points - weights @ train
    weights = (-2.0 / d) * coeffs
    return weights.sum() * points - (weights @ train)[None, :]


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


def _score_sigma_closed_form(xs, km, sqn):
    # B + B^T + (K K) o G in one scratch buffer besides G and B:
    # K o (1/2 n^T - G), then K K o G, then + B + B^T
    gram = xs @ xs.T
    buf = np.subtract(0.5 * sqn, gram)
    buf *= km
    b = buf @ km
    np.matmul(km, km, out=buf)
    buf *= gram
    buf += b
    buf += b.T
    return buf


def _score_matching_fit(xs, spec, eta):
    """Closed-form ridge score matching coefficients, one per sample.

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
         d <= 2 and the coordinate-free form from d = 3 on.

    epanechnikov: a = 1/2 (Sigma + eta I)^-1 1 with
         Sigma_kk' = (1/d^2) [ x^k . x^k'
                               + (1/K) sum_j (||x^j||^2 - (x^k + x^k') . x^j) ].

    Both are the exact minimisers of the empirical score-matching objective
    under an l2 penalty (the penalty scale absorbed into eta).  Both depend
    on the sample only through differences x^j - x^k, so X is centred on
    its mean before G and n are formed.
    """
    n, d = xs.shape
    # both systems are translation invariant in exact arithmetic; centring
    # keeps the Gram matrix and the norms at the scale of the differences
    xs = xs - xs.mean(axis=0)
    if spec.family == RBF:
        km = build_matrices(xs, spec).k_matrix
        ksum = km.sum(axis=1)
        sqn = np.einsum("kd,kd->k", xs, xs)
        v = d * spec.sigma2 * ksum - (
            km @ sqn + sqn * ksum - 2.0 * (xs * (km @ xs)).sum(axis=1)
        )
        if d < _SIGMA_CLOSED_FORM_MIN_D:
            sigma = _score_sigma_by_coordinate(xs, km)
        else:
            sigma = _score_sigma_closed_form(xs, km, sqn)
        del km  # freed before the solve copies the system
    else:
        gram = xs @ xs.T
        sqn = np.einsum("kd,kd->k", xs, xs)
        row = gram.sum(axis=1)
        sigma = (gram + (sqn.sum() - row[:, None] - row[None, :]) / n) / d**2
        v = np.full(n, 0.5)
    sigma[np.diag_indices_from(sigma)] += eta
    coeffs, jitter, level = solve_symmetric(sigma, v, name="score matching system")
    return coeffs, {"jitter": jitter, "jitter_level": level}


def _parametric_system(xs, spec, statistic):
    """Quadratic form (lam, b) of the parametric Stein objective."""
    if spec.family != RBF:
        raise ValueError("parametric Stein fits support the rbf family only")
    # translation invariant in exact arithmetic; see _score_matching_fit
    xs = xs - xs.mean(axis=0)
    km = build_matrices(xs, spec).k_matrix
    gram = xs @ xs.T
    ksum = km.sum(axis=1)
    sqn = np.diag(gram)
    kk = km @ km
    kx = km * gram
    # the row sums of K diag(n) K + (K K) o G - K (K o G) - (K o G) K, each
    # as a matrix-vector product
    b = (
        km @ (sqn * ksum)
        + np.einsum("ij,ij->i", kk, gram)
        - km @ kx.sum(axis=1)
        - kx @ ksum
    )
    # lam = G o (P K) + K Q K - t - t^T with t = (P o G) K, P = K K and
    # Q = K o G; U zeroes the diagonal of Q and of P's second factor.  The
    # last term is t^T because K and G are symmetric.  Built in place,
    # freeing each product once used, so that at most five (K, K) arrays
    # are alive at once: K, G, P and two more.
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
    lam *= gram
    lam += kxk
    del kxk
    kk *= gram
    t = kk @ km
    del kk
    lam -= t
    lam -= t.T
    return lam, b


def _stein_parametric_fit(xs, spec, eta, statistic):
    """Expansion coefficients minimising the kernelised Stein discrepancy.

    RBF kernel only.  With X the Gram matrix and K the kernel matrix,

        Lambda = X o (K K K) + K (K o X) K - ((K K) o X) K - K ((K K) o X)
        b = (K diag(X) K + (K K) o X - K (K o X) - (K o X) K) 1

    and a = (Lambda + eta I)^-1 b.  The U-statistic variant replaces the
    inner K of each triple product with K - diag(K) (Lambda tilde), keeping
    the same b; o is the elementwise product.
    """
    lam, b = _parametric_system(xs, spec, statistic)
    lam[np.diag_indices_from(lam)] += eta
    coeffs, jitter, level = solve_symmetric(
        lam, b, name=f"parametric stein {statistic}-statistic system"
    )
    return coeffs, {"jitter": jitter, "jitter_level": level}


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
    V-statistic nonparametric fit, solved on first use and then kept.
    """

    kind: str
    train: np.ndarray
    spec: KernelSpec
    eta: float
    grads: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @cached_property
    def kinv(self) -> np.ndarray | None:
        """(K + eta I)^-1 for a stein-v fit, None for other kinds.

        Solved from train, kernel and eta on first access, with an identity
        right-hand side, and kept on this object; fits that never predict
        never pay the second solve.  It is one Cholesky factorisation plus
        triangular solves, on the fit's jitter ladder; the ladder's residual
        check depends on the right-hand side, so a near-singular system can
        accept it on a higher rung than the fit.  The factor is not kept on
        the fit: it would hold another (K, K) array.
        """
        if self.kind != KIND_STEIN_V:
            return None
        _, system = _stein_system(self.train, self.spec, self.eta, "v")
        kinv, _, _ = solve_symmetric(
            system, np.eye(self.train.shape[0]), name="stein predictive inverse"
        )
        return kinv

    def grads_at_train(self) -> np.ndarray:
        """Gradient field at the training samples (the fit output)."""
        if self.grads is not None:
            return self.grads.copy()
        return _expansion_predict(self.coeffs, self.train, self.spec, self.train)

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

    def to_json_dict(self) -> dict:
        """Plain-python dict for JSON serialisation (exact float round trip)."""
        return {
            "kind": self.kind,
            "kernel": {
                "family": self.spec.family,
                "sigma2": self.spec.sigma2,
            },
            "eta": self.eta,
            "train": self.train.tolist(),
            "grads": None if self.grads is None else self.grads.tolist(),
            "coeffs": None if self.coeffs is None else self.coeffs.tolist(),
            "diagnostics": dict(self.diagnostics),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FittedEstimator":
        """Rebuild an estimator written by :meth:`to_json_dict`.

        The record is checked before anything is built: the kind must carry
        exactly its own parameter set (``grads`` for the gradient-field
        kinds, ``coeffs`` for the expansion kinds), ``grads`` must have the
        shape of ``train`` and ``coeffs`` one entry per training point, and
        every value must be finite.  A violation raises ``ValueError``
        naming the field.  A ``kinv`` entry, written by older versions, is
        ignored: the inverse is derived from train, kernel and eta.  A kind
        under its earlier name (``stein-nonparam-v``, ``score-rbf``, ...)
        loads as its current one.
        """
        try:
            kind = _OLD_KINDS.get(obj["kind"], obj["kind"])
            kernel = obj["kernel"]
            spec = KernelSpec(kernel["family"], kernel.get("sigma2"))
            train = as_samples(obj["train"], name="train")
            eta = float(obj["eta"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed estimator record: {exc}") from exc
        if kind not in KINDS:
            raise ValueError(f"unknown estimator kind {kind!r}")
        if not np.isfinite(eta):
            raise ValueError(f"eta must be finite, got {eta!r}")
        field_name = "grads" if kind in _GRAD_KINDS else "coeffs"
        other = "coeffs" if kind in _GRAD_KINDS else "grads"
        if obj.get(other) is not None:
            raise ValueError(f"{kind!r} record carries {other!r}; it takes {field_name!r}")
        if obj.get(field_name) is None:
            raise ValueError(f"{kind!r} record lacks {field_name!r}")
        try:
            params = np.asarray(obj[field_name], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{field_name} is not numeric: {exc}") from exc
        want = train.shape if kind in _GRAD_KINDS else train.shape[:1]
        if params.shape != want:
            raise ValueError(
                f"{field_name} has shape {params.shape}, expected {want} for "
                f"{train.shape[0]} training points in dimension {train.shape[1]}"
            )
        if not np.all(np.isfinite(params)):
            raise ValueError(f"{field_name} contains non-finite entries")
        return cls(
            kind=kind,
            train=train,
            spec=spec,
            eta=eta,
            **{field_name: params},
            diagnostics=dict(obj.get("diagnostics") or {}),
        )


def fit_estimator(
    kind: str, samples, spec: KernelSpec, eta: float = DEFAULT_ETA
) -> FittedEstimator:
    """Fit any estimator kind and package the result.

    ``kind`` is one of :data:`KINDS`; ``score`` takes either kernel family.
    Each fit makes one solve.  The V-statistic nonparametric Stein fit can
    predict out of sample; the inverse that needs is solved on its first
    prediction (see :attr:`FittedEstimator.kinv`), not here.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}; expected one of {KINDS}")
    xs = as_samples(samples)
    stat = "u" if kind in (KIND_STEIN_U, KIND_STEIN_PARAM_U) else "v"
    eta = _check_eta(eta, stat)  # kde ignores it, but its record keeps it
    diagnostics: dict = {}
    grads = coeffs = None
    if kind == KIND_KDE:
        grads = _kde_fit(xs, spec)
    elif kind in (KIND_STEIN_V, KIND_STEIN_U):
        grads, diagnostics = _stein_nonparametric_fit(xs, spec, eta, stat)
    elif kind == KIND_SCORE:
        coeffs, diagnostics = _score_matching_fit(xs, spec, eta)
    else:
        coeffs, diagnostics = _stein_parametric_fit(xs, spec, eta, stat)
    return FittedEstimator(
        kind=kind,
        train=xs.copy(),
        spec=spec,
        eta=eta,
        grads=grads,
        coeffs=coeffs,
        diagnostics=diagnostics,
    )
