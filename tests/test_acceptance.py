"""Acceptance suite: nine end-to-end guarantees, one printed verdict line each.

Every test runs a frozen benchmark configuration, prints

    ACCEPTANCE k/9 <name>: PASS|FAIL (details)

directly to the terminal (bypassing pytest capture), and then asserts.  The
configurations, tolerances, and time budgets are fixed; do not tune them to
make a failing criterion pass.  One further check, on the score-matching
fit at each side of its dimension switch, reuses criterion 1's loop-built
objective and prints no verdict line.
"""

import json
import math
import time

import numpy as np
import pytest

import steingrad as sg
from steingrad import KernelSpec, fit_estimator
from steingrad.cli import main
from steingrad.estimators import (
    KIND_KDE,
    KIND_SCORE,
    KIND_STEIN_PARAM_U,
    KIND_STEIN_PARAM_V,
    KIND_STEIN_U,
    KIND_STEIN_V,
    _parametric_system,
)
from steingrad.kernels import (
    cross_hess_trace,
    kernel_eval,
    kernel_grad_first_arg,
)
from steingrad.oracles import brute_ksd, fd_gradient, quadratic_minimiser

RBF = "rbf"
EPAN = "epanechnikov"


def _report(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        line = f"ACCEPTANCE {num}/9 {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        print(line, flush=True)


def _loop_kernel_matrices(xs, spec):
    """Kernel matrix and summed second-argument gradients via scalar calls."""
    n = len(xs)
    km = np.empty((n, n))
    gs = np.zeros((n, xs.shape[1]))
    for i in range(n):
        for j in range(n):
            km[i, j] = kernel_eval(xs[i], xs[j], spec)
            gs[j] += kernel_grad_first_arg(xs[i], xs[j], spec)
    return km, gs


def _loop_score_matching_form(xs, spec):
    """Quadratic form (Q, r) of the empirical score-matching objective.

    The objective of the expansion g(x) = sum_k a_k grad k(x, x_k) is
    a^T Q a + 2 r^T a with Q and r plain sums over samples.
    """
    n, d = xs.shape
    q = np.zeros((n, n))
    r = np.zeros(n)
    for i in range(n):
        grads_i = np.array([kernel_grad_first_arg(xs[i], xs[k], spec) for k in range(n)])
        q += grads_i @ grads_i.T / n
        r -= np.array([cross_hess_trace(xs[i], xs[k], spec) for k in range(n)]) / n
    return q, r


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_score_matching_fit_matches_loop_form_across_the_switch(d):
    # the rbf fit sums Sigma over coordinates for d <= 2 and builds it in
    # its coordinate-free form from d = 3 on; both sides must minimise the
    # same loop-built objective as in criterion 1
    rng = np.random.default_rng(2000 + d)
    n = 14
    xs = rng.standard_normal((n, d))
    sigma2 = d * float(rng.uniform(0.5, 3.0))
    spec = KernelSpec(RBF, sigma2)
    eta = 0.1
    q, r = _loop_score_matching_form(xs, spec)
    scale = n * sigma2**2
    want = quadratic_minimiser(scale * q, scale * r, ridge=eta)
    got = fit_estimator(KIND_SCORE, xs, spec, eta=eta).coeffs
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-8)


def _loop_parametric_system(xs, spec, statistic):
    n = len(xs)
    km, _ = _loop_kernel_matrices(xs, spec)
    gram = xs @ xs.T
    lam = np.zeros((n, n))
    b = np.zeros(n)
    for k in range(n):
        for kp in range(n):
            for j in range(n):
                for l in range(n):
                    if statistic == "u" and j == l:
                        continue
                    lam[k, kp] += (
                        km[k, j]
                        * km[j, l]
                        * km[l, kp]
                        * (gram[k, kp] + gram[j, l] - gram[k, l] - gram[j, kp])
                    )
        for j in range(n):
            for l in range(n):
                b[k] -= (
                    km[k, j]
                    * km[j, l]
                    * (gram[k, j] - gram[k, l] - gram[j, j] + gram[j, l])
                )
    return lam, b


def test_criterion_1_closed_forms_match_quadratic_oracle(capsys):
    # Every closed-form fit (nonparametric V and U, score matching for both
    # families, parametric V and U) against the generic eigendecomposition
    # minimiser.  The oracle insists on a positive definite shifted form, so
    # the U variants run at ridges large enough to lift their indefinite
    # systems: the kernel diagonal is 1, hence eig(K - diag K) >= -1 and any
    # eta > 1 suffices for the nonparametric fit; the parametric ridge is
    # sized from the loop-built matrix's own spectrum.
    t0 = time.perf_counter()
    eta = 0.1
    eta_u = 1.2
    worst = 0.0

    def check(got, want):
        nonlocal worst
        err = float(np.max(np.abs(got - want) / (np.abs(want) + 1e-8)))
        worst = max(worst, err)

    for instance in range(10):
        rng = np.random.default_rng(1000 + instance)
        n = int(rng.integers(8, 16))
        d = int(rng.integers(1, 4))
        xs = rng.standard_normal((n, d))
        sigma2 = float(rng.uniform(0.5, 3.0))
        spec = KernelSpec(RBF, sigma2)
        espec = KernelSpec(EPAN)
        km, gs = _loop_kernel_matrices(xs, spec)

        # regularised nonparametric fits against the generic minimiser
        check(
            fit_estimator(KIND_STEIN_V, xs, spec, eta=eta).grads,
            quadratic_minimiser(km, gs, ridge=eta),
        )
        check(
            fit_estimator(KIND_STEIN_U, xs, spec, eta=eta_u).grads,
            quadratic_minimiser(km - np.eye(n), gs, ridge=eta_u),
        )

        # density-based fit against numerical gradients of the log mixture
        def log_mixture(x, xs=xs, spec=spec):
            return math.log(sum(kernel_eval(x, xk, spec) for xk in xs))

        check(
            fit_estimator(KIND_KDE, xs, spec).grads,
            np.array([fd_gradient(log_mixture, x) for x in xs]),
        )

        # closed-form score matching, both families
        q, r = _loop_score_matching_form(xs, spec)
        scale = n * sigma2**2
        check(
            fit_estimator(KIND_SCORE, xs, spec, eta=eta).coeffs,
            quadratic_minimiser(scale * q, scale * r, ridge=eta),
        )
        qe, re = _loop_score_matching_form(xs, espec)
        check(
            fit_estimator(KIND_SCORE, xs, espec, eta=eta).coeffs,
            quadratic_minimiser(2.0 * qe, 2.0 * re, ridge=8.0 * eta),
        )

        # parametric discrepancy minimisers (smaller n: quartic loops)
        xs_p = xs[:8]
        lam, b = _loop_parametric_system(xs_p, spec, "v")
        check(
            fit_estimator(KIND_STEIN_PARAM_V, xs_p, spec, eta=eta).coeffs,
            quadratic_minimiser(lam, -b, ridge=eta),
        )
        lam_u, b_u = _loop_parametric_system(xs_p, spec, "u")
        eta_pu = float(1.1 * abs(np.linalg.eigvalsh(lam_u).min()) + 0.1)
        check(
            fit_estimator(KIND_STEIN_PARAM_U, xs_p, spec, eta=eta_pu).coeffs,
            quadratic_minimiser(lam_u, -b_u, ridge=eta_pu),
        )

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(
        capsys, 1, "closed-form fits match independent oracles", ok,
        f"worst rel err {worst:.2e} over 10 instances, {elapsed:.1f}s",
    )
    assert worst < 1e-6
    assert elapsed < 10.0


def test_criterion_2_ksd_matches_brute_force(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for instance in range(20):
        rng = np.random.default_rng(2000 + instance)
        n = int(rng.integers(2, 17))
        d = int(rng.integers(1, 4))
        xs = rng.standard_normal((n, d))
        grads = rng.standard_normal((n, d))
        spec = (
            KernelSpec(RBF, float(rng.uniform(0.5, 3.0)))
            if instance % 2 == 0
            else KernelSpec(EPAN)
        )
        for statistic in ("v", "u"):
            for constant in (False, True):
                fn = sg.ksd_v if statistic == "v" else sg.ksd_u
                got = fn(xs, grads, spec, includes_constant=constant).value
                want = brute_ksd(
                    xs, grads, spec, statistic=statistic, includes_constant=constant
                )
                worst = max(worst, abs(got - want) / (abs(want) + 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(
        capsys, 2, "discrepancy statistics match brute-force double sums", ok,
        f"worst rel err {worst:.2e} over 20 instances, {elapsed:.1f}s",
    )
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_3_parametric_system_matches_explicit_sums(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for instance in range(3):
        rng = np.random.default_rng(3000 + instance)
        xs = rng.standard_normal((8, 2))
        spec = KernelSpec(RBF, float(rng.uniform(0.5, 2.0)))
        for statistic in ("v", "u"):
            lam, b, _ = _parametric_system(xs, spec, statistic)
            lam_loop, b_loop = _loop_parametric_system(xs, spec, statistic)
            scale = np.abs(lam_loop).max()
            worst = max(worst, float(np.abs(lam - lam_loop).max() / scale))
            worst = max(worst, float(np.abs(b - b_loop).max() / np.abs(b_loop).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _report(
        capsys, 3, "parametric system matrices match explicit quadruple sums", ok,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_4_analytic_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4000)
    worst = 0.0

    for _ in range(40):
        x = rng.normal(0.0, 5.0, size=2)
        got = sg.banana_score(x)
        want = fd_gradient(lambda z: sg.banana_log_density(z), x)
        worst = max(worst, float(np.abs(got - want).max()))

    for family in (RBF, EPAN):
        spec = KernelSpec(family, 1.4 if family == RBF else None)
        for _ in range(30):
            x = rng.standard_normal(3)
            y = rng.standard_normal(3)
            got = kernel_grad_first_arg(x, y, spec)
            want = fd_gradient(lambda z: kernel_eval(z, y, spec), x)
            worst = max(worst, float(np.abs(got - want).max()))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    _report(
        capsys, 4, "analytic gradients match finite differences", ok,
        f"worst abs err {worst:.2e} over 100 points, {elapsed:.1f}s",
    )
    assert worst < 1e-6
    assert elapsed < 5.0


def test_criterion_5_regularised_fit_beats_density_plugin(capsys):
    t0 = time.perf_counter()
    stein_mses = []
    kde_mses = []
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((200, 2))
        spec = KernelSpec(RBF, sg.median_heuristic(xs))
        truth = -xs
        grads = fit_estimator(KIND_STEIN_V, xs, spec, eta=0.1).grads
        mse_stein = float(np.mean((grads - truth) ** 2))
        mse_kde = float(np.mean((fit_estimator(KIND_KDE, xs, spec).grads - truth) ** 2))
        stein_mses.append(mse_stein)
        kde_mses.append(mse_kde)
        wins += mse_stein < mse_kde
    mean_stein = float(np.mean(stein_mses))
    mean_kde = float(np.mean(kde_mses))
    elapsed = time.perf_counter() - t0
    ok = wins == 20 and mean_stein < mean_kde and elapsed < 30.0
    _report(
        capsys, 5, "regularised fit beats the density plug-in on a Gaussian", ok,
        f"mse {mean_stein:.3f} vs {mean_kde:.3f}, {wins}/20 seeds, {elapsed:.1f}s",
    )
    assert wins == 20
    assert mean_stein < mean_kde
    assert elapsed < 30.0


def test_criterion_6_accuracy_improves_with_sample_size(capsys):
    t0 = time.perf_counter()
    sizes = (50, 200, 800)
    mses = {k: [] for k in sizes}
    for s in range(20):
        rng = np.random.default_rng(100 + s)
        pool = rng.standard_normal((800, 2))
        for k in sizes:
            xs = pool[:k]
            spec = KernelSpec(RBF, sg.median_heuristic(xs))
            grads = fit_estimator(KIND_STEIN_V, xs, spec, eta=0.1).grads
            mses[k].append(float(np.mean((grads + xs) ** 2)))
    means = [float(np.mean(mses[k])) for k in sizes]
    elapsed = time.perf_counter() - t0
    monotone = means[0] >= means[1] >= means[2]
    ok = monotone and elapsed < 120.0
    _report(
        capsys, 6, "estimation error shrinks as the sample grows", ok,
        "20-seed mean mse " + " -> ".join(f"{m:.3f}" for m in means)
        + f" for K=50,200,800, {elapsed:.1f}s",
    )
    assert monotone, means
    assert elapsed < 120.0


def test_criterion_7_estimated_score_drives_faithful_sampler(capsys, tmp_path):
    t0 = time.perf_counter()
    reports = {}
    for name in ("exact", "stein-v"):
        out = tmp_path / f"banana-{name}.json"
        rc = main(
            [
                "banana",
                "--preset", "desk",
                "--seed", "0",
                "--estimator", name,
                "--output", str(out),
            ]
        )
        assert rc == 0
        reports[name] = json.loads(out.read_text())
    exact, stein = reports["exact"], reports["stein-v"]
    mean_ok = abs(exact["mean_x1"]) <= 3.0 * exact["se_mean_x1"]
    acc_gap = abs(exact["acceptance_rate"] - stein["acceptance_rate"])
    ksd_ratio = stein["ksd_pooled"] / exact["ksd_pooled"]
    elapsed = time.perf_counter() - t0
    ok = mean_ok and acc_gap <= 0.25 and ksd_ratio <= 3.0 and elapsed < 120.0
    _report(
        capsys, 7, "estimated score drives a faithful sampler", ok,
        f"mean_x1 {exact['mean_x1']:.3f} within 3se {3 * exact['se_mean_x1']:.3f}, "
        f"acceptance gap {acc_gap:.3f} <= 0.25, "
        f"sample-quality ratio {ksd_ratio:.2f} <= 3, {elapsed:.1f}s",
    )
    assert mean_ok
    assert acc_gap <= 0.25
    assert ksd_ratio <= 3.0
    assert elapsed < 120.0


def test_criterion_8_entropy_gradient_calibration(capsys, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "entropy.json"
    rc = main(
        [
            "entropy-check",
            "--seed", "42",
            "--estimators", "stein-v",
            "--output", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    exact_rel = report["exact"]["rel_error"]
    ratio = report["estimates"]["stein-v"]["abs_error"] / report["exact"]["abs_error"]
    elapsed = time.perf_counter() - t0
    ok = exact_rel <= 0.05 and ratio <= 3.0 and elapsed < 30.0
    _report(
        capsys, 8, "entropy gradient calibrates against the analytic value", ok,
        f"exact rel err {exact_rel:.4f} <= 0.05, estimator/exact abs-error ratio "
        f"{ratio:.2f} <= 3, {elapsed:.1f}s",
    )
    assert exact_rel <= 0.05
    assert ratio <= 3.0
    assert elapsed < 30.0


def test_criterion_9_structural_invariants_hold(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(9000)
    spec = KernelSpec(RBF, 1.5)

    # drift-free geometry: shifting or reflecting the sample moves the fit
    xs = rng.standard_normal((30, 2))
    base = fit_estimator(KIND_STEIN_V, xs, spec, eta=0.1).grads
    shifted = fit_estimator(KIND_STEIN_V, xs + np.array([5.0, -3.0]), spec, eta=0.1).grads
    if np.abs(shifted - base).max() > 1e-10:
        failures.append("translation equivariance")
    reflected = fit_estimator(KIND_STEIN_V, -xs, spec, eta=0.1).grads
    if np.abs(reflected + base).max() > 1e-10:
        failures.append("reflection equivariance")

    # discrepancy sign and statistic bookkeeping
    for seed in range(20):
        r2 = np.random.default_rng(seed)
        ys = r2.standard_normal((10, 3))
        gs = r2.standard_normal((10, 3))
        if sg.ksd_v(ys, gs, spec, includes_constant=True).value < -1e-10:
            failures.append("discrepancy nonnegativity")
            break
    ys = rng.standard_normal((9, 2))
    gs = rng.standard_normal((9, 2))
    for constant in (False, True):
        v = sg.ksd_v(ys, gs, spec, includes_constant=constant).value
        u = sg.ksd_u(ys, gs, spec, includes_constant=constant).value
        diag = sum(
            float(gs[i] @ gs[i])
            + (cross_hess_trace(ys[i], ys[i], spec) if constant else 0.0)
            for i in range(9)
        )
        if abs(81 * v - 72 * u - diag) > 1e-9 * max(1.0, abs(diag)):
            failures.append("statistic diagonal identity")

    # the regularised fit minimises discrepancy + ridge: 100 random
    # perturbations of the fitted gradients may never lower the objective
    eta = 0.1
    fitted = fit_estimator(KIND_STEIN_V, xs, spec, eta=eta).grads

    def objective(grads):
        penalty = eta / xs.shape[0] ** 2 * float(np.sum(grads * grads))
        return sg.ksd_v(xs, grads, spec, includes_constant=False).value + penalty

    at_fit = objective(fitted)
    scale = 0.01 * (1.0 + float(np.linalg.norm(fitted)))
    r3 = np.random.default_rng(9100)
    for _ in range(100):
        delta = r3.standard_normal(fitted.shape)
        delta *= scale / np.linalg.norm(delta)
        if objective(fitted + delta) < at_fit - 1e-10 * (1.0 + abs(at_fit)):
            failures.append("fit local optimality")
            break

    # integrator: time reversal, volume, energy drift, each on one chain,
    # the (1, d) case of the batched integrator
    q0, p0 = np.array([[1.0, -0.5]]), np.array([[0.3, 0.7]])
    q1, p1, _, _ = sg.leapfrog(q0, p0, 0.1, 50, sg.banana_score)
    q2, p2, _, _ = sg.leapfrog(q1, -p1, 0.1, 50, sg.banana_score)
    if max(np.abs(q2 - q0).max(), np.abs(p2 + p0).max()) > 1e-10:
        failures.append("leapfrog reversibility")
    cols = []
    for e in np.eye(2):
        q, p, _, _ = sg.leapfrog(e[None, :1], e[None, 1:], 0.3, 1, lambda z: -z)
        cols.append([q[0, 0], p[0, 0]])
    if abs(np.linalg.det(np.array(cols).T) - 1.0) > 1e-12:
        failures.append("leapfrog volume preservation")
    h0 = 0.5 * float(q0[0] @ q0[0] + p0[0] @ p0[0])
    qe, pe, _, _ = sg.leapfrog(q0, p0, 0.1, 1000, lambda z: -z)
    if abs(0.5 * float(qe[0] @ qe[0] + pe[0] @ pe[0]) - h0) > 0.01:
        failures.append("leapfrog energy drift")

    # reproducibility of the sampling harness
    cfg = sg.HmcConfig(n_chains=3, n_iters=40, stepsize=0.5, n_leapfrog=5)
    init = np.zeros((3, 2))
    seeds = np.random.SeedSequence(77).spawn(3)
    a = sg.run_hmc(sg.banana_log_density, sg.banana_score, cfg, init, chain_seeds=seeds)
    b = sg.run_hmc(sg.banana_log_density, sg.banana_score, cfg, init, chain_seeds=seeds)
    if not (
        np.array_equal(a.trajectories, b.trajectories)
        and np.array_equal(a.accepts, b.accepts)
    ):
        failures.append("bitwise reproducibility")

    # bandwidth selection against a sorted brute-force median; 23 points
    # give 253 pairs, an odd count with a single central order statistic
    zs = rng.standard_normal((23, 3))
    dists = sorted(
        float(np.linalg.norm(zs[i] - zs[j]))
        for i in range(23)
        for j in range(i + 1, 23)
    )
    med = dists[len(dists) // 2]
    if abs(sg.median_heuristic(zs) - med**2) > 1e-12 * med**2:
        failures.append("median bandwidth")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(
        capsys, 9, "structural invariants hold", ok,
        ("all 10 invariant groups clean" if not failures else "failed: " + ", ".join(failures))
        + f", {elapsed:.1f}s",
    )
    assert not failures, failures
    assert elapsed < 60.0
