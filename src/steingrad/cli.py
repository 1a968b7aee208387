"""Command-line front end.

Four subcommands:

    steingrad estimate       fit a score estimator to a CSV of samples and
                             write the gradient field plus a JSON sidecar
    steingrad ksd            kernelised Stein discrepancy of (samples, grads)
    steingrad banana         the gradient-free HMC benchmark on the banana
                             target
    steingrad entropy-check  Gaussian entropy-gradient calibration benchmark

Every subcommand accepts ``--config FILE`` pointing at a JSON object whose
keys mirror the long flag names (underscored); explicit flags win over the
config file, which wins over built-in defaults.  Commands that consume
randomness require a seed.  Outputs are pure functions of (config, input
files): JSON is written with sorted keys and shortest round-trip floats, so
re-running a command reproduces its output byte for byte.

Exit codes: 0 success, 2 input error (bad flags, malformed files), 3
numerical failure.

File formats
------------
Sample CSV: header ``x0,...,x{d-1}``, one sample per row.  Gradient CSV:
same layout with header ``g0,...,g{d-1}``.  The estimate sidecar holds the
full serialised estimator: kind, kernel family and effective bandwidth, eta,
training data, gradient field or coefficients, and fit diagnostics (jitter
ladder use), O(K d) numbers in all.  The predictive Stein fit's training-block
inverse is not stored; a reloaded estimator solves it on its first prediction.
"""

import argparse
import csv
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .discrepancy import ksd_u, ksd_v
from .errors import NumericalError
from .estimators import (
    DEFAULT_ETA,
    KIND_STEIN_U,
    KINDS,
    entropy_gradient_surrogate,
    fit_estimator,
)
from .kernels import EPANECHNIKOV, RBF, KernelSpec, median_heuristic
from .sampler import HmcConfig, banana_sample, banana_score, banana_log_density, run_hmc


# ---------------------------------------------------------------------------
# config plumbing


# JSON types a config value may have, per argparse type of its flag; bool
# is excluded from the numbers because json gives true/false as bool
_CONFIG_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
}


def _config_fields(sub):
    """Config key -> argparse type (bool for on/off flags) of a subparser."""
    fields = {}
    for action in sub._actions:
        if action.dest in ("help", "config"):
            continue
        is_switch = isinstance(action, argparse.BooleanOptionalAction)
        fields[action.dest] = bool if is_switch else action.type
    return fields


def _load_config(path, fields):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ValueError(f"{path}: unknown config keys {unknown}")
    for key, value in obj.items():
        if value is None or fields[key] not in _CONFIG_TYPES:
            continue
        types, what = _CONFIG_TYPES[fields[key]]
        ok = isinstance(value, types) and isinstance(value, bool) == (fields[key] is bool)
        if not ok:
            raise ValueError(f"{path}: config field {key!r} must be {what}, got {value!r}")
    return obj


class _Options:
    """Flag > config file > default resolution for one subcommand."""

    def __init__(self, args):
        self.args = args
        self.config = _load_config(args.config, args.config_fields)

    def get(self, name, default=None):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name in self.config and self.config[name] is not None:
            return self.config[name]
        return default


def _resolve_spec(opts, train=None):
    """Build the KernelSpec from kernel/sigma2/bandwidth_scale options."""
    family = str(opts.get("kernel", RBF)).lower()
    if family not in (RBF, EPANECHNIKOV):
        raise ValueError(f"unknown kernel family {family!r}")
    raw = opts.get("sigma2", "median")
    scale = float(opts.get("bandwidth_scale", 1.0))
    if not math.isfinite(scale) or scale <= 0:
        raise ValueError(f"bandwidth_scale must be > 0, got {scale!r}")
    if family == EPANECHNIKOV:
        if str(raw).lower() != "median" and raw is not None:
            raise ValueError("the epanechnikov kernel carries no bandwidth")
        return KernelSpec(EPANECHNIKOV)
    if str(raw).lower() == "median":
        if train is None:
            raise ValueError("median bandwidth needs training samples")
        base = median_heuristic(train)
    else:
        try:
            base = float(raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"sigma2 must be a positive number or 'median', got {raw!r}"
            ) from exc
    return KernelSpec(RBF, base * scale)


def _require_seed(opts):
    seed = opts.get("seed")
    if seed is None:
        raise ValueError("this command needs --seed (or a 'seed' config entry)")
    return seed


# ---------------------------------------------------------------------------
# file formats


def _read_matrix_csv(path, prefix):
    """Read a CSV with header {prefix}0..{prefix}{d-1} into a (K, d) array."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        d = len(header)
        expected = [f"{prefix}{i}" for i in range(d)]
        if header != expected or d == 0:
            raise ValueError(
                f"{path} line 1: header must be {prefix}0..{prefix}{{d-1}}, "
                f"got {header!r}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d:
                raise ValueError(
                    f"{path} line {lineno}: expected {d} fields, got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: non-finite values")
    return arr


def _write_matrix_csv(path, prefix, arr):
    # the bytes csv.writer would write: float reprs never need quoting
    rows = np.asarray(arr, dtype=float).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(f"{prefix}{i}" for i in range(arr.shape[1])) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _dump_json(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _jsonable(value):
    """None for NaN so reports stay strict JSON."""
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args) -> int:
    opts = _Options(args)
    input_path = opts.get("input")
    output_path = opts.get("output")
    if not input_path or not output_path:
        raise ValueError("estimate needs --input and --output")
    samples = _read_matrix_csv(input_path, "x")
    spec = _resolve_spec(opts, train=samples)
    name = str(opts.get("estimator", "stein-v"))
    if name == "exact":
        raise ValueError("'exact' is only meaningful for the banana command")
    eta = float(opts.get("eta", DEFAULT_ETA))
    fitted = fit_estimator(name, samples, spec, eta)
    grads = fitted.grads_at_train()
    _write_matrix_csv(output_path, "g", grads)
    sidecar = opts.get("sidecar")
    if sidecar is None:
        sidecar = str(Path(output_path).with_suffix(".json"))
    _dump_json(fitted.to_json_dict(), sidecar)
    return 0


# ---------------------------------------------------------------------------
# ksd


def cmd_ksd(args) -> int:
    opts = _Options(args)
    samples_path = opts.get("samples")
    grads_path = opts.get("grads")
    if not samples_path or not grads_path:
        raise ValueError("ksd needs --samples and --grads")
    xs = _read_matrix_csv(samples_path, "x")
    gs = _read_matrix_csv(grads_path, "g")
    spec = _resolve_spec(opts, train=xs)
    statistic = str(opts.get("statistic", "v")).lower()
    include_constant = opts.get("include_constant", True)
    if statistic == "v":
        est = ksd_v(xs, gs, spec, includes_constant=include_constant)
    elif statistic == "u":
        est = ksd_u(xs, gs, spec, includes_constant=include_constant)
    else:
        raise ValueError(f"statistic must be 'v' or 'u', got {statistic!r}")
    report = {
        "statistic": est.statistic,
        "includes_constant": est.includes_constant,
        "value": float(est.value),
        "K": int(xs.shape[0]),
        "d": int(xs.shape[1]),
        "kernel": spec.family,
        "sigma2": spec.sigma2,
    }
    _dump_json(report, opts.get("output"))
    return 0


# ---------------------------------------------------------------------------
# banana

_PRESETS = {
    "desk": {"n_chains": 50, "n_iters": 500},
    "paper": {"n_chains": 200, "n_iters": 2000},
}


def cmd_banana(args) -> int:
    opts = _Options(args)
    seed = _require_seed(opts)
    preset = opts.get("preset", "desk")
    if preset not in _PRESETS:
        raise ValueError(f"preset must be one of {sorted(_PRESETS)}, got {preset!r}")
    n_chains = opts.get("n_chains", _PRESETS[preset]["n_chains"])
    n_iters = opts.get("n_iters", _PRESETS[preset]["n_iters"])
    cfg = HmcConfig(
        n_chains=n_chains,
        n_iters=n_iters,
        stepsize=float(opts.get("stepsize", 0.5)),
        n_leapfrog=opts.get("n_leapfrog", 10),
        burn_in_fraction=float(opts.get("burn_in", 0.2)),
    )
    b = float(opts.get("banana_b", 0.03))
    v = float(opts.get("banana_v", 100.0))
    n_train = opts.get("n_train", 200)
    init_noise = float(opts.get("init_noise", 2.0))
    if init_noise < 0:
        raise ValueError(f"init_noise must be >= 0, got {init_noise!r}")
    name = str(opts.get("estimator", "stein-v"))

    ss_train, ss_init, ss_chains = np.random.SeedSequence(seed).spawn(3)
    train = banana_sample(n_train, np.random.default_rng(ss_train), b, v)
    rng_init = np.random.default_rng(ss_init)
    init = banana_sample(n_chains, rng_init, b, v) + init_noise * rng_init.standard_normal(
        (n_chains, 2)
    )

    # the sample-quality metric uses one fixed kernel per seed, derived from
    # the training draw, so runs with different estimators stay comparable
    metric_spec = KernelSpec(
        RBF, median_heuristic(train) * float(opts.get("bandwidth_scale", 1.0))
    )

    fitted = None
    if name == "exact":
        score_fn = partial(banana_score, b=b, v=v)
        spec = None
        eta = None
    else:
        spec = _resolve_spec(opts, train=train)
        if name == KIND_STEIN_U:
            raise ValueError(
                "stein-u has no out-of-sample prediction rule and cannot "
                "drive the sampler; use stein-v or a parametric estimator"
            )
        eta = float(opts.get("eta", DEFAULT_ETA))
        fitted = fit_estimator(name, train, spec, eta)
        score_fn = fitted.predict

    stats = run_hmc(
        partial(banana_log_density, b=b, v=v),
        score_fn,
        cfg,
        init,
        chain_seeds=ss_chains.spawn(n_chains),
        ksd_score_fn=partial(banana_score, b=b, v=v),
        ksd_spec=metric_spec,
        ksd_pool_cap=opts.get("ksd_pool_cap", 2000),
    )

    report = {
        "preset": preset,
        "seed": seed,
        "estimator": name,
        "kernel": None if spec is None else spec.family,
        "sigma2": None if spec is None else spec.sigma2,
        "eta": eta,
        "n_train": n_train,
        "banana_b": b,
        "banana_v": v,
        "n_chains": cfg.n_chains,
        "n_iters": cfg.n_iters,
        "stepsize": cfg.stepsize,
        "n_leapfrog": cfg.n_leapfrog,
        "burn_in_fraction": cfg.burn_in_fraction,
        "init_noise": init_noise,
        "metric_sigma2": metric_spec.sigma2,
        "acceptance_rate": float(stats.acceptance_rate),
        "mean_x1": float(stats.mean_x1),
        "se_mean_x1": _jsonable(stats.se_mean_x1),
        "ksd_pooled": _jsonable(stats.ksd_pooled),
        "ksd_mean_per_chain": _jsonable(stats.ksd_mean_per_chain),
        "n_divergent": int(stats.n_divergent),
        "fit_diagnostics": None if fitted is None else dict(fitted.diagnostics),
    }
    _dump_json(report, opts.get("output"))

    traj_path = opts.get("trajectories")
    if traj_path is not None:
        with open(traj_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["chain", "iter", "accepted", "x0", "x1"])
            for c in range(cfg.n_chains):
                for t in range(cfg.n_iters):
                    writer.writerow(
                        [
                            c,
                            t,
                            int(stats.accepts[c, t]),
                            repr(float(stats.trajectories[c, t, 0])),
                            repr(float(stats.trajectories[c, t, 1])),
                        ]
                    )
    return 0


# ---------------------------------------------------------------------------
# entropy-check


def cmd_entropy_check(args) -> int:
    opts = _Options(args)
    seed = _require_seed(opts)
    sigma = float(opts.get("sigma", 1.5))
    if not math.isfinite(sigma) or sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    n = opts.get("n", 2000)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    names = opts.get("estimators", "kde,stein-v,score")
    if isinstance(names, str):
        names = [s.strip() for s in names.split(",") if s.strip()]

    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    z = (sigma * eps)[:, None]
    jac = eps[:, None, None]  # dz/dsigma = eps, one 1x1 Jacobian per sample
    analytic = 1.0 / sigma

    def entry(value):
        return {
            "value": float(value),
            "abs_error": abs(float(value) - analytic),
            "rel_error": abs(float(value) - analytic) / analytic,
        }

    exact_grads = -z / sigma**2
    report = {
        "sigma": sigma,
        "n": n,
        "seed": seed,
        "analytic": analytic,
        "exact": entry(entropy_gradient_surrogate(exact_grads, jac)[0]),
        "estimates": {},
    }
    spec = _resolve_spec(opts, train=z)
    eta = float(opts.get("eta", DEFAULT_ETA))
    for name in names:
        fitted = fit_estimator(name, z, spec, eta)
        value = entropy_gradient_surrogate(fitted.grads_at_train(), jac)[0]
        report["estimates"][name] = entry(value)
    _dump_json(report, opts.get("output"))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_kernel_flags(sub):
    sub.add_argument("--kernel", choices=[RBF, EPANECHNIKOV], default=None)
    sub.add_argument(
        "--sigma2",
        default=None,
        help="RBF squared bandwidth: a positive number or 'median' (default)",
    )
    sub.add_argument(
        "--bandwidth-scale",
        dest="bandwidth_scale",
        type=float,
        default=None,
        help="multiplier applied to sigma2, typically 1-5 (default 1.0)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steingrad",
        description="kernel score estimation, Stein discrepancy, gradient-free HMC",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="fit a score estimator to samples")
    est.add_argument("--config", default=None)
    est.add_argument("--input", default=None, help="sample CSV (header x0..)")
    est.add_argument("--output", default=None, help="gradient CSV (header g0..)")
    est.add_argument("--sidecar", default=None, help="estimator JSON path")
    est.add_argument("--estimator", default=None, choices=sorted(KINDS))
    _add_kernel_flags(est)
    est.add_argument("--eta", type=float, default=None)
    est.set_defaults(func=cmd_estimate, config_fields=_config_fields(est))

    ksd = subs.add_parser("ksd", help="kernelised Stein discrepancy of a sample")
    ksd.add_argument("--config", default=None)
    ksd.add_argument("--samples", default=None, help="sample CSV (header x0..)")
    ksd.add_argument("--grads", default=None, help="gradient CSV (header g0..)")
    _add_kernel_flags(ksd)
    ksd.add_argument("--statistic", choices=["v", "u"], default=None)
    ksd.add_argument(
        "--include-constant",
        dest="include_constant",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    ksd.add_argument("--output", default=None, help="report path (default stdout)")
    ksd.set_defaults(func=cmd_ksd, config_fields=_config_fields(ksd))

    ban = subs.add_parser("banana", help="gradient-free HMC banana benchmark")
    ban.add_argument("--config", default=None)
    ban.add_argument("--preset", choices=sorted(_PRESETS), default=None)
    ban.add_argument("--seed", type=int, default=None)
    ban.add_argument(
        "--estimator",
        default=None,
        choices=sorted(KINDS) + ["exact"],
    )
    _add_kernel_flags(ban)
    ban.add_argument("--eta", type=float, default=None)
    ban.add_argument("--n-train", dest="n_train", type=int, default=None)
    ban.add_argument("--n-chains", dest="n_chains", type=int, default=None)
    ban.add_argument("--n-iters", dest="n_iters", type=int, default=None)
    ban.add_argument("--stepsize", type=float, default=None)
    ban.add_argument("--n-leapfrog", dest="n_leapfrog", type=int, default=None)
    ban.add_argument("--burn-in", dest="burn_in", type=float, default=None)
    ban.add_argument("--init-noise", dest="init_noise", type=float, default=None)
    ban.add_argument("--banana-b", dest="banana_b", type=float, default=None)
    ban.add_argument("--banana-v", dest="banana_v", type=float, default=None)
    ban.add_argument("--ksd-pool-cap", dest="ksd_pool_cap", type=int, default=None)
    ban.add_argument("--output", default=None, help="report path (default stdout)")
    ban.add_argument("--trajectories", default=None, help="per-iteration CSV path")
    ban.set_defaults(func=cmd_banana, config_fields=_config_fields(ban))

    ent = subs.add_parser("entropy-check", help="entropy-gradient benchmark")
    ent.add_argument("--config", default=None)
    ent.add_argument("--sigma", type=float, default=None)
    ent.add_argument("--n", type=int, default=None)
    ent.add_argument("--seed", type=int, default=None)
    ent.add_argument(
        "--estimators",
        default=None,
        help="comma-separated estimator names (default kde,stein-v,score)",
    )
    _add_kernel_flags(ent)
    ent.add_argument("--eta", type=float, default=None)
    ent.add_argument("--output", default=None, help="report path (default stdout)")
    ent.set_defaults(func=cmd_entropy_check, config_fields=_config_fields(ent))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
