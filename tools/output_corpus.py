"""Write the command-line output corpus of the importable ``steingrad``.

Usage::

    PYTHONPATH=src python tools/output_corpus.py OUTDIR

Every command runs in this process through ``steingrad.cli.main``, on inputs
generated here from fixed seeds, and writes its outputs under OUTDIR:

- ``banana --preset desk --trajectories`` for every estimator the sampler
  accepts, at seeds 0 and 1, and for stein-v under the Epanechnikov kernel
  at seed 0: the report and the trajectory CSV;
- ``estimate`` for all six kinds at two (K, d) cases, for the four kinds
  that take the Epanechnikov kernel on a tight sample (N(0, 0.2^2), d = 2,
  where every kde row sum stays positive), and for stein-v at an explicit
  ``--sigma2 2.5 --bandwidth-scale 1.5``: the gradient CSV and the sidecar;
- ``ksd`` of the first case's sample and its stein-v gradients, with the
  v and the u statistic and without the constant term, and of the tight
  sample and its Epanechnikov stein-v gradients under that kernel;
- ``entropy-check`` at its defaults, seed 0;
- ``refusals/``: one file per refused command, its argv, exit code and
  stderr, run with OUTDIR as the working directory so that every path in a
  message is relative.  There is a case for each argument rule of each
  subcommand; for each bad argument given together with a malformed or
  degenerate input, or with another bad argument, where the order of the
  two refusals matters; for the ``ksd`` faults of the data that are
  reported in a fixed order; and for a numerical failure (exit 3).

The package is whichever ``steingrad`` the interpreter imports, so the same
script run against another checkout's ``src`` writes that checkout's
corpus, and comparing two builds is one ``diff -r`` (or ``cmp`` per file)
of the two directories.  Outputs are byte-reproducible at a fixed BLAS
thread count.  Any command that does not exit 0, and any refusal case that
does, stops the script with exit 1.
"""

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from steingrad.cli import main

BANANA_ESTIMATORS = ("exact", "kde", "stein-v", "score", "stein-param-v", "stein-param-u")
BANANA_SEEDS = (0, 1)
ESTIMATE_KINDS = ("kde", "stein-v", "stein-u", "score", "stein-param-v", "stein-param-u")
# (K, d, input seed) of each estimate case
ESTIMATE_CASES = ((200, 2, 0), (500, 5, 1))
EPANECHNIKOV_KINDS = ("kde", "stein-v", "stein-u", "score")
# (K, d, input seed, standard deviation) of the Epanechnikov sample
TIGHT_CASE = (200, 2, 2, 0.2)

# the flags of a small run of each subcommand that would exit 0, with paths
# relative to OUTDIR; each refusal case adds flags to one (a later flag
# wins) or drops one by giving it as None
GAUSS = "inputs/gauss-K200-d2.csv"
RUNS = {
    "estimate": {"--input": GAUSS, "--output": "refusals/g.csv"},
    "ksd": {"--samples": GAUSS, "--grads": "estimate/K200-d2-stein-v.csv",
            "--output": "refusals/k.json"},
    "banana": {"--seed": 0, "--n-train": 20, "--n-chains": 2, "--n-iters": 3,
               "--n-leapfrog": 2, "--output": "refusals/r.json"},
    "entropy-check": {"--seed": 0, "--n": 30, "--output": "refusals/e.json"},
}
MALFORMED = "inputs/malformed.csv"  # line 3 holds a field that is not a number
FLAT = "inputs/flat.csv"  # median pairwise distance zero
ONE = "inputs/one.csv"  # a single sample
# name -> (subcommand, flags)
REFUSALS = {
    "estimate-no-input": ("estimate", {"--input": None}),
    "estimate-output-nodir": ("estimate", {"--output": "nodir/g.csv"}),
    "estimate-output-is-input": ("estimate", {"--output": GAUSS}),
    "estimate-sidecar-is-output": ("estimate", {"--output": "refusals/g.json"}),
    "estimate-bandwidth-scale-0": ("estimate", {"--bandwidth-scale": 0}),
    "estimate-sigma2-word": ("estimate", {"--sigma2": "wide"}),
    "estimate-sigma2-0": ("estimate", {"--sigma2": 0}),
    "estimate-epanechnikov-sigma2": ("estimate", {"--kernel": "epanechnikov", "--sigma2": 2}),
    "estimate-epanechnikov-scale": (
        "estimate", {"--kernel": "epanechnikov", "--bandwidth-scale": 3}),
    "estimate-eta-negative": ("estimate", {"--eta": -1}),
    "estimate-stein-u-eta-0": ("estimate", {"--estimator": "stein-u", "--eta": 0}),
    "estimate-stein-param-v-epanechnikov": (
        "estimate", {"--estimator": "stein-param-v", "--kernel": "epanechnikov"}),
    "estimate-malformed": ("estimate", {"--input": MALFORMED}),
    "estimate-one-sample": ("estimate", {"--input": ONE}),
    "estimate-flat": ("estimate", {"--input": FLAT}),
    "estimate-bandwidth-scale-0-malformed": (
        "estimate", {"--input": MALFORMED, "--bandwidth-scale": 0}),
    "estimate-epanechnikov-sigma2-malformed": (
        "estimate", {"--input": MALFORMED, "--kernel": "epanechnikov", "--sigma2": 2}),
    "estimate-stein-param-v-epanechnikov-malformed": (
        "estimate",
        {"--input": MALFORMED, "--estimator": "stein-param-v", "--kernel": "epanechnikov"}),
    "estimate-eta-negative-flat": ("estimate", {"--input": FLAT, "--eta": -1}),
    "estimate-eta-nan-one-sample": ("estimate", {"--input": ONE, "--eta": "nan"}),
    "estimate-eta-negative-overflowing-bandwidth": (
        "estimate", {"--bandwidth-scale": 1e308, "--eta": -1}),
    "ksd-no-grads": ("ksd", {"--grads": None}),
    "ksd-output-is-samples": ("ksd", {"--output": GAUSS}),
    "ksd-bandwidth-scale-0": ("ksd", {"--bandwidth-scale": 0}),
    "ksd-sigma2-inf": ("ksd", {"--sigma2": "inf"}),
    "ksd-epanechnikov-sigma2": ("ksd", {"--kernel": "epanechnikov", "--sigma2": 2}),
    "ksd-epanechnikov-scale": ("ksd", {"--kernel": "epanechnikov", "--bandwidth-scale": 3}),
    "ksd-mismatched-grads": ("ksd", {"--grads": "inputs/grads-10x3.csv"}),
    "ksd-bandwidth-scale-0-malformed": ("ksd", {"--samples": MALFORMED, "--bandwidth-scale": 0}),
    "ksd-epanechnikov-scale-malformed": (
        "ksd", {"--grads": MALFORMED, "--kernel": "epanechnikov", "--bandwidth-scale": 3}),
    "ksd-v-flat-mismatched-grads": (
        "ksd", {"--samples": FLAT, "--grads": "inputs/grads-10x3.csv"}),
    "ksd-u-flat-mismatched-grads": (
        "ksd", {"--samples": FLAT, "--grads": "inputs/grads-10x3.csv", "--statistic": "u"}),
    "ksd-u-one-sample": (
        "ksd", {"--samples": ONE, "--grads": "inputs/grads-one.csv", "--statistic": "u"}),
    "banana-no-seed": ("banana", {"--seed": None}),
    "banana-seed-negative": ("banana", {"--seed": -1}),
    "banana-config-seed-negative": (
        "banana", {"--seed": None, "--config": "inputs/seed-negative.json"}),
    "banana-output-nodir": ("banana", {"--output": "nodir/r.json"}),
    "banana-trajectories-is-output": ("banana", {"--trajectories": "refusals/r.json"}),
    "banana-b-nan": ("banana", {"--banana-b": "nan"}),
    "banana-v-negative": ("banana", {"--banana-v": -1}),
    "banana-n-chains-0": ("banana", {"--n-chains": 0}),
    "banana-n-iters-0": ("banana", {"--n-iters": 0}),
    "banana-stepsize-0": ("banana", {"--stepsize": 0}),
    "banana-n-leapfrog-0": ("banana", {"--n-leapfrog": 0}),
    "banana-burn-in-1": ("banana", {"--burn-in": 1}),
    "banana-init-noise-negative": ("banana", {"--init-noise": -1}),
    "banana-stein-u": ("banana", {"--estimator": "stein-u"}),
    "banana-bandwidth-scale-0": ("banana", {"--bandwidth-scale": 0}),
    "banana-exact-bandwidth-scale-0": (
        "banana", {"--estimator": "exact", "--bandwidth-scale": 0}),
    "banana-sigma2-0": ("banana", {"--sigma2": 0}),
    "banana-epanechnikov-scale": ("banana", {"--kernel": "epanechnikov", "--bandwidth-scale": 3}),
    "banana-eta-negative": ("banana", {"--eta": -1}),
    "banana-stein-param-u-eta-0": ("banana", {"--estimator": "stein-param-u", "--eta": 0}),
    "banana-stein-param-v-epanechnikov": (
        "banana", {"--estimator": "stein-param-v", "--kernel": "epanechnikov"}),
    "banana-n-train-1": ("banana", {"--n-train": 1}),
    "banana-ksd-pool-cap-1": ("banana", {"--ksd-pool-cap": 1}),
    "banana-v-negative-n-chains-0": ("banana", {"--banana-v": -1, "--n-chains": 0}),
    "banana-eta-negative-n-train-1": ("banana", {"--eta": -1, "--n-train": 1}),
    "entropy-check-no-seed": ("entropy-check", {"--seed": None}),
    "entropy-check-seed-negative": ("entropy-check", {"--seed": -3}),
    "entropy-check-sigma-0": ("entropy-check", {"--sigma": 0}),
    "entropy-check-n-1": ("entropy-check", {"--n": 1}),
    "entropy-check-estimators-empty": ("entropy-check", {"--estimators": ","}),
    "entropy-check-estimators-unknown": ("entropy-check", {"--estimators": "kde,mystery"}),
    "entropy-check-estimators-twice": ("entropy-check", {"--estimators": "kde,kde"}),
    "entropy-check-output-nodir": ("entropy-check", {"--output": "nodir/e.json"}),
    "entropy-check-bandwidth-scale-0": ("entropy-check", {"--bandwidth-scale": 0}),
    "entropy-check-sigma2-word": ("entropy-check", {"--sigma2": "wide"}),
    "entropy-check-epanechnikov-scale": (
        "entropy-check", {"--kernel": "epanechnikov", "--bandwidth-scale": 3}),
    "entropy-check-eta-negative": ("entropy-check", {"--eta": -1}),
    "entropy-check-stein-u-eta-0": (
        "entropy-check", {"--estimators": "kde,stein-v,stein-u", "--eta": 0}),
    "entropy-check-stein-param-v-epanechnikov": (
        "entropy-check", {"--estimators": "kde,stein-param-v", "--kernel": "epanechnikov"}),
    "entropy-check-bandwidth-scale-0-estimators-unknown": (
        "entropy-check", {"--bandwidth-scale": 0, "--estimators": "kde,mystery"}),
    "entropy-check-bandwidth-scale-0-output-nodir": (
        "entropy-check", {"--bandwidth-scale": 0, "--output": "nodir/e.json"}),
    "entropy-check-stein-u-eta-0-output-nodir": (
        "entropy-check",
        {"--estimators": "kde,stein-u", "--eta": 0, "--output": "nodir/e.json"}),
}


def _write_samples(path, xs, prefix="x"):
    header = ",".join(f"{prefix}{j}" for j in range(xs.shape[1]))
    rows = (",".join(repr(float(v)) for v in row) for row in xs)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _run(argv):
    code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"exit {code}: steingrad {' '.join(map(str, argv))}")


def write_refusals(out: Path):
    """Run every case of ``REFUSALS`` in ``out``, one file each under refusals/."""
    inputs = out / "inputs"
    (out / "refusals").mkdir(exist_ok=True)
    (inputs / "malformed.csv").write_text("x0,x1\n0.5,1.0\n1.5,abc\n", encoding="utf-8")
    _write_samples(inputs / "flat.csv", np.vstack([np.zeros((8, 2)), np.ones((2, 2))]))
    _write_samples(inputs / "one.csv", np.array([[1.0, 2.0]]))
    _write_samples(inputs / "grads-10x3.csv", np.zeros((10, 3)), "g")
    _write_samples(inputs / "grads-one.csv", np.array([[1.0, 2.0]]), "g")
    (inputs / "seed-negative.json").write_text(json.dumps({"seed": -2}), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, (command, flags) in REFUSALS.items():
            merged = {**RUNS[command], **flags}
            argv = [command] + [str(a) for k, v in merged.items() if v is not None for a in (k, v)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 0:
                raise SystemExit(f"refusal case {name} exited 0: steingrad {' '.join(argv)}")
            text = f"$ steingrad {' '.join(argv)}\nexit {code}\n{err.getvalue()}"
            Path("refusals", f"{name}.txt").write_text(text, encoding="utf-8")
    finally:
        os.chdir(cwd)


def write_corpus(out: Path) -> int:
    """Run every corpus command into ``out``; returns the number of files written."""
    inputs = out / "inputs"
    for sub in ("banana", "estimate", "ksd", "entropy-check", "inputs"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for est in BANANA_ESTIMATORS:
        for seed in BANANA_SEEDS:
            stem = out / "banana" / f"desk-{est}-seed{seed}"
            _run([
                "banana", "--preset", "desk", "--seed", seed, "--estimator", est,
                "--output", f"{stem}.json", "--trajectories", f"{stem}.csv",
            ])
    stem = out / "banana" / "desk-stein-v-epanechnikov-seed0"
    _run([
        "banana", "--preset", "desk", "--seed", 0, "--estimator", "stein-v",
        "--kernel", "epanechnikov", "--output", f"{stem}.json", "--trajectories", f"{stem}.csv",
    ])

    def estimate(samples, name, kind, *flags):
        stem = out / "estimate" / name
        _run([
            "estimate", "--input", samples, "--estimator", kind, *flags,
            "--output", f"{stem}.csv", "--sidecar", f"{stem}.json",
        ])

    for k, d, seed in ESTIMATE_CASES:
        samples = inputs / f"gauss-K{k}-d{d}.csv"
        _write_samples(samples, np.random.default_rng(seed).standard_normal((k, d)))
        for kind in ESTIMATE_KINDS:
            estimate(samples, f"K{k}-d{d}-{kind}", kind)
    k, d, _ = ESTIMATE_CASES[0]
    gauss = inputs / f"gauss-K{k}-d{d}.csv"
    estimate(gauss, f"K{k}-d{d}-stein-v-sigma2-2.5-scale-1.5", "stein-v",
             "--sigma2", 2.5, "--bandwidth-scale", 1.5)
    tk, td, tseed, sd = TIGHT_CASE
    tight = inputs / f"tight-K{tk}-d{td}.csv"
    _write_samples(tight, sd * np.random.default_rng(tseed).standard_normal((tk, td)))
    for kind in EPANECHNIKOV_KINDS:
        estimate(tight, f"tight-K{tk}-d{td}-{kind}-epanechnikov", kind,
                 "--kernel", "epanechnikov")

    def ksd(samples, grads, name, *flags):
        _run(["ksd", "--samples", samples, "--grads", out / "estimate" / f"{grads}.csv",
              *flags, "--output", out / "ksd" / f"{name}.json"])

    for statistic in ("v", "u"):
        ksd(gauss, f"K{k}-d{d}-stein-v", f"K{k}-d{d}-{statistic}", "--statistic", statistic)
    ksd(gauss, f"K{k}-d{d}-stein-v", f"K{k}-d{d}-v-no-constant", "--no-include-constant")
    ksd(tight, f"tight-K{tk}-d{td}-stein-v-epanechnikov", f"tight-K{tk}-d{td}-v-epanechnikov",
        "--kernel", "epanechnikov")
    _run(["entropy-check", "--seed", 0, "--output", out / "entropy-check" / "seed0.json"])
    write_refusals(out)
    return sum(1 for p in out.rglob("*") if p.is_file())


def main_corpus(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/output_corpus.py OUTDIR", file=sys.stderr)
        return 2
    start = time.perf_counter()
    n_files = write_corpus(Path(argv[0]))
    print(f"{n_files} files in {argv[0]} ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_corpus())
