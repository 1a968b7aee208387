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
- ``entropy-check`` at its defaults, seed 0.

The package is whichever ``steingrad`` the interpreter imports, so the same
script run against another checkout's ``src`` writes that checkout's
corpus, and comparing two builds is one ``diff -r`` (or ``cmp`` per file)
of the two directories.  Outputs are byte-reproducible at a fixed BLAS
thread count.  Any command that does not exit 0 stops the script with
exit 1.
"""

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


def _write_samples(path, xs):
    header = ",".join(f"x{j}" for j in range(xs.shape[1]))
    rows = (",".join(repr(float(v)) for v in row) for row in xs)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def _run(argv):
    code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"exit {code}: steingrad {' '.join(map(str, argv))}")


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
