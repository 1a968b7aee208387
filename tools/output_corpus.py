"""Write the command-line output corpus of the importable ``steingrad``.

Usage::

    PYTHONPATH=src python tools/output_corpus.py OUTDIR

Every command runs in this process through ``steingrad.cli.main``, on inputs
generated here from fixed seeds, and writes its outputs under OUTDIR:

- ``banana --preset desk --trajectories`` for every estimator the sampler
  accepts, at seeds 0 and 1: the report and the trajectory CSV;
- ``estimate`` for all six kinds at two (K, d) cases: the gradient CSV and
  the sidecar;
- ``ksd`` of the first case's sample and its stein-v gradients, with the
  v and the u statistic;
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
    for k, d, seed in ESTIMATE_CASES:
        samples = inputs / f"gauss-K{k}-d{d}.csv"
        _write_samples(samples, np.random.default_rng(seed).standard_normal((k, d)))
        for kind in ESTIMATE_KINDS:
            stem = out / "estimate" / f"K{k}-d{d}-{kind}"
            _run([
                "estimate", "--input", samples, "--estimator", kind,
                "--output", f"{stem}.csv", "--sidecar", f"{stem}.json",
            ])
    k, d, _ = ESTIMATE_CASES[0]
    for statistic in ("v", "u"):
        _run([
            "ksd", "--samples", inputs / f"gauss-K{k}-d{d}.csv",
            "--grads", out / "estimate" / f"K{k}-d{d}-stein-v.csv",
            "--statistic", statistic, "--output", out / "ksd" / f"K{k}-d{d}-{statistic}.json",
        ])
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
