"""Record the per-seed reference values that the output checks compare against.

Run from the repository root (takes about 16 s per seed)::

    PYTHONPATH=src python3 bench/make_reference.py

For every workload and input seed ``0 .. workloads.REFERENCE_SEEDS-1`` this
runs one full-size rep through ``steingrad.cli.main``, applies the
workload's own output checks (oracles, library recomputation) and stores
the report values in ``bench/reference.json``.  Every benchmark seed maps
to one of these input seeds.

Regenerate only when a change is meant to alter results; say so where the
change is described.
"""

import json
import shutil
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def record(name, seed, work):
    from steingrad import cli

    wl = workloads.WORKLOADS[name](seed)
    inputs, out = work / "inputs", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    inputs.mkdir(parents=True)
    out.mkdir()
    wl.prepare(inputs)
    for argv in wl.commands(inputs, out):
        if cli.main(argv) != 0:
            raise SystemExit(f"{name} seed {seed}: {argv[0]} failed")
    checks = workloads.Checks()
    _, values = wl.check(inputs, out, None, checks)
    if checks.failed:
        raise SystemExit(f"{name} seed {seed}: checks failed: {checks.items}")
    return values


def main():
    work = HERE / "_work" / "reference"
    table = {}
    try:
        for name in workloads.WORKLOADS:
            table[name] = {
                "rtol": workloads.REFERENCE_RTOL[name],
                "params": workloads.SIZES[name]["full"],
                "seeds": {str(s): record(name, s, work) for s in range(workloads.REFERENCE_SEEDS)},
            }
            print(f"{name}: {workloads.REFERENCE_SEEDS} seeds", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
