"""steingrad benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload hmc-stein --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One run is a closed loop with a single client.  ``N_TIMING`` fresh timing
processes, one after another, import the package, run a smoke-size rep (the
warm-up; set-up time is spawn to ready) and then issue the workload's
``steingrad.cli.main`` commands in-process, each after the previous one
returns, for ``--seconds`` seconds in total.  Everything runs with the
default BLAS threading of the machine (recorded in ``env``).  The package
is imported from ``src`` via ``PYTHONPATH``.

Every input is generated from ``--seed`` (modulo ``REFERENCE_SEEDS``, see
``workloads.py``); every output is checked after the timed region.  The
second-to-last stdout line is the full record of the run (environment,
seed, sizes, every rep, every check, quality figures); the last line is the
summary::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones, taken from traced reps that alternate with
untraced ones.  Any failed command or check makes the exit code 1.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # bench/ is on sys.path as the script directory

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# Fresh processes per run; they split the measured seconds.  How fast one
# process runs depends on where its threads land, so a run takes its
# medians over several processes.
N_TIMING = 3
# a run must end within 180 s; this leaves room for the output checks
DEADLINE_S = 150.0
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "STEINGRAD_THREADS",
)


def _fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# environment


def _blas_runtime():
    """OpenBLAS libraries loaded in this process, with thread count and config."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        info = {}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None and "threads" not in info:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                fn = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if fn is not None and "config" not in info:
                    fn.restype = ctypes.c_char_p
                    info["config"] = fn().decode()
        found[Path(path).name] = info
    return found


def _git():
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": commit or None, "dirty": bool(status.strip())}


def _src_digest():
    """sha256 over src/ file paths and contents: names the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS for the probe)

    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_runtime": _blas_runtime(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git": _git(),
        "src_sha256": _src_digest(),
    }


def _loadavg():
    with open("/proc/loadavg", encoding="utf-8") as fh:
        return fh.read().split()[:3]


# ---------------------------------------------------------------------------
# workers


def _spawn(job, job_path, deadline):
    """Run one worker; returns (setup_s, done record) or (None, error text)."""
    job_path.write_text(json.dumps(job))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    t_spawn = time.perf_counter()
    # unbuffered, so reading the ready line cannot swallow the final one
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            raise subprocess.TimeoutExpired(proc.args, DEADLINE_S)
        line = proc.stdout.readline().decode()
        setup_s = time.perf_counter() - t_spawn
        rest, _ = proc.communicate(timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.decode().splitlines()
    if proc.returncode != 0 or not line or not lines:
        return None, f"worker exit code {proc.returncode}"
    done = json.loads(lines[-1])
    done["ready"] = json.loads(line)
    return setup_s, done


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quartiles(xs):
    if len(xs) < 2:
        return [xs[0], xs[0], xs[0]] if xs else []
    return statistics.quantiles(xs, n=4)


def run_workload(name, seed, seconds, trace, size="full", n_timing=N_TIMING, reference=None):
    """One benchmark run; returns (record, summary)."""
    deadline = time.monotonic() + DEADLINE_S
    load_start = _loadavg()
    wl = workloads.WORKLOADS[name](seed, size)
    work = HERE / "_work" / f"{name}-{os.getpid()}"
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}" + ("-smoke" if size != "full" else "")
    if work.exists():
        shutil.rmtree(work)
    checks = workloads.Checks()
    quality, values, setups, reps, peak_rss = {}, {}, [], [], []
    try:
        inputs, warm = work / "inputs", work / "warm"
        inputs.mkdir(parents=True)
        warm.mkdir()
        wl.prepare(inputs)
        workloads.WORKLOADS[name](seed, "smoke").prepare(warm)

        for k in range(n_timing):
            job = {
                "workload": name, "seed": seed, "size": size, "trace": bool(trace),
                "inputs": str(inputs), "out": str(work / f"out{k}"),
                "warm_inputs": str(warm), "warm_out": str(work / f"warm{k}"),
                "budget_s": seconds / n_timing, "first_rep": len(reps),
                "spans_path": str(out_dir / f"spans-{tag}-p{k}.json"),
            }
            setup_s, done = _spawn(job, work / f"job{k}.json", deadline)
            if setup_s is None:
                checks.add("worker", False, done)
                break
            setups.append({"setup_s": setup_s, **done["ready"]})
            for e in done["warmup_errors"]:
                checks.add("warmup", False, e)
            peak_rss.append(done["reps"][0]["maxrss_mb"])
            reps += done["reps"]
            last_out = work / f"out{k}"

        digests = {r.get("digest") for r in reps}
        checks.add("outputs.identical_across_reps", len(digests) == 1 and None not in digests, sorted(map(str, digests)))
        if reps and not any(r["errors"] for r in reps):
            try:
                quality, values = wl.check(inputs, last_out, reference, checks)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                checks.add("outputs.readable", False, f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = sum(r["commands"] for r in reps)
    attempted = commands + len(checks.items)
    failed = sum(len(r["errors"]) for r in reps) + checks.failed
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    walls = [r["wall_s"] for r in plain]
    norms = [r["wall_norm_s"] for r in plain]
    record = {
        "workload": name, "why": wl.why, "seed": seed, "input_seed": wl.seed, "size": size,
        "params": wl.params,
        "trace": int(trace), "seconds": seconds,
        "loop": f"closed, 1 client: {n_timing} timing processes in turn, commands back to back",
        "loadavg_start": load_start,
        "wall_s": {"median": _median(walls), "quartiles": _quartiles(walls), "n": len(walls)},
        "wall_norm_s": {"median": _median(norms), "quartiles": _quartiles(norms), "n": len(norms)},
        "setup": setups,
        "peak_rss_mb": peak_rss,
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "checks": checks.items,
        "quality": quality,
        "reference_values": values,
    }
    if name == "hmc-stein" and plain:
        record["hmc.steps_per_s"] = wl.leapfrog_steps() / _median([r["run_hmc_s"] for r in plain])

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        layer_names = sorted({k for r in traced for k in r["layers"]})
        measured = {k: _median([r["layers"][k] for r in traced]) for k in layer_names}
        if traced and plain:
            measured["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - _median(walls)
        specs = bench["per_layer"]
    else:
        measured = {"setup_s": _median([s["setup_s"] for s in setups])}
        if plain:
            measured["wall_norm_s"] = _median(norms)
            measured["peak_rss_mb"] = _median(peak_rss)
        specs = bench["end_to_end"]
    record["metrics"] = [
        {"name": s["name"], "value": measured.get(s["name"]), "unit": s["unit"], "better": s["better"]}
        for s in specs
    ]
    missing = [m["name"] for m in record["metrics"] if m["value"] is None]
    if missing:
        checks.add("metrics.complete", False, missing)
        attempted += 1
        failed += 1
    record.update(attempted=attempted, failed=failed, failed_frac=failed / attempted if attempted else 1.0)
    record["env"] = environment()
    record["env"]["loadavg_end"] = _loadavg()
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": m["value"], "unit": m["unit"]}
            for m in record["metrics"] if m["value"] is not None
        },
    }
    return record, summary


# ---------------------------------------------------------------------------
# entry


def _load_reference():
    return json.loads((HERE / "reference.json").read_text())


def smoke(seed):
    """Each workload once at tiny size, untraced and traced; checks every
    metric of BENCHMARK.json is printed with its unit and direction."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            record, summary = run_workload(name, seed, 1.0, trace, size="smoke", n_timing=2)
            print(f"{name} trace={trace} correct={summary['correct']} "
                  f"attempted={summary['attempted']} failed={summary['failed']}")
            for m in record["metrics"]:
                print(f"  {m['name']:<36} {m['value']!s:<24} {m['unit']:<6} {m['better']}")
            ok &= summary["correct"]
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload and mode")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "steingrad" / "__init__.py").is_file():
        return _fail(f"no src/steingrad under {ROOT}; run from the repository root")
    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail(f"no BENCHMARK.json under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    record, summary = run_workload(
        args.workload, args.seed, args.seconds, args.trace, reference=_load_reference()
    )
    print(json.dumps(record))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
