"""One fresh benchmark process: import, warm up, then timed reps of a workload.

Run by ``run.py`` as ``python3 bench/worker.py JOB.json`` with ``src`` on
``PYTHONPATH``.  The worker announces ``ready`` once ``steingrad`` is
imported and a smoke-size rep has run (so the parent can time set-up from
process start), then repeats the full-size rep in a closed loop until the
next rep would overrun its time budget.  Each rep calls
``steingrad.cli.main`` in-process, one command after another.

In an untraced job of a probed workload a ``SpeedProbe`` runs beside
every rep.  In a traced job every other rep (odd index, counted across
the run's timing processes) runs with the tracer installed instead; their
spans are written to ``spans_path`` at the end.

Protocol lines go to the original stdout; anything else printed while the
package runs is sent to stderr.
"""

import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class SpeedProbe:
    """Measures how fast this machine runs Python right now, beside a rep.

    The host shares its cores with other tenants, so the speed of
    interpreter-bound code drifts by up to about 1.5x within seconds and
    across minutes.  The probe is a fixed loop of small numpy operations
    and Python arithmetic, like the sampler's inner loop but none of the
    package's code.  One slice of it runs before the rep, one after, and
    one each time a one-shot ``SIGALRM`` timer of ``PERIOD_S`` expires
    while the rep runs (the timer is re-armed after each slice, so the
    period counts workload time only).  The rep's own time is its wall
    time minus the interleaved slices; scaling it by ``NOMINAL_S`` over
    the mean slice time cancels the machine's speed, because both were
    slowed alike.
    """

    PERIOD_S = 0.1
    ITERS = 600
    # the slice time that defines the scale: about what 600 iterations
    # take on an unloaded 2-core Xeon (Sapphire Rapids, KVM guest)
    NOMINAL_S = 0.010

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._centres = rng.standard_normal((200, 2))
        self._weights = rng.standard_normal(200)
        self._active = False
        self.interleaved_s = 0.0
        self.slices = []
        self._slice()  # first-call warm-up, not kept
        self.slices.clear()

    def _slice(self):
        np = self._np
        t0 = time.perf_counter()
        q, acc = np.zeros(2), 0.0
        for _ in range(self.ITERS):
            diff = self._centres - q
            g = (self._weights * np.exp(-0.5 * (diff * diff).sum(axis=1))) @ diff
            q = 0.999 * q + 1e-3 * g / (1.0 + abs(float(g[0])))
            acc += 0.5 * math.sin(float(q[0])) + float(q @ q)
        self.slices.append(time.perf_counter() - t0)
        return self.slices[-1]

    def _on_alarm(self, signum, frame):
        if self._active:  # an alarm already pending at stop() is dropped
            self.interleaved_s += self._slice()
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    def start(self):
        self.slices.clear()
        self.interleaved_s = 0.0  # seconds of slices since start()
        self._slice()
        self._active = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S)

    def stop(self):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._slice()

    def scaled(self, seconds):
        """``seconds`` measured since start(), at the nominal probe speed."""
        return seconds * self.NOMINAL_S / statistics.fmean(self.slices)


def _run_commands(cli, cmds):
    errors = []
    for argv in cmds:
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a harness error
            rc = f"{type(exc).__name__}: {exc}"
        if rc != 0:
            errors.append({"command": argv[0], "result": rc})
    return errors


def main():
    job = json.loads(Path(sys.argv[1]).read_text())
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    # threads the libraries start (OpenBLAS) inherit this mask, so the
    # probe's alarms reach the main thread only
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    t0 = time.perf_counter()
    from steingrad import cli

    import_s = time.perf_counter() - t0
    name, seed = job["workload"], job["seed"]
    warm = workloads.WORKLOADS[name](seed, "smoke")
    warm_in, warm_out = Path(job["warm_inputs"]), Path(job["warm_out"])
    warm_out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    warm_errors = _run_commands(cli, warm.commands(warm_in, warm_out))
    warmup_s = time.perf_counter() - t0
    proto.write(json.dumps({"event": "ready", "import_s": import_s, "warmup_s": warmup_s}) + "\n")
    proto.flush()
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    wl = workloads.WORKLOADS[name](seed, job["size"])
    probe = SpeedProbe() if wl.probed and not job["trace"] else None
    inputs, out = Path(job["inputs"]), Path(job["out"])
    out.mkdir(parents=True, exist_ok=True)
    cmds = wl.commands(inputs, out)
    outputs = wl.outputs(out)

    # run_hmc seconds of untraced reps, for leapfrog steps per second
    hmc_times = []
    run_hmc = cli.run_hmc

    def timed_run_hmc(*args, **kwargs):
        t = time.perf_counter()
        probed = probe.interleaved_s if probe else 0.0
        try:
            return run_hmc(*args, **kwargs)
        finally:
            probed = (probe.interleaved_s if probe else 0.0) - probed
            hmc_times.append(time.perf_counter() - t - probed)

    reps, traces = [], []
    start = time.perf_counter()
    while True:
        index = job["first_rep"] + len(reps)
        tracer = tracing.Tracer() if job["trace"] and index % 2 == 1 else None
        hmc_times.clear()
        if tracer is None:
            cli.run_hmc = timed_run_hmc
        else:
            tracer.install()
        if probe:
            probe.start()
        t0 = time.perf_counter()
        errors = _run_commands(cli, cmds)
        wall = time.perf_counter() - t0
        if probe:
            probe.stop()
            wall -= probe.interleaved_s
        if tracer is None:
            cli.run_hmc = run_hmc
        else:
            tracer.uninstall()

        rep = {
            "index": index,
            "traced": tracer is not None,
            "wall_s": wall,
            "commands": len(cmds),
            "errors": errors,
        }
        if probe:
            rep["probe_slice_s"] = statistics.fmean(probe.slices)
            rep["probe_slices"] = len(probe.slices)
        rep["wall_norm_s"] = probe.scaled(wall) if probe else wall
        if not reps:
            rep["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not errors:
            rep["digest"] = _digest(outputs)
            rep["bytes_written"] = sum(p.stat().st_size for p in outputs)
        if tracer is None:
            rep["run_hmc_s"] = sum(hmc_times)
        else:
            layers = tracer.layer_metrics()
            layers["cli.bytes_written"] = rep.get("bytes_written", 0)
            rep["layers"] = layers
            traces.append({"rep": index, "spans": tracer.spans, "counters": tracer.stats})
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if elapsed * (len(reps) + 1) / len(reps) > job["budget_s"]:
            break

    if traces:
        Path(job["spans_path"]).write_text(json.dumps({"workload": name, "seed": seed, "reps": traces}))
    proto.write(json.dumps({
        "event": "done",
        "import_s": import_s,
        "warmup_s": warmup_s,
        "warmup_errors": warm_errors,
        "reps": reps,
    }) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
