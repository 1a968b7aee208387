"""Show which call leaves an OpenBLAS worker thread busy-waiting.

Usage (Linux)::

    PYTHONPATH=src python tools/blas_spin.py

After each step it sleeps 0.2 s and prints the CPU seconds this process
accrued across that sleep, split by thread pool.  The main thread is
asleep, so CPU time there is a BLAS worker still spinning after the step
returned.  numpy and scipy each load their own OpenBLAS, whose worker
threads start when the library loads: the threads that appear with
``import numpy`` are numpy's pool, those that appear with scipy's are
scipy's.  The last step, scipy's ``cho_solve`` against the 200 x 200
identity, is the control: a wide scipy triangular solve wakes scipy's pool.
The script reads only this process's clocks and sets no thread count.
"""

import os
import time
from pathlib import Path

TICK = os.sysconf("SC_CLK_TCK")


def threads():
    return set(os.listdir("/proc/self/task"))


def cpu(tids):
    # utime + stime of each thread, fields 14 and 15 of its stat line
    return sum(
        sum(map(int, Path(f"/proc/self/task/{t}/stat").read_text().rsplit(")", 1)[1].split()[11:13]))
        for t in tids
    ) / TICK


main = threads()
import numpy as np  # noqa: E402

numpy_pool = threads() - main
import scipy.linalg  # noqa: E402

from steingrad import DEFAULT_ETA, KernelSpec, banana_sample, fit_estimator  # noqa: E402

scipy_pool = threads() - main - numpy_pool


def spin(label):
    before = cpu(numpy_pool), cpu(scipy_pool), time.process_time()
    time.sleep(0.2)
    after = cpu(numpy_pool), cpu(scipy_pool), time.process_time()
    numpy_s, scipy_s, total = (b - a for a, b in zip(before, after))
    print(f"{label:<46} process {total:.3f}  numpy pool {numpy_s:.2f}  scipy pool {scipy_s:.2f}")


print("CPU seconds accrued across 0.2 s asleep, after each step")
rng = np.random.default_rng(0)
median = KernelSpec("rbf", median_scale=1.0)
spin("(nothing yet)")
fit = fit_estimator("stein-v", banana_sample(200, rng, 0.03, 100.0), median, DEFAULT_ETA)
spin("desk stein-v fit, K = 200, d = 2")
fit.kinv
spin("its kinv")
fit.predict(banana_sample(50, rng, 0.03, 100.0))
spin("one 50-point predict")
fit_estimator("stein-v", rng.standard_normal((1000, 50)), median, DEFAULT_ETA)
spin("stein-v fit, K = 1000, d = 50")
scipy.linalg.cho_solve((np.linalg.cholesky(fit.kinv), True), np.eye(200))
spin("control: scipy cho_solve, 200 x 200 identity")
