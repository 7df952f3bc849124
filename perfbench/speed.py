"""Host speed, measured next to the workload so that timings can be
normalised for it.

On a shared virtual machine the same run() takes anywhere from 0.33 s to
0.74 s depending on what other tenants of the host do, and the slow and fast
phases last from seconds to minutes, longer than a measuring window.  A
fixed reference kernel timed between the workload's units slows down with
them: over twelve 15 s windows of identical single-draw runs on a 2-vCPU VM
the window medians spread by 34% raw and by 6.5% once divided by the
kernel's median time in the same window.  The kernel is the benchmark's own
code, so no change to yoasovi moves it.
"""

import os
import statistics
import time

import numpy as np

# Median kernel time on the reference machine (2-vCPU Xeon VM) in its fast
# phase: normalised timings read as if the host ran at that speed.
REFERENCE_S = 0.030

# Process start-up and imports do not follow the kernel (their correlation
# with it was 0.0-0.3), so set-up time is normalised by the start-up of an
# interpreter that imports the third-party modules yoasovi imports, which
# does follow it.  REFERENCE_STARTUP_S is that start-up on the reference
# machine in its fast phase.
REFERENCE_STARTUP = ("-c", "import numpy, scipy.special, scipy.stats, yaml; "
                           "print('ready', flush=True)")
REFERENCE_STARTUP_S = 0.90

# Kernel repetitions per sample: about 30 ms at the reference speed.
ITERATIONS = 300


class SpeedProbe:
    """Times a fixed kernel: a mixture log-likelihood with a max-shifted
    log-sum-exp over a 500 x 2 x 2 array, plus a little pure-Python work,
    the same mix of small numpy calls and interpreter overhead as a run."""

    def __init__(self, per_cpu: bool = False):
        rng = np.random.default_rng(0)
        self.per_cpu = per_cpu
        self._y = rng.normal(size=(500, 2))
        self._means = rng.normal(size=(2, 2))
        self._sds = np.exp(rng.normal(size=(2, 2)))
        self.samples = []

    def _kernel_s(self) -> float:
        t0 = time.perf_counter()
        for _ in range(ITERATIONS):
            d = (self._y[:, None, :] - self._means[None]) / self._sds[None]
            c = -0.5 * np.sum(d * d, axis=2)
            top = c.max(axis=1, keepdims=True)
            np.sum(np.log(np.sum(np.exp(c - top), axis=1)) + top[:, 0])
            sum(j * 0.5 for j in range(20))
        return time.perf_counter() - t0

    def sample(self) -> None:
        """One kernel time; with per_cpu, the mean of one kernel time on
        each CPU this process may use, for work that a pool spreads over all
        of them.  The process's CPU set is restored afterwards, so workers
        it forks later inherit the full set."""
        if not self.per_cpu:
            self.samples.append(self._kernel_s())
            return
        cpus = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                times.append(self._kernel_s())
        finally:
            os.sched_setaffinity(0, cpus)
        self.samples.append(statistics.fmean(times))

    def slowdown(self) -> float:
        """How many times slower than the reference the host ran, from the
        median sample."""
        return statistics.median(self.samples) / REFERENCE_S
