"""The machine's speed, sampled on the workload's own core while it runs.

The benchmark runs on a shared host whose speed drifts by 10 to 30 % over
tens of seconds with its neighbours' load, and a run lasts about as long,
so plain wall times of the same code spread past any useful bound.
``Sampler`` measures that speed while the workload runs: every
``INTERVAL_S`` of wall time a SIGALRM handler, in the workload's main
thread and so on the core the workload is using, times ``kernel``, fixed
interpreted code: float arithmetic, function calls and dict lookups.
``Sampler.span`` turns a span's wall time into reference seconds: the
wall time, less the handler's own time, times ``REF_KERNEL_S`` over the
kernel's mean time during the span.  That is the time the span would take
on the host in a state where the kernel takes ``REF_KERNEL_S``, and the
drift of the host cancels as far as the kernel's speed tracks the
workload's.

Over 8 minutes of sweep passes, whose wall time spread by 15 % (standard
deviation of its log), reference seconds spread by 5 %.  Kernels that also
streamed or gathered from NumPy arrays larger than a core's cache tracked
the workloads worse: their time depends on what the workload has just
evicted.  The kernel is this directory's code and calls nothing of the
program, so a change to the program moves reference seconds as it moves
wall time.

This module imports only ``signal`` and ``time``, so the set-up probe, a
fresh interpreter, can load it without loading what the program imports.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.05
# The kernel's median time inside the sweep and reconcile workloads over 8
# minutes of each on the 2-core Xeon VM the benchmark was written on.  A
# constant, so reference seconds compare across runs; it only sets their
# scale, near that of wall seconds at the host's median speed.
REF_KERNEL_S = 0.00027
_TABLE = {i: float(i) for i in range(512)}


def _axpy(a: float, b: float) -> float:
    return a * b + 1.0


def kernel() -> float:
    """Interpreted float arithmetic, then function calls and dict lookups."""
    x = 0.0
    for i in range(1500):
        x += (i * 0.5) % 7.0
    for i in range(512):
        x += _axpy(_TABLE[i], 0.5)
    return x


def time_kernel() -> float:
    t = perf_counter()
    kernel()
    return perf_counter() - t


class Sampler:
    """Times the kernel on a wall-clock timer while started."""

    def __init__(self):
        self.samples = []   # kernel times, in the order taken
        self.spent = 0.0    # wall time inside the handler

    def _sample(self, signum=None, frame=None) -> None:
        t = perf_counter()
        self.samples.append(time_kernel())
        self.spent += perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        """The start of a span: (clock, handler time so far, samples so far)."""
        # One sample at each end, so a span shorter than INTERVAL_S has two.
        self._sample()
        return perf_counter(), self.spent, len(self.samples) - 1

    def span(self, since: tuple[float, float, int]) -> tuple[float, float]:
        """(wall s less handler time, reference s) of the span begun at since."""
        self._sample()
        t0, spent0, n0 = since
        wall = perf_counter() - t0 - (self.spent - spent0)
        kernels = self.samples[n0:]
        return wall, wall * REF_KERNEL_S * len(kernels) / sum(kernels)
