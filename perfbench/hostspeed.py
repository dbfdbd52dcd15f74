"""Host-speed sampling, so that timings can be read at a fixed reference speed.

On a shared machine the speed of a core drifts by up to 2x over minutes,
as neighbours come and go.  That drift moves every timing the benchmark
takes, so it is measured alongside: while a workload runs, a timer signal
interrupts the worker every ``INTERVAL_S`` seconds and times a fixed
reference kernel (small NumPy operations and interpreter arithmetic, the
mix the program spends its time on) on the same thread and core.  A call's
time, less the probes that ran inside it, is multiplied by
``speed_factor(median(probe times around the call))``: an estimate of the
time the call would have taken with the core at the reference speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
# Seconds taken by one ``reference_kernel()`` on an uncontended core of
# a 2-vCPU Intel Xeon virtual machine (shared host, NumPy 2.4, Python 3.11).
REFERENCE_S = 0.9e-3
# Probes within this many seconds of a call describe the host during it.
WINDOW_S = 0.5
# The program slows less than the probe when the core is contended: fitting
# log(call time) against log(probe time) over whole runs gave exponents of
# 0.57 (grid), 0.76 (ensemble) and 0.82 (design) on that machine, and
# 0.7 left the smallest run-to-run spread on all three.
HOST_EXPONENT = 0.7

_A = np.array([[0.6, 0.8, 0.0, 0.0], [-0.8, 0.6, 0.0, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])


def reference_kernel(reps: int = 250) -> float:
    """Fixed work: tiny matrix products, clips and interpreter arithmetic."""
    a = np.eye(4)
    s = 0.0
    for i in range(reps):
        a = np.clip(a @ _A, -1.0, 1.0)
        s += float(a[0, 1]) * i
    return s


def probe() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def speed_factor(probe_s: float) -> float:
    """Multiplier taking a time measured while a probe took probe_s to the reference speed."""
    return (REFERENCE_S / probe_s) ** HOST_EXPONENT


class HostSpeed:
    """Context manager sampling the reference kernel on a timer signal."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        duration = probe()
        self.starts.append(start)
        self.durations.append(duration)

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds of the call less its probes, speed factor around the call)."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        net = t1 - t0 - sum(self.durations[i:j])
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_left(self.starts, t1 + WINDOW_S)
        around = self.durations[lo:hi] or self.durations
        return net, speed_factor(statistics.median(around)) if around else 1.0
