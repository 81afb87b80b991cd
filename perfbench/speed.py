"""Machine-speed probe that rescales wall times to a fixed reference speed.

On a shared 2-vCPU Linux VM the host flips between a fast state and one
about 1.6 times slower, every few hundred ms and on both vCPUs. The share
of slow time also drifts over minutes, so raw wall times of the same code
spread by 20-35% between runs. While a `Speedometer` is active, a SIGALRM
timer runs a fixed numpy kernel every `PERIOD_S` in the measured process.
`normalise` takes an interval's wall time and subtracts the probe's own
time inside it. It then scales the result by `REF_KERNEL_S` over the mean
kernel time around the interval. The result is the interval's length at a
fixed machine speed. The kernel does the kind of work kmcert's steps do:
small-array numpy calls driven from Python.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
REF_KERNEL_S = 5e-4     # the kernel's fast-state time on that VM

_VEC = np.linspace(-1.0, 1.0, 30)


def kernel() -> None:
    for _ in range(100):
        b = np.clip(_VEC * 1.5 - _VEC, -0.8, 0.8)
        float(np.sqrt(b @ b))


class Speedometer:
    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        kernel()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the interval [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - PERIOD_S)
        hi = bisect.bisect_right(self.starts, t1 + PERIOD_S)
        if lo == hi:    # interval shorter than the period, at an end of the record
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        near = self.durations[lo:hi]
        own = sum(d for s, d in zip(self.starts[lo:hi], near) if t0 <= s < t1)
        return (t1 - t0 - own) * REF_KERNEL_S / statistics.fmean(near)
