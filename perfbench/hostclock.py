"""Timing corrected for the host's speed.

The benchmark runs on shared hosts whose speed moves by up to 2x within
seconds and in steps that last minutes, because other machines' work
competes for the same cores and caches. Wall time alone then measures the
host as much as jetcones.

A CalibratedClock measures the host's speed while the workload runs: an
interval timer (SIGALRM, every TICK_S seconds) runs a fixed calibration
kernel in the benchmark's one thread, between two bytecodes of whatever
is running, and records how long the kernel took. The kernel is small
numpy and Python work of the same kind as jetcones's (3x3 symmetric
eigen-solves, small-array arithmetic) and calls nothing in jetcones, so a
change to jetcones does not change it.

The clock advances at rate REF_S / k, where k is the kernel's latest
time, and stands still while the kernel runs: it reads seconds at the host
speed at which the kernel takes REF_S. Integrating the rate tick by tick
follows the host more closely than scaling a whole interval by its mean
kernel time, which a mix of fast and slow phases biases.

WallClock has the same interface and measures plain wall time; the traced
run and the tests use it.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

TICK_S = 0.05           # calibration interval
KERNEL_REPS = 60        # iterations of the kernel's loop per sample
REF_S = 0.5e-3          # kernel time that defines one calibrated second
WARMUP_SAMPLES = 16     # samples taken when the clock starts; their median
                        # sets the rate until the first tick

_A = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])


def kernel() -> float:
    """One calibration sample: the seconds a fixed piece of work takes."""
    t0 = time.perf_counter()
    for _ in range(KERNEL_REPS):
        b = _A + 0.5 * _A
        np.linalg.eigvalsh(b)
        b.sum()
    return time.perf_counter() - t0


class WallClock:
    """Plain wall time with CalibratedClock's mark() and since()."""

    def mark(self) -> float:
        return time.perf_counter()

    def since(self, mark: float) -> float:
        return time.perf_counter() - mark


class CalibratedClock:
    """Seconds at a fixed host speed; see the module docstring.

    Use as a context manager: the timer runs inside the ``with`` block and
    is stopped, and the previous SIGALRM handler restored, on every way
    out of it. Outside the block the clock runs at the last rate.
    """

    def __init__(self):
        self.samples = array("d")   # kernel durations, in order
        self.kernel_s = 0.0         # total time spent in the timer handler
        self._value = 0.0           # clock reading at wall time _since
        self._since = time.perf_counter()
        self._rate = 1.0
        self._previous = None

    def _advance(self, now: float):
        self._value += (now - self._since) * self._rate
        self._since = now

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._advance(t0)
        k = kernel()
        self.samples.append(k)
        self._rate = REF_S / k
        self._since = time.perf_counter()
        self.kernel_s += self._since - t0

    def __enter__(self):
        warmup = sorted(kernel() for _ in range(WARMUP_SAMPLES))
        self.samples.extend(warmup)
        self._advance(time.perf_counter())
        self._rate = REF_S / warmup[len(warmup) // 2]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        return False

    def mark(self) -> float:
        """The clock's reading, taken with the timer's signal held back so
        that a tick cannot change the state half-way through."""
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._value + (time.perf_counter() - self._since) * self._rate
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def since(self, mark: float) -> float:
        return self.mark() - mark

    def stats(self) -> dict:
        s = np.asarray(self.samples)
        return {"clock": "calibrated", "tick_s": TICK_S, "ref_s": REF_S,
                "kernel_samples": len(s), "kernel_s_total": self.kernel_s,
                "kernel_ms_quartiles": (np.percentile(s, [25, 50, 75]) * 1e3).tolist()
                if len(s) else []}
