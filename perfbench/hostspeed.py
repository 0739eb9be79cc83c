"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: the same exact-arithmetic
job can take twice as long from one ten-second window to the next while
CPU time still equals wall time, because neighbours slow the core rather
than preempt the process.  A fixed pure-Python kernel (stdlib ``Fraction``
arithmetic, nothing from the package under test) tracks that slowdown.

While a worker runs, ``Sampler`` times the kernel from a ``SIGALRM``
handler every ``PERIOD_S``, so readings cover each job's own interval; the
handler's time is subtracted from the job's.  A job's reported time is its
own wall time scaled by ``REFERENCE_S`` over the trimmed mean of its
readings: seconds at the host speed at which one kernel run takes
``REFERENCE_S``.  Set-up is scaled the same way.  No change to the package
can move the kernel.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_S = 0.00035
"""One kernel run, in seconds, at reference speed (a typical reading on a
2-core Intel Xeon host with Python 3.11)."""

PERIOD_S = 0.01
MIN_READINGS = 8


def kernel() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 40):
        acc = (acc + Fraction(i, 2 * i + 1) * Fraction(3, i)) / 2
    return time.perf_counter() - start


def trimmed_mean(values) -> float:
    """Mean without the lowest and highest tenth."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    kept = ordered[cut: len(ordered) - cut]
    return sum(kept) / len(kept)


class Sampler:
    """Kernel readings taken every ``PERIOD_S`` while the sampler is running."""

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.readings.append(kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        start = time.perf_counter()
        self.readings += [kernel() for _ in range(MIN_READINGS)]
        self.spent += time.perf_counter() - start
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        """Readings taken and seconds spent taking them, so far."""
        return len(self.readings), self.spent

    def factor(self, start, end) -> float:
        """Factor to reference speed for the interval between two marks.

        An interval with fewer than ``MIN_READINGS`` readings borrows the
        ones just before it.
        """
        readings = self.readings[min(start[0], end[0] - MIN_READINGS): end[0]]
        return REFERENCE_S / trimmed_mean(readings)
