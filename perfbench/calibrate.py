"""Machine-speed calibration for host timings.

The virtual machine this benchmark was tuned on runs the same Python
code up to twice as slow for stretches of one second to several
minutes. Over one minute of a fixed pure-Python loop, the per-second
medians ranged from 3.7 ms to 5.8 ms, with no CPU steal counted. Over
a quarter of an hour of benchmark runs, the speed measured here ranged
from 0.64 to 1.28. That swing is larger than any bound a regression
check could use.

So the benchmark keeps timing a fixed pure-Python kernel, every
EVERY_S seconds of the whole run, from an interval-timer signal
handler. The kernel runs in the main thread, between bytecodes, so it
also runs inside long operations. Each operation is rescaled by the
kernel times measured during it, plus the samples just before and just
after it. The time the kernel itself took inside the operation is taken
out first:

    reference seconds = (wall seconds - kernel seconds inside)
                        * REF_KERNEL_S / mean kernel seconds

On 16 repeats of one MPNV 30x30 run, this cut the interquartile spread
from 36% of the median (wall clock) to 7%. Kernels timed only before
and after each run got 25%. On a 16x16 export it went from 20% to 7%.
Wall-clock values are reported alongside.
"""
from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from typing import Callable, List, Optional

perf_counter = time.perf_counter

# Kernel time that defines one reference second; about the kernel's
# time on the tuning machine.
REF_KERNEL_S = 1.0e-3
EVERY_S = 0.05


def kernel() -> float:
    """Interpreter-bound work like the simulator's: floats, dicts, calls."""
    bins: dict = {}
    acc = 0.0
    for i in range(4000):
        x = math.hypot(i * 0.5, 3.0)
        bins[i % 97] = bins.get(i % 97, 0.0) + x
        acc += x
    return acc


class Speed:
    """Kernel samples taken every EVERY_S seconds while running."""

    def __init__(self, on_sample: Optional[Callable[[float], None]] = None) -> None:
        self.starts: List[float] = []
        self.kernel_s: List[float] = []
        self.on_sample = on_sample
        self._busy = False

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:      # a signal that lands inside a sample is dropped
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        took = perf_counter() - t0
        self.starts.append(t0)
        self.kernel_s.append(took)
        self._busy = False
        if self.on_sample is not None:
            self.on_sample(took)

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def seconds(self, t_start: float, t_end: float) -> float:
        """Reference seconds of an interval measured with perf_counter."""
        lo = bisect.bisect_left(self.starts, t_start)
        hi = bisect.bisect_left(self.starts, t_end)
        picks = self.kernel_s[max(lo - 1, 0):hi + 1]
        return self.wall(t_start, t_end) * REF_KERNEL_S / statistics.fmean(picks)

    def wall(self, t_start: float, t_end: float) -> float:
        """Wall seconds of an interval, less the kernel runs inside it."""
        lo = bisect.bisect_left(self.starts, t_start)
        hi = bisect.bisect_left(self.starts, t_end)
        return t_end - t_start - sum(self.kernel_s[lo:hi])

    def machine_speed(self) -> float:
        return REF_KERNEL_S / statistics.median(self.kernel_s)
