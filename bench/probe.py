"""Speed probe: puts the child's times on a clock that tracks the CPU's speed.

The benchmark runs on a shared host whose vCPUs change speed by up to 2x
within seconds and between minutes (other tenants, not preemption: process
CPU time moves with wall time).  Medians over repetitions cannot remove the
slow part of that drift, so raw seconds from two sets of runs do not compare.

`start` installs a SIGALRM handler that every PERIOD_S times a small fixed
kernel (best of two back-to-back runs) inside the measured process, so each
sample sees the same CPU as the job, at the same moment.  Contention slows
kinds of work by different amounts (x87 longdouble convolutions more than
interpreter code, vectorised float64 convolutions hardly at all), so each
workload samples a miniature of its own hot loop, named by
`Workload.kernel`: a big-integer convolution, a Fraction convolution or a
longdouble numpy convolution.  Set-up, before the package is imported,
samples `python_kernel`.

`reference` then maps a raw `time.monotonic()` reading to reference seconds:
the time between two samples is scaled by the kernel's reference time over
the sample that ends it, smoothed over its neighbours, and the time spent in
the handler itself counts as zero.  A handler waits for a running C call,
such as a long numpy convolution, to return, so the sample just after a call
stands for it.  A
reference second is a second at the speed where a sample takes the kernel's
reference time.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

PERIOD_S = 0.02
SMOOTH = 5  # samples on each side

_BIG = 3 ** 300
_MOD = 7 ** 200 + 1


def python_kernel() -> int:
    """Interpreter, big-integer and float work, for the package's imports."""
    x, f = 1, 0.0
    for i in range(20):
        x = (x * _BIG + i) % _MOD
        f = f * 0.5 + i
    return x


def _bigint():
    row = [(i * 7919 + 1) ** 120 for i in range(12)]  # about 2300 bits each
    return lambda: sum(row[i] * row[11 - i] for i in range(12))


def _fraction():
    from fractions import Fraction

    row = [Fraction(i + 1, math.factorial(i)) for i in range(10)]
    return lambda: sum(row[i] * row[9 - i] for i in range(10))


def _longdouble():
    import numpy as np  # the package has imported it by now

    ld = np.linspace(0.0, 1.0, 96, dtype=np.longdouble)
    return lambda: np.convolve(ld, ld)


# Reference times: each kernel's median sample inside the benchmark's jobs on
# a 2-vCPU 2.1 GHz Xeon VM, so that reference seconds are about that machine's
# seconds.
PYTHON_REF_S = 30e-6
KERNELS = {  # name -> (kernel factory, reference time)
    "bigint": (_bigint, 55e-6),
    "fraction": (_fraction, 45e-6),
    "longdouble": (_longdouble, 28e-6),
}


def _sample(kernel) -> float:
    clock = time.monotonic
    best = 1.0
    for _ in range(2):
        t0 = clock()
        kernel()
        best = min(best, clock() - t0)
    return best


class Probe:
    """Samples a kernel from a timer signal and converts raw times."""

    def __init__(self):
        self.starts: list[float] = []   # monotonic time each handler began
        self.ends: list[float] = []     # ... and ended
        self.speeds: list[float] = []   # reference seconds per raw second in that handler
        self._kernel = (python_kernel, PYTHON_REF_S)
        self._table: list[float] = []
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a signal that arrives inside the handler is dropped
            return
        self._busy = True
        t0 = time.monotonic()
        kernel, ref_s = self._kernel
        self.speeds.append(ref_s / _sample(kernel))
        self.starts.append(t0)
        self.ends.append(time.monotonic())
        self._busy = False

    def use(self, kernel, ref_s: float) -> None:
        """Sample `kernel`, whose reference time is ref_s, from now on."""
        for _ in range(5):  # warm its code paths before the first sample
            _sample(kernel)
        self._kernel = (kernel, ref_s)

    def start(self) -> None:
        self.use(python_kernel, PYTHON_REF_S)
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)  # a sample that stands for the stretch since the last one
        # One sample is noisy, and the speed it tracks changes over seconds,
        # so each stretch uses the median of the samples within SMOOTH of it.
        n = len(self.speeds)
        self.speeds = [statistics.median(self.speeds[max(i - SMOOTH, 0):i + SMOOTH + 1])
                       for i in range(n)]
        # reference time at the end of each handler
        at_end, total = [], 0.0
        for i, speed in enumerate(self.speeds):
            if i:
                total += (self.starts[i] - self.ends[i - 1]) * speed
            at_end.append(total)
        self._table = at_end

    def reference(self, t: float) -> float:
        """Reference seconds at raw monotonic time t; call after stop()."""
        i = bisect.bisect_left(self.starts, t)  # the first handler that begins at or after t
        if i == len(self.starts):  # after the last handler: at the last sample's speed
            return self._table[-1] + (t - self.ends[-1]) * self.speeds[-1]
        if i and t < self.ends[i - 1]:  # inside a handler
            return self._table[i - 1]
        if i == 0:  # before the first handler: at the first sample's speed
            return self._table[0] - (self.starts[0] - t) * self.speeds[0]
        return self._table[i] - (self.starts[i] - t) * self.speeds[i]

    def span(self, t0: float, t1: float) -> float:
        return self.reference(t1) - self.reference(t0)
