"""Fixed pure-Python kernels that track how fast the machine runs right now.

Shared machines drift: on a shared 2-vCPU Intel Xeon sandbox one loop took
anywhere from 1.2 to 1.9 ms within a minute, and whole runs at one seed
differed by 30% in raw ops per second.  Timing these kernels next to
every op and dividing the op's time by their slowdown turns wall time
into time at one reference speed, which cancels most of that drift.

The five kernels mirror the arithmetic ghzeta spends its time in (small
integers, big-integer modular arithmetic, Fractions, complex floats and
mpmath): kinds of work do not slow down alike, and their mix predicted
pass times better than any single kernel.  None of them calls ghzeta, so
a change to the program moves op times and never the calibration.
"""

from __future__ import annotations

import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter, process_time

from mpmath import mp


def _small_int():
    x = 0
    for i in range(10_000):
        x += i * i % 7


def _big_int():
    n, y = (1 << 89) - 1, 2
    for _ in range(800):
        y = (y * y + 1) % n
        math.gcd(y, n)


def _fraction():
    a = Fraction(1, 3)
    for i in range(100):
        a = a * Fraction(3, 4) + Fraction(1, i + 1)
        a = Fraction(a.numerator % 1000 + 1, a.denominator % 1000 + 1)


def _complex():
    z = 0j
    for i in range(2000):
        z += (i + 0.5) ** complex(-1.5, -2.0)


def _mpmath():
    with mp.workdps(60):
        s, e = mp.mpf(0), mp.mpf("-1.01")
        for i in range(60):
            s += mp.mpf(i + 1) ** e


# (kernel, its time in seconds at the reference speed: 2-vCPU Intel Xeon,
# Python 3.11.7, mpmath on its Python backend, unloaded)
KERNELS = (
    (_small_int, 5.3e-4),
    (_big_int, 4.9e-4),
    (_fraction, 5.2e-4),
    (_complex, 6.2e-4),
    (_mpmath, 8.0e-4),
)


def _time(kernel):
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def slowdown():
    """Geometric mean over the kernels of time now / reference time."""
    return math.exp(sum(math.log(_time(k) / ref) for k, ref in KERNELS) / len(KERNELS))


def slowdown_median(samples):
    return statistics.median(slowdown() for _ in range(samples))


class InOpSampler:
    """Times the kernels every `interval` seconds while an op runs.

    A SIGALRM handler runs between bytecodes of the op, so long ops get
    slowdown samples from inside their own run; the handler's wall and
    CPU time are recorded so the caller can take them off the op."""

    def __init__(self, interval=0.25):
        self.interval = interval
        self.samples = []
        self.wall = self.cpu = 0.0

    def _sample(self, signum, frame):
        t0, c0 = perf_counter(), process_time()
        self.samples.append(slowdown())
        self.cpu += process_time() - c0
        self.wall += perf_counter() - t0

    def __enter__(self):
        self.samples, self.wall, self.cpu = [], 0.0, 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale_factors(marks, spans, inside, reach=0.5):
    """1 / slowdown for each op.

    ``marks`` holds (time, slowdown) pairs taken before every op and after
    the last, ``spans`` each op's (start, end), and ``inside`` the samples
    taken while each op ran.  An op with samples of its own uses their
    mean (its time is the integral of the slowdown over its run).  A
    shorter op uses the median of the marks from ``reach`` seconds before
    it starts to ``reach`` seconds after it ends, which always includes
    the two that bracket it: speed states on a shared machine last
    seconds, so neighbouring marks describe the op well."""
    out = []
    for (start, end), own in zip(spans, inside):
        if own:
            out.append(1 / statistics.fmean(own))
        else:
            local = [s for t, s in marks if start - reach <= t <= end + reach]
            out.append(1 / statistics.median(local))
    return out
