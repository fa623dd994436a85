"""Machine-speed calibration for the benchmark's timings.

On the shared 2-core x86-64 hosts the benchmark was tuned on, each CPU
switches, many times a second and independently of the other, between
full speed and about 40% slower, and whole runs of the same code read
10-25% apart.  The slowdown shows in CPU time as much as in wall time
(it is not time stolen from the process), and it slows any pure-Python
code about alike.

So while a timed region runs, a ``Meter`` samples the speed of the CPU
it runs on: every ``PERIOD_S`` a timer signal interrupts the region and
times a short fixed loop of the operations the package spends its time
on (small ``Fraction`` sums, ``gcd``, tuple hashing, dict lookups),
which never touches the package.  The region's time, less the time spent
sampling, is scaled by the mean of ``REFERENCE_S`` over the loop's
sampled times.  That reports it at the speed at which the loop takes
``REFERENCE_S``, which is about this machine's full speed.  A change to
the package moves the region and not the loop, so it moves the scaled
time as it moves the raw one.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

#: CPU time of one ``_loop`` at full speed on a 2-core shared x86-64 host
#: running CPython 3.  Only ratios matter, so the value only sets the
#: scale at which times are reported.
REFERENCE_S = 0.001

#: Interval between two speed samples.
PERIOD_S = 0.05


def _loop() -> int:
    table: dict[tuple[int, int, int], int] = {}
    total = Fraction(0)
    acc = 0
    for k in range(2, 160):
        entries = (k % 7 + 2, k % 11 + 2, k % 13 + 2)
        total += Fraction(1, entries[0]) + Fraction(1, entries[1]) - Fraction(1, entries[2])
        acc += gcd(entries[0] * entries[1], entries[2] * 6)
        table[entries] = table.get(entries, 0) + len(sorted(entries))
    return acc + len(table) + total.denominator


def calibration_s() -> float:
    """CPU time of one calibration loop, in seconds.

    CPU time rather than wall time, so that a loop that waits for the CPU
    (another of the benchmark's processes holds it) does not read slow.
    The collector is off meanwhile, so that the size of the caller's heap
    does not change the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _loop()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Samples the speed of the CPU while code runs; see the module text.

    Time inside the meter is read with ``clock``, which stops while a
    sample is taken.  ``scaled(start, end)`` gives the time between two
    readings at reference speed.  With ``period_s`` None, the meter
    samples only when the region starts and ends.  With ``all_cpus``, a
    sample is the mean over every CPU the process may use, for regions
    whose work runs in child processes on all of them.  Use it as a
    context manager; only the main thread of a process can use it, and
    one at a time.
    """

    def __init__(self, period_s: float | None = PERIOD_S, all_cpus: bool = False):
        self.period_s = period_s
        self.all_cpus = all_cpus
        self.stamps = array("d")
        self.factors = array("d")
        self.spent = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self, *_) -> None:
        begun = time.perf_counter()
        self.stamps.append(begun - self.spent)
        if self.all_cpus:
            allowed = os.sched_getaffinity(0)
            times = []
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                times.append(calibration_s())
            os.sched_setaffinity(0, allowed)
            self.factors.append(statistics.fmean(REFERENCE_S / t for t in times))
        else:
            self.factors.append(REFERENCE_S / calibration_s())
        self.spent += time.perf_counter() - begun

    def __enter__(self) -> Meter:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self, start: float, end: float) -> float:
        """Mean speed factor of the samples between two clock readings, or
        of the sample nearest to them when none lies between."""
        first = bisect_left(self.stamps, start)
        last = bisect_right(self.stamps, end)
        if last > first:
            return statistics.fmean(self.factors[first:last])
        if first == 0:
            return self.factors[0]
        if first == len(self.stamps) or start - self.stamps[first - 1] < self.stamps[first] - end:
            return self.factors[first - 1]
        return self.factors[first]

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)


@contextmanager
def one_cpu():
    """Keeps this process, and the processes it starts meanwhile, on one
    CPU, so that a ``Meter`` samples the CPU a child process runs on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
