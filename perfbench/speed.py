"""Speed normalisation: the machine's speed, sampled while a workload runs.

The benchmark shares a few cores of a host with other tenants, and the
speed of one core drifts by up to 1.6x within seconds and stays shifted
for seconds to minutes.  ``SpeedProbe`` times a fixed pure-Python loop
(``calibrate``) between jobs and, from a ``SIGALRM`` timer every
``TIMER_S`` seconds, during them.  A duration is then scaled by
``CAL_REF_S`` over the median loop time of the samples taken during it
and the ``WINDOW`` samples on each side of it: the result is the
duration at the speed at which the loop takes ``CAL_REF_S``.  The loop
runs no library code, so a change to the library moves scaled times as
it moves raw ones.

Time spent in the timer handler is kept apart, so it can be taken out
of the job it interrupted.  Python runs the handler between bytecodes,
so a long call into C code is sampled only at its ends.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter, process_time

# CAL_REF_S is about the loop's median time on the 2-vCPU x86_64 virtual
# machine the benchmark was written on, so figures there read as seconds.
CAL_LOOP = 20_000
CAL_REPS = 3
CAL_REF_S = 1.6e-3
WINDOW = 3
TIMER_S = 0.5


def calibrate() -> float:
    """Best of CAL_REPS timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(CAL_REPS):
        start = perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += i * i % 7
        best = min(best, perf_counter() - start)
    return best


class SpeedProbe:
    """Loop-time samples in time order; a context manager runs the timer."""

    def __init__(self):
        self.times: list = []  # perf_counter at the middle of each sample
        self.loops: list = []  # loop seconds of each sample
        self.handler_s = 0.0  # wall seconds spent in the timer handler
        self.handler_cpu_s = 0.0  # process CPU seconds spent in it
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        start = perf_counter()
        loop = calibrate()
        self.times.append((start + perf_counter()) / 2)
        self.loops.append(loop)
        self._sampling = False

    def _on_timer(self, signum, frame):
        if self._sampling:  # a sample is being taken already
            return
        start, cpu = perf_counter(), process_time()
        self.sample()
        self.handler_s += perf_counter() - start
        self.handler_cpu_s += process_time() - cpu

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, TIMER_S, TIMER_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Scale factor for a duration from ``start`` to ``end`` (perf_counter)."""
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        return CAL_REF_S / statistics.median(self.loops[max(0, lo - WINDOW):hi + WINDOW])

    def summary(self) -> dict:
        return {
            "ref": CAL_REF_S,
            "samples": len(self.loops),
            "min": min(self.loops),
            "median": statistics.median(self.loops),
            "max": max(self.loops),
        }
