"""Machine-speed calibration that runs inside the timed phase.

On a shared machine the same work can run 1.5 times slower or more for
seconds to minutes at a time, and CPU time slows with it.  While a
repetition runs, an interval timer interrupts it every INTERVAL_S and times
a fixed pure-Python loop that allocates much as the library does.  The loop
uses no library code, so a change to the library cannot move it.

The loop's time is taken out of every measured interval.  ``factor()`` is
REF_LOOP_S over the median loop time; multiplying a measured time by it
gives the time on a machine that runs the loop in REF_LOOP_S.  That is
about this loop's speed on an idle core of the 2-vCPU Xeon the benchmark
was built on.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter, process_time

INTERVAL_S = 0.05
LOOP_N = 4000
REF_LOOP_S = 0.001


def _loop() -> int:
    d = {}
    for i in range(LOOP_N):
        d[(i, i * 7 % 13)] = [i]
    return len(d)


class Calibration:
    """Context manager that samples the loop while it is active.

    With ``sample=False`` it takes no samples, and its clocks are the plain
    ones; traced repetitions use it so, to keep the loop out of their spans.
    """

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.samples: list[float] = []
        self.total_s = 0.0

    def _sample(self, *_) -> None:
        # with the collector off, the loop's time does not depend on how
        # many objects the workload holds
        gc_was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _loop()
        dt = perf_counter() - t0
        if gc_was_enabled:
            gc.enable()
        self.samples.append(dt)
        self.total_s += dt

    def clock(self) -> float:
        """perf_counter() without the time spent in the calibration loop."""
        return perf_counter() - self.total_s

    def cpu_clock(self) -> float:
        """process_time() without the calibration loop, which is all CPU."""
        return process_time() - self.total_s

    def factor(self) -> float:
        return REF_LOOP_S / statistics.median(self.samples)

    def __enter__(self) -> Calibration:
        if not self.sample:
            return self
        # one sample up front, so that even a very short phase has one
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.sample:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed_factor_now(samples: int = 10) -> float:
    """Speed factor from a few loops run back to back, for a phase the timer
    cannot cover, such as interpreter start."""
    calibration = Calibration()
    for _ in range(samples):
        calibration._sample()
    return calibration.factor()
