"""The machine's speed while the program runs, from a fixed reference slice.

The benchmark runs on a shared host whose speed changes by the second: the
same code can take 1.6-2x the CPU time, not only more wall time, for a
minute or more.  Medians over many operations remove a stall within a run,
not a slowdown that lasts the whole run, so every CPU-bound timing is also
scaled to a nominal speed.

A :class:`Sampler` interrupts its own process every ``INTERVAL_S`` of CPU
time and times one slice of a fixed pure-Python arithmetic loop, so the
samples fall evenly over the CPU time the program uses, in the same process
and on the same core.  A measured interval's own samples give its factor::

    nominal = (measured - sampler time) * mean(NOMINAL_S / slice time)

The slice allocates nothing the garbage collector tracks and reads no
program state, so no change to the program moves it.  ``NOMINAL_S`` is its
CPU time on the baseline machine at rest, so a scaled time reads as seconds
on that machine.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

#: CPU seconds of one reference slice on the baseline machine at rest (the
#: 5th percentile of 2000 slices there).
NOMINAL_S = 0.00087
#: Iterations of the reference loop in one slice (about ``NOMINAL_S``).
ITERATIONS = 6_000
#: CPU seconds of the process between two slices.
INTERVAL_S = 0.05


def reference() -> float:
    """CPU seconds of one slice of the reference loop, on this thread's clock.

    The thread clock stays exact while the profiling timer runs, when the
    process clock only advances at scheduler ticks.
    """
    started = time.thread_time()
    total = 0.0
    for i in range(ITERATIONS):
        x = (i % 251) * 0.004
        total += math.exp(-x) * x / (1.0 + x * x)
    elapsed = time.thread_time() - started
    if not math.isfinite(total):  # pragma: no cover - keeps the loop live
        raise ArithmeticError("reference loop diverged")
    return elapsed


def factor(timings: list[float]) -> float:
    """Mean speed of the slices relative to the nominal one (1.0 at rest)."""
    return statistics.fmean(NOMINAL_S / timing for timing in timings)


class Sampler:
    """Times a reference slice every ``INTERVAL_S`` of this process's CPU.

    The process-wide profiling timer drives it, so at most one sampler runs
    per process.  ``cpu_s`` and ``wall_s`` add up the time spent in slices,
    which the caller subtracts from what it measured over the same span.
    """

    def __init__(self) -> None:
        self.timings: list[float] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        # The handler stays: a signal already in flight takes one more slice.
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def _sample(self, signum, frame) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        self.timings.append(reference())
        self.cpu_s += time.thread_time() - cpu
        self.wall_s += time.perf_counter() - wall

    def mark(self) -> tuple[int, float, float]:
        """The sampler's position, to measure a span from."""
        return len(self.timings), self.cpu_s, self.wall_s

    def since(self, mark: tuple[int, float, float] = (0, 0.0, 0.0)) -> dict:
        """Slices taken and sampler time spent since ``mark`` (or the start)."""
        count, cpu_s, wall_s = mark
        return {
            "timings": self.timings[count:],
            "cpu_s": self.cpu_s - cpu_s,
            "wall_s": self.wall_s - wall_s,
        }
