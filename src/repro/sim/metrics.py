"""Counters and time-weighted statistics for simulation output.

Two kinds of observables appear in the experiments:

* event counts and tallies (hits, misses, admitted viewers) — :class:`Counter`
  and the sample statistics in :mod:`repro.numerics.stats`;
* state trajectories sampled in time (streams in use, buffer occupancy,
  concurrent viewers) — :class:`TimeWeighted`, which integrates the state
  over time so means are time averages rather than event averages.

A :class:`MetricsRegistry` groups the metrics of one simulation run and
supports warm-up resets, which the steady-state experiments use to discard
the initial transient.
"""

from __future__ import annotations

from typing import Dict

from repro.exceptions import ClockRegressionError, SimulationError
from repro.numerics.stats import RunningStat

__all__ = ["Counter", "TimeWeighted", "MetricsRegistry"]


class Counter:
    """A monotonically growing tally of discrete events."""

    __slots__ = ("name", "_count")

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (non-negative) to the tally."""
        if amount < 0:
            raise SimulationError(f"counter {self.name!r}: negative increment {amount}")
        self._count += amount

    @property
    def count(self) -> int:
        """Current tally value."""
        return self._count

    def reset(self) -> None:
        """Zero the tally (warm-up handling)."""
        self._count = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, count={self._count})"


class TimeWeighted:
    """Time-integrated statistic of a piecewise-constant state variable.

    Call :meth:`update` whenever the underlying state changes; the mean is
    the integral of the state over elapsed time divided by elapsed time.
    """

    __slots__ = ("name", "_value", "_last_time", "_start_time", "_area", "_peak")

    def __init__(self, name: str, initial_value: float = 0.0, start_time: float = 0.0) -> None:
        self.name = name
        self._value = float(initial_value)
        self._last_time = float(start_time)
        self._start_time = float(start_time)
        self._area = 0.0
        self._peak = float(initial_value)

    def update(self, now: float, value: float) -> None:
        """Record that the state changed to ``value`` at time ``now``.

        ``now`` must not precede the last recorded timestamp; a regressing
        clock would silently subtract area from the integral, so it raises
        :class:`~repro.exceptions.ClockRegressionError` instead.
        """
        if now < self._last_time - 1e-12:
            raise ClockRegressionError(
                f"time-weighted metric {self.name!r}: time went backwards "
                f"({self._last_time} -> {now})"
            )
        self._area += self._value * (now - self._last_time)
        if now > self._last_time:
            self._last_time = now
        value = float(value)
        self._value = value
        if value > self._peak:
            self._peak = value

    def add(self, now: float, delta: float) -> None:
        """Convenience: bump the state by ``delta`` at time ``now``."""
        self.update(now, self._value + delta)

    @property
    def current(self) -> float:
        """The current state value."""
        return self._value

    @property
    def peak(self) -> float:
        """Largest state value observed since the last reset."""
        return self._peak

    def mean(self, now: float) -> float:
        """Time-average of the state from the (possibly reset) start to ``now``.

        ``now`` must be at or after the last update: a stale timestamp would
        subtract the most recent segment's area from the integral and return
        a silently corrupted mean, so it raises
        :class:`~repro.exceptions.ClockRegressionError` instead.
        """
        if now < self._last_time - 1e-12:
            raise ClockRegressionError(
                f"time-weighted metric {self.name!r}: mean() queried at {now} "
                f"but the metric was last updated at {self._last_time}"
            )
        elapsed = now - self._start_time
        if elapsed <= 0.0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / elapsed

    def reset(self, now: float) -> None:
        """Discard history (warm-up): averaging restarts at ``now``."""
        self._last_time = now
        self._start_time = now
        self._area = 0.0
        self._peak = self._value

    def __repr__(self) -> str:
        return f"TimeWeighted({self.name!r}, current={self._value})"


class MetricsRegistry:
    """Named collection of counters, tallies and time-weighted metrics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._tallies: Dict[str, RunningStat] = {}
        self._time_weighted: Dict[str, TimeWeighted] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def tally(self, name: str) -> RunningStat:
        """A sample-statistics accumulator (per-observation, not per-time)."""
        if name not in self._tallies:
            self._tallies[name] = RunningStat()
        return self._tallies[name]

    def time_weighted(self, name: str, now: float = 0.0, initial: float = 0.0) -> TimeWeighted:
        """Get-or-create the named time-weighted metric."""
        if name not in self._time_weighted:
            self._time_weighted[name] = TimeWeighted(name, initial, now)
        return self._time_weighted[name]

    def reset_all(self, now: float) -> None:
        """Warm-up reset: zero counters/tallies, restart time averages."""
        for counter in self._counters.values():
            counter.reset()
        self._tallies = {name: RunningStat() for name in self._tallies}
        for metric in self._time_weighted.values():
            metric.reset(now)

    def counter_value(self, name: str) -> int:
        """A counter's value, 0 when it was never created."""
        return self._counters[name].count if name in self._counters else 0

    def snapshot(self, now: float) -> dict[str, float]:
        """Flat dictionary of every metric's headline value."""
        out: dict[str, float] = {}
        for name, counter in self._counters.items():
            out[f"count.{name}"] = float(counter.count)
        for name, stat in self._tallies.items():
            if stat.count:
                out[f"mean.{name}"] = stat.mean
        for name, metric in self._time_weighted.items():
            out[f"timeavg.{name}"] = metric.mean(now)
        return out
