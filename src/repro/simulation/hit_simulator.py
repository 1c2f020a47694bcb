"""Steady-state simulation of viewers, VCR operations and resume hits.

Mechanics implemented (Section 2 of the paper):

* the movie restarts every ``l/n`` minutes; each restart is an I/O stream
  whose partition buffers the trailing ``B/n`` minutes;
* viewers arrive Poisson; if the newest partition still covers position 0
  (the *viewer enrollment window* is open) they join it immediately
  (type 2), otherwise they queue for the next restart (type 1) — which is
  why simulated viewers cluster at partition leading edges, one of the
  paper's stated sources of model/simulation discrepancy;
* during playback a viewer issues VCR operations after exponential think
  times; the operation type follows the configured mix and its duration the
  configured distribution (truncated to ``[0, l]``);
* FF advances the position at ``R_FF`` (reaching the end of the movie ends
  the session and releases the phase-1 resources — the Eq. 20 event); RW
  moves backwards at ``R_RW`` and **stops at minute 0**, where the real
  system may still find an open enrollment window (the model books this as
  a miss — the second stated discrepancy); PAU freezes the position;
* on resume, a *hit* means some live partition window covers the position
  (checked in O(1) by :func:`~repro.core.windows.find_covering_window`).

Observations recorded before the warm-up time are discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.hitmodel import VCRMix
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.core.windows import find_covering_window, next_restart
from repro.distributions.base import DurationDistribution
from repro.distributions.truncated import truncate
from repro.exceptions import SimulationError
from repro.numerics.stats import confidence_halfwidth
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams

__all__ = ["SimulationSettings", "ObservedRate", "HitSimulationResult", "HitSimulator"]


@dataclass(frozen=True)
class SimulationSettings:
    """Workload and run-control parameters for the hit simulator.

    Defaults follow the paper's Figure 7 workload: exponential interarrivals
    with mean 2 minutes.  The think time between VCR operations is not
    printed in the paper; the default of 15 minutes gives each two-hour
    viewer a handful of interactions, and the measured hit probability is a
    per-operation quantity that is insensitive to this choice (verified by
    the sensitivity test in the test suite).
    """

    arrival_rate: float = 0.5
    mean_think_time: float = 15.0
    horizon: float = 2400.0
    warmup: float = 240.0
    seed: int = 20250704

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise SimulationError(f"arrival_rate must be positive, got {self.arrival_rate}")
        if self.mean_think_time <= 0:
            raise SimulationError(
                f"mean_think_time must be positive, got {self.mean_think_time}"
            )
        if self.warmup < 0 or self.horizon <= self.warmup:
            raise SimulationError(
                f"need 0 <= warmup < horizon, got warmup={self.warmup}, horizon={self.horizon}"
            )


@dataclass
class ObservedRate:
    """Empirical Bernoulli rate with a normal-approximation CI."""

    successes: int = 0
    trials: int = 0

    def record(self, success: bool) -> None:
        """Record one Bernoulli observation."""
        self.trials += 1
        if success:
            self.successes += 1

    @property
    def rate(self) -> float:
        """Empirical success fraction (NaN on no trials)."""
        if self.trials == 0:
            return math.nan
        return self.successes / self.trials

    def ci_halfwidth(self, confidence: float = 0.95) -> float:
        """Normal-approximation confidence half-width."""
        if self.trials < 2:
            return math.inf
        p = self.rate
        stddev = math.sqrt(max(0.0, p * (1.0 - p)))
        return confidence_halfwidth(stddev, self.trials, confidence)

    def merge(self, other: "ObservedRate") -> "ObservedRate":
        """Pool with an independent replication's counts."""
        return ObservedRate(self.successes + other.successes, self.trials + other.trials)


@dataclass
class HitSimulationResult:
    """Per-operation and overall empirical hit rates for one configuration."""

    config: SystemConfiguration
    settings: SimulationSettings
    per_operation: dict[VCROperation, ObservedRate] = field(
        default_factory=lambda: {op: ObservedRate() for op in VCROperation}
    )
    ff_end_releases: int = 0
    rewind_reached_start: int = 0
    rewind_start_hits: int = 0
    viewers_started: int = 0
    viewers_completed: int = 0
    type1_viewers: int = 0
    type2_viewers: int = 0

    @property
    def overall(self) -> ObservedRate:
        """All operations pooled — the empirical Eq.-(22) quantity."""
        merged = ObservedRate()
        for observed in self.per_operation.values():
            merged = merged.merge(observed)
        return merged

    def rate_of(self, operation: VCROperation) -> float:
        """Empirical hit rate of one operation."""
        return self.per_operation[operation].rate

    def merge(self, other: "HitSimulationResult") -> "HitSimulationResult":
        """Pool observations from an independent replication."""
        merged = HitSimulationResult(config=self.config, settings=self.settings)
        for op in VCROperation:
            merged.per_operation[op] = self.per_operation[op].merge(other.per_operation[op])
        merged.ff_end_releases = self.ff_end_releases + other.ff_end_releases
        merged.rewind_reached_start = self.rewind_reached_start + other.rewind_reached_start
        merged.rewind_start_hits = self.rewind_start_hits + other.rewind_start_hits
        merged.viewers_started = self.viewers_started + other.viewers_started
        merged.viewers_completed = self.viewers_completed + other.viewers_completed
        merged.type1_viewers = self.type1_viewers + other.type1_viewers
        merged.type2_viewers = self.type2_viewers + other.type2_viewers
        return merged


class HitSimulator:
    """Drives viewer processes over one configuration and tallies resume hits."""

    def __init__(
        self,
        config: SystemConfiguration,
        durations: DurationDistribution | dict[VCROperation, DurationDistribution],
        mix: VCRMix,
        settings: SimulationSettings | None = None,
        count_end_as_hit: bool = True,
    ) -> None:
        self._config = config
        self._mix = mix
        self._settings = settings or SimulationSettings()
        self._count_end_as_hit = count_end_as_hit
        if isinstance(durations, DurationDistribution):
            durations = {op: durations for op in VCROperation}
        self._durations = {
            op: truncate(dist, config.movie_length) for op, dist in durations.items()
        }
        self._operations = tuple(VCROperation)
        self._op_weights = [mix.probability_of(op) for op in self._operations]

    # ------------------------------------------------------------------
    # Public entry point.
    # ------------------------------------------------------------------
    def run(self, replication: int = 0) -> HitSimulationResult:
        """Execute one replication and return its tallies."""
        streams = RandomStreams(self._settings.seed).replicate(replication)
        env = Environment()
        result = HitSimulationResult(config=self._config, settings=self._settings)
        env.process(self._arrival_process(env, streams, result), name="arrivals")
        env.run(until=self._settings.horizon)
        return result

    # ------------------------------------------------------------------
    # Processes.
    # ------------------------------------------------------------------
    def _arrival_process(self, env: Environment, streams: RandomStreams, result):
        rng = streams.stream("arrivals")
        while True:
            yield env.timeout(float(rng.exponential(1.0 / self._settings.arrival_rate)))
            result.viewers_started += 1
            env.process(
                self._viewer_process(env, streams, result, result.viewers_started),
                name=f"viewer-{result.viewers_started}",
            )

    def _viewer_process(self, env: Environment, streams: RandomStreams, result, viewer_id):
        rng_think = streams.stream("think")
        rng_ops = streams.stream("ops")
        rng_durations = streams.stream("durations")
        config = self._config
        rates = config.rates
        length = config.movie_length
        warm = self._settings.warmup

        # Enrollment: join the open window or wait for the next restart.
        if find_covering_window(config, env.now, 0.0) is not None:
            if env.now >= warm:
                result.type2_viewers += 1
        else:
            if env.now >= warm:
                result.type1_viewers += 1
            yield env.timeout(next_restart(config, env.now) - env.now)
        position = 0.0

        while True:
            think = float(rng_think.exponential(self._settings.mean_think_time))
            remaining_wall = (length - position) / rates.playback
            if think >= remaining_wall:
                yield env.timeout(remaining_wall)
                result.viewers_completed += 1
                return
            yield env.timeout(think)
            position += think * rates.playback

            operation = self._draw_operation(rng_ops)
            duration = float(self._durations[operation].sample(rng_durations))

            if operation is VCROperation.FAST_FORWARD:
                if duration >= length - position:
                    # Fast-forward reaches the end of the movie: the session
                    # ends and the phase-1 resources are released (Eq. 20).
                    yield env.timeout((length - position) / rates.fast_forward)
                    if env.now >= warm:
                        result.ff_end_releases += 1
                        result.per_operation[operation].record(self._count_end_as_hit)
                    result.viewers_completed += 1
                    return
                yield env.timeout(duration / rates.fast_forward)
                position += duration
            elif operation is VCROperation.REWIND:
                reach = min(duration, position)
                yield env.timeout(reach / rates.rewind)
                position -= reach
                if reach < duration and env.now >= warm:
                    result.rewind_reached_start += 1
            else:
                yield env.timeout(duration)

            window = find_covering_window(config, env.now, position)
            if env.now >= warm:
                result.per_operation[operation].record(window is not None)
                if (
                    operation is VCROperation.REWIND
                    and position == 0.0
                    and window is not None
                ):
                    # Real-mechanics effect the analytical model books as a
                    # miss: rewinding to minute 0 into an open enrollment
                    # window.
                    result.rewind_start_hits += 1

    def _draw_operation(self, rng) -> VCROperation:
        u = float(rng.uniform())
        cumulative = 0.0
        for op, weight in zip(self._operations, self._op_weights):
            cumulative += weight
            if u <= cumulative:
                return op
        return self._operations[-1]
