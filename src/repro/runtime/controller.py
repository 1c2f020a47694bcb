"""The background re-planner: drift in, :class:`AllocationDelta` out.

Each tick closes the paper's loop end to end: snapshot the telemetry,
let the drift detector decide whether any movie's statistics moved, rebuild
the :class:`~repro.sizing.feasible.MovieSizingSpec` set from the refreshed
fits, re-run the Section-5 optimisation under the global stream budget, and
— only if the new plan is genuinely better — emit a delta for the actuator.
Every re-plan builds a fresh :class:`~repro.sizing.planner.SystemSizer`
whose feasible sets, and the per-movie models they hold, resolve
``P(hit | op)`` through one shared
:class:`~repro.runtime.modelcache.ModelEvaluationCache`: an operation whose
fit did not change costs no kernel evaluation, whatever the mix does.

Hysteresis keeps the plan from churning.  Three gates run in order:

1. **stationarity** — no movie drifted and a plan exists: do nothing (the
   property the test suite pins down: stationary traffic converges to zero
   deltas);
2. **cool-down** — a plan was accepted less than ``cooldown_minutes`` ago:
   wait, re-plans are disruptive even when beneficial;
3. **min-improvement** — the candidate must beat the incumbent's score by a
   fraction ``min_improvement``, where the score is the predicted offered
   VCR-stream load (erlangs) of :class:`~repro.sizing.reservation.VCRLoadModel`
   summed over movies — the paper's own argument that a better hit
   probability shrinks the stream reserve, evaluated under *current*
   telemetry for both plans so the incumbent is not judged on stale numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.core.parameters import SystemConfiguration, VCRRates
from repro.exceptions import (
    ActuationRetryExhausted,
    ConfigurationError,
    InfeasibleError,
)
from repro.obs.log import get_logger
from repro.runtime.modelcache import ModelEvaluationCache
from repro.runtime.refit import IncrementalRefitter
from repro.runtime.telemetry import TelemetryHub, TelemetrySnapshot
from repro.sizing.feasible import MovieSizingSpec
from repro.sizing.optimizer import AllocationResult
from repro.sizing.planner import SystemSizer
from repro.sizing.reservation import VCRLoadModel, min_servers_for_blocking
from repro.vod.vcr import VCRBehavior

__all__ = [
    "MAX_REQUEUE_ATTEMPTS",
    "MovieSlot",
    "ControllerPolicy",
    "MovieChange",
    "AllocationDelta",
    "CapacityController",
]

_log = get_logger("runtime.controller")

#: Partial actuations re-queued before :class:`ActuationRetryExhausted`.
MAX_REQUEUE_ATTEMPTS = 3


@dataclass(frozen=True)
class MovieSlot:
    """The static contract of one movie under control.

    Telemetry supplies the statistics; the slot supplies what no amount of
    measurement changes — identity, geometry and the service-level targets
    ``w*`` and ``P*`` the operator signed up for.
    """

    movie_id: int
    name: str
    length: float
    max_wait: float
    p_star: float = 0.5
    rates: VCRRates = field(default_factory=VCRRates.paper_default)

    def __post_init__(self) -> None:
        if self.length <= 0.0:
            raise ConfigurationError(f"length must be positive, got {self.length}")
        if not 0.0 < self.max_wait <= self.length:
            raise ConfigurationError(
                f"max_wait must be in (0, length], got {self.max_wait}"
            )


@dataclass(frozen=True)
class ControllerPolicy:
    """Hysteresis and budget knobs of the control loop."""

    stream_budget: int | None = None
    cooldown_minutes: float = 60.0
    min_improvement: float = 0.02
    blocking_target: float = 0.01

    def __post_init__(self) -> None:
        if self.cooldown_minutes < 0.0:
            raise ConfigurationError(
                f"cooldown_minutes must be >= 0, got {self.cooldown_minutes}"
            )
        if self.min_improvement < 0.0:
            raise ConfigurationError(
                f"min_improvement must be >= 0, got {self.min_improvement}"
            )
        if not 0.0 < self.blocking_target < 1.0:
            raise ConfigurationError(
                f"blocking_target must be in (0, 1), got {self.blocking_target}"
            )


@dataclass(frozen=True)
class MovieChange:
    """One movie's reallocation inside a delta."""

    movie_id: int
    name: str
    old_streams: int | None
    new_streams: int
    old_buffer_minutes: float | None
    new_buffer_minutes: float
    hit_probability: float

    @property
    def stream_delta(self) -> int:
        """Streams gained (positive) or released (negative)."""
        return self.new_streams - (self.old_streams or 0)


@dataclass(frozen=True)
class AllocationDelta:
    """An accepted re-plan: the actuator's work order.

    ``configurations`` is the complete new deployment map (every controlled
    movie, changed or not); ``changes`` lists only the movies whose ``(B, n)``
    actually moved.  ``reserve_streams`` is the Erlang-B VCR reserve the new
    plan implies at the policy's blocking target.
    """

    at_minutes: float
    configurations: dict[int, SystemConfiguration]
    changes: tuple[MovieChange, ...]
    result: AllocationResult
    reserve_streams: int
    old_score: float | None
    new_score: float
    reason: str

    @property
    def is_reallocation(self) -> bool:
        """False for the bootstrap delta (no incumbent plan existed)."""
        return self.old_score is not None

    @property
    def total_streams(self) -> int:
        """``Σ n_i`` of the new plan."""
        return self.result.total_streams

    def describe(self) -> str:
        """Single-line summary for logs."""
        moves = ", ".join(
            f"{c.name}:{c.old_streams}->{c.new_streams}" for c in self.changes
        ) or "bootstrap"
        score = (
            f"{self.old_score:.2f}->{self.new_score:.2f} erl"
            if self.old_score is not None
            else f"{self.new_score:.2f} erl"
        )
        return (
            f"AllocationDelta(t={self.at_minutes:g}, {moves}, load {score}, "
            f"reserve={self.reserve_streams}, {self.reason})"
        )


class CapacityController:
    """Periodically re-plans the popular movies' ``(B_i, n_i)`` allocation."""

    def __init__(
        self,
        slots: Sequence[MovieSlot],
        telemetry: TelemetryHub,
        policy: ControllerPolicy | None = None,
        initial_behaviors: Mapping[int, VCRBehavior] | None = None,
        initial_plan: Mapping[int, SystemConfiguration] | None = None,
        tracer=None,
    ) -> None:
        if not slots:
            raise ConfigurationError("the controller needs at least one movie slot")
        ids = [slot.movie_id for slot in slots]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"movie ids must be unique, got {ids}")
        self._slots = {slot.movie_id: slot for slot in slots}
        self._telemetry = telemetry
        self._refitter = IncrementalRefitter()
        self._cache = ModelEvaluationCache()
        self.policy = policy or ControllerPolicy()
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._sizer: SystemSizer | None = None
        self._current: dict[int, SystemConfiguration] = dict(initial_plan or {})
        self._last_accepted_at: float | None = None
        # Seed the drift detector so the first window is compared against the
        # offline assumption, and treat the given plan as the incumbent.
        for movie_id, behavior in (initial_behaviors or {}).items():
            self._refitter.seed(movie_id, behavior)
        self.ticks = 0
        self.deltas_emitted = 0
        self.skipped_stationary = 0
        self.skipped_cooldown = 0
        self.skipped_no_improvement = 0
        self.skipped_insufficient_data = 0
        self.infeasible_plans = 0
        self.requeued_actuations = 0
        self._pending_requeue: AllocationDelta | None = None
        self._requeue_attempts = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def current_allocation(self) -> dict[int, SystemConfiguration]:
        """The incumbent deployment map (possibly the initial plan)."""
        return dict(self._current)

    @property
    def refitter(self) -> IncrementalRefitter:
        """The drift detector (exposed for diagnostics)."""
        return self._refitter

    @property
    def cache(self) -> ModelEvaluationCache:
        """The shared evaluation cache (exposed for diagnostics)."""
        return self._cache

    def counters(self) -> dict[str, int]:
        """The loop's cumulative outcome counters."""
        return {
            "ticks": self.ticks,
            "deltas_emitted": self.deltas_emitted,
            "skipped_stationary": self.skipped_stationary,
            "skipped_cooldown": self.skipped_cooldown,
            "skipped_no_improvement": self.skipped_no_improvement,
            "skipped_insufficient_data": self.skipped_insufficient_data,
            "infeasible_plans": self.infeasible_plans,
            "requeued_actuations": self.requeued_actuations,
        }

    # ------------------------------------------------------------------
    # Actuation feedback.
    # ------------------------------------------------------------------
    def notify_actuation(self, report, delta: AllocationDelta) -> None:
        """Learn how the last delta landed; queue any remainder for re-try.

        A fully-applied report clears the retry state.  A partial one keeps
        only the rejected changes (as a new delta with the same target map)
        so the next :meth:`tick` re-emits exactly the unfinished work instead
        of re-planning from scratch.  Attempts are bounded by
        :data:`MAX_REQUEUE_ATTEMPTS` (3) — beyond that the loop is wedged on
        something re-trying cannot fix and :class:`ActuationRetryExhausted`
        tells the caller to fall back (the circuit breaker's job).
        """
        if report.fully_applied:
            self._pending_requeue = None
            self._requeue_attempts = 0
            return
        self._requeue_attempts += 1
        rejected = tuple(change for change, _ in report.rejected)
        if self._requeue_attempts >= MAX_REQUEUE_ATTEMPTS:
            self._pending_requeue = None
            names = ", ".join(change.name for change in rejected)
            raise ActuationRetryExhausted(
                f"gave up re-queueing {len(rejected)} rejected change(s) [{names}] "
                f"after {self._requeue_attempts} attempts"
            )
        self._pending_requeue = replace(
            delta, changes=rejected, reason="partial actuation re-queue"
        )

    # ------------------------------------------------------------------
    # The tick.
    # ------------------------------------------------------------------
    def _trace_decision(self, now: float, outcome: str) -> None:
        _log.debug("tick %d at t=%g: %s", self.ticks, now, outcome)
        if self._tracer is not None:
            self._tracer.emit(
                "replan_decision", now, outcome=outcome, tick=self.ticks
            )

    def tick(self, now: float) -> AllocationDelta | None:
        """Run one control cycle; returns a delta only when the plan moves."""
        self.ticks += 1
        if self._pending_requeue is not None:
            # Finish the half-applied delta before considering new plans —
            # the deployed state is not yet what the incumbent map claims.
            delta = replace(self._pending_requeue, at_minutes=now)
            self._pending_requeue = None
            self.requeued_actuations += 1
            self._trace_decision(now, "requeue")
            return delta
        snapshots = {
            movie_id: telemetry.snapshot(now)
            for movie_id, telemetry in (
                (mid, self._telemetry.movie(mid, self._slots[mid].length))
                for mid in self._slots
            )
        }
        drift_reports = [self._refitter.observe(snap) for snap in snapshots.values()]
        drifted = any(report.drifted for report in drift_reports)

        bootstrap = not self._current
        if not bootstrap and not drifted:
            self.skipped_stationary += 1
            self._trace_decision(now, "stationary")
            return None
        if (
            not bootstrap
            and self._last_accepted_at is not None
            and now - self._last_accepted_at < self.policy.cooldown_minutes
        ):
            self.skipped_cooldown += 1
            self._trace_decision(now, "cooldown")
            return None

        specs = self._build_specs(snapshots)
        if specs is None:
            self.skipped_insufficient_data += 1
            self._trace_decision(now, "insufficient_data")
            return None

        try:
            result = self._solve(specs)
        except InfeasibleError:
            self.infeasible_plans += 1
            self._trace_decision(now, "infeasible")
            return None

        new_map = result.as_configuration_map(
            {slot.name: slot.movie_id for slot in self._slots.values()}
        )
        new_score = self._score(new_map, snapshots)
        old_score: float | None = None
        if not bootstrap:
            if new_map == self._current:
                # The optimum did not move; treat as stationary for hysteresis.
                self.skipped_no_improvement += 1
                self._trace_decision(now, "no_improvement")
                return None
            old_score = self._score(self._current, snapshots)
            required = old_score * (1.0 - self.policy.min_improvement)
            if new_score > required:
                self.skipped_no_improvement += 1
                self._trace_decision(now, "no_improvement")
                return None

        changes = []
        for movie_id, config in sorted(new_map.items()):
            old = self._current.get(movie_id)
            if old is not None and old == config:
                continue
            allocation = result.by_name(self._slots[movie_id].name)
            changes.append(
                MovieChange(
                    movie_id=movie_id,
                    name=self._slots[movie_id].name,
                    old_streams=old.num_partitions if old else None,
                    new_streams=config.num_partitions,
                    old_buffer_minutes=old.buffer_minutes if old else None,
                    new_buffer_minutes=config.buffer_minutes,
                    hit_probability=allocation.hit_probability,
                )
            )
        delta = AllocationDelta(
            at_minutes=now,
            configurations=new_map,
            changes=tuple(changes),
            result=result,
            reserve_streams=self._reserve_for(new_score),
            old_score=old_score,
            new_score=new_score,
            reason="bootstrap plan" if bootstrap else "drift re-plan accepted",
        )
        self._current = dict(new_map)
        self._last_accepted_at = now
        self.deltas_emitted += 1
        self._trace_decision(now, "bootstrap" if bootstrap else "accepted")
        _log.info("%s", delta.describe())
        return delta

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _build_specs(
        self, snapshots: Mapping[int, TelemetrySnapshot]
    ) -> list[MovieSizingSpec] | None:
        """Sizing specs from slots + current fits; None while data is thin."""
        specs: list[MovieSizingSpec] = []
        for movie_id, slot in self._slots.items():
            behavior = self._refitter.behavior_for(snapshots[movie_id])
            if behavior is None:
                return None
            specs.append(
                MovieSizingSpec(
                    name=slot.name,
                    length=slot.length,
                    max_wait=slot.max_wait,
                    durations=dict(behavior.durations),
                    p_star=slot.p_star,
                    mix=behavior.mix,
                    rates=slot.rates,
                )
            )
        return specs

    def _solve(self, specs: list[MovieSizingSpec]) -> AllocationResult:
        self._sizer = SystemSizer(specs, feasible_factory=self._cache.feasible_set)
        return self._sizer.solve(self.policy.stream_budget).result

    def _score(
        self,
        allocation: Mapping[int, SystemConfiguration],
        snapshots: Mapping[int, TelemetrySnapshot],
    ) -> float:
        """Predicted offered VCR-stream load (erlangs) under one plan.

        Both the incumbent and the candidate are scored with *current*
        statistics — the models of the re-plan's feasible sets — so the
        comparison isolates the plan itself.  Movies whose arrival rate is
        still unknown contribute nothing to either side.
        """
        models = {fs.spec.name: fs.model for fs in self._sizer.feasible_sets}
        total = 0.0
        for movie_id, config in allocation.items():
            slot = self._slots.get(movie_id)
            if slot is None:
                continue
            snapshot = snapshots.get(movie_id)
            if snapshot is None or snapshot.arrival_rate is None:
                continue
            think = snapshot.mean_think_time
            load = VCRLoadModel(
                model=models[slot.name],
                config=config,
                viewer_arrival_rate=snapshot.arrival_rate,
                mean_think_time=think if think and think > 0.0 else 15.0,
            )
            total += load.offered_load()
        return total

    def _reserve_for(self, offered_load: float) -> int:
        if offered_load <= 0.0:
            return 0
        return min_servers_for_blocking(offered_load, self.policy.blocking_target)
