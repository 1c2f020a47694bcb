"""Circuit breaker state machine, guarded loop coasting, actuation requeue."""

from __future__ import annotations

import pytest

from repro.core.parameters import SystemConfiguration
from repro.distributions import GammaDuration
from repro.exceptions import (
    ActuationRetryExhausted,
    DegradedModeError,
    SimulationError,
)
from repro.runtime.actuator import ActuationReport, PlanActuator
from repro.runtime.circuit import (
    BACKOFF_FACTOR,
    BASE_BACKOFF_MINUTES,
    FAILURE_THRESHOLD,
    MAX_BACKOFF_MINUTES,
    CircuitBreaker,
    GuardedControlLoop,
)
from repro.runtime.controller import (
    MAX_REQUEUE_ATTEMPTS,
    AllocationDelta,
    CapacityController,
    ControllerPolicy,
    MovieChange,
    MovieSlot,
)
from repro.runtime.telemetry import TelemetryHub
from repro.sizing.feasible import FeasibleSet, MovieSizingSpec
from repro.sizing.optimizer import optimize_allocation


def _delta(changes=(), at_minutes=100.0):
    spec = MovieSizingSpec(
        name="m0", length=120.0, max_wait=2.0, durations=GammaDuration.paper_figure7()
    )
    result = optimize_allocation([FeasibleSet(spec)], stream_budget=30)
    return AllocationDelta(
        at_minutes=at_minutes,
        configurations={0: SystemConfiguration(120.0, 10, 100.0)},
        changes=tuple(changes),
        result=result,
        reserve_streams=2,
        old_score=5.0,
        new_score=4.0,
        reason="test",
    )


def _change(movie_id=0):
    return MovieChange(
        movie_id=movie_id,
        name=f"m{movie_id}",
        old_streams=8,
        new_streams=10,
        old_buffer_minutes=90.0,
        new_buffer_minutes=100.0,
        hit_probability=0.6,
    )


def _fail(breaker, times, now=0.0):
    for _ in range(times):
        breaker.record_failure(now)


class TestCircuitBreaker:
    def test_stays_closed_below_threshold(self):
        assert FAILURE_THRESHOLD == 3
        breaker = CircuitBreaker()
        breaker.record_failure(10.0)
        breaker.record_failure(20.0)
        assert breaker.state == "closed"
        assert breaker.allow(25.0)
        assert breaker.consecutive_failures == 2

    def test_opens_at_threshold_and_gates_until_backoff(self):
        breaker = CircuitBreaker()
        breaker.record_failure(10.0)
        breaker.record_failure(15.0)
        breaker.record_failure(20.0)
        assert breaker.state == "open"
        assert breaker.retry_at == 50.0     # 20 + the 30-minute base backoff
        assert not breaker.allow(30.0)
        assert breaker.allow(50.0)
        assert breaker.state == "half_open"

    def test_success_closes_and_resets(self):
        breaker = CircuitBreaker()
        _fail(breaker, FAILURE_THRESHOLD)
        assert breaker.allow(30.0)
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0
        # The next open starts from the base backoff again.
        _fail(breaker, FAILURE_THRESHOLD, now=100.0)
        assert breaker.retry_at == 130.0

    def test_half_open_failure_doubles_backoff(self):
        breaker = CircuitBreaker()
        _fail(breaker, FAILURE_THRESHOLD)
        assert breaker.retry_at == 30.0
        assert breaker.allow(30.0)          # half-open probe
        breaker.record_failure(30.0)        # probe failed
        assert breaker.state == "open"
        assert breaker.retry_at == 90.0     # 30 + doubled 60
        assert breaker.allow(90.0)
        breaker.record_failure(90.0)
        assert breaker.retry_at == 210.0    # 90 + doubled-again 120

    def test_backoff_is_capped(self):
        assert (BASE_BACKOFF_MINUTES, BACKOFF_FACTOR, MAX_BACKOFF_MINUTES) == (
            30.0, 2.0, 480.0
        )
        breaker = CircuitBreaker()
        _fail(breaker, FAILURE_THRESHOLD - 1)
        now = 0.0
        waits = []
        for _ in range(7):
            breaker.record_failure(now)
            waits.append(breaker.retry_at - now)
            now = breaker.retry_at
            assert breaker.allow(now)
        assert waits == [30.0, 60.0, 120.0, 240.0, 480.0, 480.0, 480.0]
        assert breaker.current_backoff() == 480.0


class _FlakyController:
    """Raises for the first ``failures`` ticks, then returns ``delta``."""

    def __init__(self, failures, delta=None):
        self.remaining = failures
        self.delta = delta
        self.ticks = 0
        self.notified = []

    def tick(self, now):
        self.ticks += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise SimulationError("solver exploded")
        return self.delta

    def notify_actuation(self, report, delta):
        self.notified.append((report, delta))


class _FakeActuator:
    def __init__(self, rejected=()):
        self.rejected = tuple(rejected)
        self.applied = []

    def apply(self, delta):
        self.applied.append(delta)
        return ActuationReport(
            at_minutes=delta.at_minutes,
            applied=delta.changes,
            rejected=self.rejected,
        )


class TestGuardedControlLoop:
    def test_failures_trip_the_breaker_and_the_loop_coasts(self):
        controller = _FlakyController(failures=10)
        loop = GuardedControlLoop(controller, _FakeActuator())
        assert loop.run_tick(0.0) is None
        assert loop.run_tick(5.0) is None
        assert not loop.degraded
        assert loop.run_tick(10.0) is None
        assert loop.degraded
        assert loop.failures == 3
        # Open: the controller is not even called.
        assert loop.run_tick(20.0) is None
        assert controller.ticks == 3
        assert loop.ticks_coasted == 1
        with pytest.raises(DegradedModeError, match="open"):
            loop.require_healthy()

    def test_recovery_probe_closes_the_breaker(self):
        delta = _delta()
        controller = _FlakyController(failures=3, delta=delta)
        loop = GuardedControlLoop(controller, _FakeActuator())
        for _ in range(FAILURE_THRESHOLD):
            assert loop.run_tick(0.0) is None
        assert loop.degraded
        assert loop.run_tick(10.0) is None        # still inside the backoff
        assert loop.run_tick(30.0) is delta       # half-open probe succeeds
        assert not loop.degraded
        assert loop.last_good is delta
        loop.require_healthy()                    # no raise
        assert controller.notified[0][1] is delta

    def test_partial_actuation_does_not_update_last_good(self):
        delta = _delta(changes=[_change()])
        controller = _FlakyController(failures=0, delta=delta)
        loop = GuardedControlLoop(
            controller, _FakeActuator(rejected=((_change(), "no space"),))
        )
        assert loop.run_tick(0.0) is delta
        assert loop.last_good is None

    def test_last_error_surfaces_in_require_healthy(self):
        loop = GuardedControlLoop(_FlakyController(failures=5), _FakeActuator())
        for _ in range(FAILURE_THRESHOLD):
            loop.run_tick(0.0)
        assert isinstance(loop.last_error, SimulationError)
        with pytest.raises(DegradedModeError, match="solver exploded"):
            loop.require_healthy()


class TestActuationRequeue:
    def _controller(self):
        slots = [MovieSlot(movie_id=0, name="m0", length=120.0, max_wait=2.0)]
        return CapacityController(slots, TelemetryHub(), policy=ControllerPolicy())

    def test_full_application_clears_state(self):
        controller = self._controller()
        delta = _delta(changes=[_change()])
        report = ActuationReport(100.0, applied=delta.changes, rejected=())
        controller.notify_actuation(report, delta)
        assert controller.counters()["requeued_actuations"] == 0

    def test_partial_application_requeues_the_remainder(self):
        controller = self._controller()
        delta = _delta(changes=[_change(0)], at_minutes=100.0)
        report = ActuationReport(
            100.0, applied=(), rejected=((delta.changes[0], "no space"),)
        )
        controller.notify_actuation(report, delta)
        requeued = controller.tick(160.0)
        assert requeued is not None
        assert requeued.reason == "partial actuation re-queue"
        assert requeued.at_minutes == 160.0
        assert requeued.changes == delta.changes
        assert requeued.configurations == delta.configurations
        assert controller.counters()["requeued_actuations"] == 1

    def test_retries_are_bounded(self):
        assert MAX_REQUEUE_ATTEMPTS == 3
        controller = self._controller()
        delta = _delta(changes=[_change(0)])
        report = ActuationReport(
            100.0, applied=(), rejected=((delta.changes[0], "no space"),)
        )
        for attempt in range(MAX_REQUEUE_ATTEMPTS - 1):
            controller.notify_actuation(report, delta)
            assert controller.tick(160.0 + attempt) is not None
        with pytest.raises(ActuationRetryExhausted, match="m0"):
            controller.notify_actuation(report, delta)
        # The failed remainder was dropped; a fresh success resets cleanly.
        ok = ActuationReport(200.0, applied=delta.changes, rejected=())
        controller.notify_actuation(ok, delta)


class TestPartialActuationCounter:
    def test_registry_counter_increments_on_partial(self):
        from repro.obs.registry import ObsRegistry
        from repro.exceptions import ResourceError

        class _Server:
            def reconfigure_movie(self, movie_id, config):
                raise ResourceError("buffer pool exhausted")

        registry = ObsRegistry()
        actuator = PlanActuator(_Server(), registry=registry)
        actuator.apply(_delta(changes=[_change()]))
        family = registry.counter(
            "repro_partial_actuations_total",
            "Deltas that landed with at least one change rejected.",
        )
        assert family.labels().value == 1.0
