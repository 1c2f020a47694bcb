"""DES engine: event ordering, processes, timeouts, interrupts, conditions."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import SystemConfiguration
from repro.exceptions import SimulationError
from repro.sim.engine import AllOf, AnyOf, Environment, Event, Interrupt, Timeout
from repro.sim.metrics import MetricsRegistry
from repro.sim.resources import Resource
from repro.vod.movie import Movie
from repro.vod.partitioning import MovieService
from repro.vod.streams import StreamPool


class TestEventBasics:
    def test_succeed_delivers_value(self):
        env = Environment()
        event = env.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.succeed("payload")
        env.run()
        assert seen == ["payload"]

    def test_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_processing_runs_immediately(self):
        env = Environment()
        event = env.event()
        event.succeed(7)
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value


class TestClock:
    def test_timeouts_advance_clock(self):
        env = Environment()
        times = []

        def proc():
            yield env.timeout(5.0)
            times.append(env.now)
            yield env.timeout(2.5)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [5.0, 7.5]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(self, delay):
        env = Environment()
        with pytest.raises(SimulationError, match="finite"):
            env.timeout(delay)

    def test_nan_timeout_does_not_stop_the_run_silently(self):
        # Queued, a NaN entry at the heap top would end run() at once and
        # silently, with every other process unrun and the clock at 0.
        env = Environment()
        done = []

        def proc(delay):
            yield env.timeout(delay)
            done.append(delay)

        for delay in (math.nan, 1.0, 2.0, 3.0):
            env.process(proc(delay))
        with pytest.raises(SimulationError, match="finite"):
            env.run()

    def test_run_until_time_stops_exactly(self):
        env = Environment()

        def proc():
            while True:
                yield env.timeout(1.0)

        env.process(proc())
        env.run(until=10.5)
        assert env.now == 10.5

    def test_run_until_past_time_rejected(self):
        env = Environment()
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_peek_empty_queue(self):
        assert Environment().peek() == math.inf

    def test_step_empty_queue_rejected(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_same_time_fifo_order(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcesses:
    def test_process_return_value(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            return 42

        result = env.run(until=env.process(proc()))
        assert result == 42

    def test_process_waits_for_process(self):
        env = Environment()
        log = []

        def child():
            yield env.timeout(3.0)
            log.append(("child-done", env.now))
            return "child-value"

        def parent():
            value = yield env.process(child())
            log.append(("parent-resumed", env.now, value))

        env.process(parent())
        env.run()
        assert log == [("child-done", 3.0), ("parent-resumed", 3.0, "child-value")]

    def test_yield_non_event_rejected(self):
        env = Environment()

        def bad():
            yield 42  # type: ignore[misc]

        env.process(bad())
        with pytest.raises(SimulationError, match="must yield events"):
            env.run()

    def test_yield_already_processed_event(self):
        env = Environment()
        fired = env.event()
        fired.succeed("early")
        log = []

        def proc():
            yield env.timeout(1.0)
            value = yield fired  # already processed by now
            log.append((env.now, value))

        env.process(proc())
        env.run()
        assert log == [(1.0, "early")]

    def test_run_until_event_that_never_fires(self):
        env = Environment()
        with pytest.raises(SimulationError, match="ran out of events"):
            env.run(until=env.event())

    def test_failed_event_raises_in_process(self):
        env = Environment()
        boom = env.event()
        caught = []

        def proc():
            try:
                yield boom
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(proc())
        boom.fail(RuntimeError("boom"))
        env.run()
        assert caught == ["boom"]


class TestInterrupts:
    def test_interrupt_reaches_generator(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                log.append((env.now, interrupt.cause))

        target = env.process(sleeper())

        def interrupter():
            yield env.timeout(5.0)
            target.interrupt("wake up")

        env.process(interrupter())
        env.run()
        assert log == [(5.0, "wake up")]

    def test_interrupted_process_can_continue(self):
        env = Environment()
        log = []

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupt:
                pass
            yield env.timeout(1.0)
            log.append(env.now)

        target = env.process(sleeper())

        def interrupter():
            yield env.timeout(5.0)
            target.interrupt()

        env.process(interrupter())
        env.run()
        assert log == [6.0]

    def test_unhandled_interrupt_fails_process(self):
        env = Environment()

        def sleeper():
            yield env.timeout(100.0)

        target = env.process(sleeper())

        def interrupter():
            yield env.timeout(1.0)
            target.interrupt("die")

        env.process(interrupter())
        env.run()
        assert target.processed and not target.ok

    def test_interrupt_finished_process_rejected(self):
        env = Environment()

        def quick():
            yield env.timeout(1.0)

        target = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            target.interrupt()


class TestConditions:
    def test_all_of_waits_for_all(self):
        env = Environment()
        log = []

        def proc():
            yield AllOf(env, [env.timeout(3.0), env.timeout(7.0)])
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [7.0]

    def test_any_of_fires_on_first(self):
        env = Environment()
        log = []

        def proc():
            yield AnyOf(env, [env.timeout(3.0), env.timeout(7.0)])
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [3.0]

    def test_empty_all_of_fires_immediately(self):
        env = Environment()
        condition = AllOf(env, [])
        env.run()
        assert condition.processed


@settings(max_examples=40, deadline=None)
@given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
def test_events_process_in_time_order(delays):
    """Causality: processing order is sorted by scheduled time."""
    env = Environment()
    seen = []
    for delay in delays:
        env.timeout(delay).add_callback(lambda e, d=delay: seen.append(d))
    env.run()
    assert seen == sorted(delays)
    assert env.now == max(delays)


class TestUnqueuedEvents:
    """Events nobody can wait on are settled in place, never queued."""

    def test_unwatched_finished_process_resumes_a_later_waiter(self):
        env = Environment()
        log = []

        def child():
            yield env.timeout(1.0)
            return "child-value"

        def parent(target):
            yield env.timeout(5.0)
            assert target.processed  # finished at 1.0 with nobody waiting
            value = yield target
            log.append((env.now, value))

        target = env.process(child())
        env.process(parent(target))
        env.run(until=1.0)
        assert target.processed and target.ok and target.value == "child-value"
        assert not target.is_alive
        env.run()
        assert log == [(5.0, "child-value")]

    def test_unwatched_finished_process_queues_nothing(self, monkeypatch):
        steps = _count_steps(monkeypatch)
        env = Environment()

        def child():
            yield env.timeout(1.0)

        target = env.process(child())
        env.run()
        assert target.processed and env.now == 1.0
        assert len(steps) == 2  # the bootstrap and the timeout

    def test_try_request_grant_is_not_queued(self):
        env = Environment()
        resource = Resource(env, 1)
        request = resource.try_request()
        assert request is not None and request.granted
        assert request.triggered and request.processed and request.value is request
        assert env.peek() == math.inf
        assert resource.try_request() is None

        log = []

        def holder():
            granted = yield request  # already processed: resumes at once
            log.append((env.now, granted is request))

        env.process(holder())
        env.run()
        assert log == [(0.0, True)]

    def test_restart_without_queued_viewer_schedules_nothing(self):
        env = Environment()
        service = _movie_service(env)
        signal = service.wait_for_restart()
        stream = service._attempt_restart()
        assert stream is not None and stream.grant is not None
        assert env.peek() == math.inf
        assert service.wait_for_restart() is signal and not signal.triggered

    def test_viewer_queued_after_an_unwatched_restart_wakes_at_the_next(self):
        env = Environment()
        service = _movie_service(env)
        service.start()  # restarts every 20 minutes, the first at 0
        env.run(until=1.0)
        log = []

        def viewer():
            stream = yield service.wait_for_restart()
            log.append((env.now, stream))

        env.process(viewer())
        env.run(until=30.0)
        assert [when for when, _ in log] == [20.0]
        stream = log[0][1]
        assert stream.start_time == 20.0
        assert stream is service.live_streams[-1]


def _movie_service(env: Environment) -> MovieService:
    """A 120-minute movie restarted every 20 minutes (n = 6), ample streams."""
    metrics = MetricsRegistry()
    return MovieService(
        env, Movie(0, "m", 120.0, popularity=1.0),
        SystemConfiguration(120.0, 6, 60.0), StreamPool(env, 10, metrics), metrics,
    )


def _count_steps(monkeypatch) -> list[float]:
    """Wrap ``Environment.step`` to record the clock at each call."""
    calls: list[float] = []
    original = Environment.step

    def counting_step(self):
        calls.append(self.now)
        return original(self)

    monkeypatch.setattr(Environment, "step", counting_step)
    return calls


def test_run_dispatches_every_event_through_step(monkeypatch):
    """``run`` calls ``step`` once per event, so wrapping ``step`` counts events."""
    calls = _count_steps(monkeypatch)
    env = Environment()
    fired = []
    for delay in (3.0, 1.0, 2.0, 5.0):
        env.timeout(delay).add_callback(lambda e: fired.append(env.now))
    env.run(until=2.5)
    assert len(calls) == 2 and fired == [1.0, 2.0]
    env.run()
    assert len(calls) == 4 and fired == [1.0, 2.0, 3.0, 5.0]
    assert env.run(until=env.timeout(1.0, "done")) == "done"
    assert len(calls) == 5
