"""The admission engine: paper semantics, faults, drain, control loop."""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import pytest

from repro.core.parameters import SystemConfiguration
from repro.obs.registry import ObsRegistry
from repro.obs.trace import TraceWriter
from repro.runtime.controller import (
    AllocationDelta,
    CapacityController,
    ControllerPolicy,
    MovieSlot,
)
from repro.service.clock import VirtualClock
from repro.service.engine import AdmissionEngine
from repro.service.faults import ServiceFaultConfig
from repro.service.protocol import Request
from repro.service.state import SessionPhase
from repro.vod.movie import Movie, MovieCatalog
from repro.vod.streams import StreamPurpose


def make_catalog() -> MovieCatalog:
    movies = [
        Movie(0, "hot", 100.0, popularity=0.6),
        Movie(1, "warm", 90.0, popularity=0.3),
        Movie(2, "cold", 80.0, popularity=0.07),
        Movie(3, "frozen", 70.0, popularity=0.03),
    ]
    return MovieCatalog(movies, popular_count=2)


def make_plan() -> dict[int, SystemConfiguration]:
    # movie 0: l=100, n=5, w=(100-50)/5=10, B=50
    # movie 1: l=90,  n=3, w=(90-30)/3=20,  B=30
    return {
        0: SystemConfiguration(movie_length=100.0, num_partitions=5,
                               buffer_minutes=50.0),
        1: SystemConfiguration(movie_length=90.0, num_partitions=3,
                               buffer_minutes=30.0),
    }


def make_engine(capacity=12, reserve=1, **kwargs) -> AdmissionEngine:
    return AdmissionEngine(
        make_catalog(), make_plan(), capacity,
        reserve_streams=reserve, clock=VirtualClock(), **kwargs
    )


def start(engine, session, movie, rid=0):
    return engine.handle(
        Request(request_id=rid, kind="session_start", session=session, movie=movie)
    )


def vcr(engine, session, kind="pause", duration=1.0, rid=0):
    return engine.handle(
        Request(request_id=rid, kind=kind, session=session, duration=duration)
    )


def resume(engine, session, rid=0):
    return engine.handle(Request(request_id=rid, kind="resume", session=session))


def end(engine, session, rid=0):
    return engine.handle(Request(request_id=rid, kind="session_end", session=session))


class TestAdmission:
    def test_planned_movie_batches_with_half_restart_wait(self):
        engine = make_engine()
        response = start(engine, 1, 0)
        assert response.decision == "batch"
        assert response.wait_minutes == pytest.approx(5.0)  # w/2 = 10/2

    def test_tail_movie_takes_dedicated_stream(self):
        engine = make_engine(capacity=12, reserve=1)
        # plan holds 8 playback streams; 12-8-1 reserve leaves headroom.
        response = start(engine, 1, 2)
        assert response.decision == "admit"
        assert engine.account.held_for(StreamPurpose.UNPOPULAR) == 1

    def test_tail_rejected_when_reserve_would_be_invaded(self):
        # capacity 9 = plan 8 + reserve 1: no headroom for a tail stream.
        engine = make_engine(capacity=9, reserve=1)
        response = start(engine, 1, 2)
        assert response.decision == "reject"
        assert engine.stats.rejected == 1

    def test_unknown_movie_is_error_decision(self):
        engine = make_engine()
        response = start(engine, 1, 99)
        assert response.decision == "error"
        assert "unknown movie" in response.error

    def test_duplicate_session_is_error_decision(self):
        engine = make_engine()
        start(engine, 1, 0)
        response = start(engine, 1, 1)
        assert response.decision == "error"

    def test_ping_answers_pong(self):
        engine = make_engine()
        response = engine.handle(Request(request_id=5, kind="ping"))
        assert response.decision == "pong"
        assert response.request_id == 5

    def test_plan_larger_than_capacity_rejected(self):
        with pytest.raises(Exception, match="capacity"):
            make_engine(capacity=4)


class TestVCRPhases:
    def test_phase1_acquires_stream_for_batched_viewer(self):
        engine = make_engine()
        start(engine, 1, 0)
        response = vcr(engine, 1, "pause", 2.0)
        assert response.decision == "admit"
        assert engine.account.held_for(StreamPurpose.VCR) == 1
        assert engine.registry.get(1).phase is SessionPhase.IN_VCR

    def test_phase1_starvation_denied(self):
        # capacity exactly plan + reserve: a VCR stream would invade nothing
        # but there are simply no free streams.
        engine = make_engine(capacity=8, reserve=0)
        start(engine, 1, 0)
        response = vcr(engine, 1, "rewind", 2.0)
        assert response.decision == "deny"
        assert "starvation" in response.reason

    def test_resume_hit_within_buffer_window(self):
        engine = make_engine()
        start(engine, 1, 0)
        vcr(engine, 1, "rewind", 3.0)  # displacement -3, B=50
        response = resume(engine, 1)
        assert response.decision == "hit"
        assert engine.account.held_for(StreamPurpose.VCR) == 0
        assert engine.registry.get(1).phase is SessionPhase.PLAYING

    def test_resume_miss_outside_buffer_window_pins_stream(self):
        engine = make_engine()
        start(engine, 1, 0)
        vcr(engine, 1, "fastforward", 60.0)  # displacement +60 > B=50
        response = resume(engine, 1)
        assert response.decision == "miss"
        assert response.wait_minutes == pytest.approx(10.0)  # w of movie 0
        assert engine.account.held_for(StreamPurpose.MISS_HOLD) == 1
        assert engine.registry.get(1).phase is SessionPhase.MISS_HOLD

    def test_miss_hold_expires_after_restart_interval(self):
        engine = make_engine()
        start(engine, 1, 0)
        vcr(engine, 1, "fastforward", 60.0)
        resume(engine, 1)
        engine._clock.advance_to(50.0)
        engine.handle(Request(request_id=9, kind="ping"))  # lazy expiry sweep
        assert engine.account.held_for(StreamPurpose.MISS_HOLD) == 0
        assert engine.registry.get(1).phase is SessionPhase.PLAYING

    def test_miss_while_over_committed_keeps_the_stream_pinned(self):
        engine = make_engine()
        start(engine, 1, 0)
        vcr(engine, 1, "fastforward", 60.0)
        engine.account.capacity = engine.account.in_use - 1  # unshed shrink
        assert resume(engine, 1).decision == "miss"
        assert engine.account.held_for(StreamPurpose.VCR) == 0
        assert engine.account.held_for(StreamPurpose.MISS_HOLD) == 1
        assert end(engine, 1).decision == "closed"
        assert engine.account.held_for(StreamPurpose.MISS_HOLD) == 0

    def _pinned_viewer_mid_operation(self):
        """Session 1 misses (hold until t=10), then starts another pause."""
        engine = make_engine()
        start(engine, 1, 0)
        vcr(engine, 1, "fastforward", 60.0)
        assert resume(engine, 1).decision == "miss"
        assert vcr(engine, 1, "pause", 1.0).decision == "admit"
        return engine

    def test_miss_hold_expiry_mid_operation_keeps_the_operation(self):
        engine = self._pinned_viewer_mid_operation()
        engine._clock.advance_to(50.0)
        response = resume(engine, 1)
        assert response.decision == "hit"
        assert response.reason == "degraded: rejoined the batch"
        assert engine.account.held_for(StreamPurpose.MISS_HOLD) == 0
        assert engine.registry.get(1).phase is SessionPhase.PLAYING
        assert engine.stats.vcr_denied == 0

    def test_miss_hold_shed_mid_operation_keeps_the_operation(self):
        engine = self._pinned_viewer_mid_operation()
        engine.account.revoke(1, (StreamPurpose.MISS_HOLD,))
        engine._degrade_shed_sessions()
        assert engine.registry.get(1).phase is SessionPhase.IN_VCR
        response = resume(engine, 1)
        assert response.decision == "hit"
        assert response.reason == "degraded: rejoined the batch"
        assert engine.registry.get(1).phase is SessionPhase.PLAYING
        assert engine.stats.vcr_denied == 0

    def _ping_at(self, engine, t):
        engine._clock.advance_to(t)
        engine.handle(Request(request_id=9, kind="ping"))  # lazy expiry sweep

    def test_stale_expiry_of_a_closed_session_keeps_the_reused_ids_hold(self):
        engine = make_engine()
        start(engine, 1, 0)
        vcr(engine, 1, "fastforward", 60.0)
        resume(engine, 1)  # miss at t=0: hold until t=10
        engine._clock.advance_to(1.0)
        end(engine, 1)
        engine._clock.advance_to(5.0)
        start(engine, 1, 0)
        vcr(engine, 1, "fastforward", 60.0)
        assert resume(engine, 1).decision == "miss"  # hold until t=15
        self._ping_at(engine, 10.5)
        assert engine.account.held_for(StreamPurpose.MISS_HOLD) == 1
        self._ping_at(engine, 15.0)
        assert engine.account.held_for(StreamPurpose.MISS_HOLD) == 0

    def test_stale_expiry_of_a_shed_hold_keeps_the_next_hold(self):
        engine = make_engine()
        start(engine, 1, 0)
        vcr(engine, 1, "fastforward", 60.0)
        resume(engine, 1)  # miss at t=0: hold until t=10
        engine._clock.advance_to(2.0)
        engine.account.revoke(1, (StreamPurpose.MISS_HOLD,))
        engine._degrade_shed_sessions()
        engine._clock.advance_to(5.0)
        vcr(engine, 1, "fastforward", 60.0)
        assert resume(engine, 1).decision == "miss"  # hold until t=15
        self._ping_at(engine, 10.5)
        assert engine.account.held_for(StreamPurpose.MISS_HOLD) == 1
        self._ping_at(engine, 15.0)
        assert engine.account.held_for(StreamPurpose.MISS_HOLD) == 0

    def test_dedicated_tail_session_always_resumes_in_place(self):
        engine = make_engine()
        start(engine, 1, 2)
        vcr(engine, 1, "fastforward", 79.0)
        response = resume(engine, 1)
        assert response.decision == "hit"
        assert engine.account.held_for(StreamPurpose.UNPOPULAR) == 1

    def test_concurrent_vcr_denied(self):
        engine = make_engine()
        start(engine, 1, 0)
        vcr(engine, 1, "pause", 5.0)
        assert vcr(engine, 1, "pause", 1.0).decision == "deny"

    def test_resume_without_operation_denied(self):
        engine = make_engine()
        start(engine, 1, 0)
        assert resume(engine, 1).decision == "deny"


class TestSessionEnd:
    def test_end_releases_holds_and_counts(self):
        engine = make_engine()
        start(engine, 1, 2)
        response = end(engine, 1)
        assert response.decision == "closed"
        assert engine.account.held_for(StreamPurpose.UNPOPULAR) == 0
        assert 1 not in engine.registry
        assert engine.stats.closed == 1

    def test_end_unknown_session_is_error(self):
        engine = make_engine()
        assert end(engine, 42).decision == "error"


class TestDrain:
    def test_drain_closes_all_sessions_and_emits_events(self):
        sink = io.StringIO()
        with TraceWriter(sink) as tracer:
            engine = make_engine(tracer=tracer)
            start(engine, 1, 0)
            start(engine, 2, 2)
            vcr(engine, 1, "pause", 1.0)
            closed = engine.drain(in_flight=0)
        assert closed == 2
        assert len(engine.registry) == 0
        assert engine.account.held_for(StreamPurpose.VCR) == 0
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        closed_events = [e for e in events if e["ev"] == "session_closed"]
        assert {e["session"] for e in closed_events} == {1, 2}
        assert all(e["reason"] == "drained" for e in closed_events)
        final = [e for e in events if e["ev"] == "drain_complete"]
        assert len(final) == 1
        assert final[0]["sessions_closed"] == 2

    def test_draining_engine_rejects_new_sessions(self):
        engine = make_engine()
        engine.begin_drain()
        assert start(engine, 1, 0).decision == "reject"

    def test_connection_close_releases_sessions(self):
        engine = make_engine()
        start(engine, 1, 0)
        start(engine, 2, 2)
        closed = engine.close_connection_sessions({1, 2}, reason="dropped")
        assert closed == 2
        assert engine.account.held_for(StreamPurpose.UNPOPULAR) == 0


class TestCapacityFaultDegradation:
    def test_capacity_fault_sheds_vcr_not_sessions(self):
        sink = io.StringIO()
        faults = ServiceFaultConfig(
            capacity_fault_at=10.0, capacity_fraction=0.7,
            capacity_recovery=20.0,
        )
        with TraceWriter(sink) as tracer:
            engine = make_engine(capacity=12, reserve=1, tracer=tracer,
                                 faults=faults)
            start(engine, 1, 0)
            start(engine, 2, 0)
            vcr(engine, 1, "pause", 1.0)
            vcr(engine, 2, "pause", 1.0)
            assert engine.account.held_for(StreamPurpose.VCR) == 2
            engine._clock.advance_to(10.0)
            engine.handle(Request(request_id=9, kind="ping"))
            # capacity 12 -> 8.4 -> 8; in_use was 10: shed 2 VCR holds.
            assert engine.degradation.level >= 1
            assert engine.account.held_for(StreamPurpose.VCR) == 0
            # Both viewers degraded back into the batch, neither dropped.
            assert len(engine.registry) == 2
            assert engine.stats.degraded_sessions == 2
            # Their resumes still succeed (degraded path).
            assert resume(engine, 1).decision == "hit"
            engine._clock.advance_to(31.0)
            engine.handle(Request(request_id=10, kind="ping"))
            assert engine.degradation.level == 0
            assert engine.account.capacity == 12
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        kinds = [e["ev"] for e in events]
        assert "fault_injected" in kinds
        assert "degradation_entered" in kinds
        assert "degradation_exited" in kinds

    @staticmethod
    def _replan(engine, total_streams):
        """A re-plan keeping the configurations but needing more streams."""
        return AllocationDelta(
            at_minutes=engine.now,
            configurations=make_plan(),
            changes=(),
            result=SimpleNamespace(total_streams=total_streams),
            reserve_streams=1,
            old_score=5.0,
            new_score=4.0,
            reason="test",
        )

    def test_replan_adopted_mid_fault_fits_the_faulted_account(self):
        faults = ServiceFaultConfig(
            capacity_fault_at=10.0, capacity_fraction=0.5, capacity_recovery=20.0
        )
        engine = make_engine(capacity=20, reserve=1, faults=faults)
        start(engine, 1, 0)
        start(engine, 2, 0)
        assert vcr(engine, 1, "pause", 1.0).decision == "admit"
        engine._clock.advance_to(10.0)
        engine.handle(Request(request_id=9, kind="ping"))
        account = engine.account
        assert (account.capacity, account.in_use) == (10, 9)
        # Sized against the nominal 20 streams, the plan wants 14 of them.
        engine.adopt(self._replan(engine, 14))
        assert engine.gate.planned_streams == 14
        assert account.held_for(StreamPurpose.PLAYBACK) == 9
        assert account.in_use == account.capacity
        assert vcr(engine, 2, "pause", 1.0).decision == "deny"
        # A released stream goes back to the block before the next decision.
        assert resume(engine, 1).decision == "hit"
        engine.handle(Request(request_id=10, kind="ping"))
        assert account.held_for(StreamPurpose.PLAYBACK) == 10
        assert vcr(engine, 2, "pause", 1.0).decision == "deny"
        # Recovery restores the planned block.
        engine._clock.advance_to(31.0)
        engine.handle(Request(request_id=11, kind="ping"))
        assert account.capacity == 20
        assert account.held_for(StreamPurpose.PLAYBACK) == 14
        assert vcr(engine, 2, "pause", 1.0).decision == "admit"

    def test_fault_onset_clamps_a_block_the_fault_cannot_hold(self):
        faults = ServiceFaultConfig(capacity_fault_at=10.0, capacity_fraction=0.5)
        engine = make_engine(capacity=20, reserve=1, faults=faults)
        engine.adopt(self._replan(engine, 16))
        assert engine.account.held_for(StreamPurpose.PLAYBACK) == 16
        engine._clock.advance_to(10.0)
        engine.handle(Request(request_id=9, kind="ping"))
        assert engine.account.held_for(StreamPurpose.PLAYBACK) == 10
        assert engine.account.in_use == engine.account.capacity
        # The tail gate still counts the unfilled six streams as committed.
        response = start(engine, 3, 2)
        assert response.decision == "reject"
        assert "6 unfilled playback" in response.reason


class TestControlLoop:
    def _engine_with_controller(self, fail_first=0):
        engine = make_engine(
            capacity=20, reserve=2, tick_minutes=30.0,
            faults=ServiceFaultConfig(actuation_failures=fail_first),
        )
        slots = [
            MovieSlot(movie_id=0, name="hot", length=100.0, max_wait=10.0,
                      p_star=0.5),
            MovieSlot(movie_id=1, name="warm", length=90.0, max_wait=20.0,
                      p_star=0.5),
        ]
        controller = CapacityController(
            slots, engine.hub,
            policy=ControllerPolicy(stream_budget=18, cooldown_minutes=30.0),
        )
        engine.attach_controller(controller)
        return engine

    def test_ticks_run_on_cadence(self):
        engine = self._engine_with_controller()
        for i in range(5):
            start(engine, i, 0)
            end(engine, i)
        engine._clock.advance_to(40.0)
        engine.handle(Request(request_id=9, kind="ping"))
        assert engine.control_loop.ticks_run >= 1

    def test_actuation_fault_opens_breaker_and_coasts(self):
        engine = self._engine_with_controller(fail_first=10)
        planned_before = engine.gate.planned_streams
        for tick in range(1, 7):
            for i in range(3):
                session = tick * 10 + i
                start(engine, session, 0)
                end(engine, session)
            engine._clock.advance_to(tick * 35.0)
            engine.handle(Request(request_id=9, kind="ping"))
        loop = engine.control_loop
        # Failures were absorbed (no exception reached a request) and the
        # deployed plan never changed.
        assert engine.actuator.applied == 0
        assert engine.gate.planned_streams == planned_before
        assert loop.failures + loop.ticks_coasted + loop.ticks_run > 0
        assert engine.stats.errors == 0


class TestDecisionLogAndMetrics:
    def test_decision_log_is_deterministic_jsonl(self):
        logs = []
        for _ in range(2):
            sink = io.StringIO()
            engine = make_engine(decision_log=sink)
            start(engine, 1, 0)
            vcr(engine, 1, "pause", 1.0)
            resume(engine, 1)
            end(engine, 1)
            logs.append(sink.getvalue())
        assert logs[0] == logs[1]
        records = [json.loads(line) for line in logs[0].splitlines()]
        assert [r["seq"] for r in records] == list(range(4))
        assert records[0]["decision"] == "batch"

    def test_decisions_counter_labelled_by_outcome(self):
        registry = ObsRegistry()
        engine = make_engine(registry=registry)
        start(engine, 1, 0)
        start(engine, 2, 2)
        end(engine, 2)
        counter = registry.counter(
            "repro_service_decisions_total", labelnames=("decision",)
        )
        assert counter.labels("batch").value == 1
        assert counter.labels("admit").value == 1
        assert counter.labels("closed").value == 1

    def test_trace_events_cover_request_and_decision(self):
        sink = io.StringIO()
        with TraceWriter(sink) as tracer:
            engine = make_engine(tracer=tracer)
            start(engine, 1, 0)
            end(engine, 1)
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        kinds = [e["ev"] for e in events]
        assert kinds.count("request_received") == 2
        assert kinds.count("admission_decision") == 2
        assert kinds.count("session_closed") == 1
