"""Live telemetry through the engine: admin verbs, v4 tracing, SLO arming."""

from __future__ import annotations

import io
import json

import pytest

from repro.core.parameters import SystemConfiguration
from repro.obs.registry import ObsRegistry
from repro.obs.scrape import parse_exposition
from repro.obs.slo import SLOConfig
from repro.obs.trace import TraceWriter, read_trace
from repro.service.clock import VirtualClock
from repro.service.engine import AdmissionEngine
from repro.service.faults import ServiceFaultConfig
from repro.service.protocol import Request
from repro.vod.movie import Movie, MovieCatalog
from repro.vod.streams import StreamPurpose


def make_engine(capacity=12, reserve=1, **kwargs) -> AdmissionEngine:
    movies = [
        Movie(0, "hot", 100.0, popularity=0.6),
        Movie(1, "warm", 90.0, popularity=0.3),
        Movie(2, "cold", 80.0, popularity=0.07),
        Movie(3, "frozen", 70.0, popularity=0.03),
    ]
    plan = {
        0: SystemConfiguration(movie_length=100.0, num_partitions=5,
                               buffer_minutes=50.0),
        1: SystemConfiguration(movie_length=90.0, num_partitions=3,
                               buffer_minutes=30.0),
    }
    return AdmissionEngine(
        MovieCatalog(movies, popular_count=2), plan, capacity,
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


def end(engine, session, rid=0):
    return engine.handle(Request(request_id=rid, kind="session_end", session=session))


def scrape(engine, kind="metrics", format=None, rid=99):
    return engine.handle(Request(request_id=rid, kind=kind, format=format))


def trace_events(sink: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class TestAdminVerbs:
    def test_metrics_verb_serves_a_parseable_exposition(self):
        engine = make_engine(registry=ObsRegistry())
        start(engine, 1, 0)
        response = scrape(engine)
        assert response.decision == "ok"
        exposition = parse_exposition(response.body)
        assert exposition.value(
            "repro_service_decisions_total", decision="batch"
        ) == 1.0

    def test_metrics_verb_serves_json_format(self):
        engine = make_engine(registry=ObsRegistry())
        start(engine, 1, 0)
        response = scrape(engine, format="json")
        assert response.decision == "ok"
        assert "repro_service_decisions_total" in json.dumps(
            json.loads(response.body)
        )

    def test_health_verb_reports_engine_state(self):
        engine = make_engine(registry=ObsRegistry(), slo=SLOConfig())
        start(engine, 1, 0)
        response = scrape(engine, kind="health")
        snapshot = json.loads(response.body)
        assert snapshot["status"] == "ok"
        assert snapshot["open_sessions"] == 1
        assert snapshot["streams"]["capacity"] == 12
        assert snapshot["slo"]["p99_latency"]["severity"] == "ok"

    def test_admin_verbs_error_without_a_registry(self):
        engine = make_engine()  # no registry -> no scrape endpoint
        response = scrape(engine)
        assert response.decision == "error"
        assert response.reason == "telemetry disabled"
        assert response.body is None

    def test_admin_verbs_stay_outside_the_decision_pipeline(self):
        sink = io.StringIO()
        log = io.StringIO()
        with TraceWriter(sink) as tracer:
            engine = make_engine(
                registry=ObsRegistry(), tracer=tracer, decision_log=log
            )
            scrape(engine)
            scrape(engine, kind="health")
        assert engine.stats.requests == 0
        assert sink.getvalue() == ""
        assert log.getvalue() == ""
        assert engine.scrape.scrapes_served == 2


class TestRequestTracing:
    def test_trace_ids_are_sequential_per_engine(self):
        sink = io.StringIO()
        with TraceWriter(sink) as tracer:
            engine = make_engine(tracer=tracer)
            start(engine, 1, 0)
            vcr(engine, 1, "pause", 1.0)
            end(engine, 1)
        received = [
            e for e in trace_events(sink) if e["ev"] == "request_received"
        ]
        assert [e["trace_id"] for e in received] == [
            "req-000000", "req-000001", "req-000002"
        ]

    def test_decision_carries_gate_parent_span_for_session_start(self):
        sink = io.StringIO()
        with TraceWriter(sink) as tracer:
            engine = make_engine(tracer=tracer)
            start(engine, 1, 0)
        (decision,) = [
            e for e in trace_events(sink) if e["ev"] == "admission_decision"
        ]
        assert decision["trace_id"] == "req-000000"
        assert decision["parent_span"] == "req-000000:gate"

    def test_non_screened_kinds_decide_under_the_root_span(self):
        sink = io.StringIO()
        with TraceWriter(sink) as tracer:
            engine = make_engine(tracer=tracer)
            start(engine, 1, 0)
            end(engine, 1)
        decisions = [
            e for e in trace_events(sink) if e["ev"] == "admission_decision"
        ]
        assert decisions[1]["kind"] == "session_end"
        assert decisions[1]["parent_span"] == "req-000001:root"

    def test_virtual_clock_latencies_are_exactly_zero(self):
        sink = io.StringIO()
        with TraceWriter(sink) as tracer:
            engine = make_engine(tracer=tracer)
            start(engine, 1, 0)
        (decision,) = [
            e for e in trace_events(sink) if e["ev"] == "admission_decision"
        ]
        assert decision["queue_wait"] == 0.0
        assert decision["engine_time"] == 0.0

    def test_externally_minted_context_carries_queue_wait(self):
        sink = io.StringIO()
        with TraceWriter(sink) as tracer:
            engine = make_engine(tracer=tracer)
            context = engine.mint_context(queue_wait_seconds=30.0)
            engine.handle(
                Request(request_id=0, kind="session_start", session=1, movie=0),
                context=context,
            )
        (decision,) = [
            e for e in trace_events(sink) if e["ev"] == "admission_decision"
        ]
        assert decision["queue_wait"] == pytest.approx(0.5)  # minutes

    def test_emitted_trace_validates_as_v4(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as tracer:
            engine = make_engine(tracer=tracer)
            start(engine, 1, 0)
            end(engine, 1)
        events = list(read_trace(path))  # raises on schema violations
        assert {e["ev"] for e in events} >= {
            "request_received", "admission_decision", "session_closed"
        }


class TestScrapeDeterminism:
    """Interleaved scrapes must not shift the deterministic trace."""

    def _run(self, with_scrapes: bool) -> tuple[str, str]:
        sink = io.StringIO()
        log = io.StringIO()
        with TraceWriter(sink) as tracer:
            engine = make_engine(
                registry=ObsRegistry(), tracer=tracer, decision_log=log,
                slo=SLOConfig(),
            )
            start(engine, 1, 0)
            if with_scrapes:
                scrape(engine)
                scrape(engine, kind="health")
            vcr(engine, 1, "pause", 1.0)
            if with_scrapes:
                scrape(engine, format="json")
            end(engine, 1)
        return sink.getvalue(), log.getvalue()

    def test_traces_and_decision_logs_are_byte_identical(self):
        quiet_trace, quiet_log = self._run(with_scrapes=False)
        scraped_trace, scraped_log = self._run(with_scrapes=True)
        assert quiet_trace == scraped_trace
        assert quiet_log == scraped_log


class TestSLOSheddingUnderFault:
    def test_latency_fault_pages_and_sheds_interaction_streams(self):
        sink = io.StringIO()
        with TraceWriter(sink) as tracer:
            engine = make_engine(
                capacity=20,
                registry=ObsRegistry(),
                tracer=tracer,
                faults=ServiceFaultConfig(
                    latency_fault_at=0.0, latency_fault_seconds=5.0
                ),
                slo=SLOConfig(latency_threshold_seconds=0.5, min_samples=10),
            )
            for session in range(1, 9):
                start(engine, session, 0)
            vcr(engine, 1, "pause", 30.0)
            # Nine faulted decisions so far: one short of min_samples.
            assert engine.stats.degraded_sessions == 0
            vcr(engine, 2, "pause", 30.0)
            held_before_shed = 2
            # The 10th faulted decision crosses min_samples: the page fires
            # and the engine sheds half the held interaction streams.
            assert engine.stats.degraded_sessions == 1
            assert engine.account.held_for(StreamPurpose.VCR) == held_before_shed - 1

        alerts = [e for e in trace_events(sink) if e["ev"] == "slo_alert"]
        assert [(a["objective"], a["severity"], a["breaching"]) for a in alerts] == [
            ("p99_latency", "page", True)
        ]
        assert alerts[0]["trace_id"] == "req-000009"

        exposition = parse_exposition(engine.scrape.metrics())
        assert exposition.value(
            "repro_slo_alerts_total", objective="p99_latency", severity="page"
        ) == 1.0
        assert exposition.value(
            "repro_slo_breaching", objective="p99_latency"
        ) == 1.0
