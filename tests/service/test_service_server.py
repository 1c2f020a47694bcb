"""The asyncio front-end: protocol, backpressure, drain, connection faults."""

from __future__ import annotations

import asyncio
import io
import json

from repro.core.parameters import SystemConfiguration
from repro.obs.trace import TraceWriter
from repro.service.clock import VirtualClock
from repro.service.engine import AdmissionEngine
from repro.service.faults import ServiceFaultConfig
from repro.service.server import AdmissionService
from repro.vod.movie import Movie, MovieCatalog


def make_catalog() -> MovieCatalog:
    movies = [
        Movie(0, "hot", 100.0, popularity=0.6),
        Movie(1, "warm", 90.0, popularity=0.3),
        Movie(2, "cold", 80.0, popularity=0.07),
        Movie(3, "frozen", 70.0, popularity=0.03),
    ]
    return MovieCatalog(movies, popular_count=2)


def make_plan() -> dict[int, SystemConfiguration]:
    return {
        0: SystemConfiguration(movie_length=100.0, num_partitions=5,
                               buffer_minutes=50.0),
        1: SystemConfiguration(movie_length=90.0, num_partitions=3,
                               buffer_minutes=30.0),
    }


def make_service(tracer=None, faults=None, max_in_flight=64, **engine_kwargs):
    engine = AdmissionEngine(
        make_catalog(), make_plan(), 12, reserve_streams=1,
        clock=VirtualClock(), tracer=tracer,
        faults=faults or ServiceFaultConfig(), **engine_kwargs,
    )
    return AdmissionService(
        engine, host="127.0.0.1", port=0,
        max_in_flight=max_in_flight, tracer=tracer,
    )


async def send_lines(port, lines):
    """Send raw lines on one connection; returns the decoded response objs."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    try:
        for line in lines:
            writer.write((line + "\n").encode())
            await writer.drain()
            raw = await asyncio.wait_for(reader.readline(), timeout=5.0)
            if not raw:
                responses.append(None)  # server severed the connection
                break
            responses.append(json.loads(raw))
    finally:
        writer.close()
    return responses


class TestRequestResponse:
    def test_session_lifecycle_over_tcp(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                return await send_lines(service.port, [
                    '{"id": 1, "kind": "session_start", "session": 5, "movie": 0}',
                    '{"id": 2, "kind": "pause", "session": 5, "duration": 1.5}',
                    '{"id": 3, "kind": "resume", "session": 5}',
                    '{"id": 4, "kind": "session_end", "session": 5}',
                ])
            finally:
                await service.shutdown()

        responses = asyncio.run(scenario())
        assert [r["decision"] for r in responses] == [
            "batch", "admit", "hit", "closed"
        ]
        assert [r["id"] for r in responses] == [1, 2, 3, 4]

    def test_malformed_line_gets_error_not_disconnect(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                return await send_lines(service.port, [
                    "this is not json",
                    '{"id": 2, "kind": "ping"}',
                ])
            finally:
                await service.shutdown()

        responses = asyncio.run(scenario())
        assert responses[0]["decision"] == "error"
        assert "invalid JSON" in responses[0]["error"]
        # The connection survived the bad line.
        assert responses[1]["decision"] == "pong"

    def test_unknown_kind_gets_error_response(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                return await send_lines(service.port, [
                    '{"id": 1, "kind": "explode", "session": 1}',
                ])
            finally:
                await service.shutdown()

        responses = asyncio.run(scenario())
        assert responses[0]["decision"] == "error"


class TestBackpressure:
    def test_full_queue_rejects_with_typed_response_and_event(self):
        sink = io.StringIO()

        async def scenario(tracer):
            service = make_service(tracer=tracer, max_in_flight=2)
            await service.start()
            try:
                # Fill the in-flight window synchronously (deterministic):
                # the real race needs slow handlers; the limiter is the gate.
                assert service.limiter.try_enter("session_start", 0.0)
                assert service.limiter.try_enter("session_start", 0.0)
                return await send_lines(service.port, [
                    '{"id": 9, "kind": "ping"}',
                ])
            finally:
                service.limiter.exit()
                service.limiter.exit()
                await service.shutdown()

        with TraceWriter(sink) as tracer:
            responses = asyncio.run(scenario(tracer))
        assert responses[0]["decision"] == "backpressure"
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        rejects = [e for e in events if e["ev"] == "backpressure_reject"]
        assert len(rejects) == 1
        assert rejects[0]["limit"] == 2


class TestGracefulDrain:
    def test_drain_closes_in_flight_sessions_and_emits_drain_complete(self):
        sink = io.StringIO()

        async def scenario(tracer):
            service = make_service(tracer=tracer)
            await service.start()
            responses = await send_lines(service.port, [
                '{"id": 1, "kind": "session_start", "session": 1, "movie": 0}',
                '{"id": 2, "kind": "session_start", "session": 2, "movie": 2}',
            ])
            closed = await service.shutdown()
            return responses, closed

        with TraceWriter(sink) as tracer:
            responses, closed = asyncio.run(scenario(tracer))
        assert [r["decision"] for r in responses] == ["batch", "admit"]
        assert closed == 2
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        drains = [e for e in events if e["ev"] == "drain_complete"]
        assert len(drains) == 1
        assert drains[0]["sessions_closed"] == 2
        assert drains[0]["in_flight"] == 0
        reasons = {
            e["reason"] for e in events if e["ev"] == "session_closed"
        }
        assert reasons == {"drained"}

    def test_draining_server_rejects_new_sessions(self):
        async def scenario():
            service = make_service()
            await service.start()
            port = service.port
            # Start the drain first, then connect: the listener is closed,
            # so the connection itself must fail.
            await service.shutdown()
            try:
                await asyncio.open_connection("127.0.0.1", port)
            except OSError:
                return True
            return False

        assert asyncio.run(scenario())


class TestConnectionFaults:
    def test_injected_drop_severs_connection_but_service_survives(self):
        faults = ServiceFaultConfig(drop_every=1)

        async def scenario():
            service = make_service(faults=faults)
            await service.start()
            try:
                # Movie 2 is unpopular: its session holds a dedicated stream.
                first = await send_lines(service.port, [
                    '{"id": 1, "kind": "session_start", "session": 1, "movie": 2}',
                    '{"id": 2, "kind": "ping"}',
                ])
                # A fresh connection still works; it too is answered once
                # before its own scheduled drop.
                second = await send_lines(service.port, [
                    '{"id": 9, "kind": "ping"}',
                    '{"id": 10, "kind": "ping"}',
                ])
                return first, second, service
            finally:
                await service.shutdown()

        first, second, service = asyncio.run(scenario())
        # The first request is answered, then the injected drop severs the
        # socket.
        assert first[0]["decision"] == "admit"
        assert first[1] is None
        assert second[0]["decision"] == "pong"
        assert second[1] is None
        assert service.connections_dropped == 2
        # The dropped connection's session was closed gracefully: its stream
        # went back to the pool, nothing leaked, nothing raised.
        engine = service._engine
        assert len(engine.registry) == 0
        assert engine.account.in_use == 8  # plan block only

    def test_injected_stall_closes_slow_client_gracefully(self):
        sink = io.StringIO()
        faults = ServiceFaultConfig(stall_every=1)

        async def scenario(tracer):
            service = make_service(tracer=tracer, faults=faults)
            await service.start()
            try:
                responses = await send_lines(service.port, [
                    '{"id": 1, "kind": "session_start", "session": 1, "movie": 0}',
                    '{"id": 2, "kind": "ping"}',
                ])
                return responses, service
            finally:
                await service.shutdown()

        with TraceWriter(sink) as tracer:
            responses, service = asyncio.run(scenario(tracer))
        assert responses[0]["decision"] == "batch"
        assert responses[1] is None  # guard closed the stalled connection
        assert service.connections_stalled == 1
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        stalled = [
            e for e in events
            if e["ev"] == "session_closed" and e["reason"] == "stalled"
        ]
        assert [e["session"] for e in stalled] == [1]
