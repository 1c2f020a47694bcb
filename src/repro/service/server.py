"""The asyncio front-end of the admission service.

:class:`AdmissionService` owns the sockets and nothing else: it reads
JSON-line requests, guards them with the
:class:`~repro.service.backpressure.InflightLimiter`, awaits the synchronous
:class:`~repro.service.engine.AdmissionEngine` decision, and writes the
response line — one task per connection, many logical sessions multiplexed
per connection by request id.

Failure handling is deliberately boring:

* a malformed line gets an ``error`` response, not a dropped connection;
* a request past the in-flight cap gets an immediate ``backpressure``
  response;
* a vanished or stalled client (including the injected kinds from
  :class:`~repro.service.faults.ServiceFaultConfig`) has its sessions closed
  gracefully through the engine so the stream books stay balanced;
* shutdown drains — the listener closes first, in-flight requests finish,
  open sessions close with reason ``drained`` and ``drain_complete`` is
  emitted — so a trace from a SIGTERM'd server still validates.

All timing here flows through the service clock: decision timestamps use
``clock.now()`` (virtual minutes), latency measurements use
``clock.seconds()`` (monotonic wall seconds under :class:`WallClock`).
"""

from __future__ import annotations

import asyncio

from repro.exceptions import ProtocolError
from repro.obs.log import get_logger
from repro.service.backpressure import InflightLimiter
from repro.service.engine import AdmissionEngine
from repro.service.protocol import (
    ADMIN_KINDS,
    Response,
    decode_request,
    encode_response,
)

__all__ = ["AdmissionService"]

_log = get_logger("service.server")

#: Largest accepted request line, in bytes (a sane JSON request is ~100 B).
MAX_LINE_BYTES = 4096

#: Wall seconds a shutdown waits for in-flight requests before closing sessions.
DRAIN_GRACE_SECONDS = 5.0


class AdmissionService:
    """Asyncio TCP server wrapping one :class:`AdmissionEngine`."""

    def __init__(
        self,
        engine: AdmissionEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 1024,
        registry=None,
        tracer=None,
    ) -> None:
        self._engine = engine
        self._host = host
        self._port = port
        self._clock = engine._clock
        self.limiter = InflightLimiter(
            max_in_flight, registry=registry, tracer=tracer
        )
        self._latency = None
        if registry is not None:
            self._latency = registry.histogram(
                "repro_service_request_latency_seconds",
                "wall seconds from request read to response write",
            )
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._connection_count = 0
        self.requests_served = 0
        self.connections_dropped = 0
        self.connections_stalled = 0
        self.draining = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        if self._server is None:
            return self._port
        sockets = self._server.sockets or ()
        for sock in sockets:
            return int(sock.getsockname()[1])
        return self._port

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection,
            host=self._host,
            port=self._port,
            limit=MAX_LINE_BYTES,
        )
        _log.info("admission service listening on %s:%d", self._host, self.port)

    async def serve_forever(self) -> None:
        """Block until the server is closed."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> int:
        """Graceful drain: stop accepting, finish in-flight, close sessions.

        Returns the number of sessions closed by the drain.
        """
        self.draining = True
        self._engine.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = self._clock.seconds() + DRAIN_GRACE_SECONDS
        while self.limiter.in_flight > 0 and self._clock.seconds() < deadline:
            await asyncio.sleep(0.01)
        closed = self._engine.drain(in_flight=self.limiter.in_flight)
        for writer in list(self._connections):
            self._abort_writer(writer)
        _log.info("drain complete: %d sessions closed", closed)
        return closed

    # ------------------------------------------------------------------
    # The connection loop.
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connection_count += 1
        connection_index = self._connection_count
        faults = self._engine._faults
        session_ids: set[int] = set()
        self._connections.add(writer)
        try:
            while not self.draining:
                try:
                    line = await reader.readline()
                except (
                    ConnectionResetError,
                    BrokenPipeError,
                    asyncio.LimitOverrunError,
                    ValueError,
                ):
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                await self._serve_line(text, writer, session_ids)
                if faults.any_connection_faults and self._fault_hits(
                    faults, connection_index, session_ids
                ):
                    break
        finally:
            self._connections.discard(writer)
            if session_ids:
                # The peer vanished with sessions open: close them through
                # the engine so held streams return to the pool.
                self._engine.close_connection_sessions(session_ids, "dropped")
            self._abort_writer(writer)

    def _fault_hits(
        self,
        faults,
        connection_index: int,
        session_ids: set[int],
    ) -> bool:
        """Apply any scheduled connection fault; True severs the connection.

        Called after each answered request, so a scheduled connection is
        severed right after its first one.
        """
        if faults.drops_connection(connection_index):
            self.connections_dropped += 1
            self._engine.close_connection_sessions(session_ids, "dropped")
            session_ids.clear()
            _log.warning("injected drop: severing connection %d", connection_index)
            return True
        if faults.stalls_connection(connection_index):
            self.connections_stalled += 1
            self._engine.close_connection_sessions(session_ids, "stalled")
            session_ids.clear()
            _log.warning(
                "slow-client guard: closing stalled connection %d", connection_index
            )
            return True
        return False

    async def _serve_line(
        self, text: str, writer: asyncio.StreamWriter, session_ids: set[int]
    ) -> None:
        started = self._clock.seconds()
        if not self.limiter.try_enter("unparsed", self._engine.now):
            response = Response(
                request_id=0,
                kind="ping",
                session=-1,
                decision="backpressure",
                reason="in-flight limit reached; retry",
            )
            await self._write(writer, response)
            return
        # Anything the limiter (or the event loop) made the request wait for
        # between read and dispatch is queue time, charged to the request's
        # trace context rather than folded into engine time.
        queue_wait = self._clock.seconds() - started
        try:
            try:
                request = decode_request(text)
            except ProtocolError as exc:
                response = Response(
                    request_id=0,
                    kind="ping",
                    session=-1,
                    decision="error",
                    reason="protocol error",
                    error=str(exc),
                )
            else:
                context = None
                if request.kind not in ADMIN_KINDS:
                    # Admin verbs (metrics/health) bypass the decision
                    # pipeline entirely; minting would burn trace ids and
                    # shift every later request's id relative to a
                    # scrape-free run.
                    context = self._engine.mint_context(
                        received_seconds=started, queue_wait_seconds=queue_wait
                    )
                response = self._engine.handle(request, context=context)
                self.requests_served += 1
                if request.kind == "session_start" and response.decision in (
                    "admit",
                    "batch",
                ):
                    session_ids.add(request.session)
                elif request.kind == "session_end":
                    session_ids.discard(request.session)
            await self._write(writer, response)
        finally:
            self.limiter.exit()
            if self._latency is not None:
                self._latency.observe(self._clock.seconds() - started)

    async def _write(self, writer: asyncio.StreamWriter, response: Response) -> None:
        try:
            writer.write((encode_response(response) + "\n").encode("utf-8"))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    def _abort_writer(self, writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except OSError:  # pragma: no cover - platform-specific teardown
            pass
