"""The admission engine: one request in, one decision out.

This is the synchronous decision core the asyncio front-end awaits into —
all service semantics live here so the deterministic virtual-clock path and
the live TCP path share one brain:

* **Admission** — arrivals are screened by the *unmodified*
  :class:`~repro.runtime.admission.RuntimeAdmissionGate` against the live
  :class:`~repro.service.state.StreamAccount`: a planned movie's session
  joins its batch (decision ``batch`` with the configured restart wait), a
  tail session takes a dedicated stream only when the free pool still covers
  the plan's commitments plus the Erlang VCR reserve (``admit``/``reject``).
* **VCR interactions** — phase 1 (``pause``/``rewind``/``fastforward``)
  needs a free stream for batched viewers (``admit``/``deny``); ``resume``
  is the phase-2 decision: the accumulated displacement is compared against
  the movie's buffer window ``B`` (``hit``) or the stream stays pinned as a
  miss hold until the next restart interval passes (``miss``).
* **Re-planning** — completed sessions feed the
  :class:`~repro.runtime.telemetry.TelemetryHub`; every ``tick_minutes`` of
  service time a :class:`~repro.runtime.controller.CapacityController` runs
  under the :class:`~repro.runtime.circuit.GuardedControlLoop`, and accepted
  deltas re-point the gate, the planned stream block and the per-movie
  configurations.  Actuation failures trip the circuit breaker; the service
  coasts on the last-good plan instead of crashing.
* **Degradation** — a capacity fault shrinks the account; the *unmodified*
  :class:`~repro.vod.degradation.DegradationManager` sheds phase-1/phase-2
  holds (``shed_vcr``), the owning sessions degrade to plain playback
  instead of dropping, the planned playback block shrinks to what the
  faulted account can hold, and recovery unwinds the levels and restores
  the block.

Every decision is appended to the **decision log** (JSONL, sorted keys) and
emitted as ``request_received``/``admission_decision`` trace events on the
service clock — under a :class:`~repro.service.clock.VirtualClock` both are
byte-identical across runs.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import IO

from repro.core.vcrop import VCROperation
from repro.exceptions import ConfigurationError, ServiceError, SessionStateError
from repro.obs.context import RequestContext, mint_trace_id
from repro.obs.log import get_logger
from repro.obs.registry import REQUEST_LATENCY_BUCKETS
from repro.obs.scrape import ScrapeEndpoint
from repro.obs.slo import SLOConfig, SLOMonitor
from repro.runtime.admission import RuntimeAdmissionGate
from repro.runtime.circuit import GuardedControlLoop
from repro.runtime.controller import AllocationDelta, CapacityController
from repro.runtime.telemetry import TelemetryHub
from repro.service.clock import VirtualClock
from repro.service.faults import ServiceFaultConfig
from repro.service.protocol import ADMIN_KINDS, VCR_KINDS, Request, Response
from repro.service.state import SessionPhase, SessionRegistry, StreamAccount
from repro.vod.degradation import DegradationManager
from repro.vod.movie import MovieCatalog
from repro.vod.streams import StreamPurpose

__all__ = ["EngineStats", "ServiceActuator", "AdmissionEngine"]

_log = get_logger("service.engine")

#: Encodes decision-log lines; the bytes ``json.dumps(record,
#: sort_keys=True)`` writes, without building an encoder per line.
_LOG_ENCODER = json.JSONEncoder(sort_keys=True)

#: request kind -> the VCR operation it carries.
_KIND_TO_OP = {
    "pause": VCROperation.PAUSE,
    "rewind": VCROperation.REWIND,
    "fastforward": VCROperation.FAST_FORWARD,
}


class _ClockEnv:
    """Adapter giving the degradation manager the ``env.now`` it expects."""

    def __init__(self, clock) -> None:
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock.now()


@dataclass(frozen=True)
class _ActuationReport:
    """What the service actuator reports back to the controller."""

    fully_applied: bool
    rejected: tuple = ()


class ServiceActuator:
    """Applies accepted :class:`AllocationDelta`\\ s to live service state.

    Unlike the simulator's :class:`~repro.runtime.actuator.PlanActuator`
    there are no buffer books to move — actuation re-points the gate, the
    planned stream block and the configuration map in one step.  The first
    ``fail_first`` applications raise (fault injection), which the guarded
    loop converts into breaker failures.
    """

    def __init__(self, engine: "AdmissionEngine", fail_first: int = 0) -> None:
        self._engine = engine
        self._failures_remaining = fail_first
        self.applied = 0
        self.failed = 0

    def apply(self, delta: AllocationDelta, context=None) -> _ActuationReport:
        """Actuate one delta; raises :class:`ServiceError` while faulted.

        ``context`` is the trace context of the request whose tick triggered
        the actuation; the emitted ``plan_actuation`` event carries its ids
        so the re-plan links into that request's causal chain.
        """
        if self._failures_remaining > 0:
            self._failures_remaining -= 1
            self.failed += 1
            raise ServiceError(
                f"injected actuation fault ({self._failures_remaining} remaining)"
            )
        self._engine.adopt(delta)
        self.applied += 1
        if context is not None:
            context.enter("actuate")
        tracer = self._engine.tracer
        if tracer is not None:
            tracer.emit(
                "plan_actuation",
                delta.at_minutes,
                applied=len(delta.changes),
                rejected=0,
                trace_id=context.trace_id if context is not None else None,
                parent_span=context.current_span if context is not None else None,
            )
        return _ActuationReport(fully_applied=True)


@dataclass
class EngineStats:
    """Cumulative decision counts (mirrors the decisions counter metric)."""

    requests: int = 0
    admitted: int = 0
    batched: int = 0
    rejected: int = 0
    vcr_admitted: int = 0
    vcr_denied: int = 0
    resume_hits: int = 0
    resume_misses: int = 0
    closed: int = 0
    errors: int = 0
    degraded_sessions: int = 0


class AdmissionEngine:
    """Routes decoded requests through the control plane, synchronously."""

    def __init__(
        self,
        catalog: MovieCatalog,
        configurations: dict,
        capacity: int,
        reserve_streams: int = 0,
        clock=None,
        tracer=None,
        registry=None,
        decision_log: IO[str] | None = None,
        controller: CapacityController | None = None,
        tick_minutes: float = 30.0,
        faults: ServiceFaultConfig | None = None,
        slo: SLOConfig | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if tick_minutes <= 0.0:
            raise ConfigurationError(f"tick_minutes must be positive, got {tick_minutes}")
        planned_streams = sum(
            config.num_partitions for config in configurations.values()
        )
        if planned_streams > capacity:
            raise ConfigurationError(
                f"plan needs {planned_streams} playback streams but capacity is "
                f"{capacity}"
            )
        self._catalog = catalog
        self._movies = {movie.movie_id: movie for movie in catalog}
        self._configs = dict(configurations)
        self._clock = clock or VirtualClock()
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._decision_log = decision_log
        self._decision_seq = 0
        self._faults = faults or ServiceFaultConfig()
        self.registry = SessionRegistry()
        self.account = StreamAccount(capacity)
        self.account.acquire_block(StreamPurpose.PLAYBACK, planned_streams)
        self.gate = RuntimeAdmissionGate(
            planned_streams=planned_streams,
            reserve_streams=reserve_streams,
            planned_movie_ids=sorted(self._configs),
        )
        self.hub = TelemetryHub()
        self.stats = EngineStats()
        self.draining = False
        self._decisions_metric = None
        self._request_latency = None
        if registry is not None:
            self._decisions_metric = registry.counter(
                "repro_service_decisions_total",
                "admission decisions by outcome",
                labelnames=("decision",),
            )
            self._request_latency = registry.histogram(
                "repro_request_latency_seconds",
                "request latency (queue wait + engine time) by decision",
                labelnames=("decision",),
                buckets=REQUEST_LATENCY_BUCKETS,
            )
        #: decision -> (counter child, latency histogram child), bound on
        #: the decision's first use so an early scrape shows no zero series.
        self._decision_children: dict[str, tuple] = {}
        #: Live scrape endpoint serving the metrics/health admin verbs.
        self.scrape: ScrapeEndpoint | None = None
        if registry is not None:
            self.scrape = ScrapeEndpoint(registry, health_source=self.health_snapshot)
        self._slo: SLOMonitor | None = None
        if slo is not None:
            self._slo = SLOMonitor(slo, registry=registry, tracer=self._tracer)
        self._trace_seq = 0
        self.degradation = DegradationManager(
            _ClockEnv(self._clock),
            self.account,
            services=(),
            tracer=tracer,
        )
        self._actuator = ServiceActuator(
            self, fail_first=self._faults.actuation_failures
        )
        self._guarded: GuardedControlLoop | None = None
        if controller is not None:
            self._guarded = GuardedControlLoop(controller, self._actuator, tracer=tracer)
        self._tick_minutes = tick_minutes
        self._last_tick: float | None = None
        #: (release_time, session_id) miss holds awaiting the next restart.
        self._hold_expiry: list[tuple[float, int]] = []
        self._nominal_capacity = capacity
        self._capacity_faulted = False
        self._recovery_at: float | None = None
        self._latency_faulted = False
        self._latency_recovery_at: float | None = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current service time in minutes."""
        return self._clock.now()

    @property
    def control_loop(self) -> GuardedControlLoop | None:
        """The guarded control loop, when re-planning is enabled."""
        return self._guarded

    @property
    def actuator(self) -> ServiceActuator:
        """The plan actuator (exposed for diagnostics and tests)."""
        return self._actuator

    @property
    def tracer(self):
        """The trace writer, or ``None`` when tracing is disabled."""
        return self._tracer

    @property
    def slo(self) -> SLOMonitor | None:
        """The SLO monitor, when objectives are configured."""
        return self._slo

    def mint_context(
        self,
        received_seconds: float | None = None,
        queue_wait_seconds: float = 0.0,
    ) -> RequestContext:
        """Mint the next request's trace context (deterministic counter)."""
        context = RequestContext(
            mint_trace_id(self._trace_seq),
            received_seconds=(
                self._clock.seconds()
                if received_seconds is None
                else received_seconds
            ),
            queue_wait_seconds=queue_wait_seconds,
        )
        self._trace_seq += 1
        return context

    def health_snapshot(self) -> dict:
        """The live health view the ``health`` admin verb serves."""
        snapshot: dict = {
            "status": "draining" if self.draining else "ok",
            "now_minutes": round(self._clock.now(), 6),
            "open_sessions": len(self.registry),
            "streams": {
                "in_use": self.account.in_use,
                "capacity": self.account.capacity,
            },
            "requests": self.stats.requests,
            "degradation_policies": list(self.degradation.engaged_policies),
        }
        if self._guarded is not None:
            snapshot["control_loop"] = {
                "degraded": self._guarded.degraded,
                "ticks_run": self._guarded.ticks_run,
                "ticks_coasted": self._guarded.ticks_coasted,
            }
        if self._slo is not None:
            snapshot["slo"] = self._slo.snapshot()
        return snapshot

    def restart_wait(self, movie_id: int) -> float:
        """The maximum wait ``w = (l - B) / n`` of a planned movie.

        ``w`` is the gap between adjacent partitions; the restart interval
        is ``l / n``.
        """
        config = self._configs[movie_id]
        return config.max_wait

    def attach_controller(self, controller: CapacityController) -> None:
        """Enable telemetry-driven re-planning (the controller reads
        :attr:`hub`, so it is built after the engine and attached here)."""
        self._guarded = GuardedControlLoop(
            controller, self._actuator, tracer=self._tracer
        )

    # ------------------------------------------------------------------
    # Plan adoption (called by the actuator).
    # ------------------------------------------------------------------
    def adopt(self, delta: AllocationDelta) -> None:
        """Install an actuated re-plan into the live books."""
        self._configs = dict(delta.configurations)
        self.gate.adopt(delta)
        self._fit_playback_block()
        _log.info("service adopted %s", delta.describe())

    # ------------------------------------------------------------------
    # The request path.
    # ------------------------------------------------------------------
    def handle(self, request: Request, context: RequestContext | None = None) -> Response:
        """Decide one request on the current service clock.

        ``context`` is the request's trace context; the TCP front-end mints
        it at read time (carrying the real queue wait), the in-process path
        mints one here.  The admin verbs (``metrics``/``health``) are served
        *outside* the decision pipeline — no trace events, no decision log,
        no stats — so scraping a live server can never perturb the
        deterministic trace it is being scraped about.
        """
        t = self._clock.now()
        if request.kind in ADMIN_KINDS:
            return self._admin(request, t)
        if context is None:
            context = self.mint_context()
        self._poll_faults(t)
        self._expire_holds(t)
        self.stats.requests += 1
        if self._tracer is not None:
            self._tracer.emit(
                "request_received",
                t,
                kind=request.kind,
                session=request.session,
                trace_id=context.trace_id,
            )
        # The tick runs after request_received so the causal chain reads
        # arrival -> (any triggered re-plan) -> decision in trace order.
        self._maybe_tick(t, context)
        if self._capacity_short:
            # Streams released since the last decision refill a clamped block.
            self._fit_playback_block()
        engine_started = self._clock.seconds()
        try:
            response = self._dispatch(request, t, context)
        except SessionStateError as exc:
            self.stats.errors += 1
            response = Response(
                request_id=request.request_id,
                kind=request.kind,
                session=request.session,
                decision="error",
                reason="session state",
                error=str(exc),
            )
        engine_seconds = self._clock.seconds() - engine_started
        if self._latency_faulted:
            engine_seconds += self._faults.latency_fault_seconds
        self._record_decision(request, response, t, context, engine_seconds)
        return response

    def _dispatch(
        self, request: Request, t: float, context: RequestContext
    ) -> Response:
        if request.kind == "ping":
            return self._respond(request, "pong", "alive")
        if request.kind == "session_start":
            return self._start_session(request, t, context)
        if request.kind in VCR_KINDS:
            return self._vcr_operation(request, t)
        if request.kind == "resume":
            return self._resume(request, t)
        if request.kind == "session_end":
            return self._end_session(request, t)
        raise SessionStateError(f"unroutable request kind {request.kind!r}")

    def _admin(self, request: Request, t: float) -> Response:
        """Serve a ``metrics``/``health`` scrape from the live registry."""
        if self.scrape is None:
            return Response(
                request_id=request.request_id,
                kind=request.kind,
                session=request.session,
                decision="error",
                reason="telemetry disabled",
                error="no metrics registry attached to this engine",
            )
        if request.kind == "health":
            body = json.dumps(self.scrape.health(), sort_keys=True)
            reason = "health snapshot"
        else:
            body = self.scrape.metrics(format=request.format or "prometheus")
            reason = f"exposition ({request.format or 'prometheus'})"
        return Response(
            request_id=request.request_id,
            kind=request.kind,
            session=request.session,
            decision="ok",
            reason=reason,
            body=body,
        )

    def _respond(
        self,
        request: Request,
        decision: str,
        reason: str,
        wait_minutes: float | None = None,
    ) -> Response:
        return Response(
            request_id=request.request_id,
            kind=request.kind,
            session=request.session,
            decision=decision,
            reason=reason,
            wait_minutes=wait_minutes,
        )

    def _start_session(
        self, request: Request, t: float, context: RequestContext
    ) -> Response:
        if self.draining:
            self.stats.rejected += 1
            return self._respond(request, "reject", "server is draining")
        movie = self._movies.get(request.movie)
        if movie is None:
            raise SessionStateError(f"unknown movie {request.movie}")
        planned = request.movie in self._configs
        verdict = self.gate.screen(movie, self.account, t, context=context)
        if planned:
            session = self.registry.open(request.session, request.movie, True, t)
            self.hub.on_session_start(request.movie, movie.length, t)
            self.stats.batched += 1
            wait = self.restart_wait(request.movie) / 2.0
            return self._respond(request, "batch", verdict.reason, wait_minutes=wait)
        if not verdict.allowed:
            self.stats.rejected += 1
            return self._respond(request, "reject", verdict.reason)
        if not self.account.acquire(StreamPurpose.UNPOPULAR, request.session):
            self.stats.rejected += 1
            return self._respond(request, "reject", "no free streams")
        session = self.registry.open(request.session, request.movie, False, t)
        session.holds = StreamPurpose.UNPOPULAR
        self.hub.on_session_start(request.movie, movie.length, t)
        self.stats.admitted += 1
        return self._respond(request, "admit", verdict.reason)

    def _vcr_operation(self, request: Request, t: float) -> Response:
        session = self.registry.get(request.session)
        if session.phase is SessionPhase.IN_VCR:
            self.stats.vcr_denied += 1
            return self._respond(request, "deny", "an operation is already in progress")
        operation = _KIND_TO_OP[request.kind]
        if session.planned and session.phase is not SessionPhase.MISS_HOLD:
            # Phase 1: a batched viewer leaves the batch and needs a stream.
            if not self.account.acquire(StreamPurpose.VCR, session.session_id):
                self.stats.vcr_denied += 1
                self.hub.on_vcr(session.movie_id, operation, request.duration, t)
                return self._respond(
                    request, "deny", "phase-1 starvation: no stream free"
                )
            session.holds = StreamPurpose.VCR
        session.move_to(SessionPhase.IN_VCR)
        session.pending_vcr_minutes = request.duration
        session.vcr_ops += 1
        if request.kind == "fastforward":
            session.displacement += request.duration
        else:
            # Pause and rewind both leave the viewer behind the batch.
            session.displacement -= request.duration
        self.hub.on_vcr(session.movie_id, operation, request.duration, t)
        self.stats.vcr_admitted += 1
        return self._respond(request, "admit", f"phase-1 {request.kind} accepted")

    def _resume(self, request: Request, t: float) -> Response:
        session = self.registry.get(request.session)
        if session.phase is not SessionPhase.IN_VCR:
            self.stats.vcr_denied += 1
            return self._respond(request, "deny", "no operation to resume from")
        session.pending_vcr_minutes = 0.0
        if not session.planned:
            session.move_to(SessionPhase.PLAYING)
            self.stats.resume_hits += 1
            self.hub.on_resume(session.movie_id, True, t)
            return self._respond(request, "hit", "dedicated stream: resume in place")
        config = self._configs[session.movie_id]
        if session.holds is StreamPurpose.MISS_HOLD:
            # A viewer on a pinned miss-hold stream resumed another operation:
            # the dedicated stream serves them in place until the hold expires.
            session.move_to(SessionPhase.MISS_HOLD)
            self.stats.resume_hits += 1
            self.hub.on_resume(session.movie_id, True, t)
            return self._respond(request, "hit", "pinned stream: resume in place")
        if session.holds is not StreamPurpose.VCR:
            # The fault layer shed this viewer's stream mid-operation: they
            # degraded back into the batch and resume there.
            session.move_to(SessionPhase.PLAYING)
            session.displacement = 0.0
            self.stats.resume_hits += 1
            self.hub.on_resume(session.movie_id, True, t)
            return self._respond(request, "hit", "degraded: rejoined the batch")
        if abs(session.displacement) <= config.buffer_minutes:
            self.account.release(StreamPurpose.VCR, session.session_id)
            session.holds = None
            session.move_to(SessionPhase.PLAYING)
            self.stats.resume_hits += 1
            self.hub.on_resume(session.movie_id, True, t)
            return self._respond(
                request,
                "hit",
                f"displacement {session.displacement:+.1f} min within "
                f"buffer window B={config.buffer_minutes:g}",
            )
        # Phase-2 miss: the stream stays pinned until the next restart.
        self.account.retag(StreamPurpose.VCR, StreamPurpose.MISS_HOLD, session.session_id)
        session.holds = StreamPurpose.MISS_HOLD
        session.move_to(SessionPhase.MISS_HOLD)
        wait = self.restart_wait(session.movie_id)
        session.hold_expires_at = t + wait
        heapq.heappush(self._hold_expiry, (session.hold_expires_at, session.session_id))
        self.stats.resume_misses += 1
        self.hub.on_resume(session.movie_id, False, t)
        return self._respond(
            request,
            "miss",
            f"displacement {session.displacement:+.1f} min outside "
            f"buffer window B={config.buffer_minutes:g}; stream pinned",
            wait_minutes=wait,
        )

    def _end_session(self, request: Request, t: float) -> Response:
        session = self.registry.close(request.session)
        self._release_session_holds(session)
        self.hub.on_playback(
            session.movie_id, max(0.0, t - session.opened_at), t
        )
        self.hub.on_session_end(session.movie_id, t)
        self.stats.closed += 1
        self._emit_session_closed(session, "completed", t)
        return self._respond(request, "closed", "session complete")

    # ------------------------------------------------------------------
    # Drain.
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse new sessions from now on (existing ones keep going)."""
        self.draining = True

    def drain(self, in_flight: int = 0) -> int:
        """Close every open session and emit ``drain_complete``.

        Returns the number of sessions closed.  ``in_flight`` is the
        front-end's count of requests still awaiting responses (zero by the
        time a graceful shutdown calls this).
        """
        self.draining = True
        t = self._clock.now()
        closed = 0
        for session_id in self.registry.open_ids():
            session = self.registry.close(session_id)
            self._release_session_holds(session)
            self._emit_session_closed(session, "drained", t)
            closed += 1
        if self._tracer is not None:
            self._tracer.emit(
                "drain_complete", t, sessions_closed=closed, in_flight=in_flight
            )
        return closed

    def close_connection_sessions(self, session_ids, reason: str = "dropped") -> int:
        """Close the sessions of a severed/stalled connection, gracefully."""
        t = self._clock.now()
        closed = 0
        for session_id in sorted(session_ids):
            if session_id not in self.registry:
                continue
            session = self.registry.close(session_id)
            self._release_session_holds(session)
            self._emit_session_closed(session, reason, t)
            closed += 1
        return closed

    def _release_session_holds(self, session) -> None:
        if session.holds is not None:
            self.account.release(session.holds, session.session_id)
            session.holds = None

    def _emit_session_closed(self, session, reason: str, t: float) -> None:
        if self._tracer is not None:
            self._tracer.emit(
                "session_closed",
                t,
                session=session.session_id,
                movie=session.movie_id,
                reason=reason,
            )

    # ------------------------------------------------------------------
    # Faults and degradation.
    # ------------------------------------------------------------------
    def _poll_faults(self, t: float) -> None:
        faults = self._faults
        if (
            faults.capacity_fault_at is not None
            and not self._capacity_faulted
            and t >= faults.capacity_fault_at
        ):
            self._capacity_faulted = True
            self.account.capacity = int(
                round(self._nominal_capacity * faults.capacity_fraction)
            )
            if self._tracer is not None:
                self._tracer.emit(
                    "fault_injected",
                    t,
                    kind="disk_degrade",
                    magnitude=faults.capacity_fraction,
                    recovered=False,
                )
            self._shed_pressure()
            if faults.capacity_recovery is not None:
                self._recovery_at = faults.capacity_fault_at + faults.capacity_recovery
        if self._recovery_at is not None and t >= self._recovery_at:
            self._recovery_at = None
            self.account.capacity = self._nominal_capacity
            self._fit_playback_block()
            if self._tracer is not None:
                self._tracer.emit(
                    "fault_injected",
                    t,
                    kind="disk_degrade",
                    magnitude=1.0,
                    recovered=True,
                )
            self.degradation.on_recovery()
        if (
            faults.latency_fault_at is not None
            and not self._latency_faulted
            and self._latency_recovery_at is None
            and t >= faults.latency_fault_at
        ):
            self._latency_faulted = True
            if faults.latency_fault_recovery is not None:
                self._latency_recovery_at = (
                    faults.latency_fault_at + faults.latency_fault_recovery
                )
            if self._tracer is not None:
                self._tracer.emit(
                    "fault_injected",
                    t,
                    kind="decision_latency",
                    magnitude=faults.latency_fault_seconds,
                    recovered=False,
                )
        if (
            self._latency_faulted
            and self._latency_recovery_at is not None
            and t >= self._latency_recovery_at
        ):
            self._latency_faulted = False
            if self._tracer is not None:
                self._tracer.emit(
                    "fault_injected",
                    t,
                    kind="decision_latency",
                    magnitude=0.0,
                    recovered=True,
                )

    @property
    def _capacity_short(self) -> bool:
        """Whether a capacity fault holds the account below its nominal size."""
        return self.account.capacity < self._nominal_capacity

    def _fit_playback_block(self) -> None:
        """Hold the plan's playback block, clamped while capacity is faulted.

        Plans are sized against the nominal capacity.  While a capacity
        fault lasts the block takes only the streams the other holds leave
        free, so the books never over-commit.  Streams those holds release
        go back to the block before the next decision, and recovery restores
        the planned block.  Admission sees the same free streams as it would
        with an over-committed block: the gate counts the unfilled remainder
        of the plan as committed, and the clamped account has none free.
        """
        account = self.account
        block = account.held_for(StreamPurpose.PLAYBACK)
        target = self.gate.planned_streams
        if self._capacity_short:
            target = min(target, max(0, account.capacity - (account.in_use - block)))
        if block != target:
            account.set_block(StreamPurpose.PLAYBACK, target)

    def _shed_pressure(self) -> None:
        """Run the shedding ladder, then degrade the sessions that lost holds."""
        self.degradation.on_pressure()
        self._degrade_shed_sessions()

    def _degrade_shed_sessions(self) -> None:
        """Degrade any session whose stream hold the ladder just revoked."""
        surviving_vcr = self.account.holders(StreamPurpose.VCR)
        surviving_hold = self.account.holders(StreamPurpose.MISS_HOLD)
        for session_id in self.registry.open_ids():
            session = self.registry.get(session_id)
            if session.holds is StreamPurpose.VCR and session_id not in surviving_vcr:
                session.holds = None
                self.degradation.session_degraded()
                self.stats.degraded_sessions += 1
            elif (
                session.holds is StreamPurpose.MISS_HOLD
                and session_id not in surviving_hold
            ):
                self._drop_miss_hold(session)
                self.degradation.session_degraded()
                self.stats.degraded_sessions += 1

    def _expire_holds(self, t: float) -> None:
        """Release miss holds whose restart interval has passed (lazy).

        An entry whose time is not its session's current expiry is stale:
        the hold it was pushed for already ended (session closed and id
        reused, or hold shed and pinned again) and a later hold stands.
        """
        while self._hold_expiry and self._hold_expiry[0][0] <= t:
            expires_at, session_id = heapq.heappop(self._hold_expiry)
            if session_id not in self.registry:
                continue
            session = self.registry.get(session_id)
            if (
                session.holds is StreamPurpose.MISS_HOLD
                and session.hold_expires_at == expires_at
            ):
                self.account.release(StreamPurpose.MISS_HOLD, session_id)
                self._drop_miss_hold(session)

    @staticmethod
    def _drop_miss_hold(session) -> None:
        """Forget a released or revoked miss hold on its session's books.

        A session pinned by its hold goes back to playing in the batch; one
        that is mid-operation keeps the operation, and its resume rejoins
        the batch as a degraded hit.
        """
        session.holds = None
        if session.phase is SessionPhase.MISS_HOLD:
            session.move_to(SessionPhase.PLAYING)
            session.displacement = 0.0

    # ------------------------------------------------------------------
    # The control tick.
    # ------------------------------------------------------------------
    def _maybe_tick(self, t: float, context: RequestContext | None = None) -> None:
        if self._guarded is None:
            return
        if self._last_tick is not None and t - self._last_tick < self._tick_minutes:
            return
        self._last_tick = t
        self._guarded.run_tick(t, context=context)

    # ------------------------------------------------------------------
    # The decision log.
    # ------------------------------------------------------------------
    def _record_decision(
        self,
        request: Request,
        response: Response,
        t: float,
        context: RequestContext,
        engine_seconds: float,
    ) -> None:
        queue_wait_minutes = context.queue_wait_seconds / 60.0
        engine_minutes = engine_seconds / 60.0
        if self._tracer is not None:
            self._tracer.emit(
                "admission_decision",
                t,
                session=request.session,
                movie=request.movie,
                kind=request.kind,
                decision=response.decision,
                reason=response.reason,
                trace_id=context.trace_id,
                parent_span=context.current_span,
                queue_wait=queue_wait_minutes,
                engine_time=engine_minutes,
            )
        latency_seconds = context.queue_wait_seconds + engine_seconds
        if self._decisions_metric is not None:
            children = self._decision_children.get(response.decision)
            if children is None:
                children = self._decision_children[response.decision] = (
                    self._decisions_metric.labels(response.decision),
                    self._request_latency.labels(response.decision),
                )
            children[0].inc()
            children[1].observe(latency_seconds)
        if self._decision_log is not None:
            record = {
                "seq": self._decision_seq,
                "t": round(t, 6),
                "session": request.session,
                "kind": request.kind,
                "decision": response.decision,
                "reason": response.reason,
                "trace_id": context.trace_id,
            }
            self._decision_log.write(_LOG_ENCODER.encode(record) + "\n")
            self._decision_seq += 1
        if self._slo is not None:
            alerts = self._slo.record_decision(
                t,
                kind=request.kind,
                decision=response.decision,
                latency_seconds=latency_seconds,
                trace_id=context.trace_id,
            )
            for alert in alerts:
                if alert.breaching and alert.severity == "page":
                    self._arm_slo_shedding()

    def _arm_slo_shedding(self) -> None:
        """A burn-rate page fired: shed interaction streams to recover.

        Revokes half (at least one) of the currently held VCR/miss-hold
        streams via the degradation ladder; the owning sessions degrade
        back into their batch instead of dropping.
        """
        held = len(self.account.holders(StreamPurpose.VCR)) + len(
            self.account.holders(StreamPurpose.MISS_HOLD)
        )
        if held == 0:
            return
        shed = self.degradation.shed_load(max(1, held // 2))
        if shed:
            self._degrade_shed_sessions()
            _log.warning("SLO page: shed %d interaction stream(s)", shed)
