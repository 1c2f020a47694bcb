"""The load generator: drives an admission service from a workload trace.

The generator compiles a :class:`~repro.workloads.events.Trace` (Poisson
arrivals, Zipf movie choice, fitted VCR behaviour — whatever the workload
layer produced) into a time-ordered request timeline, then drives it in one
of two modes:

**Virtual-clock mode** (:func:`run_virtual`) executes the timeline in
process against an :class:`~repro.service.engine.AdmissionEngine` on a
:class:`~repro.service.clock.VirtualClock` — no sockets, no concurrency, no
wall time anywhere near a decision.  Two runs with the same seed produce
byte-identical decision logs; this is the mode CI and the determinism tests
use.

**Wall-clock mode** (:func:`run_wall`) opens ``connections`` real TCP
connections to a running server and drives the same sessions closed-loop —
every session starts, performs its VCR operations, and ends, with hundreds
or thousands of logical sessions multiplexed per connection.  Requests are
sent in timeline phases (all starts, then the interleaved operation
timeline, then the ends) so the *peak concurrent session count equals the
session count* — this is how the benchmark sustains tens of thousands of
concurrent sessions over a handful of sockets.  Per-request wall latency is
recorded client-side and summarised as p50/p99.

This module never emits trace events: wall-clock readings stay out of the
deterministic observability stream by construction.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field

from repro.core.vcrop import VCROperation
from repro.exceptions import ConfigurationError, ProtocolError, ServiceError
from repro.obs.scrape import parse_exposition
from repro.service.engine import AdmissionEngine
from repro.service.protocol import (
    Request,
    decode_response,
    encode_request,
)
from repro.workloads.events import Trace

__all__ = ["TimedRequest", "LoadReport", "compile_timeline", "run_virtual", "run_wall"]

#: VCR operation -> request kind on the wire.
_OP_TO_KIND = {
    VCROperation.PAUSE: "pause",
    VCROperation.REWIND: "rewind",
    VCROperation.FAST_FORWARD: "fastforward",
}

#: Stream read limit for loadgen sockets.  A metrics scrape body is one
#: JSON line carrying the whole exposition — far past asyncio's 64 KiB
#: default.
_READ_LIMIT = 1 << 20


@dataclass(frozen=True)
class TimedRequest:
    """One request with its service-clock issue time."""

    at_minutes: float
    request: Request


@dataclass
class LoadReport:
    """What one load-generation run observed."""

    mode: str
    requests_sent: int = 0
    sessions_started: int = 0
    sessions_completed: int = 0
    peak_concurrency: int = 0
    connections_severed: int = 0
    decisions: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    latencies_ms: list = field(default_factory=list)
    #: Result of the post-run live-scrape cross-check: ``skipped`` (no
    #: scrape requested or no registry server-side), ``ok``, or ``mismatch``.
    scrape_check: str = "skipped"
    #: Human-readable discrepancies when ``scrape_check == "mismatch"``.
    scrape_mismatches: list = field(default_factory=list)

    def note(self, decision: str) -> None:
        """Count one decision."""
        self.decisions[decision] = self.decisions.get(decision, 0) + 1

    @property
    def admissions_per_second(self) -> float:
        """Admission decisions (admit+batch) per wall second."""
        admitted = self.decisions.get("admit", 0) + self.decisions.get("batch", 0)
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return admitted / self.elapsed_seconds

    def latency_percentile(self, q: float) -> float:
        """The ``q``-quantile of request latency, in milliseconds.

        Nearest-rank definition: the smallest observation whose cumulative
        frequency reaches ``q`` — rank ``ceil(q * N)``, clamped into range.
        (The previous floor-based index systematically under-reported upper
        quantiles: p99 of 100 samples read ``ordered[99]`` only by the
        accident of the clamp, and p50 of an even-sized sample read the
        observation *above* the median.)
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = math.ceil(q * len(ordered))
        return ordered[min(len(ordered) - 1, max(0, rank - 1))]

    def to_dict(self) -> dict:
        """JSON-serialisable summary (latency list collapsed to quantiles)."""
        return {
            "mode": self.mode,
            "requests_sent": self.requests_sent,
            "sessions_started": self.sessions_started,
            "sessions_completed": self.sessions_completed,
            "peak_concurrency": self.peak_concurrency,
            "connections_severed": self.connections_severed,
            "decisions": dict(sorted(self.decisions.items())),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "admissions_per_second": round(self.admissions_per_second, 3),
            "latency_ms": {
                "p50": round(self.latency_percentile(0.50), 4),
                "p90": round(self.latency_percentile(0.90), 4),
                "p99": round(self.latency_percentile(0.99), 4),
            },
            "scrape_check": self.scrape_check,
            "scrape_mismatches": list(self.scrape_mismatches),
        }


def compile_timeline(trace: Trace) -> list[TimedRequest]:
    """Flatten a workload trace into a time-sorted request timeline.

    Each session becomes ``session_start`` at its arrival, a
    (operation, ``resume``) pair per VCR event, and ``session_end`` when the
    viewer finishes.  Every request time is the arrival plus the request's
    offset within its session, kept non-decreasing in issue order: adding an
    operation's wall time to its absolute start instead could round a
    ``resume`` past its own ``session_end``.  Ties on the clock break by
    (session, per-session order), so the timeline — and everything driven
    from it — is fully deterministic.
    """
    entries: list[tuple[float, int, int, Request]] = []
    request_id = 0
    for session in trace:
        offsets: list[tuple[float, str, int, float]] = [
            (0.0, "session_start", session.movie_id, 0.0)
        ]
        for event in session.events:
            kind = _OP_TO_KIND[event.operation]
            offsets.append((event.at_minutes, kind, -1, max(event.duration, 1e-9)))
            offsets.append((event.at_minutes + max(event.wall_minutes, 0.0), "resume", -1, 0.0))
        ended = session.ended_at_minutes
        if ended is None:
            ended = session.events[-1].at_minutes if session.events else 0.0
        offsets.append((ended, "session_end", -1, 0.0))
        at = session.arrival_minutes
        for order, (offset, kind, movie, duration) in enumerate(offsets):
            at = max(at, session.arrival_minutes + offset)
            request = Request(
                request_id=request_id,
                kind=kind,
                session=session.session_id,
                movie=movie,
                duration=duration,
            )
            entries.append((at, session.session_id, order, request))
            request_id += 1
    entries.sort(key=lambda entry: entry[:3])
    return [TimedRequest(at_minutes=at, request=req) for at, _, _, req in entries]


def run_virtual(engine: AdmissionEngine, trace: Trace) -> LoadReport:
    """Drive the engine in process on its virtual clock (deterministic)."""
    timeline = compile_timeline(trace)
    report = LoadReport(mode="virtual")
    open_sessions: set[int] = set()
    started = time.perf_counter()
    for timed in timeline:
        engine._clock.advance_to(max(engine.now, timed.at_minutes))
        kind = timed.request.kind
        if kind != "session_start" and timed.request.session not in open_sessions:
            # The session never opened (rejected) or was shed by a fault —
            # a real client would not send follow-ups either.
            continue
        response = engine.handle(timed.request)
        report.requests_sent += 1
        report.note(response.decision)
        if kind == "session_start" and response.decision in ("admit", "batch"):
            open_sessions.add(timed.request.session)
            report.sessions_started += 1
            report.peak_concurrency = max(report.peak_concurrency, len(open_sessions))
        elif kind == "session_end":
            open_sessions.discard(timed.request.session)
            if response.decision == "closed":
                report.sessions_completed += 1
    report.elapsed_seconds = time.perf_counter() - started
    return report


async def run_wall(
    host: str,
    port: int,
    trace: Trace,
    connections: int = 8,
    phased: bool = True,
    verify_scrape: bool = True,
) -> LoadReport:
    """Drive a running server over TCP, closed-loop, and measure latency.

    ``phased=True`` sends every ``session_start`` before any ``session_end``
    so peak concurrency equals the session count; ``phased=False`` replays
    the timeline in workload order instead (concurrency follows the trace).

    With ``verify_scrape=True`` the generator scrapes the server's live
    ``metrics`` verb after the run and cross-checks
    ``repro_service_decisions_total`` against its own decision counts — the
    client-side and server-side books must agree.  The result lands in
    :attr:`LoadReport.scrape_check` (``skipped`` when the server has no
    metrics registry attached).
    """
    if connections < 1:
        raise ConfigurationError(f"connections must be >= 1, got {connections}")
    timeline = compile_timeline(trace)
    if phased:
        starts = [t for t in timeline if t.request.kind == "session_start"]
        middles = [
            t
            for t in timeline
            if t.request.kind not in ("session_start", "session_end")
        ]
        ends = [t for t in timeline if t.request.kind == "session_end"]
        timeline = starts + middles + ends
    report = LoadReport(mode="wall")
    # Partition sessions across connections so each session's requests stay
    # ordered on one socket.
    lanes: list[list[TimedRequest]] = [[] for _ in range(connections)]
    for timed in timeline:
        lanes[timed.request.session % connections].append(timed)
    open_by_lane = [set() for _ in range(connections)]
    lock = asyncio.Lock()

    async def drive(lane_index: int) -> None:
        lane = lanes[lane_index]
        if not lane:
            return
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=_READ_LIMIT
            )
        except OSError as exc:
            raise ServiceError(f"loadgen could not connect to {host}:{port}: {exc}")
        open_sessions = open_by_lane[lane_index]
        try:
            for timed in lane:
                request = timed.request
                if request.kind != "session_start" and (
                    request.session not in open_sessions
                ):
                    continue
                line = (encode_request(request) + "\n").encode("utf-8")
                sent_at = time.perf_counter()
                try:
                    writer.write(line)
                    await writer.drain()
                    raw = await reader.readline()
                except (ConnectionResetError, BrokenPipeError):
                    raw = b""
                latency_ms = (time.perf_counter() - sent_at) * 1e3
                if not raw:
                    # The server severed this connection (e.g. an injected
                    # drop or slow-client fault): the lane's sessions are
                    # closed server-side; degrade, don't fail the run.
                    async with lock:
                        report.connections_severed += 1
                    open_sessions.clear()
                    return
                response = decode_response(raw.decode("utf-8"))
                async with lock:
                    report.requests_sent += 1
                    report.latencies_ms.append(latency_ms)
                    report.note(response.decision)
                    if request.kind == "session_start" and response.decision in (
                        "admit",
                        "batch",
                    ):
                        open_sessions.add(request.session)
                        report.sessions_started += 1
                        concurrency = sum(len(s) for s in open_by_lane)
                        report.peak_concurrency = max(
                            report.peak_concurrency, concurrency
                        )
                    elif request.kind == "session_end":
                        open_sessions.discard(request.session)
                        if response.decision == "closed":
                            report.sessions_completed += 1
        finally:
            writer.close()

    started = time.perf_counter()
    results = await asyncio.gather(
        *(drive(i) for i in range(connections)), return_exceptions=True
    )
    report.elapsed_seconds = time.perf_counter() - started
    failures = [r for r in results if isinstance(r, BaseException)]
    if failures:
        raise ServiceError(
            f"{len(failures)}/{connections} loadgen connections failed: "
            f"{failures[0]}"
        )
    if verify_scrape:
        await _cross_check_scrape(host, port, report)
    return report


async def _cross_check_scrape(host: str, port: int, report: LoadReport) -> None:
    """Scrape the live ``metrics`` verb and reconcile it with the report.

    The server's ``repro_service_decisions_total{decision=...}`` series must
    be at least the client-side count for every engine decision the run
    observed (at least, not equal: other clients, severed connections whose
    responses were never read, and earlier runs all add to the server's
    books).  ``backpressure`` and ``error`` responses are excluded — they
    can be produced by the socket layer before a request reaches the engine.
    """
    try:
        reader, writer = await asyncio.open_connection(host, port, limit=_READ_LIMIT)
    except OSError as exc:
        report.scrape_check = "mismatch"
        report.scrape_mismatches.append(f"scrape connection failed: {exc}")
        return
    try:
        request = Request(request_id=0, kind="metrics", format="prometheus")
        writer.write((encode_request(request) + "\n").encode("utf-8"))
        await writer.drain()
        raw = await reader.readline()
    except (ConnectionResetError, BrokenPipeError, asyncio.LimitOverrunError) as exc:
        report.scrape_check = "mismatch"
        report.scrape_mismatches.append(f"scrape read failed: {exc}")
        return
    finally:
        writer.close()
    if not raw:
        report.scrape_check = "mismatch"
        report.scrape_mismatches.append("scrape connection closed without a response")
        return
    try:
        response = decode_response(raw.decode("utf-8"))
    except ProtocolError as exc:
        report.scrape_check = "mismatch"
        report.scrape_mismatches.append(f"scrape response malformed: {exc}")
        return
    if response.decision != "ok" or not response.body:
        # The engine has no metrics registry attached: nothing to verify.
        report.scrape_check = "skipped"
        return
    exposition = parse_exposition(response.body)
    mismatches: list[str] = []
    for decision, count in sorted(report.decisions.items()):
        if decision in ("backpressure", "error"):
            continue
        served = exposition.value("repro_service_decisions_total", decision=decision)
        if served is None or served < count:
            mismatches.append(
                f"repro_service_decisions_total{{decision={decision!r}}}: "
                f"scraped {served}, client observed {count}"
            )
    report.scrape_mismatches.extend(mismatches)
    report.scrape_check = "mismatch" if mismatches else "ok"
