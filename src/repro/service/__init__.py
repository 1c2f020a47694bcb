"""repro.service — the live asyncio admission service.

The simulator answers *what-if*; this package answers *requests*.  It wraps
the runtime control plane (:mod:`repro.runtime`) in an asyncio TCP front-end
speaking a JSON-line protocol, so the paper's admission policy — batching
waits for planned movies, phase-1/phase-2 VCR decisions, Erlang-reserve
screening for the long tail — runs as a server a client can actually call,
complete with backpressure, graceful drain, deterministic fault injection
and a load generator for benchmarks.

Layering::

    protocol  — wire format (JSON lines, strict decode)
    clock     — VirtualClock (deterministic) / WallClock (benchmarks)
    state     — SessionRegistry + StreamAccount (duck-types StreamPool)
    faults    — deterministic connection/actuation/capacity faults
    backpressure — bounded in-flight admission
    engine    — the decision core (gate, telemetry, degradation, control)
    server    — asyncio TCP front-end
    loadgen   — timeline compiler + virtual/wall drivers
"""

from repro.service.backpressure import InflightLimiter
from repro.service.clock import VirtualClock, WallClock
from repro.service.engine import AdmissionEngine, EngineStats, ServiceActuator
from repro.service.faults import ServiceFaultConfig
from repro.service.loadgen import (
    LoadReport,
    TimedRequest,
    compile_timeline,
    run_virtual,
    run_wall,
)
from repro.service.protocol import (
    ADMIN_KINDS,
    DECISIONS,
    REQUEST_KINDS,
    SCRAPE_FORMATS,
    VCR_KINDS,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.service.server import AdmissionService
from repro.service.state import (
    PHASE_TRANSITIONS,
    LiveSession,
    SessionPhase,
    SessionRegistry,
    StreamAccount,
)

__all__ = [
    "ADMIN_KINDS",
    "AdmissionEngine",
    "AdmissionService",
    "DECISIONS",
    "SCRAPE_FORMATS",
    "EngineStats",
    "InflightLimiter",
    "LiveSession",
    "LoadReport",
    "PHASE_TRANSITIONS",
    "REQUEST_KINDS",
    "Request",
    "Response",
    "ServiceActuator",
    "ServiceFaultConfig",
    "SessionPhase",
    "SessionRegistry",
    "StreamAccount",
    "TimedRequest",
    "VCR_KINDS",
    "VirtualClock",
    "WallClock",
    "compile_timeline",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "run_virtual",
    "run_wall",
]
