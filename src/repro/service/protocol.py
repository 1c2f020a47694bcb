"""The JSON-line wire protocol of the admission service.

One request per line, one response per line, UTF-8 JSON objects::

    -> {"id": 7, "kind": "session_start", "session": 12, "movie": 0}
    <- {"id": 7, "kind": "session_start", "session": 12, "decision": "batch",
        "wait_minutes": 1.2, "reason": "planned movie: covered by plan"}

``id`` is a client-chosen correlation number echoed verbatim, so many
logical sessions can multiplex one TCP connection and the client can match
responses out of order.  ``session`` is the client's session identifier;
``kind`` is one of :data:`REQUEST_KINDS`:

================  ===========================================================
kind              payload
================  ===========================================================
``session_start`` ``movie`` (int) — ask to start a session for a title
``pause``         ``duration`` (minutes) — phase-1 VCR operation
``rewind``        ``duration`` (minutes)
``fastforward``   ``duration`` (minutes)
``resume``        resume after the last VCR operation (phase-2 hit/miss)
``session_end``   the viewer finished; release the session's resources
``ping``          liveness probe (answered ``pong``; no session required)
``metrics``       admin scrape: ``format`` ("prometheus" default, "json")
``health``        admin probe: engine/SLO snapshot as a JSON ``body``
================  ===========================================================

Responses always carry ``decision`` — ``admit``, ``batch`` (with
``wait_minutes``), ``reject``, ``deny``, ``hit``, ``miss``, ``closed``,
``pong``, ``ok`` (admin verbs, with a ``body`` payload), ``backpressure``
or ``error`` (with ``error`` text) — plus a human-readable ``reason``.
Decoding is strict: unknown kinds, missing fields and non-object lines
raise :class:`~repro.exceptions.ProtocolError`, which the server maps to an
``error`` response instead of dropping the connection.

The admin verbs (``metrics``/``health``) are sessionless like ``ping`` and
answered in-process from the engine's live registry — the scrape endpoint
rides the existing socket, so there is no second listener to deploy or
secure.  Their responses carry a ``body`` string (Prometheus text or JSON)
that can far exceed a request line; scraping clients must read with a
raised buffer limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import ProtocolError

__all__ = [
    "REQUEST_KINDS",
    "VCR_KINDS",
    "ADMIN_KINDS",
    "DECISIONS",
    "SCRAPE_FORMATS",
    "Request",
    "Response",
    "decode_request",
    "encode_request",
    "decode_response",
    "encode_response",
]

#: Every request kind the service understands.
REQUEST_KINDS: tuple[str, ...] = (
    "session_start",
    "pause",
    "rewind",
    "fastforward",
    "resume",
    "session_end",
    "ping",
    "metrics",
    "health",
)

#: The phase-1 VCR operations (carry a ``duration``).
VCR_KINDS: frozenset[str] = frozenset({"pause", "rewind", "fastforward"})

#: The live-telemetry admin verbs (answered ``ok`` with a ``body``).
ADMIN_KINDS: frozenset[str] = frozenset({"metrics", "health"})

#: Exposition formats the ``metrics`` verb accepts.
SCRAPE_FORMATS: tuple[str, ...] = ("prometheus", "json")

#: Every decision a response may carry.
DECISIONS: frozenset[str] = frozenset(
    {
        "admit",
        "batch",
        "reject",
        "deny",
        "hit",
        "miss",
        "closed",
        "pong",
        "ok",
        "backpressure",
        "error",
    }
)

#: Kinds that do not reference a session.
_SESSIONLESS = frozenset({"ping"}) | ADMIN_KINDS


@dataclass(frozen=True)
class Request:
    """One decoded client request."""

    request_id: int
    kind: str
    session: int = -1
    movie: int = -1
    duration: float = 0.0
    format: str = ""

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ProtocolError(
                f"unknown request kind {self.kind!r} (expected one of {REQUEST_KINDS})"
            )
        if self.kind not in _SESSIONLESS and self.session < 0:
            raise ProtocolError(f"{self.kind}: 'session' must be a non-negative int")
        if self.kind == "session_start" and self.movie < 0:
            raise ProtocolError("session_start: 'movie' must be a non-negative int")
        if self.kind in VCR_KINDS and self.duration <= 0.0:
            raise ProtocolError(f"{self.kind}: 'duration' must be positive minutes")
        if self.format and self.kind != "metrics":
            raise ProtocolError(f"{self.kind}: 'format' only applies to metrics")
        if self.kind == "metrics" and self.format and self.format not in SCRAPE_FORMATS:
            raise ProtocolError(
                f"metrics: unknown format {self.format!r} "
                f"(expected one of {SCRAPE_FORMATS})"
            )


@dataclass(frozen=True)
class Response:
    """One decision sent back to the client."""

    request_id: int
    kind: str
    session: int
    decision: str
    reason: str = ""
    wait_minutes: float | None = None
    error: str | None = None
    body: str | None = None

    def __post_init__(self) -> None:
        if self.decision not in DECISIONS:
            raise ProtocolError(f"unknown decision {self.decision!r}")


def _require_int(obj: Mapping, field: str, default: int) -> int:
    value = obj.get(field, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"field {field!r} must be an integer, got {value!r}")
    return value


def decode_request(line: str) -> Request:
    """Decode one wire line into a :class:`Request` (strict)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"expected a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise ProtocolError("missing or non-string 'kind'")
    unknown = set(obj) - {"id", "kind", "session", "movie", "duration", "format"}
    if unknown:
        raise ProtocolError(f"unknown request field(s) {sorted(unknown)}")
    duration = obj.get("duration", 0.0)
    if not isinstance(duration, (int, float)) or isinstance(duration, bool):
        raise ProtocolError(f"field 'duration' must be a number, got {duration!r}")
    format_ = obj.get("format", "")
    if not isinstance(format_, str):
        raise ProtocolError(f"field 'format' must be a string, got {format_!r}")
    return Request(
        request_id=_require_int(obj, "id", default=0),
        kind=kind,
        session=_require_int(obj, "session", default=-1),
        movie=_require_int(obj, "movie", default=-1),
        duration=float(duration),
        format=format_,
    )


def encode_request(request: Request) -> str:
    """Encode a request as one wire line (no trailing newline)."""
    obj: dict[str, object] = {"id": request.request_id, "kind": request.kind}
    if request.session >= 0:
        obj["session"] = request.session
    if request.movie >= 0:
        obj["movie"] = request.movie
    if request.duration > 0.0:
        obj["duration"] = request.duration
    if request.format:
        obj["format"] = request.format
    return json.dumps(obj, sort_keys=True)


def encode_response(response: Response) -> str:
    """Encode a response as one wire line (no trailing newline)."""
    obj: dict[str, object] = {
        "id": response.request_id,
        "kind": response.kind,
        "session": response.session,
        "decision": response.decision,
        "reason": response.reason,
    }
    if response.wait_minutes is not None:
        obj["wait_minutes"] = response.wait_minutes
    if response.error is not None:
        obj["error"] = response.error
    if response.body is not None:
        obj["body"] = response.body
    return json.dumps(obj, sort_keys=True)


def decode_response(line: str) -> Response:
    """Decode one wire line into a :class:`Response` (strict)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"expected a JSON object, got {type(obj).__name__}")
    decision = obj.get("decision")
    if not isinstance(decision, str) or decision not in DECISIONS:
        raise ProtocolError(f"missing or unknown 'decision' {decision!r}")
    wait = obj.get("wait_minutes")
    if wait is not None and (not isinstance(wait, (int, float)) or isinstance(wait, bool)):
        raise ProtocolError(f"'wait_minutes' must be a number, got {wait!r}")
    error = obj.get("error")
    if error is not None and not isinstance(error, str):
        raise ProtocolError(f"'error' must be a string, got {error!r}")
    body = obj.get("body")
    if body is not None and not isinstance(body, str):
        raise ProtocolError(f"'body' must be a string, got {body!r}")
    return Response(
        request_id=_require_int(obj, "id", default=0),
        kind=str(obj.get("kind", "")),
        session=_require_int(obj, "session", default=-1),
        decision=decision,
        reason=str(obj.get("reason", "")),
        wait_minutes=None if wait is None else float(wait),
        error=error,
        body=body,
    )
