"""Schema-versioned structured event tracing (JSONL).

Every event is one JSON object per line with a fixed envelope::

    {"v": 1, "seq": 17, "t": 42.5, "ev": "resume", ...payload}

* ``v`` — the schema version (:data:`SCHEMA_VERSION`);
* ``seq`` — a per-writer monotone sequence number (total order of emission);
* ``t`` — **simulation** minutes (or the replayed trace's clock).  Wall
  clock never enters a trace, so two runs of the same inputs — serial or
  parallel — emit byte-identical traces;
* ``ev`` — the event type, one of :data:`EVENT_SCHEMA`'s keys.

The payload fields per event type are declared in :data:`EVENT_SCHEMA` and
enforced both at emission (:class:`TraceWriter` validates every event) and at
ingestion (:func:`validate_trace_file`), so a trace that loads is a trace
every tool can replay.

:class:`NullTraceWriter` is the disabled-path stand-in: ``enabled`` is
``False`` and ``emit`` returns immediately, so instrumented hot paths cost
one branch (``if tracer is not None``) when tracing is off.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterator, Mapping

from repro.exceptions import TraceSchemaError

__all__ = [
    "SCHEMA_VERSION",
    "BUFFER_EVENTS",
    "SUPPORTED_VERSIONS",
    "EVENT_SCHEMA",
    "EVENT_SCHEMAS",
    "TraceWriter",
    "NullTraceWriter",
    "validate_event",
    "validate_trace_file",
    "read_trace",
]

SCHEMA_VERSION = 4

#: Events a :class:`TraceWriter` buffers before it writes them through.
BUFFER_EVENTS = 256

_NUM = (int, float)
_OPT_NUM = (int, float, type(None))
_OPT_STR = (str, type(None))

#: Event type -> {field: allowed JSON types}.  Every field is required;
#: unknown payload fields are rejected at validation time.
EVENT_SCHEMA: dict[str, dict[str, tuple]] = {
    # Run lifecycle.
    "run_start": {"label": (str,)},
    "run_end": {"label": (str,)},
    # Deployment: one per controlled/served movie at run start and on
    # actuated re-plans.  ``predicted_hit`` is the analytic P(hit) when the
    # producer knows it, else null.
    "movie_config": {
        "movie": (int,),
        "name": (str,),
        "length": _NUM,
        "streams": (int,),
        "buffer_minutes": _NUM,
        "predicted_hit": _OPT_NUM,
    },
    # Session lifecycle (VODServer observer hooks).
    "session_start": {"movie": (int,), "length": _NUM},
    "session_end": {"movie": (int,)},
    # Batching: one restart attempt of a movie's partition schedule.
    "batch_restart": {"movie": (int,), "starved": (bool,)},
    # VCR operation lifecycle.  ``outcome`` is "ok", "denied" (phase-1
    # starvation) or "end_of_movie" (FF ran off the end).
    "vcr_begin": {"movie": (int,), "op": (str,), "duration": _NUM},
    "vcr_end": {"movie": (int,), "op": (str,), "outcome": (str,)},
    # Resume: hit/miss with the resume position and the matched partition's
    # restart time (null on a miss).
    "resume": {
        "movie": (int,),
        "hit": (bool,),
        "position": _NUM,
        "window_start": _OPT_NUM,
    },
    # Stream pool lifecycle; ``in_use`` is the pool-wide occupancy after the
    # transition.
    "stream_acquire": {"purpose": (str,), "in_use": (int,)},
    "stream_release": {"purpose": (str,), "in_use": (int,), "held_minutes": _NUM},
    # Control plane: one per controller tick, and one per actuated delta.
    # ``trace_id``/``parent_span`` (schema v4) link an actuation back to the
    # service request whose tick triggered it; null outside a request scope
    # (simulator replays, offline control runs).
    "replan_decision": {"outcome": (str,), "tick": (int,)},
    "plan_actuation": {
        "applied": (int,),
        "rejected": (int,),
        "trace_id": _OPT_STR,
        "parent_span": _OPT_STR,
    },
    # Analytic sweeps: one feasibility-frontier point (Figure-8 style).
    "frontier": {
        "name": (str,),
        "streams": (int,),
        "buffer_minutes": _NUM,
        "p_hit": _NUM,
        "feasible": (bool,),
    },
    # Fault injection (schema v2): one per applied fault.  ``magnitude`` is
    # kind-specific (capacity fraction, streams revoked, buffer fraction,
    # outage minutes); ``recovered`` marks the restoring edge of a
    # transient fault.
    "fault_injected": {"kind": (str,), "magnitude": _NUM, "recovered": (bool,)},
    # Graceful degradation (schema v2): the manager entered/left a shedding
    # level.  ``policy`` names the deepest shedding step taken
    # ("shed_vcr", "widen_restart", "collapse_partition", ...).
    "degradation_entered": {"level": (int,), "policy": (str,)},
    "degradation_exited": {"level": (int,)},
    # Parallel resilience (schema v2): a dead worker's shard was reassigned.
    # Diagnostic only — never part of a deterministic run trace, since its
    # presence depends on which process died.
    "worker_retry": {"shard": (int,), "attempt": (int,)},
    # Live admission service (schema v3).  ``t`` is the *service* clock in
    # minutes: the virtual clock in deterministic runs, scaled wall time in
    # live deployments.  ``kind`` is the request type from the wire protocol.
    # ``trace_id`` (schema v4) is the deterministic per-request id minted at
    # receipt; every event of one request's causal chain carries it.
    "request_received": {"kind": (str,), "session": (int,), "trace_id": (str,)},
    # One per routed request: the control plane's verdict.  ``decision`` is
    # "admit"/"batch"/"reject"/"deny"/"hit"/"miss"/"pong"/"closed"/"error".
    # Schema v4 adds the causal link (``trace_id``, ``parent_span`` naming
    # the span that produced the verdict) and the request's latency split:
    # ``queue_wait``/``engine_time`` are service-clock minutes spent queued
    # behind the in-flight limiter and inside the decision core (exactly 0.0
    # on a virtual clock, so deterministic traces stay byte-identical).
    "admission_decision": {
        "session": (int,),
        "movie": (int,),
        "kind": (str,),
        "decision": (str,),
        "reason": (str,),
        "trace_id": (str,),
        "parent_span": (str,),
        "queue_wait": _NUM,
        "engine_time": _NUM,
    },
    # A session left the registry.  ``reason`` is "completed" (client ended
    # it), "drained" (server shutdown), "dropped" (connection lost/stalled)
    # or "shed" (degradation revoked its stream).
    "session_closed": {"session": (int,), "movie": (int,), "reason": (str,)},
    # The bounded in-flight queue refused a request before routing.
    "backpressure_reject": {"kind": (str,), "in_flight": (int,), "limit": (int,)},
    # Graceful drain finished: every in-flight request answered and every
    # open session closed.
    "drain_complete": {"sessions_closed": (int,), "in_flight": (int,)},
    # SLO monitor (schema v4): a burn-rate alert changed state for one
    # objective ("p99_latency", "deny_rate").  ``breaching`` marks the
    # entering (true) or clearing (false) edge; ``burn_fast``/``burn_slow``
    # are the error-budget burn rates over the fast and slow windows at the
    # evaluation that flipped the edge; ``value`` is the objective's observed
    # reading (p99 seconds, deny fraction).  ``trace_id`` links the alert to
    # the request whose handling triggered the evaluation (null when the
    # monitor is evaluated outside a request scope).
    "slo_alert": {
        "objective": (str,),
        "severity": (str,),
        "breaching": (bool,),
        "burn_fast": _NUM,
        "burn_slow": _NUM,
        "value": _NUM,
        "trace_id": _OPT_STR,
    },
}

#: Event types introduced by each schema version after 1.
_EVENTS_ADDED: dict[int, frozenset[str]] = {
    2: frozenset(
        {"fault_injected", "degradation_entered", "degradation_exited", "worker_retry"}
    ),
    3: frozenset(
        {
            "request_received",
            "admission_decision",
            "session_closed",
            "backpressure_reject",
            "drain_complete",
        }
    ),
    4: frozenset({"slo_alert"}),
}

#: Payload fields added to *pre-existing* event types by later schema
#: versions: version -> event type -> field names.  Older versions validate
#: those events without the new fields, so v3 traces keep loading.
_FIELDS_ADDED: dict[int, dict[str, frozenset[str]]] = {
    4: {
        "request_received": frozenset({"trace_id"}),
        "admission_decision": frozenset(
            {"trace_id", "parent_span", "queue_wait", "engine_time"}
        ),
        "plan_actuation": frozenset({"trace_id", "parent_span"}),
    },
}


def _schema_for(version: int) -> dict[str, dict[str, tuple]]:
    """The event-type table as it stood at ``version``."""
    future_events: set[str] = set()
    for added_in, names in _EVENTS_ADDED.items():
        if added_in > version:
            future_events |= names
    table: dict[str, dict[str, tuple]] = {}
    for name, fields in EVENT_SCHEMA.items():
        if name in future_events:
            continue
        future_fields: set[str] = set()
        for added_in, per_event in _FIELDS_ADDED.items():
            if added_in > version:
                future_fields |= per_event.get(name, frozenset())
        table[name] = {
            field: types
            for field, types in fields.items()
            if field not in future_fields
        }
    return table


#: Schema version -> its event-type table.  Version ``N`` speaks every event
#: (and field) introduced at or before ``N``; readers accept any supported
#: version but a single file must be uniformly one version.
EVENT_SCHEMAS: dict[int, dict[str, dict[str, tuple]]] = {
    version: _schema_for(version) for version in range(1, SCHEMA_VERSION + 1)
}

SUPPORTED_VERSIONS: tuple[int, ...] = tuple(sorted(EVENT_SCHEMAS))

_ENVELOPE = ("v", "seq", "t", "ev")


def validate_event(
    obj: Mapping, line: int | None = None, version: int | None = None
) -> None:
    """Validate one decoded event object against the schema.

    ``version`` pins the expected schema version (used by file readers to
    reject mixed-version traces); ``None`` accepts any supported version.
    Raises :class:`~repro.exceptions.TraceSchemaError` naming the offending
    line (1-based, when given) and field.
    """
    where = f"line {line}: " if line is not None else ""
    for field in _ENVELOPE:
        if field not in obj:
            raise TraceSchemaError(f"{where}missing envelope field {field!r}")
    if obj["v"] not in EVENT_SCHEMAS:
        raise TraceSchemaError(
            f"{where}unsupported schema version {obj['v']!r} "
            f"(this reader speaks {list(SUPPORTED_VERSIONS)})"
        )
    if version is not None and obj["v"] != version:
        raise TraceSchemaError(
            f"{where}mixed-version trace: event has v={obj['v']!r} "
            f"but the file started with v={version}"
        )
    if not isinstance(obj["seq"], int) or isinstance(obj["seq"], bool):
        raise TraceSchemaError(f"{where}seq must be an integer, got {obj['seq']!r}")
    if not isinstance(obj["t"], (int, float)) or isinstance(obj["t"], bool):
        raise TraceSchemaError(f"{where}t must be a number, got {obj['t']!r}")
    event_type = obj["ev"]
    fields = EVENT_SCHEMAS[obj["v"]].get(event_type)
    if fields is None:
        raise TraceSchemaError(
            f"{where}unknown event type {event_type!r} for schema v{obj['v']}"
        )
    for name, types in fields.items():
        if name not in obj:
            raise TraceSchemaError(f"{where}{event_type}: missing field {name!r}")
        value = obj[name]
        # bool is an int subclass; only accept it where bool is declared.
        if isinstance(value, bool) and bool not in types:
            raise TraceSchemaError(
                f"{where}{event_type}.{name}: boolean not allowed, got {value!r}"
            )
        if not isinstance(value, types):
            raise TraceSchemaError(
                f"{where}{event_type}.{name}: expected "
                f"{'/'.join(t.__name__ for t in types)}, got {value!r}"
            )
    extras = set(obj) - set(fields) - set(_ENVELOPE)
    if extras:
        raise TraceSchemaError(
            f"{where}{event_type}: unknown field(s) {sorted(extras)}"
        )


class TraceWriter:
    """Buffered JSONL event writer with emission-time schema validation.

    ``sink`` may be a path or an open text file.  Every event is validated
    against :data:`EVENT_SCHEMA` as it is emitted.  Events are buffered
    (:data:`BUFFER_EVENTS` lines) and flushed on overflow, :meth:`flush` and
    :meth:`close`; the writer is a context manager.
    """

    enabled = True

    def __init__(self, sink: str | Path | IO[str]) -> None:
        if isinstance(sink, (str, Path)):
            self._file: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = sink
            self._owns_file = False
        self._buffer: list[str] = []
        self._seq = 0
        self.events_emitted = 0

    def emit(self, event_type: str, t: float, **fields: object) -> None:
        """Append one event; ``t`` is simulation minutes, never wall clock."""
        obj: dict[str, object] = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "t": float(t),
            "ev": event_type,
        }
        obj.update(fields)
        validate_event(obj)
        self._seq += 1
        self.events_emitted += 1
        self._buffer.append(json.dumps(obj, sort_keys=True))
        if len(self._buffer) >= BUFFER_EVENTS:
            self.flush()

    def flush(self) -> None:
        """Write buffered events through to the sink."""
        if self._buffer:
            self._file.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._file.flush()

    def close(self) -> None:
        """Flush and close (closes the file only if this writer opened it)."""
        self.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTraceWriter:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is ``False`` so instrumented code can skip event assembly
    entirely — the hot path pays exactly one attribute check.
    """

    enabled = False
    events_emitted = 0

    def emit(self, event_type: str, t: float, **fields: object) -> None:
        """Discard the event."""

    def flush(self) -> None:
        """No buffered state to flush."""

    def close(self) -> None:
        """Nothing to close."""

    def __enter__(self) -> "NullTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


def read_trace(path: str | Path) -> Iterator[dict]:
    """Iterate a trace file's events, validating each line.

    The first event's ``v`` fixes the file's schema version; every later
    event must carry the same one (a mixed-version file is two traces
    concatenated, and replaying it would silently mix schemas).  Raises
    :class:`~repro.exceptions.TraceSchemaError` naming the offending 1-based
    line on malformed JSON, schema violations or a version change.
    """
    file_version: int | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(
                    f"line {line_number}: invalid JSON ({exc.msg})"
                ) from exc
            if not isinstance(obj, dict):
                raise TraceSchemaError(
                    f"line {line_number}: expected a JSON object, got {type(obj).__name__}"
                )
            validate_event(obj, line=line_number, version=file_version)
            if file_version is None:
                file_version = obj["v"]
            yield obj


def validate_trace_file(path: str | Path) -> int:
    """Validate a whole trace file; returns the number of events.

    Also checks that ``seq`` is strictly increasing — the emission order is
    part of the contract tools replaying a trace rely on.
    """
    count = 0
    last_seq: int | None = None
    for event in read_trace(path):
        if last_seq is not None and event["seq"] <= last_seq:
            raise TraceSchemaError(
                f"seq regressed: {last_seq} -> {event['seq']} "
                f"(event #{count + 1})"
            )
        last_seq = event["seq"]
        count += 1
    return count
