"""Trace records and the serialisable trace container.

A trace is what a deployed VOD front-end would log: one record per viewer
session (arrival time, movie, how the session ended) and one record per VCR
operation (type, duration, the movie position where it was issued).  Traces
serialise to JSON lines so they can be stored, shipped and replayed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

from repro.core.vcrop import VCROperation
from repro.exceptions import ReproError

__all__ = ["VCREventRecord", "SessionRecord", "Trace", "TraceFormatError"]


class TraceFormatError(ReproError, ValueError):
    """A trace file or record did not parse."""


@dataclass(frozen=True)
class VCREventRecord:
    """One interactive operation inside a session.

    ``wall_minutes`` is how long the operation itself lasted in wall-clock
    terms (duration divided by the FF/RW speed; equal to the duration for a
    pause) — a deployed log derives it from the operation's start/end
    timestamps, and the think-time estimator needs it to separate
    interaction gaps from operation time.
    """

    at_minutes: float          # wall-clock offset from session start
    position: float            # movie position when the operation was issued
    operation: VCROperation
    duration: float            # operation duration (movie-time for FF/RW)
    wall_minutes: float = 0.0  # wall-clock length of the operation itself

    def to_dict(self) -> dict:
        """JSON-serialisable form of the record."""
        data = asdict(self)
        data["operation"] = self.operation.value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "VCREventRecord":
        try:
            return cls(
                at_minutes=float(data["at_minutes"]),
                position=float(data["position"]),
                operation=VCROperation(data["operation"]),
                duration=float(data["duration"]),
                wall_minutes=float(data.get("wall_minutes", 0.0)),
            )
        except (KeyError, ValueError) as exc:
            raise TraceFormatError(f"bad VCR event record {data!r}: {exc}") from exc


@dataclass(frozen=True)
class SessionRecord:
    """One viewer session."""

    session_id: int
    arrival_minutes: float
    movie_id: int
    movie_length: float
    events: tuple[VCREventRecord, ...] = ()
    completed: bool = True
    ended_at_minutes: float | None = None  # total wall length of the session

    def playback_minutes(self) -> float:
        """Wall time spent in normal playback (session minus operations).

        Falls back to the last event time when the session end was not
        logged.  This is the exposure term of the censored think-time
        estimator in :mod:`repro.workloads.analysis`.
        """
        end = self.ended_at_minutes
        if end is None:
            end = self.events[-1].at_minutes if self.events else 0.0
        return max(0.0, end - sum(event.wall_minutes for event in self.events))

    def to_dict(self) -> dict:
        """JSON-serialisable form of the record."""
        return {
            "session_id": self.session_id,
            "arrival_minutes": self.arrival_minutes,
            "movie_id": self.movie_id,
            "movie_length": self.movie_length,
            "completed": self.completed,
            "ended_at_minutes": self.ended_at_minutes,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionRecord":
        try:
            return cls(
                session_id=int(data["session_id"]),
                arrival_minutes=float(data["arrival_minutes"]),
                movie_id=int(data["movie_id"]),
                movie_length=float(data["movie_length"]),
                completed=bool(data.get("completed", True)),
                ended_at_minutes=(
                    float(data["ended_at_minutes"])
                    if data.get("ended_at_minutes") is not None
                    else None
                ),
                events=tuple(
                    VCREventRecord.from_dict(event) for event in data.get("events", ())
                ),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise TraceFormatError(f"bad session record: {exc}") from exc


@dataclass
class Trace:
    """An ordered collection of sessions, serialisable as JSON lines."""

    sessions: list[SessionRecord] = field(default_factory=list)

    def add(self, session: SessionRecord) -> None:
        """Append a session to the trace."""
        self.sessions.append(session)

    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self) -> Iterator[SessionRecord]:
        return iter(self.sessions)

    def events(self) -> Iterator[VCREventRecord]:
        """Every VCR event across all sessions, in session order."""
        for session in self.sessions:
            yield from session.events

    def events_of(self, operation: VCROperation) -> list[VCREventRecord]:
        """Every event of one operation type, in session order."""
        return [event for event in self.events() if event.operation is operation]

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialise as JSON lines (one session per line)."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True) for s in self.sessions)

    @classmethod
    def from_jsonl(cls, text: str) -> "Trace":
        trace = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
            try:
                trace.add(SessionRecord.from_dict(data))
            except TraceFormatError as exc:
                # Record-level parse errors name the offending line too.
                raise TraceFormatError(f"line {lineno}: {exc}") from exc
        return trace

    def save(self, path: str | Path) -> None:
        """Write the JSON-lines form to a file."""
        Path(path).write_text(self.to_jsonl() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        return cls.from_jsonl(Path(path).read_text())
