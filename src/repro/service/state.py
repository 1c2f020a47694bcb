"""Live service state: the session registry and the stream account.

The admission engine is a *decision* plane, not a data plane — no video
moves through it.  What it must track is exactly what the paper's admission
argument needs:

* which sessions are open, for which movie, and whether a phase-1 VCR
  stream or a phase-2 miss hold is pinned on their behalf
  (:class:`SessionRegistry`), with each session's lifecycle phase moving
  only along :data:`PHASE_TRANSITIONS`;
* how many I/O streams are committed, by purpose, against the configured
  capacity (:class:`StreamAccount`) — the same per-purpose books the
  simulator's :class:`~repro.vod.streams.StreamPool` keeps, reduced to
  counters because the service holds no simulated resources.

:class:`StreamAccount` deliberately quacks like ``StreamPool`` where the
control plane touches it: ``available``, ``in_use``, ``capacity``,
``held_for(purpose)`` and ``revoke(count, order)`` — so the *unmodified*
:class:`~repro.runtime.admission.RuntimeAdmissionGate` and
:class:`~repro.vod.degradation.DegradationManager` run against live service
state exactly as they run against the simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError, SessionStateError
from repro.vod.streams import StreamPurpose

__all__ = [
    "PHASE_TRANSITIONS",
    "SessionPhase",
    "LiveSession",
    "SessionRegistry",
    "StreamAccount",
]


class SessionPhase(enum.Enum):
    """Where one session is in its lifecycle."""

    PLAYING = "playing"        # normal playback (batched or dedicated)
    IN_VCR = "in_vcr"          # a phase-1 VCR operation is in progress
    MISS_HOLD = "miss_hold"    # resume missed; a dedicated stream is pinned


#: The session lifecycle, as the permitted ``(from, to)`` phase changes:
#:
#: * ``PLAYING -> IN_VCR`` — a phase-1 VCR operation is admitted;
#: * ``MISS_HOLD -> IN_VCR`` — a pinned viewer starts another operation;
#: * ``IN_VCR -> PLAYING`` — resume hit (or degraded back into the batch);
#: * ``IN_VCR -> MISS_HOLD`` — resume miss, or a pinned viewer resuming in
#:   place: the stream stays pinned;
#: * ``MISS_HOLD -> PLAYING`` — the hold expires at the next restart, or
#:   the degradation ladder sheds the pinned stream.
PHASE_TRANSITIONS: frozenset[tuple[SessionPhase, SessionPhase]] = frozenset(
    {
        (SessionPhase.PLAYING, SessionPhase.IN_VCR),
        (SessionPhase.MISS_HOLD, SessionPhase.IN_VCR),
        (SessionPhase.IN_VCR, SessionPhase.PLAYING),
        (SessionPhase.IN_VCR, SessionPhase.MISS_HOLD),
        (SessionPhase.MISS_HOLD, SessionPhase.PLAYING),
    }
)


@dataclass
class LiveSession:
    """One open session's registry entry.

    A session opens :attr:`~SessionPhase.PLAYING`; :meth:`move_to` is the
    only way its phase changes.
    """

    session_id: int
    movie_id: int
    planned: bool
    opened_at: float
    _phase: SessionPhase = field(default=SessionPhase.PLAYING, init=False)
    #: Stream purpose this session holds in the account, if any.
    holds: StreamPurpose | None = None
    #: Net VCR displacement (minutes of content) since the session started;
    #: positive = ahead of the batch, negative = behind.
    displacement: float = 0.0
    #: Duration of the VCR operation awaiting its resume decision.
    pending_vcr_minutes: float = 0.0
    vcr_ops: int = 0
    #: Release time of the miss hold pinned at the last resume miss.
    hold_expires_at: float | None = None

    @property
    def phase(self) -> SessionPhase:
        """Where the session is in its lifecycle."""
        return self._phase

    def move_to(self, phase: SessionPhase) -> None:
        """Change phase along a declared :data:`PHASE_TRANSITIONS` edge.

        Any other change, a self-transition included, is a
        :class:`SessionStateError`.
        """
        if (self._phase, phase) not in PHASE_TRANSITIONS:
            raise SessionStateError(
                f"session {self.session_id}: illegal phase change "
                f"{self._phase.value} -> {phase.value}"
            )
        self._phase = phase


class SessionRegistry:
    """Open sessions by id, with typed lifecycle errors."""

    def __init__(self) -> None:
        self._sessions: dict[int, LiveSession] = {}
        self.opened = 0
        self.closed = 0
        self.peak_open = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: int) -> bool:
        return session_id in self._sessions

    def open(
        self, session_id: int, movie_id: int, planned: bool, now: float
    ) -> LiveSession:
        """Register a new session; duplicate ids are a state error."""
        if session_id in self._sessions:
            raise SessionStateError(
                f"session {session_id} is already open "
                f"(movie {self._sessions[session_id].movie_id})"
            )
        session = LiveSession(
            session_id=session_id, movie_id=movie_id, planned=planned, opened_at=now
        )
        self._sessions[session_id] = session
        self.opened += 1
        self.peak_open = max(self.peak_open, len(self._sessions))
        return session

    def get(self, session_id: int) -> LiveSession:
        """The open session with ``session_id``; typed error when absent."""
        session = self._sessions.get(session_id)
        if session is None:
            raise SessionStateError(f"session {session_id} is not open")
        return session

    def close(self, session_id: int) -> LiveSession:
        """Remove and return an open session; typed error when absent."""
        session = self._sessions.pop(session_id, None)
        if session is None:
            raise SessionStateError(f"session {session_id} is not open")
        self.closed += 1
        return session

    def open_ids(self) -> list[int]:
        """Open session ids in ascending order (deterministic drains)."""
        return sorted(self._sessions)


@dataclass
class _AccountGrant:
    """A revocation victim: just enough shape for the degradation manager."""

    purpose: StreamPurpose
    session_id: int = -1


@dataclass
class StreamAccount:
    """Counted per-purpose stream commitments against a capacity.

    Unlike the simulator's pool, over-commitment is representable: a fault
    that shrinks ``capacity`` below ``in_use`` leaves the books honest and
    lets :class:`~repro.vod.degradation.DegradationManager.on_pressure`
    decide what to shed.
    """

    capacity: int
    _held: dict[StreamPurpose, int] = field(default_factory=dict)
    #: Session ids holding each purpose, in acquisition order (revocation
    #: sheds oldest first, deterministically).
    _holders: dict[StreamPurpose, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {self.capacity}")

    @property
    def in_use(self) -> int:
        """Total committed streams across purposes."""
        return sum(self._held.values())

    @property
    def available(self) -> int:
        """Free streams (never negative even while over-committed)."""
        return max(0, self.capacity - self.in_use)

    def held_for(self, purpose: StreamPurpose) -> int:
        """Streams committed under ``purpose``."""
        return self._held.get(purpose, 0)

    def acquire(self, purpose: StreamPurpose, session_id: int = -1) -> bool:
        """Commit one stream under ``purpose``; False when none are free."""
        if self.available < 1:
            return False
        self._held[purpose] = self._held.get(purpose, 0) + 1
        self._holders.setdefault(purpose, []).append(session_id)
        return True

    def acquire_block(self, purpose: StreamPurpose, count: int) -> None:
        """Commit ``count`` streams without a holder (plan pre-allocation).

        The plan's playback streams are committed as a block when a delta
        actuates; they are not owned by any single session.
        """
        if count < 0:
            raise ConfigurationError(f"block size must be >= 0, got {count}")
        self._held[purpose] = self._held.get(purpose, 0) + count
        self._holders.setdefault(purpose, []).extend([-1] * count)

    def release(self, purpose: StreamPurpose, session_id: int = -1) -> None:
        """Return one stream held under ``purpose``."""
        held = self._held.get(purpose, 0)
        if held < 1:
            raise SessionStateError(f"no {purpose.value} streams are held")
        self._held[purpose] = held - 1
        holders = self._holders.get(purpose, [])
        if session_id in holders:
            holders.remove(session_id)
        elif holders:
            holders.pop(0)

    def retag(
        self, old: StreamPurpose, new: StreamPurpose, session_id: int = -1
    ) -> None:
        """Move one stream held under ``old`` to ``new`` without freeing it.

        Unlike a release followed by an acquire, this cannot fail while a
        capacity fault leaves the account over-committed.
        """
        self.release(old, session_id)
        self._held[new] = self._held.get(new, 0) + 1
        self._holders.setdefault(new, []).append(session_id)

    def set_block(self, purpose: StreamPurpose, count: int) -> None:
        """Resize the unowned block under ``purpose`` to exactly ``count``."""
        if count < 0:
            raise ConfigurationError(f"block size must be >= 0, got {count}")
        holders = self._holders.setdefault(purpose, [])
        owned = [s for s in holders if s >= 0]
        self._held[purpose] = len(owned) + count
        self._holders[purpose] = [-1] * count + owned

    def revoke(self, count: int, order) -> list[_AccountGrant]:
        """Shed up to ``count`` held streams in ``order`` (oldest first).

        The degradation manager's ``shed_vcr`` policy calls this; victims are
        returned so the engine can downgrade the owning sessions instead of
        dropping them.
        """
        victims: list[_AccountGrant] = []
        for purpose in order:
            while count > len(victims):
                held = self._held.get(purpose, 0)
                if held < 1:
                    break
                holders = self._holders.get(purpose, [])
                session_id = holders.pop(0) if holders else -1
                self._held[purpose] = held - 1
                victims.append(_AccountGrant(purpose=purpose, session_id=session_id))
            if len(victims) >= count:
                break
        return victims

    def holders(self, purpose: StreamPurpose) -> list[int]:
        """Session ids currently holding ``purpose`` streams (oldest first)."""
        return list(self._holders.get(purpose, []))
