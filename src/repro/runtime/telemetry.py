"""Streaming telemetry ingest: per-movie rolling statistics with decay.

A deployed front-end observes three things per popular movie: session
arrivals, the VCR operations viewers issue (type, duration), and whether
each resume found a buffered partition (hit) or pinned a stream (miss).
:class:`MovieTelemetry` reduces that stream to exactly the statistics the
paper's model consumes — the operation mix ``(P_FF, P_RW, P_PAU)``, a
duration sample window per operation, the arrival rate and the mean think
time — using exponentially decayed counters so old traffic ages out.

Counter decay follows the standard exponentially-weighted scheme: a count
``C`` observed under a half-life ``h`` decays as ``C * 2**(-(now-then)/h)``
and every arrival adds 1, so in steady state at rate ``lambda`` the counter
converges to ``lambda / beta`` with ``beta = ln 2 / h`` — which makes
``rate = C * beta`` an online rate estimator with a built-in forgetting
window.  The half-life is :data:`HALF_LIFE_MINUTES` (240).  Duration samples
keep the most recent :data:`WINDOW_SIZE` (512) values per operation, the window the KS drift detector of :mod:`repro.runtime.refit`
tests against the currently fitted distribution.

:class:`TelemetryHub` multiplexes movies and speaks two dialects: the
observer protocol of :class:`repro.vod.server.VODServer` (``on_session_start``
/ ``on_vcr`` / ``on_resume`` / ``on_playback`` / ``on_session_end``) for live
runs, and :meth:`ingest_session` / :meth:`ingest_trace` for JSON-lines trace
replay.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.core.hitmodel import VCRMix
from repro.core.vcrop import VCROperation
from repro.exceptions import ConfigurationError
from repro.workloads.events import SessionRecord, Trace

__all__ = [
    "WINDOW_SIZE",
    "HALF_LIFE_MINUTES",
    "TelemetrySnapshot",
    "MovieTelemetry",
    "TelemetryHub",
]

#: Duration samples kept per operation (the KS drift detector's window).
WINDOW_SIZE = 512
#: Half-life (minutes) of the decayed arrival, event and mix counters.
HALF_LIFE_MINUTES = 240.0

_BETA = math.log(2.0) / HALF_LIFE_MINUTES


@dataclass(frozen=True)
class TelemetrySnapshot:
    """An immutable view of one movie's current rolling statistics.

    This is the unit of exchange between the hub and the control plane: the
    refitter reads ``durations`` and ``mix``, the planner reads
    ``arrival_rate`` and ``mean_think_time``, and the admission gate reads
    the hit/miss balance.
    """

    movie_id: int
    movie_length: float
    at_minutes: float
    sessions_seen: int
    events_seen: int
    mix: VCRMix | None
    arrival_rate: float | None
    mean_think_time: float | None
    durations: dict[VCROperation, tuple[float, ...]]
    resume_hits: int
    resume_misses: int

    @property
    def observed_hit_rate(self) -> float | None:
        """The realised resume hit fraction, None before any resume."""
        total = self.resume_hits + self.resume_misses
        return self.resume_hits / total if total else None

    def sample_count(self, operation: VCROperation) -> int:
        """Window size currently held for one operation."""
        return len(self.durations.get(operation, ()))


class MovieTelemetry:
    """Rolling, exponentially decayed statistics for one movie."""

    def __init__(self, movie_id: int, movie_length: float) -> None:
        if movie_length <= 0.0:
            raise ConfigurationError(f"movie_length must be positive, got {movie_length}")
        self.movie_id = movie_id
        self.movie_length = float(movie_length)
        self._windows: dict[VCROperation, deque[float]] = {
            op: deque(maxlen=WINDOW_SIZE) for op in VCROperation
        }
        # Decayed counters share one clock; raw integer totals never decay.
        self._decayed: dict[str, float] = {
            "arrivals": 0.0,
            "events": 0.0,
            "exposure": 0.0,
            **{f"op.{op.value}": 0.0 for op in VCROperation},
        }
        self._decayed_at = 0.0
        self.sessions_seen = 0
        self.events_seen = 0
        self.resume_hits = 0
        self.resume_misses = 0

    # ------------------------------------------------------------------
    # Decay bookkeeping.
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        if now < self._decayed_at:
            # Trace replay interleaves sessions, so one session's events can
            # carry timestamps earlier than the latest arrival already seen.
            # Decay is monotone bookkeeping: fold such samples in at the
            # counter clock instead of rejecting them (the decay error is
            # bounded by the session overlap, negligible against half-life).
            now = self._decayed_at
        factor = math.exp(-_BETA * (now - self._decayed_at))
        if factor < 1.0:
            for key in self._decayed:
                self._decayed[key] *= factor
        self._decayed_at = now

    # ------------------------------------------------------------------
    # Ingest.
    # ------------------------------------------------------------------
    def record_session_start(self, now: float) -> None:
        """One session arrival at wall time ``now``."""
        self._advance(now)
        self._decayed["arrivals"] += 1.0
        self.sessions_seen += 1

    def record_operation(self, operation: VCROperation, duration: float, now: float) -> None:
        """One issued VCR operation with its (movie-time) duration."""
        if duration < 0.0 or not math.isfinite(duration):
            raise ConfigurationError(f"duration must be finite and >= 0, got {duration}")
        self._advance(now)
        self._decayed["events"] += 1.0
        self._decayed[f"op.{operation.value}"] += 1.0
        self._windows[operation].append(float(duration))
        self.events_seen += 1

    def record_playback(self, minutes: float, now: float) -> None:
        """Normal-playback exposure (the denominator of the think-time MLE)."""
        if minutes < 0.0:
            raise ConfigurationError(f"playback minutes must be >= 0, got {minutes}")
        self._advance(now)
        self._decayed["exposure"] += minutes

    def record_resume(self, hit: bool, now: float) -> None:
        """One resume outcome against the buffered partitions."""
        self._advance(now)
        if hit:
            self.resume_hits += 1
        else:
            self.resume_misses += 1

    # ------------------------------------------------------------------
    # Estimates.
    # ------------------------------------------------------------------
    def arrival_rate(self, now: float) -> float | None:
        """Decayed-counter arrival-rate estimate (sessions/minute)."""
        self._advance(now)
        # The estimator C*beta is biased low until ~one half-life of data
        # exists; require a few arrivals before reporting anything.
        if self.sessions_seen < 3 or self._decayed["arrivals"] <= 0.0:
            return None
        return self._decayed["arrivals"] * _BETA

    def mix(self, now: float) -> VCRMix | None:
        """Decayed operation mix, None before any operation was seen."""
        self._advance(now)
        weights = [self._decayed[f"op.{op.value}"] for op in VCROperation]
        total = sum(weights)
        if total <= 0.0:
            return None
        p_ff, p_rw, p_pause = (w / total for w in weights)
        # Guard the mix invariant against floating error in the division:
        # with no pause seen, 1 - p_ff - p_rw can round to about -5.6e-17.
        return VCRMix(p_ff=p_ff, p_rw=p_rw, p_pause=max(0.0, 1.0 - p_ff - p_rw))

    def mean_think_time(self, now: float) -> float | None:
        """Censoring-corrected think-time estimate: exposure over events."""
        self._advance(now)
        if self._decayed["events"] <= 0.0 or self._decayed["exposure"] <= 0.0:
            return None
        return self._decayed["exposure"] / self._decayed["events"]

    def durations_of(self, operation: VCROperation) -> tuple[float, ...]:
        """The current duration window of one operation (oldest first)."""
        return tuple(self._windows[operation])

    def snapshot(self, now: float) -> TelemetrySnapshot:
        """Freeze the current statistics for the control plane."""
        return TelemetrySnapshot(
            movie_id=self.movie_id,
            movie_length=self.movie_length,
            at_minutes=now,
            sessions_seen=self.sessions_seen,
            events_seen=self.events_seen,
            mix=self.mix(now),
            arrival_rate=self.arrival_rate(now),
            mean_think_time=self.mean_think_time(now),
            durations={op: self.durations_of(op) for op in VCROperation},
            resume_hits=self.resume_hits,
            resume_misses=self.resume_misses,
        )


class TelemetryHub:
    """Multiplexes per-movie telemetry; speaks observer and replay dialects."""

    def __init__(self) -> None:
        self._movies: dict[int, MovieTelemetry] = {}
        self._outage = False
        self.samples_dropped = 0

    # ------------------------------------------------------------------
    # Fault layer.
    # ------------------------------------------------------------------
    @property
    def outage(self) -> bool:
        """True while the telemetry link is down (samples are dropped)."""
        return self._outage

    def set_outage(self, active: bool) -> None:
        """Silence (or restore) the live observer feed.

        During an outage the observer hooks drop their samples — the decayed
        counters simply see a gap, exactly what a dead telemetry link looks
        like to the control plane — while ``movie()`` access and trace replay
        keep working.
        """
        self._outage = bool(active)

    def _drop_if_out(self) -> bool:
        if self._outage:
            self.samples_dropped += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------
    def movie(self, movie_id: int, movie_length: float | None = None) -> MovieTelemetry:
        """The telemetry of one movie, created on first contact."""
        telemetry = self._movies.get(movie_id)
        if telemetry is None:
            if movie_length is None:
                raise ConfigurationError(
                    f"first contact with movie {movie_id} must supply its length"
                )
            telemetry = MovieTelemetry(movie_id, movie_length)
            self._movies[movie_id] = telemetry
        return telemetry

    @property
    def movie_ids(self) -> tuple[int, ...]:
        """Every movie id seen so far, in first-contact order."""
        return tuple(self._movies)

    def snapshot(self, now: float) -> dict[int, TelemetrySnapshot]:
        """Snapshots of every tracked movie."""
        return {mid: t.snapshot(now) for mid, t in self._movies.items()}

    # ------------------------------------------------------------------
    # Live-server observer protocol (duck-typed by VODServer/PopularViewer).
    # ------------------------------------------------------------------
    def on_session_start(self, movie_id: int, movie_length: float, now: float) -> None:
        """Observer hook: one admitted session for a popular movie."""
        if self._drop_if_out():
            return
        self.movie(movie_id, movie_length).record_session_start(now)

    def on_vcr(
        self, movie_id: int, operation: VCROperation, duration: float, now: float
    ) -> None:
        """Observer hook: one issued VCR operation with its sampled duration."""
        if self._drop_if_out():
            return
        self.movie(movie_id).record_operation(operation, duration, now)

    def on_playback(self, movie_id: int, minutes: float, now: float) -> None:
        """Observer hook: ``minutes`` of normal playback just elapsed."""
        if self._drop_if_out():
            return
        self.movie(movie_id).record_playback(minutes, now)

    def on_resume(self, movie_id: int, hit: bool, now: float) -> None:
        """Observer hook: one resume outcome (hit or miss)."""
        if self._drop_if_out():
            return
        self.movie(movie_id).record_resume(hit, now)

    def on_session_end(self, movie_id: int, now: float) -> None:
        """Part of the observer protocol; the hub has nothing to book here."""

    # ------------------------------------------------------------------
    # Trace replay.
    # ------------------------------------------------------------------
    def ingest_session(self, session: SessionRecord) -> None:
        """Feed one logged session as if it were observed live.

        Event wall times inside the session are offsets from the session's
        arrival; the hub converts them to absolute minutes so the decay
        clock and the arrival estimator share one timeline.
        """
        telemetry = self.movie(session.movie_id, session.movie_length)
        telemetry.record_session_start(session.arrival_minutes)
        for event in session.events:
            telemetry.record_operation(
                event.operation,
                event.duration,
                session.arrival_minutes + event.at_minutes,
            )
        end = session.ended_at_minutes
        if end is None and session.events:
            end = session.events[-1].at_minutes
        if end is not None:
            exposure = session.playback_minutes()
            telemetry.record_playback(exposure, session.arrival_minutes + end)

    def ingest_trace(self, trace: Trace, up_to_minutes: float | None = None) -> int:
        """Replay sessions in arrival order; returns how many were ingested.

        ``up_to_minutes`` truncates the replay — the CLI uses it to feed the
        hub tick by tick.  Sessions are sorted by arrival because decayed
        counters need a monotone clock.
        """
        ingested = 0
        for session in sorted(trace.sessions, key=lambda s: s.arrival_minutes):
            if up_to_minutes is not None and session.arrival_minutes > up_to_minutes:
                break
            self.ingest_session(session)
            ingested += 1
        return ingested
