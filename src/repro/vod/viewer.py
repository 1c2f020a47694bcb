"""The full-server viewer process: playback, VCR, phase-1/phase-2 resources.

This is the resource-contended version of the hit simulator's viewer.  The
life cycle (Section 2 of the paper):

1. *Arrival* — join an open enrollment window (type 2) or queue for the next
   restart (type 1).
2. *Playback* — read from the partition; no extra resources.
3. *VCR phase 1* — FF/RW need a dedicated stream from the shared pool for the
   duration of the operation (a blocked acquisition means the operation is
   denied and the viewer keeps watching — the experiments count these).
   PAU holds no stream (a frozen frame needs no I/O).
4. *Resume* — hit: release the phase-1 stream and rejoin a partition.  Miss:
   the stream is retagged as a phase-2 hold (for PAU a stream must be
   acquired now; if none is available the resume *stalls* until a partition
   sweeps past the viewer's position).
5. *Phase 2* — piggyback drift toward the nearest partition; on merge the
   stream is released, otherwise it stays pinned to the end of the session —
   precisely the resource drain the paper's pre-allocation model minimises.
"""

from __future__ import annotations

from typing import Generator

from repro.core.vcrop import VCROperation
from repro.sim.engine import Environment, Event
from repro.sim.metrics import MetricsRegistry
from repro.vod.observers import notify_observers
from repro.vod.partitioning import MovieService
from repro.vod.piggyback import RATE_TOLERANCE, PiggybackPolicy
from repro.vod.streams import StreamGrant, StreamPool, StreamPurpose
from repro.vod.vcr import VCRBehavior

__all__ = ["PopularViewer"]


class PopularViewer:
    """One interactive session against a partitioned movie service."""

    def __init__(
        self,
        env: Environment,
        service: MovieService,
        behavior: VCRBehavior,
        streams: StreamPool,
        piggyback: PiggybackPolicy,
        metrics: MetricsRegistry,
        rng,
        warmup: float = 0.0,
        mean_patience: float | None = None,
        observers: tuple = (),
        degradation=None,
    ) -> None:
        self._env = env
        self._service = service
        self._behavior = behavior.truncated_to(service.movie.length)
        self._streams = streams
        self._piggyback = piggyback
        self._metrics = metrics
        self._rng = rng
        self._warmup = warmup
        self._mean_patience = mean_patience
        self._observers = tuple(observers)
        self._degradation = degradation
        self.position = 0.0
        self._op_counted = False

    def _notify(self, method: str, *args) -> None:
        """Fan an observation out to the attached observers (duck-typed)."""
        notify_observers(
            self._observers,
            method,
            self._service.movie.movie_id,
            *args,
            now=self._env.now,
        )

    # ------------------------------------------------------------------
    # Metric helpers (warm-up aware).
    # ------------------------------------------------------------------
    def _count(self, name: str) -> None:
        if self._env.now >= self._warmup:
            self._metrics.counter(name).increment()

    def _tally(self, name: str, value: float) -> None:
        if self._env.now >= self._warmup:
            self._metrics.tally(name).push(value)

    # Per-operation outcomes (hit/miss/blocked/end-release/piggyback) resolve
    # *after* the operation's duration has elapsed.  Gating them on the
    # issue-time flag — not the resolution-time clock — keeps the books
    # balanced across the warm-up reset: an operation issued before warm-up
    # never counts as resolved after it, so ``resolved <= issued`` holds on
    # every sample path, not just the lucky ones.
    def _count_op(self, name: str) -> None:
        if self._op_counted:
            self._metrics.counter(name).increment()

    def _tally_op(self, name: str, value: float) -> None:
        if self._op_counted:
            self._metrics.tally(name).push(value)

    # ------------------------------------------------------------------
    # Fault handling.
    # ------------------------------------------------------------------
    def _survives_revocation(self) -> bool:
        """Resolve a revoked grant: degrade (True) or drop the session.

        With a degradation policy attached the viewer carries on without the
        stream — the resume becomes a miss/stall instead of a crash.  With no
        policy the session is dropped on the spot (still traced to a terminal
        ``session_end``), which is exactly the loss the chaos experiment's
        baseline arm measures.
        """
        if self._degradation is not None:
            self._count("viewers.degraded")
            self._degradation.session_degraded()
            return True
        self._count("viewers.dropped")
        self._notify("on_session_end")
        return False

    # ------------------------------------------------------------------
    # The process.
    # ------------------------------------------------------------------
    def process(self) -> Generator[Event, object, None]:
        """The viewer's generator: run it with ``env.process(...)``."""
        env = self._env
        service = self._service
        config = service.config
        rates = config.rates
        length = service.movie.length

        # --- Arrival / enrollment (type 1 vs type 2 viewers, Figure 1). ---
        if service.find_window(0.0) is not None:
            self._count("viewers.type2")
        else:
            self._count("viewers.type1")
            arrived = env.now
            restart = service.wait_for_restart()
            if self._mean_patience is not None:
                # Reneging: an impatient queued viewer defects if the next
                # restart does not come soon enough (the batching
                # literature's classic loss metric, Dan et al. 1994).
                patience = float(self._rng.exponential(self._mean_patience))
                outcome = yield env.any_of([restart, env.timeout(patience)])
                if restart not in outcome:
                    self._count("viewers.defected")
                    return
            else:
                yield restart
            self._tally("wait_minutes", env.now - arrived)
        self.position = 0.0
        self._count("viewers.started")

        while True:
            think = self._behavior.sample_think_time(self._rng)
            remaining_wall = (length - self.position) / rates.playback
            if think >= remaining_wall:
                yield env.timeout(remaining_wall)
                self._count("viewers.completed")
                self._notify("on_playback", remaining_wall)
                self._notify("on_session_end")
                return
            yield env.timeout(think)
            self.position += think * rates.playback
            self._notify("on_playback", think)

            operation = self._behavior.sample_operation(self._rng)
            duration = self._behavior.sample_duration(operation, self._rng)
            self._op_counted = env.now >= self._warmup
            self._count_op(f"vcr.issued.{operation.value}")
            self._notify("on_vcr", operation, duration)

            grant: StreamGrant | None = None
            if operation is VCROperation.PAUSE:
                yield env.timeout(duration)
            else:
                grant = self._streams.try_acquire(StreamPurpose.VCR)
                if grant is None:
                    # Phase-1 starvation: the operation is denied outright.
                    self._count_op("vcr.blocked")
                    self._notify("on_vcr_end", operation, "denied")
                    continue
                if operation is VCROperation.FAST_FORWARD:
                    if duration >= length - self.position:
                        yield env.timeout(
                            (length - self.position) / rates.fast_forward
                        )
                        if not grant.revoked:
                            self._streams.release(grant)
                        self._count_op("vcr.end_release")
                        self._count("viewers.completed")
                        self._notify("on_vcr_end", operation, "end_of_movie")
                        self._notify("on_session_end")
                        return
                    yield env.timeout(duration / rates.fast_forward)
                    self.position += duration
                else:
                    reach = min(duration, self.position)
                    yield env.timeout(reach / rates.rewind)
                    self.position -= reach
            self._notify("on_vcr_end", operation, "ok")

            # --- Resume: hit or miss. ---
            window = service.find_window(self.position)
            if window is not None:
                self._count_op("resume.hit")
                self._notify("on_resume", True)
                self._notify(
                    "on_resume_detail", True, self.position, window.start_time
                )
                # A revoked grant is already gone from the pool; the resume
                # itself still hits (rejoining a partition needs no stream).
                if grant is not None and not grant.revoked:
                    self._streams.release(grant)
                continue

            self._count_op("resume.miss")
            self._notify("on_resume", False)
            self._notify("on_resume_detail", False, self.position, None)
            if grant is not None and grant.revoked:
                # The phase-1 stream was reclaimed mid-operation and the
                # resume missed: nothing left to retag.
                if not self._survives_revocation():
                    return
                grant = None
            if grant is not None:
                grant.retag(self._streams, StreamPurpose.MISS_HOLD)
            else:
                grant = self._streams.try_acquire(StreamPurpose.MISS_HOLD)
                if grant is None:
                    # No stream to resume on: stall until a partition window
                    # sweeps over the viewer's position.
                    self._count_op("resume.stalled")
                    stalled_at = env.now
                    yield from self._wait_until_covered()
                    self._tally_op("stall_minutes", env.now - stalled_at)
                    continue

            # --- Phase 2: piggyback drift on the dedicated stream. ---
            survived = yield from self._phase2_drift(grant)
            if not survived:
                # The hold stream was revoked mid-drift.
                if not self._survives_revocation():
                    return
                stalled_at = env.now
                yield from self._wait_until_covered()
                self._tally_op("stall_minutes", env.now - stalled_at)
                continue
            if self.position >= length - 1e-9:
                self._count("viewers.completed")
                self._notify("on_session_end")
                return

    # ------------------------------------------------------------------
    # Phase-2 helpers.
    # ------------------------------------------------------------------
    def _phase2_drift(self, grant: StreamGrant) -> Generator[Event, object, bool]:
        """Drift on the hold stream; False when it was revoked mid-drift."""
        env = self._env
        service = self._service
        rates = service.config.rates
        length = service.movie.length
        gap_ahead, gap_behind = service.live_gaps(self.position)
        minutes_to_end = (length - self.position) / rates.playback
        plan = self._piggyback.plan_from_gaps(
            gap_ahead, gap_behind, minutes_to_end, playback_rate=rates.playback
        )
        hold = plan.hold_minutes
        yield env.timeout(hold)
        if grant.revoked:
            self._count_op("piggyback.aborted")
            return False
        if plan.merges:
            factor = (
                1.0 + RATE_TOLERANCE if plan.direction == "forward" else 1.0 - RATE_TOLERANCE
            )
            self.position = min(length, self.position + hold * rates.playback * factor)
            self._count_op("piggyback.merged")
        else:
            self.position = length
            self._count_op("piggyback.ran_to_end")
        self._tally_op("phase2_hold_minutes", hold)
        self._streams.release(grant)
        return True

    def _wait_until_covered(self) -> Generator[Event, object, None]:
        """Block (no resources held) until a partition covers the position."""
        env = self._env
        service = self._service
        playback = service.config.rates.playback
        while True:
            if service.find_window(self.position) is not None:
                return
            _, behind = service.live_gaps(self.position)
            if behind is not None:
                # The nearest stream behind sweeps forward to the position.
                yield env.timeout(behind / playback)
                if service.find_window(self.position) is not None:
                    return
            else:
                # Nothing behind yet: wait for the next successful restart.
                yield service.wait_for_restart()
                restart_gap = self.position / playback
                if restart_gap > 0.0:
                    yield env.timeout(restart_gap)
