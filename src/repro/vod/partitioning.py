"""Per-movie static-partitioned service: restarts, live streams, enrollment.

A :class:`MovieService` owns the machinery the paper's Section 2 describes
for one popular movie: restart an I/O stream every ``l/n`` minutes, keep a
``B/n``-minute buffer partition per stream, let viewers enroll while the
window covers position 0, and answer hit queries against the *actual* set of
live streams.

A window and its tolerance are those of :mod:`repro.core.windows`:
``[playhead − span, min(playhead, l)]``, held to within ``_TOL``.  The
closed form there assumes a perfectly periodic restart lattice.  This
service keeps the real restart times instead, because the lattice breaks
in three ways: a restart is *starved* and skipped when the stream pool is
exhausted (the failure mode that bad sizing produces and the end-to-end
benchmarks measure), the fault layer collapses a partition, and a
reconfiguration changes the spacing at the next restart.  On an
unconstrained pool with no faults and no reconfiguration, the two agree on
every hit except at the instant a restart happens or a window ends
(``tests/core/test_windows.py`` names both exceptions).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Generator, Optional

from repro.core.parameters import SystemConfiguration
from repro.core.windows import _TOL
from repro.exceptions import SimulationError
from repro.sim.engine import Environment, Event
from repro.sim.metrics import MetricsRegistry
from repro.vod.movie import Movie
from repro.vod.streams import StreamGrant, StreamPool, StreamPurpose

__all__ = ["LiveStream", "MovieService"]


@dataclass
class LiveStream:
    """One restart of the movie: an I/O stream plus its buffer partition.

    The I/O grant is released when the playhead reaches the end of the
    movie (``grant`` becomes ``None``), but the partition's buffered tail
    stays available for ``span`` more minutes for the viewers still inside
    it — the window semantics the paper's ``delta`` reserve implements.
    """

    start_time: float
    grant: StreamGrant | None

    def playhead(self, now: float, playback_rate: float) -> float:
        """The stream's movie position at wall time ``now``."""
        return (now - self.start_time) * playback_rate


class MovieService:
    """Runs the restart schedule and partition bookkeeping for one movie.

    The live restarts are kept in start order, which makes every window
    query a bisection instead of a scan: a stream's playhead
    ``(now - start) * rate`` never increases with ``start`` (IEEE rounding
    is monotone), and neither do its leading edge ``min(playhead, l)`` and
    trailing edge ``playhead - span``.  So a test of the form "edge >= x"
    holds on a prefix of the list and "edge <= x" on a suffix, whatever
    the span, spacing or clock.
    """

    def __init__(
        self,
        env: Environment,
        movie: Movie,
        config: SystemConfiguration,
        streams: StreamPool,
        metrics: MetricsRegistry,
        tracer=None,
    ) -> None:
        if abs(config.movie_length - movie.length) > 1e-6:
            raise SimulationError(
                f"configuration length {config.movie_length} does not match "
                f"movie {movie.title!r} length {movie.length}"
            )
        self._env = env
        self.movie = movie
        self.config = config
        self._streams = streams
        self._metrics = metrics
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        # Ordered by start_time: restarts are appended at env.now, which
        # never decreases, and removals keep the order.  The queries below
        # bisect on that order.
        self._live: list[LiveStream] = []
        self._restart_signal: Event = env.event()
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the periodic restart process (idempotent)."""
        if self._started:
            return
        self._started = True
        self._env.process(self._restart_loop(), name=f"restarts:{self.movie.title}")

    def _restart_loop(self) -> Generator[Event, None, None]:
        while True:
            self._attempt_restart()
            # Re-read the spacing every cycle so a reconfiguration takes
            # effect at the next restart boundary, never mid-window.
            yield self._env.timeout(self.config.partition_spacing)

    def _attempt_restart(self) -> None:
        grant = self._streams.try_acquire(StreamPurpose.PLAYBACK)
        if grant is None:
            self._metrics.counter(f"restarts_starved.{self.movie.movie_id}").increment()
            self._metrics.counter("restarts_starved").increment()
            if self._tracer is not None:
                self._tracer.emit(
                    "batch_restart",
                    self._env.now,
                    movie=self.movie.movie_id,
                    starved=True,
                )
            return
        stream = LiveStream(start_time=self._env.now, grant=grant)
        self._live.append(stream)
        self._metrics.counter("restarts").increment()
        if self._tracer is not None:
            self._tracer.emit(
                "batch_restart",
                self._env.now,
                movie=self.movie.movie_id,
                starved=False,
            )
        self._env.process(self._stream_end(stream), name=f"stream:{self.movie.title}")
        # Wake every viewer queued for this restart.
        signal, self._restart_signal = self._restart_signal, self._env.event()
        signal.succeed(stream)

    def _stream_end(self, stream: LiveStream) -> Generator[Event, None, None]:
        playback = self.config.rates.playback
        # The I/O stream ends when the playhead reaches the end of the movie.
        yield self._env.timeout(self.movie.length / playback)
        grant, stream.grant = stream.grant, None
        if grant is not None and not grant.revoked:
            self._streams.release(grant)
        # The buffered tail serves the partition's remaining viewers for
        # `span` more minutes before the window disappears.
        if self.config.partition_span > 0.0:
            yield self._env.timeout(self.config.partition_span / playback)
        # The fault layer may have collapsed the partition while we slept.
        if stream in self._live:
            self._live.remove(stream)

    def reconfigure(self, config: SystemConfiguration) -> None:
        """Adopt a new ``(B, n)`` for this movie's service.

        Semantics of a live switch: the restart *spacing* is picked up at the
        next restart boundary (the loop re-reads it each cycle — a window in
        flight is never cut), while the partition *span* applies to window
        queries immediately, which models the buffer slice being regrown or
        shrunk for all partitions at once.  Streams already live keep running
        to their natural end, so the stream population converges to the new
        ``n`` within one movie length.
        """
        if abs(config.movie_length - self.movie.length) > 1e-6:
            raise SimulationError(
                f"reconfiguration length {config.movie_length} does not match "
                f"movie {self.movie.title!r} length {self.movie.length}"
            )
        if config != self.config:
            self.config = config
            self._metrics.counter(f"reconfigured.{self.movie.movie_id}").increment()
            self._metrics.counter("reconfigured").increment()

    # ------------------------------------------------------------------
    # Fault layer.
    # ------------------------------------------------------------------
    def reap_revoked(self) -> int:
        """Drop partitions whose playback grant the fault layer revoked.

        The window disappears immediately — viewers inside it miss on their
        next resume, which is the degradation the fault model wants (the
        stream is gone; the buffered tail cannot be refilled).  Returns the
        number of partitions reaped.
        """
        reaped = 0
        for stream in list(self._live):
            if stream.grant is not None and stream.grant.revoked:
                stream.grant = None
                self._live.remove(stream)
                reaped += 1
        if reaped:
            self._metrics.counter("partitions.collapsed").increment(reaped)
            self._metrics.counter(
                f"partitions.collapsed.{self.movie.movie_id}"
            ).increment(reaped)
        return reaped

    def collapse(self, stream: LiveStream) -> None:
        """Evict one live partition, returning its stream to the pool.

        Used by buffer-pressure eviction and the ``collapse_partition``
        shedding policy; the grant is released properly (unless the fault
        layer already revoked it), so the pool's books stay balanced.
        """
        if stream not in self._live:
            raise SimulationError(
                f"collapse of a partition {self.movie.title!r} is not serving"
            )
        grant, stream.grant = stream.grant, None
        if grant is not None and not grant.revoked:
            self._streams.release(grant)
        self._live.remove(stream)
        self._metrics.counter("partitions.collapsed").increment()
        self._metrics.counter(
            f"partitions.collapsed.{self.movie.movie_id}"
        ).increment()

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @property
    def live_streams(self) -> tuple[LiveStream, ...]:
        """Snapshot of the currently live restarts."""
        return tuple(self._live)

    def find_window(self, position: float) -> Optional[LiveStream]:
        """The youngest partition whose window covers ``position``.

        The window is :mod:`repro.core.windows`'s
        ``[playhead − span, min(playhead, l)]`` — the leading
        edge saturates at the end of the movie while the buffered tail is
        drained by the partition's last viewers.  Streams that pass the
        leading-edge test form a prefix of the start-ordered live list, so
        the youngest candidate is that prefix's last stream; it covers
        ``position`` iff it also passes the trailing-edge test.  Of several
        streams with equal start times the first one wins.
        """
        live = self._live
        now = self._env.now
        playback = self.config.rates.playback
        length = self.movie.length
        lower = position - _TOL
        end = bisect_left(
            live, True, key=lambda s: not lower <= min(s.playhead(now, playback), length)
        )
        if end == 0:
            return None
        youngest = live[end - 1]
        if youngest.playhead(now, playback) - self.config.partition_span > position + _TOL:
            return None
        first = bisect_left(live, youngest.start_time, hi=end - 1, key=lambda s: s.start_time)
        return live[first]

    def live_gaps(self, position: float) -> tuple[float | None, float | None]:
        """Gaps from ``position`` to the nearest partitions, ``(ahead, behind)``.

        ``ahead`` is the distance up to the closest trailing edge above the
        position, ``behind`` the distance back to the closest leading edge
        below it; ``None`` when no partition lies on that side.  Restarts
        whose playhead is still negative count for neither.  Both edges are
        found by bisection: "trailing edge above" holds on a prefix of the
        start-ordered list (its last stream is nearest), "leading edge
        below" on a suffix (its first stream is nearest).
        """
        live = self._live
        now = self._env.now
        playback = self.config.rates.playback
        span = self.config.partition_span
        length = self.movie.length

        def trailing_above(stream: LiveStream) -> bool:
            playhead = stream.playhead(now, playback)
            return playhead >= 0.0 and max(0.0, playhead - span) > position

        ahead: float | None = None
        end = bisect_left(live, True, key=lambda s: not trailing_above(s))
        if end:
            ahead = max(0.0, live[end - 1].playhead(now, playback) - span) - position
        behind: float | None = None
        start = bisect_left(
            live, True, key=lambda s: min(s.playhead(now, playback), length) < position
        )
        if start < len(live):
            playhead = live[start].playhead(now, playback)
            if playhead >= 0.0:
                behind = position - min(playhead, length)
        return ahead, behind

    def wait_for_restart(self) -> Event:
        """Event that fires at the next successful restart (type-1 queueing)."""
        return self._restart_signal

    def streams_in_use(self) -> int:
        """Partitions still holding an I/O grant (tail-draining ones don't)."""
        return sum(1 for stream in self._live if stream.grant is not None)
