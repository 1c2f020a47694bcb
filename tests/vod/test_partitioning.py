"""MovieService: restart schedule, windows, starvation, enrollment."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import SystemConfiguration
from repro.exceptions import SimulationError
from repro.sim.engine import Environment
from repro.sim.metrics import MetricsRegistry
from repro.vod.movie import Movie
from repro.vod.partitioning import _TOL, LiveStream, MovieService
from repro.vod.streams import StreamPool, StreamPurpose


def make_service(stream_capacity=50, n=6, buffer_minutes=60.0, length=120.0):
    env = Environment()
    metrics = MetricsRegistry()
    pool = StreamPool(env, stream_capacity, metrics)
    movie = Movie(0, "m", length, popularity=1.0)
    config = SystemConfiguration(length, n, buffer_minutes)
    service = MovieService(env, movie, config, pool, metrics)
    return env, pool, metrics, service


class TestRestarts:
    def test_periodic_restarts(self):
        env, pool, metrics, service = make_service()
        service.start()
        env.run(until=61.0)  # spacing 20: restarts at 0, 20, 40, 60
        assert metrics.counter_value("restarts") == 4
        assert len(service.live_streams) == 4

    def test_start_idempotent(self):
        env, pool, metrics, service = make_service()
        service.start()
        service.start()
        env.run(until=1.0)
        assert metrics.counter_value("restarts") == 1

    def test_stream_released_at_movie_end_window_persists(self):
        env, pool, metrics, service = make_service(n=6, buffer_minutes=60.0)
        service.start()
        # Stream 0 ends at t=120; its window tail lives until t=130 (span 10).
        env.run(until=125.0)
        heads = [s.start_time for s in service.live_streams]
        assert 0.0 in heads
        stream0 = next(s for s in service.live_streams if s.start_time == 0.0)
        assert stream0.grant is None  # I/O released
        assert service.find_window(115.0) is not None  # tail still buffered
        env.run(until=131.0)
        assert all(s.start_time != 0.0 for s in service.live_streams)

    def test_starved_restart_counted(self):
        env, pool, metrics, service = make_service(stream_capacity=2)
        service.start()
        env.run(until=61.0)  # wants 4 restarts, capacity 2
        assert metrics.counter_value("restarts") == 2
        assert metrics.counter_value("restarts_starved") == 2

    def test_steady_state_stream_usage(self):
        env, pool, metrics, service = make_service(n=6)
        service.start()
        env.run(until=500.0)
        # Exactly n streams hold grants in steady state.
        assert service.streams_in_use() == 6
        assert pool.held_for(StreamPurpose.PLAYBACK) == 6


class TestWindows:
    def test_find_window_matches_geometry(self):
        env, pool, metrics, service = make_service(n=6, buffer_minutes=60.0)
        service.start()
        env.run(until=50.0)
        # Playheads at t=50: 50, 30, 10. Spans 10 -> windows [40,50],[20,30],[0,10].
        assert service.find_window(45.0) is not None
        assert service.find_window(35.0) is None
        assert service.find_window(5.0) is not None

    def test_youngest_window_preferred(self):
        env, pool, metrics, service = make_service(n=12, buffer_minutes=120.0)
        service.start()
        env.run(until=50.0)
        # Full buffering: spacing 10 = span 10; windows tile; position 30 is
        # the edge of two windows; the younger stream (playhead 30) wins.
        window = service.find_window(30.0)
        assert window is not None
        assert window.start_time == pytest.approx(20.0)

    def test_enrollment_open_right_after_restart(self):
        env, pool, metrics, service = make_service(n=6, buffer_minutes=60.0)
        service.start()
        env.run(until=0.5)
        assert service.enrollment_open()
        env.run(until=11.0)  # span 10 passed, next restart at 20
        assert not service.enrollment_open()

    def test_wait_for_restart_signal(self):
        env, pool, metrics, service = make_service()
        service.start()
        woken = []

        def waiter():
            yield env.timeout(15.0)  # between restarts (spacing 20)
            yield service.wait_for_restart()
            woken.append(env.now)

        env.process(waiter())
        env.run(until=30.0)
        assert woken == [20.0]


class TestValidation:
    def test_config_length_mismatch(self):
        env = Environment()
        metrics = MetricsRegistry()
        pool = StreamPool(env, 10, metrics)
        movie = Movie(0, "m", 100.0, popularity=1.0)
        config = SystemConfiguration(120.0, 6, 60.0)
        with pytest.raises(SimulationError, match="does not match"):
            MovieService(env, movie, config, pool, metrics)


# ----------------------------------------------------------------------
# The bisected queries against the linear scans they replaced.
# ----------------------------------------------------------------------
def scan_find_window(service, position):
    """Reference: every live stream, youngest covering one wins (first of
    equal start times)."""
    now = service._env.now
    playback = service.config.rates.playback
    span = service.config.partition_span
    best = None
    for stream in service.live_streams:
        playhead = stream.playhead(now, playback)
        leading = min(playhead, service.movie.length)
        if position - _TOL <= leading and playhead - span <= position + _TOL:
            if best is None or stream.start_time > best.start_time:
                best = stream
    return best


def scan_live_gaps(service, position):
    """Reference: nearest trailing edge ahead, nearest leading edge behind."""
    now = service._env.now
    playback = service.config.rates.playback
    span = service.config.partition_span
    length = service.movie.length
    ahead = behind = None
    for stream in service.live_streams:
        playhead = stream.playhead(now, playback)
        if playhead < 0.0:
            continue
        leading = min(playhead, length)
        trailing = max(0.0, playhead - span)
        if trailing > position:
            gap = trailing - position
            if ahead is None or gap < ahead:
                ahead = gap
        if leading < position:
            gap = position - leading
            if behind is None or gap < behind:
                behind = gap
    return ahead, behind


def _probe_positions(service):
    """Window edges of every live stream, each exactly and at ±_TOL and
    the neighbouring floats, plus 0 and the end of the movie."""
    now = service._env.now
    playback = service.config.rates.playback
    span = service.config.partition_span
    length = service.movie.length
    edges = {0.0, length, length + 1.0}
    for stream in service.live_streams:
        playhead = stream.playhead(now, playback)
        edges.update((playhead, min(playhead, length), playhead - span))
        edges.add(max(0.0, playhead - span))
    positions = set()
    for edge in edges:
        for value in (edge, edge - _TOL, edge + _TOL):
            positions.update(
                (value, math.nextafter(value, -math.inf), math.nextafter(value, math.inf))
            )
    return sorted(positions)


def _assert_queries_match_scan(service):
    for position in _probe_positions(service):
        assert service.find_window(position) is scan_find_window(service, position)
        assert service.live_gaps(position) == scan_live_gaps(service, position)


_STEP = st.one_of(
    st.tuples(st.just("advance"), st.floats(0.01, 40.0)),
    st.tuples(st.just("twin"), st.booleans()),
    st.tuples(st.just("reconfigure"), st.integers(1, 16), st.floats(0.0, 1.0)),
    st.tuples(st.just("collapse"), st.integers(0, 64)),
    st.tuples(st.just("revoke"), st.integers(1, 4)),
)


class TestOrderedQueriesMatchScan:
    @settings(max_examples=120, deadline=None)
    @given(
        length=st.sampled_from([60.0, 75.0, 120.0]),
        n=st.integers(1, 16),
        fill=st.floats(0.0, 1.0),
        steps=st.lists(_STEP, min_size=1, max_size=14),
        future=st.booleans(),
    )
    def test_find_window_and_gaps_equal_linear_scan(self, length, n, fill, steps, future):
        env, pool, _, service = make_service(
            stream_capacity=24, n=n, buffer_minutes=fill * length, length=length
        )
        service.start()
        for step in steps:
            kind = step[0]
            if kind == "advance":
                env.run(until=env.now + step[1])
            elif kind == "twin":
                # An equal start time: a twin of the youngest stream, or a
                # restart stamped exactly now.
                live = service.live_streams
                start = live[-1].start_time if live and step[1] else env.now
                service._live.append(LiveStream(start_time=start, grant=None))
            elif kind == "reconfigure":
                service.reconfigure(
                    SystemConfiguration(length, step[1], step[2] * length)
                )
            elif kind == "collapse":
                live = service.live_streams
                if live:
                    service.collapse(live[step[1] % len(live)])
            else:
                pool.revoke(step[1])
                service.reap_revoked()
            _assert_queries_match_scan(service)
        if future:
            # A restart stamped after now (playhead < 0) sorts last; the gap
            # query must skip it exactly as the scan does.
            service._live.append(LiveStream(start_time=env.now + 1.0, grant=None))
            _assert_queries_match_scan(service)

    def test_equal_start_times_resolve_to_the_first(self):
        env, pool, metrics, service = make_service(n=6, buffer_minutes=60.0)
        service.start()
        env.run(until=25.0)
        twin = LiveStream(start_time=20.0, grant=None)
        service._live.append(twin)
        window = service.find_window(3.0)
        assert window is not twin and window.start_time == 20.0
        assert window is scan_find_window(service, 3.0)

    def test_tail_drains_past_the_movie_end(self):
        env, pool, metrics, service = make_service(n=6, buffer_minutes=60.0)
        service.start()
        env.run(until=125.0)  # stream 0: playhead 125, leading edge 120
        stream0 = service.live_streams[0]
        assert service.find_window(120.0) is stream0
        assert service.find_window(120.0 + 2 * _TOL) is None
        assert service.live_gaps(121.0) == scan_live_gaps(service, 121.0)
        assert service.live_gaps(121.0)[1] == 1.0
