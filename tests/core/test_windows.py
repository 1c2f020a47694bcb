"""One window oracle: the closed form of :mod:`repro.core.windows` against
brute force and against the simulated server's live-stream bisections, and
the enrollment window of the periodic restart schedule.

``VODServer`` asks :meth:`MovieService.find_window`, and
:func:`find_covering_window` is its closed-form oracle.  With an
unconstrained stream pool, no faults and no reconfiguration, the server's
restarts form the periodic lattice the closed form assumes, so the two must
agree on every hit and on the stream that covers it, also within a
tolerance of every window edge.

Two places are outside that claim, and the tests name them:

* the instants at which a stream starts or a window ends.  The server's
  clock reaches restart ``j`` as a running sum of spacings, the lattice puts
  it at ``j * l/n``, and the two differ by a few ulps; the closed form also
  admits a restart up to ``_TOL`` before it starts, and counts a window
  still live at the instant its tail ends, when the server has dropped it.
  At such an instant a query at position 0 or ``l`` can differ, so query
  times are drawn off them;
* shared edges under full buffering (``B = l``), where two windows meet.
  Both streams cover a position within ``_TOL`` of the edge; the server
  takes the younger, the closed form the one that covers strictly.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.parameters import SystemConfiguration
from repro.core.windows import _TOL, find_covering_window
from repro.exceptions import SimulationError
from repro.sim.engine import Environment
from repro.sim.metrics import MetricsRegistry
from repro.vod.movie import Movie
from repro.vod.partitioning import MovieService
from repro.vod.streams import StreamPool

@pytest.fixture
def config():
    # l=120, n=30 -> spacing 4; B=90 -> span 3.
    return SystemConfiguration(120.0, 30, 90.0)


def brute_force_window(config, now, position):
    """Reference implementation: scan every conceivable stream index.

    Window semantics: a partition started at ``s`` covers
    ``[playhead − span, min(playhead, l)]`` while ``playhead <= l + span``
    (the buffered tail outlives the I/O stream by ``span`` minutes).
    """
    spacing = config.partition_spacing
    span = config.partition_span
    best = None
    for index in range(0, int(now / spacing) + 2):
        start = index * spacing
        if start > now:
            continue
        playhead = now - start
        if playhead > config.movie_length + span:
            continue
        leading = min(playhead, config.movie_length)
        if playhead - span <= position <= leading:
            if best is None or start > best[0]:
                best = (start, index, playhead)
    return best


class TestStreamSchedule:
    """The periodic restart schedule's enrollment window, which keeps
    position 0 covered for ``B/n`` after each restart."""

    def test_enrollment_open_tracks_span(self, config):
        # Right after the restart at t=400 (multiple of 4), position 0 is
        # covered until the playhead passes span=3.
        assert find_covering_window(config, 400.5, 0.0) is not None
        assert find_covering_window(config, 402.9, 0.0) is not None
        assert find_covering_window(config, 403.5, 0.0) is None


class TestFindCoveringWindow:
    def test_hit_returns_youngest_stream(self, config):
        # At t=200, playheads are 0,4,8,... position 6 is covered by the
        # playhead-8 stream (window [5,8]) but not playhead-4 ([1,4])... it is
        # covered by [5, 8] only; youngest covering = playhead 8.
        hit = find_covering_window(config, 200.0, 6.0)
        assert hit is not None
        assert hit.playhead == pytest.approx(8.0)
        assert hit.lag == pytest.approx(2.0)

    def test_gap_is_a_miss(self, config):
        # Windows at t=200 cover [p-3, p] for p = 0, 4, 8, ...: 4.5 is in the
        # gap (4, 5).
        assert find_covering_window(config, 200.0, 4.5) is None

    def test_position_beyond_live_playheads_is_miss(self, config):
        # At t=10 the oldest playhead is 10; position 50 is ahead of all.
        assert find_covering_window(config, 10.0, 50.0) is None

    def test_pure_batching_never_hits_off_playhead(self):
        config = SystemConfiguration.pure_batching(120.0, 30)
        assert find_covering_window(config, 200.0, 1.0) is None
        # Exactly on a playhead, the degenerate window still matches.
        assert find_covering_window(config, 200.0, 4.0) is not None

    def test_rejects_positions_outside_movie(self, config):
        with pytest.raises(SimulationError):
            find_covering_window(config, 10.0, -1.0)
        with pytest.raises(SimulationError):
            find_covering_window(config, 10.0, 121.0)

    def test_matches_brute_force_on_grid(self, config):
        for now in (0.0, 3.7, 55.5, 200.0, 463.2):
            for position in (0.0, 1.5, 4.0, 37.2, 90.0, 119.0):
                fast = find_covering_window(config, now, position)
                slow = brute_force_window(config, now, position)
                if slow is None:
                    assert fast is None, (now, position)
                else:
                    assert fast is not None, (now, position)
                    assert fast.stream_index == slow[1]
                    assert fast.playhead == pytest.approx(slow[2])


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 60),
    fraction=st.floats(0.0, 1.0),
    now=st.floats(0.0, 600.0),
    pos_fraction=st.floats(0.0, 1.0),
)
def test_fast_query_equals_brute_force(n, fraction, now, pos_fraction):
    config = SystemConfiguration(120.0, n, 120.0 * fraction)
    position = 120.0 * pos_fraction
    fast = find_covering_window(config, now, position)
    slow = brute_force_window(config, now, position)
    if slow is None:
        # Boundary grace: the fast path uses a small tolerance at window
        # edges; accept a fast hit only if it is within tolerance of an edge.
        if fast is not None:
            edge_distance = min(
                abs(fast.lag), abs(config.partition_span - fast.lag)
            )
            assert edge_distance < 1e-6
    else:
        assert fast is not None
        assert fast.stream_index == slow[1]


EDGE_OFFSETS = (0.0, _TOL / 2, -_TOL / 2, 2 * _TOL, -2 * _TOL)


def lattice_service(config, now):
    """A ``MovieService`` run to ``now`` on a pool that never starves."""
    env = Environment()
    metrics = MetricsRegistry()
    pool = StreamPool(env, 2 * config.num_partitions + 2, metrics)
    movie = Movie(0, "m", config.movie_length, popularity=1.0)
    service = MovieService(env, movie, config, pool, metrics)
    service.start()
    env.run(until=now)
    assert metrics.counter_value("restarts_starved") == 0
    return service


def assert_same_hit(config, service, now, position):
    window = service.find_window(position)
    hit = find_covering_window(config, now, position)
    assert (window is None) == (hit is None), (now, position, window, hit)
    if hit is None:
        return
    lattice_start = hit.stream_index * config.partition_spacing
    if window.start_time != pytest.approx(lattice_start, abs=1e-6):
        # A shared edge under full buffering: the two answers are the
        # neighbouring streams on either side of it.
        assert config.partition_span == pytest.approx(config.partition_spacing)
        assert abs(window.start_time - lattice_start) == pytest.approx(
            config.partition_spacing
        )


_CONFIG = st.builds(
    lambda length, n, fill: SystemConfiguration(length, n, fill * length),
    st.floats(30.0, 150.0),
    st.integers(1, 40),
    st.floats(0.0, 1.0),
)
# A query time: a restart index and how far past it, as a share of the
# spacing.
_RESTART = st.integers(0, 120)
_PHASE = st.floats(0.0, 1.0, exclude_max=True)


def between_events(config, restart, phase):
    """The query time, kept 1e-6 spacings off every restart and window end.

    A window ends ``l + B/n`` after its restart, which is ``B/l`` of a
    spacing past some later restart.
    """
    for instant in (0.0, 1.0, (config.partition_span / config.partition_spacing) % 1.0):
        assume(abs(phase - instant) > 1e-6)
    return (restart + phase) * config.partition_spacing


class TestServiceMatchesClosedForm:
    @settings(max_examples=150, deadline=None)
    @given(
        config=_CONFIG,
        restart=_RESTART,
        phase=_PHASE,
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    )
    def test_random_positions(self, config, restart, phase, fractions):
        now = between_events(config, restart, phase)
        service = lattice_service(config, now)
        for fraction in fractions:
            assert_same_hit(config, service, now, fraction * config.movie_length)

    @settings(max_examples=150, deadline=None)
    @given(config=_CONFIG, restart=_RESTART, phase=_PHASE)
    def test_every_window_edge(self, config, restart, phase):
        now = between_events(config, restart, phase)
        service = lattice_service(config, now)
        playback = config.rates.playback
        length = config.movie_length
        for stream in service.live_streams:
            playhead = stream.playhead(now, playback)
            for edge in (playhead - config.partition_span, min(playhead, length)):
                for offset in EDGE_OFFSETS:
                    position = edge + offset
                    if 0.0 <= position <= length:
                        assert_same_hit(config, service, now, position)

    def test_shared_edge_under_full_buffering(self):
        # Spacing 10 = span 10: at t=50 position 30 is the trailing edge of
        # the stream started at 10 and the leading edge of the one at 20.
        config = SystemConfiguration(120.0, 12, 120.0)
        service = lattice_service(config, 50.0)
        for offset in EDGE_OFFSETS:
            assert_same_hit(config, service, 50.0, 30.0 + offset)
        assert service.find_window(30.0 + _TOL / 2).start_time == 20.0
        assert find_covering_window(config, 50.0, 30.0 + _TOL / 2).stream_index == 1

