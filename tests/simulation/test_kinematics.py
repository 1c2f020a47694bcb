"""Window kinematics (:mod:`repro.core.windows`): the O(1) covering-window
query against brute force, and the periodic restart schedule."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import SystemConfiguration
from repro.exceptions import SimulationError
from repro.core.windows import find_covering_window, next_restart


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
    """The periodic restart schedule: the next restart, and the enrollment
    window that keeps position 0 covered for ``B/n`` after each restart."""

    def test_next_restart(self, config):
        assert next_restart(config, 0.0) == 0.0
        assert next_restart(config, 0.1) == pytest.approx(4.0)
        assert next_restart(config, 4.0) == pytest.approx(4.0)
        assert next_restart(config, 9.3) == pytest.approx(12.0)

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
