"""Session registry and stream account invariants."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError, SessionStateError
from repro.service.state import SessionPhase, SessionRegistry, StreamAccount
from repro.vod.streams import StreamPurpose


class TestSessionRegistry:
    def test_open_get_close_lifecycle(self):
        registry = SessionRegistry()
        session = registry.open(1, movie_id=0, planned=True, now=5.0)
        assert session.phase is SessionPhase.PLAYING
        assert registry.get(1) is session
        assert 1 in registry
        closed = registry.close(1)
        assert closed is session
        assert 1 not in registry
        assert (registry.opened, registry.closed) == (1, 1)

    def test_duplicate_open_is_typed_error(self):
        registry = SessionRegistry()
        registry.open(1, 0, True, 0.0)
        with pytest.raises(SessionStateError, match="already open"):
            registry.open(1, 2, False, 1.0)

    def test_get_and_close_unknown_are_typed_errors(self):
        registry = SessionRegistry()
        with pytest.raises(SessionStateError, match="not open"):
            registry.get(9)
        with pytest.raises(SessionStateError, match="not open"):
            registry.close(9)

    def test_open_ids_sorted_and_peak_tracked(self):
        registry = SessionRegistry()
        for session_id in (5, 1, 3):
            registry.open(session_id, 0, True, 0.0)
        assert registry.open_ids() == [1, 3, 5]
        registry.close(3)
        assert registry.peak_open == 3
        assert len(registry) == 2


class TestStreamAccount:
    def test_acquire_release_books(self):
        account = StreamAccount(3)
        assert account.acquire(StreamPurpose.VCR, session_id=1)
        assert account.acquire(StreamPurpose.UNPOPULAR, session_id=2)
        assert (account.in_use, account.available) == (2, 1)
        account.release(StreamPurpose.VCR, session_id=1)
        assert account.held_for(StreamPurpose.VCR) == 0

    def test_acquire_fails_when_exhausted(self):
        account = StreamAccount(1)
        assert account.acquire(StreamPurpose.VCR, 1)
        assert not account.acquire(StreamPurpose.VCR, 2)

    def test_release_unheld_is_typed_error(self):
        account = StreamAccount(1)
        with pytest.raises(SessionStateError, match="no vcr streams"):
            account.release(StreamPurpose.VCR)

    def test_retag_keeps_the_stream_while_over_committed(self):
        account = StreamAccount(2)
        assert account.acquire(StreamPurpose.VCR, 7)
        account.acquire_block(StreamPurpose.PLAYBACK, 2)  # 3 held, capacity 2
        account.retag(StreamPurpose.VCR, StreamPurpose.MISS_HOLD, 7)
        assert account.held_for(StreamPurpose.VCR) == 0
        assert account.held_for(StreamPurpose.MISS_HOLD) == 1
        assert account.holders(StreamPurpose.MISS_HOLD) == [7]
        assert account.in_use == 3

    def test_block_resize_preserves_owned_holds(self):
        account = StreamAccount(10)
        account.acquire_block(StreamPurpose.PLAYBACK, 4)
        account.set_block(StreamPurpose.PLAYBACK, 2)
        assert account.held_for(StreamPurpose.PLAYBACK) == 2
        account.set_block(StreamPurpose.PLAYBACK, 6)
        assert account.held_for(StreamPurpose.PLAYBACK) == 6

    def test_revoke_shed_oldest_first_in_order(self):
        account = StreamAccount(5)
        account.acquire(StreamPurpose.VCR, 11)
        account.acquire(StreamPurpose.VCR, 12)
        account.acquire(StreamPurpose.MISS_HOLD, 13)
        victims = account.revoke(
            2, order=(StreamPurpose.VCR, StreamPurpose.MISS_HOLD)
        )
        assert [v.session_id for v in victims] == [11, 12]
        assert account.held_for(StreamPurpose.VCR) == 0
        assert account.held_for(StreamPurpose.MISS_HOLD) == 1

    def test_revoke_spills_to_next_purpose(self):
        account = StreamAccount(5)
        account.acquire(StreamPurpose.VCR, 1)
        account.acquire(StreamPurpose.MISS_HOLD, 2)
        victims = account.revoke(
            3, order=(StreamPurpose.VCR, StreamPurpose.MISS_HOLD)
        )
        assert [(v.purpose, v.session_id) for v in victims] == [
            (StreamPurpose.VCR, 1),
            (StreamPurpose.MISS_HOLD, 2),
        ]

    def test_overcommit_representable_after_capacity_fault(self):
        account = StreamAccount(4)
        account.acquire_block(StreamPurpose.PLAYBACK, 4)
        account.capacity = 2
        assert account.in_use == 4
        assert account.available == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamAccount(-1)

    def test_holders_tracks_acquisition_order(self):
        account = StreamAccount(3)
        account.acquire(StreamPurpose.VCR, 7)
        account.acquire(StreamPurpose.VCR, 3)
        assert account.holders(StreamPurpose.VCR) == [7, 3]
