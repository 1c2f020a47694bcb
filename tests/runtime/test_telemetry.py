"""Streaming telemetry: decay math, windows, and both ingest dialects."""

from __future__ import annotations

import math

import pytest

from repro.core.vcrop import VCROperation
from repro.exceptions import ConfigurationError
from repro.runtime.telemetry import (
    HALF_LIFE_MINUTES,
    WINDOW_SIZE,
    MovieTelemetry,
    TelemetryHub,
)
from repro.vod.vcr import VCRBehavior
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def replayed_hub():
    generator = WorkloadGenerator.single_movie(
        120.0, VCRBehavior.paper_figure7(mean_think_time=12.0), arrival_rate=0.5, seed=3
    )
    trace = generator.generate(1200.0)
    hub = TelemetryHub()
    hub.ingest_trace(trace)
    return hub


class TestMovieTelemetry:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MovieTelemetry(0, movie_length=-1.0)

    def test_rate_estimator_converges(self):
        """Regular arrivals at rate r: the decayed counter reports ~r."""
        telemetry = MovieTelemetry(0, 120.0)
        rate = 0.5
        for k in range(2400):
            telemetry.record_session_start(k / rate)
        estimated = telemetry.arrival_rate(2400.0 / rate)
        assert estimated == pytest.approx(rate, rel=0.05)

    def test_rate_needs_samples(self):
        telemetry = MovieTelemetry(0, 120.0)
        assert telemetry.arrival_rate(10.0) is None
        telemetry.record_session_start(1.0)
        assert telemetry.arrival_rate(10.0) is None

    def test_decay_forgets_old_traffic(self):
        """A burst far in the past contributes almost nothing to the rate."""
        telemetry = MovieTelemetry(0, 120.0)
        for k in range(100):
            telemetry.record_session_start(float(k))
        late = telemetry.arrival_rate(100.0 + 20 * HALF_LIFE_MINUTES)  # 20 half-lives
        assert late is None or late < 1e-3

    def test_counters_halve_every_240_minutes(self):
        assert HALF_LIFE_MINUTES == 240.0
        telemetry = MovieTelemetry(0, 120.0)
        for _ in range(3):
            telemetry.record_session_start(0.0)
        fresh = telemetry.arrival_rate(0.0)
        assert telemetry.arrival_rate(240.0) == pytest.approx(fresh / 2.0, rel=1e-12)
        assert telemetry.arrival_rate(480.0) == pytest.approx(fresh / 4.0, rel=1e-12)

    def test_mix_tracks_operations(self):
        # One timestamp: every counter decays alike, so the shares are the
        # raw-count shares at any later time.
        telemetry = MovieTelemetry(0, 120.0)
        for _ in range(6):
            telemetry.record_operation(VCROperation.PAUSE, 3.0, 0.0)
        for _ in range(2):
            telemetry.record_operation(VCROperation.FAST_FORWARD, 5.0, 0.0)
        mix = telemetry.mix(8.0)
        assert mix.p_pause == pytest.approx(0.75)
        assert mix.p_ff == pytest.approx(0.25)
        assert mix.p_rw == pytest.approx(0.0)

    def test_mix_without_pauses_clamps_rounding(self):
        """4 FF + 1 RW: ``1 - 0.8 - 0.2`` rounds to -5.6e-17; the pause
        share must come out as 0, not fail the mix's range check."""
        telemetry = MovieTelemetry(0, 120.0)
        for _ in range(4):
            telemetry.record_operation(VCROperation.FAST_FORWARD, 5.0, 0.0)
        telemetry.record_operation(VCROperation.REWIND, 5.0, 0.0)
        assert 1.0 - 4 / 5 - 1 / 5 < 0.0
        mix = telemetry.mix(0.0)
        assert mix.p_pause == 0.0
        assert (mix.p_ff, mix.p_rw) == (4 / 5, 1 / 5)

    def test_duration_window_is_bounded(self):
        assert WINDOW_SIZE == 512
        telemetry = MovieTelemetry(0, 120.0)
        for k in range(600):
            telemetry.record_operation(VCROperation.REWIND, float(k), float(k))
        window = telemetry.durations_of(VCROperation.REWIND)
        assert len(window) == WINDOW_SIZE
        assert window[0] == 600.0 - WINDOW_SIZE  # the oldest samples aged out
        assert window[-1] == 599.0  # newest samples survive

    def test_rejects_bad_durations(self):
        telemetry = MovieTelemetry(0, 120.0)
        with pytest.raises(ConfigurationError):
            telemetry.record_operation(VCROperation.PAUSE, -1.0, 0.0)
        with pytest.raises(ConfigurationError):
            telemetry.record_operation(VCROperation.PAUSE, math.nan, 0.0)

    def test_think_time_is_exposure_over_events(self):
        telemetry = MovieTelemetry(0, 120.0)
        telemetry.record_operation(VCROperation.PAUSE, 2.0, 30.0)
        telemetry.record_operation(VCROperation.PAUSE, 2.0, 30.0)
        telemetry.record_playback(24.0, 30.0)
        assert telemetry.mean_think_time(30.0) == pytest.approx(12.0)


class TestTraceReplay:
    def test_snapshot_recovers_paper_statistics(self, replayed_hub):
        snap = replayed_hub.snapshot(1200.0)[0]
        assert snap.mix.p_pause == pytest.approx(0.6, abs=0.05)
        assert snap.mix.p_ff == pytest.approx(0.2, abs=0.05)
        assert snap.mean_think_time == pytest.approx(12.0, rel=0.15)
        # The decayed estimator is biased low versus the true 0.5 while the
        # window fills; it must still land in the right regime.
        assert 0.3 <= snap.arrival_rate <= 0.6
        assert snap.sample_count(VCROperation.PAUSE) > 100

    def test_observed_hit_rate_none_without_resumes(self, replayed_hub):
        snap = replayed_hub.snapshot(1200.0)[0]
        assert snap.observed_hit_rate is None  # replay carries no resume events

    def test_first_contact_requires_length(self):
        hub = TelemetryHub()
        with pytest.raises(ConfigurationError):
            hub.movie(42)
        hub.movie(42, movie_length=90.0)
        assert hub.movie(42).movie_length == 90.0
        assert hub.movie_ids == (42,)


class TestObserverProtocol:
    def test_live_observation_round_trip(self):
        hub = TelemetryHub()
        hub.on_session_start(7, 100.0, 1.0)
        hub.on_session_start(7, 100.0, 2.0)
        hub.on_session_start(7, 100.0, 3.0)
        hub.on_vcr(7, VCROperation.PAUSE, 4.0, 3.5)
        hub.on_playback(7, 10.0, 3.5)
        hub.on_resume(7, True, 4.0)
        hub.on_resume(7, False, 5.0)
        hub.on_session_end(7, 6.0)
        snap = hub.snapshot(6.0)[7]
        assert snap.sessions_seen == 3
        assert snap.events_seen == 1
        assert snap.resume_hits == 1 and snap.resume_misses == 1
        assert snap.observed_hit_rate == pytest.approx(0.5)
