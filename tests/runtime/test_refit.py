"""Drift-gated refitting: quiet when stationary, fires on genuine change."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.vcrop import VCROperation
from repro.distributions import ExponentialDuration, GammaDuration, UniformDuration
from repro.runtime.refit import KS_THRESHOLD, MIN_WINDOW_SAMPLES, IncrementalRefitter
from repro.workloads.fitting import FALLBACK_MEAN
from repro.runtime.telemetry import MovieTelemetry
from repro.vod.vcr import VCRBehavior


def _snapshot_with(durations_by_op, now=100.0, rng_seed=1):
    """Build a telemetry snapshot carrying the given duration windows."""
    telemetry = MovieTelemetry(0, 120.0)
    telemetry.record_session_start(0.0)
    telemetry.record_session_start(0.1)
    telemetry.record_session_start(0.2)
    t = 0.3
    for op, samples in durations_by_op.items():
        for value in samples:
            telemetry.record_operation(op, float(value), t)
            t += 0.001
    telemetry.record_playback(12.0 * telemetry.events_seen, now)
    return telemetry.snapshot(now)


class TestDriftGate:
    def test_first_window_fits_unconditionally(self, rng):
        refitter = IncrementalRefitter()
        samples = rng.gamma(2.0, 4.0, size=200)
        snap = _snapshot_with({op: samples for op in VCROperation})
        report = refitter.observe(snap)
        assert report.drifted
        assert set(report.refitted) == set(VCROperation)
        assert all(math.isinf(report.ks_by_operation[op]) for op in VCROperation)

    def test_stationary_window_is_quiet(self, rng):
        refitter = IncrementalRefitter()
        samples = rng.gamma(2.0, 4.0, size=200)
        snap = _snapshot_with({op: samples for op in VCROperation})
        refitter.observe(snap)
        # Fresh draws from the SAME distribution: below threshold, no refit.
        again = _snapshot_with({op: rng.gamma(2.0, 4.0, size=200) for op in VCROperation})
        report = refitter.observe(again)
        assert not report.drifted
        assert report.refitted == ()
        assert refitter.refits == 1  # only the bootstrap fit

    def test_family_change_triggers_refit(self, rng):
        refitter = IncrementalRefitter()
        snap = _snapshot_with({op: rng.gamma(2.0, 4.0, size=200) for op in VCROperation})
        refitter.observe(snap)
        shifted = _snapshot_with(
            {op: rng.uniform(20.0, 40.0, size=200) for op in VCROperation}
        )
        report = refitter.observe(shifted)
        assert report.drifted
        assert set(report.refitted) == set(VCROperation)
        fit = refitter.fitted_durations(0)[VCROperation.PAUSE]
        assert fit.mean == pytest.approx(30.0, rel=0.1)

    def test_seeded_reference_detects_offline_mismatch(self, rng):
        """Seeding with the offline assumption makes tick 1 a comparison."""
        refitter = IncrementalRefitter()
        refitter.seed(0, VCRBehavior.uniform_duration_model(ExponentialDuration(30.0)))
        snap = _snapshot_with({op: rng.gamma(2.0, 4.0, size=200) for op in VCROperation})
        report = refitter.observe(snap)
        assert report.drifted  # gamma(2,4) data vs exp(30) seed: KS is large
        assert KS_THRESHOLD == 0.15
        assert all(report.ks_by_operation[op] > KS_THRESHOLD for op in VCROperation)

    def test_seeded_matching_reference_stays_quiet(self, rng):
        refitter = IncrementalRefitter()
        refitter.seed(0, VCRBehavior.uniform_duration_model(GammaDuration(2.0, 4.0)))
        snap = _snapshot_with({op: rng.gamma(2.0, 4.0, size=300) for op in VCROperation})
        report = refitter.observe(snap)
        assert not report.drifted

    def test_thin_window_keeps_fallback(self):
        refitter = IncrementalRefitter()
        assert (MIN_WINDOW_SAMPLES, FALLBACK_MEAN) == (30, 5.0)
        snap = _snapshot_with({VCROperation.PAUSE: [3.0] * 5})
        report = refitter.observe(snap)
        assert set(report.skipped_insufficient) == set(VCROperation)
        assert not report.drifted
        fits = refitter.fitted_durations(0)
        assert fits[VCROperation.PAUSE].mean == FALLBACK_MEAN

    def test_window_floor_is_thirty_samples(self, rng):
        """29 samples keep the fallback; the 30th makes the window fit."""
        refitter = IncrementalRefitter()
        samples = rng.gamma(2.0, 4.0, size=MIN_WINDOW_SAMPLES)
        short = refitter.observe(_snapshot_with({VCROperation.PAUSE: samples[:-1]}))
        assert VCROperation.PAUSE in short.skipped_insufficient
        assert refitter.fitted_durations(0)[VCROperation.PAUSE].mean == FALLBACK_MEAN
        full = refitter.observe(_snapshot_with({VCROperation.PAUSE: samples}))
        assert VCROperation.PAUSE not in full.skipped_insufficient
        assert not math.isnan(full.ks_by_operation[VCROperation.PAUSE])

    def test_degenerate_window_does_not_crash(self, rng):
        """An all-identical window refits to the point mass, not a crash."""
        refitter = IncrementalRefitter()
        snap = _snapshot_with({op: rng.gamma(2.0, 4.0, size=100) for op in VCROperation})
        refitter.observe(snap)
        constant = _snapshot_with({op: [7.0] * 100 for op in VCROperation})
        report = refitter.observe(constant)
        assert report.drifted
        assert refitter.fitted_durations(0)[VCROperation.PAUSE].mean == pytest.approx(7.0)

    def test_describe_mentions_outcome(self, rng):
        refitter = IncrementalRefitter()
        snap = _snapshot_with({op: rng.gamma(2.0, 4.0, size=100) for op in VCROperation})
        assert "refit" in refitter.observe(snap).describe()
        again = _snapshot_with({op: rng.gamma(2.0, 4.0, size=100) for op in VCROperation})
        assert "quiet" in refitter.observe(again).describe()


class TestBehaviorAssembly:
    def test_behavior_for_combines_fits_and_mix(self, rng):
        refitter = IncrementalRefitter()
        snap = _snapshot_with({op: rng.gamma(2.0, 4.0, size=200) for op in VCROperation})
        refitter.observe(snap)
        behavior = refitter.behavior_for(snap)
        assert behavior is not None
        assert behavior.mix == snap.mix
        assert behavior.durations[VCROperation.PAUSE].mean == pytest.approx(8.0, rel=0.2)
        assert behavior.mean_think_time == pytest.approx(snap.mean_think_time)

    def test_behavior_none_before_any_operation(self):
        refitter = IncrementalRefitter()
        telemetry = MovieTelemetry(0, 120.0)
        assert refitter.behavior_for(telemetry.snapshot(1.0)) is None
