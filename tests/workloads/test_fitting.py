"""Trace analysis and behaviour fitting: the measurement round trip."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.vcrop import VCROperation
from repro.distributions import (
    EmpiricalDuration,
    ExponentialDuration,
    GammaDuration,
    UniformDuration,
)
from repro.exceptions import ConfigurationError
from repro.vod.vcr import VCRBehavior
from repro.workloads.analysis import analyze_trace
from repro.workloads.fitting import (
    FALLBACK_MEAN,
    fit_behavior,
    fit_duration_distribution,
    ks_distance,
)
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def paper_trace():
    generator = WorkloadGenerator.single_movie(
        120.0, VCRBehavior.paper_figure7(mean_think_time=12.0), arrival_rate=0.5, seed=3
    )
    return generator.generate(2400.0)


class TestAnalysis:
    def test_statistics_consistent(self, paper_trace):
        stats = analyze_trace(paper_trace)
        assert stats.num_sessions == len(paper_trace)
        assert stats.num_events == sum(stats.operation_counts.values())
        assert sum(stats.operation_fractions.values()) == pytest.approx(1.0)
        assert stats.arrival_rate == pytest.approx(0.5, rel=0.15)
        assert stats.mean_think_time is not None
        # The censoring-corrected MLE recovers the true 12-minute mean; the
        # naive gap mean is biased upward by the operations' wall time.
        assert stats.mean_think_time == pytest.approx(12.0, rel=0.1)
        assert stats.gap_summary is not None
        assert stats.gap_summary.mean > stats.mean_think_time
        assert "TraceStatistics" in stats.describe()

    def test_duration_summaries_present(self, paper_trace):
        stats = analyze_trace(paper_trace)
        for op in VCROperation:
            summary = stats.duration_summaries[op]
            assert summary is not None
            assert summary.mean == pytest.approx(8.0, abs=1.0)


class TestKSDistance:
    def test_zero_for_own_samples_empirical(self, rng):
        samples = rng.exponential(5.0, size=200)
        empirical = EmpiricalDuration(samples)
        assert ks_distance(samples, empirical) < 0.02

    def test_large_for_wrong_family(self, rng):
        samples = rng.exponential(5.0, size=500)
        wrong = UniformDuration(0.0, 1.0)
        assert ks_distance(samples, wrong) > 0.5

    def test_requires_samples(self):
        with pytest.raises(ConfigurationError):
            ks_distance([], ExponentialDuration(1.0))


class TestFitDuration:
    def test_recovers_exponential(self, rng):
        samples = rng.exponential(5.0, size=2000)
        fitted, distance = fit_duration_distribution(samples)
        assert distance < 0.05
        assert fitted.mean == pytest.approx(5.0, rel=0.1)

    def test_recovers_gamma_shape(self, rng):
        samples = rng.gamma(2.0, 4.0, size=3000)
        fitted, distance = fit_duration_distribution(samples)
        assert distance < 0.04
        assert fitted.mean == pytest.approx(8.0, rel=0.1)

    def test_recovers_uniform(self, rng):
        samples = rng.uniform(2.0, 10.0, size=2000)
        fitted, distance = fit_duration_distribution(samples)
        assert distance < 0.05
        assert fitted.cdf(1.9) < 0.05 and fitted.cdf(10.1) > 0.95

    def test_too_few_samples(self):
        with pytest.raises(ConfigurationError):
            fit_duration_distribution([1.0, 2.0])

    def test_rejects_bad_samples(self):
        with pytest.raises(ConfigurationError):
            fit_duration_distribution([1.0] * 7 + [-1.0])
        with pytest.raises(ConfigurationError):
            fit_duration_distribution([1.0] * 7 + [math.nan])


class TestDegenerateSamples:
    """The hardening contract: typed errors or deterministic fallbacks."""

    def test_empty_sample_raises_typed_error(self):
        from repro.exceptions import InsufficientDataError

        with pytest.raises(InsufficientDataError):
            fit_duration_distribution([])

    def test_single_sample_raises_typed_error(self):
        from repro.exceptions import InsufficientDataError

        with pytest.raises(InsufficientDataError):
            fit_duration_distribution([4.2])

    def test_insufficient_is_a_configuration_error(self):
        """Backwards compatibility: existing except clauses keep working."""
        from repro.exceptions import FittingError, InsufficientDataError, ReproError

        assert issubclass(InsufficientDataError, FittingError)
        assert issubclass(FittingError, ConfigurationError)
        assert issubclass(FittingError, ReproError)

    def test_zero_variance_falls_back_to_point_mass(self):
        from repro.distributions.deterministic import DeterministicDuration

        fitted, distance = fit_duration_distribution([7.5] * 50)
        assert isinstance(fitted, DeterministicDuration)
        assert fitted.value == 7.5
        assert distance == 0.0

    def test_all_zero_durations_fall_back_to_point_mass(self):
        from repro.distributions.deterministic import DeterministicDuration

        fitted, distance = fit_duration_distribution([0.0] * 20)
        assert isinstance(fitted, DeterministicDuration)
        assert fitted.value == 0.0
        assert distance == 0.0

    def test_near_constant_sample_disqualifies_broken_candidates(self, rng):
        """Tiny variance drives the gamma shape to ~1e5, whose CDF series
        diverges; that candidate must be disqualified, not crash the fit."""
        samples = rng.uniform(14.9, 15.1, size=300)
        fitted, distance = fit_duration_distribution(samples)
        assert fitted.mean == pytest.approx(15.0, rel=0.01)
        assert 0.0 <= distance < 0.2

    def test_fit_behavior_survives_constant_durations(self):
        """An all-identical-duration trace refits without crashing."""
        from repro.workloads.events import SessionRecord, Trace, VCREventRecord

        trace = Trace()
        for sid in range(12):
            events = tuple(
                VCREventRecord(
                    at_minutes=5.0 * (k + 1),
                    position=5.0 * (k + 1),
                    operation=VCROperation.PAUSE,
                    duration=3.0,
                    wall_minutes=3.0,
                )
                for k in range(2)
            )
            trace.add(
                SessionRecord(
                    session_id=sid,
                    arrival_minutes=2.0 * sid,
                    movie_id=0,
                    movie_length=90.0,
                    events=events,
                    ended_at_minutes=30.0,
                )
            )
        fitted = fit_behavior(trace)
        assert fitted.behavior.durations[VCROperation.PAUSE].mean == pytest.approx(3.0)
        assert fitted.ks_by_operation[VCROperation.PAUSE] == 0.0


class TestFitBehavior:
    def test_round_trip_mix_and_think(self, paper_trace):
        fitted = fit_behavior(paper_trace)
        mix = fitted.behavior.mix
        assert mix.p_pause == pytest.approx(0.6, abs=0.04)
        assert mix.p_ff == pytest.approx(0.2, abs=0.04)
        assert fitted.behavior.mean_think_time == pytest.approx(12.0, rel=0.15)
        assert fitted.estimated_arrival_rate == pytest.approx(0.5, rel=0.15)
        assert "FittedBehavior" in fitted.describe()

    def test_round_trip_model_predictions(self, paper_trace):
        """The headline: P(hit) from fitted statistics matches P(hit) from
        the true behaviour — the measurement loop the paper assumes closes."""
        fitted = fit_behavior(paper_trace)
        true_model = HitProbabilityModel(
            120.0, GammaDuration.paper_figure7(), mix=VCRMix.paper_figure7d()
        )
        fitted_model = HitProbabilityModel(
            120.0, dict(fitted.behavior.durations), mix=fitted.behavior.mix
        )
        for n, buffer_minutes in ((30, 90.0), (60, 60.0)):
            config = true_model.configuration(n, buffer_minutes)
            assert fitted_model.hit_probability(config) == pytest.approx(
                true_model.hit_probability(config), abs=0.02
            )

    def test_sparse_operations_fall_back(self):
        generator = WorkloadGenerator.single_movie(
            120.0,
            VCRBehavior.uniform_duration_model(
                ExponentialDuration(5.0), VCRMix.only(VCROperation.PAUSE)
            ),
            arrival_rate=0.5,
            seed=4,
        )
        trace = generator.generate(600.0)
        fitted = fit_behavior(trace)
        assert fitted.sample_counts[VCROperation.FAST_FORWARD] == 0
        assert math.isnan(fitted.ks_by_operation[VCROperation.FAST_FORWARD])
        assert FALLBACK_MEAN == 5.0
        assert fitted.behavior.durations[VCROperation.FAST_FORWARD].mean == FALLBACK_MEAN

    def test_empty_trace_rejected(self):
        from repro.workloads.events import Trace

        with pytest.raises(ConfigurationError):
            fit_behavior(Trace())
