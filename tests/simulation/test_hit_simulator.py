"""The hit simulator: mechanics, accounting and regression behaviour."""

from __future__ import annotations

import math

import pytest

from repro.core.hitmodel import VCRMix
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions import ExponentialDuration, GammaDuration
from repro.exceptions import SimulationError
from repro.simulation.hit_simulator import (
    HitSimulator,
    ObservedRate,
    SimulationSettings,
)

CONFIG = SystemConfiguration(120.0, 30, 90.0)
SHORT = SimulationSettings(horizon=600.0, warmup=120.0)


class TestObservedRate:
    def test_rate_and_ci(self):
        rate = ObservedRate()
        for success in [True, True, False, True]:
            rate.record(success)
        assert rate.rate == pytest.approx(0.75)
        assert rate.ci_halfwidth() > 0.0

    def test_empty_rate_is_nan(self):
        assert math.isnan(ObservedRate().rate)
        assert ObservedRate().ci_halfwidth() == math.inf

    def test_merge(self):
        a, b = ObservedRate(3, 4), ObservedRate(1, 6)
        merged = a.merge(b)
        assert merged.successes == 4 and merged.trials == 10


class TestSettingsValidation:
    def test_rejects_bad_rates(self):
        with pytest.raises(SimulationError):
            SimulationSettings(arrival_rate=0.0)
        with pytest.raises(SimulationError):
            SimulationSettings(mean_think_time=-1.0)
        with pytest.raises(SimulationError):
            SimulationSettings(warmup=100.0, horizon=50.0)


class TestSimulatorRuns:
    def test_deterministic_replication(self):
        simulator = HitSimulator(
            CONFIG, GammaDuration(2.0, 4.0), VCRMix.paper_figure7d(), settings=SHORT
        )
        a = simulator.run(replication=0)
        b = simulator.run(replication=0)
        assert a.overall.successes == b.overall.successes
        assert a.overall.trials == b.overall.trials

    def test_replications_differ(self):
        simulator = HitSimulator(
            CONFIG, GammaDuration(2.0, 4.0), VCRMix.paper_figure7d(), settings=SHORT
        )
        a = simulator.run(replication=0)
        b = simulator.run(replication=1)
        assert (a.overall.successes, a.overall.trials) != (
            b.overall.successes,
            b.overall.trials,
        )

    def test_single_operation_mix_records_only_that_operation(self):
        simulator = HitSimulator(
            CONFIG,
            GammaDuration(2.0, 4.0),
            VCRMix.only(VCROperation.PAUSE),
            settings=SHORT,
        )
        result = simulator.run()
        assert result.per_operation[VCROperation.PAUSE].trials > 0
        assert result.per_operation[VCROperation.FAST_FORWARD].trials == 0
        assert result.per_operation[VCROperation.REWIND].trials == 0

    def test_accounting_consistency(self):
        simulator = HitSimulator(
            CONFIG, GammaDuration(2.0, 4.0), VCRMix.paper_figure7d(), settings=SHORT
        )
        result = simulator.run()
        overall = result.overall
        assert overall.trials == sum(
            r.trials for r in result.per_operation.values()
        )
        assert 0 <= overall.successes <= overall.trials
        assert result.viewers_completed <= result.viewers_started
        assert result.rewind_start_hits <= result.per_operation[
            VCROperation.REWIND
        ].successes + 1  # start hits are a subset of rewind hits
        assert result.ff_end_releases <= result.per_operation[
            VCROperation.FAST_FORWARD
        ].trials

    def test_full_buffer_all_ff_hits(self):
        config = SystemConfiguration(120.0, 10, 120.0)
        simulator = HitSimulator(
            config,
            GammaDuration(2.0, 4.0),
            VCRMix.only(VCROperation.FAST_FORWARD),
            settings=SHORT,
        )
        result = simulator.run()
        ff = result.per_operation[VCROperation.FAST_FORWARD]
        assert ff.trials > 50
        assert ff.rate == pytest.approx(1.0, abs=1e-12)

    def test_pure_batching_mostly_misses(self):
        config = SystemConfiguration.pure_batching(120.0, 30)
        simulator = HitSimulator(
            config,
            GammaDuration(2.0, 4.0),
            VCRMix.only(VCROperation.PAUSE),
            settings=SHORT,
        )
        result = simulator.run()
        pause = result.per_operation[VCROperation.PAUSE]
        assert pause.trials > 50
        assert pause.rate < 0.02  # measure-zero windows

    def test_pure_batching_ff_hits_are_end_releases(self):
        """Eq. (20): with no buffer, every FF success is a movie-end release."""
        simulator = HitSimulator(
            SystemConfiguration.pure_batching(120.0, 30),
            GammaDuration(2.0, 4.0),
            VCRMix.only(VCROperation.FAST_FORWARD),
            settings=SHORT,
        )
        result = simulator.run()
        ff = result.per_operation[VCROperation.FAST_FORWARD]
        assert result.ff_end_releases > 0
        assert ff.trials > result.ff_end_releases
        assert ff.successes == result.ff_end_releases

    def test_viewer_types_recorded(self):
        simulator = HitSimulator(
            CONFIG, GammaDuration(2.0, 4.0), VCRMix.paper_figure7d(), settings=SHORT
        )
        result = simulator.run()
        assert result.type1_viewers > 0
        assert result.type2_viewers > 0

    def test_merge_pools_counts(self):
        simulator = HitSimulator(
            CONFIG, GammaDuration(2.0, 4.0), VCRMix.paper_figure7d(), settings=SHORT
        )
        a, b = simulator.run(0), simulator.run(1)
        merged = a.merge(b)
        assert merged.overall.trials == a.overall.trials + b.overall.trials
        assert merged.viewers_started == a.viewers_started + b.viewers_started

    def test_per_operation_durations(self):
        """Different duration distributions per operation are honoured.

        With a pause-only mix and near-zero pauses, viewers never leave
        their enrolled partition, so virtually every resume hits; the same
        configuration with mean-8 pauses misses substantially.
        """
        tiny = HitSimulator(
            CONFIG,
            {
                VCROperation.FAST_FORWARD: ExponentialDuration(8.0),
                VCROperation.REWIND: ExponentialDuration(8.0),
                VCROperation.PAUSE: ExponentialDuration(0.02),
            },
            VCRMix.only(VCROperation.PAUSE),
            settings=SHORT,
        )
        result = tiny.run()
        assert result.per_operation[VCROperation.PAUSE].rate > 0.95
        regular = HitSimulator(
            CONFIG, ExponentialDuration(8.0), VCRMix.only(VCROperation.PAUSE),
            settings=SHORT,
        ).run()
        assert regular.per_operation[VCROperation.PAUSE].rate < 0.9
