"""The Figure-7 harness: one-title server runs and model-vs-simulation points."""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

import repro.experiments.figure7 as figure7
from repro.core.hitmodel import VCRMix
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions import GammaDuration
from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments.figure7 import (
    ComparisonPoint,
    compare_model_and_simulation,
    resume_counts,
    simulate_one_title,
)
from repro.vod.server import ServerWorkload
from repro.vod.vcr import VCRBehavior

CONFIG = SystemConfiguration(120.0, 30, 90.0)
SHORT = ServerWorkload(arrival_rate=0.5, horizon=600.0, warmup=120.0, seed=20250704)


def behavior(operation: VCROperation | None = None) -> VCRBehavior:
    mix = VCRMix.paper_figure7d() if operation is None else VCRMix.only(operation)
    return VCRBehavior.uniform_duration_model(GammaDuration(2.0, 4.0), mix)


class _OperationLog:
    """Counts the VCR operations a server run completes, by type."""

    def __init__(self) -> None:
        self.operations: Counter[VCROperation] = Counter()

    def on_vcr_end(self, movie_id, operation, outcome, now) -> None:
        self.operations[operation] += 1


class TestOneTitleServer:
    def test_same_seed_same_run(self):
        a = simulate_one_title(CONFIG, behavior(), SHORT)
        b = simulate_one_title(CONFIG, behavior(), SHORT)
        assert a.report() == b.report()
        assert resume_counts(a.metrics) == resume_counts(b.metrics)

    def test_full_buffer_every_ff_hits(self):
        server = simulate_one_title(
            SystemConfiguration(120.0, 10, 120.0),
            behavior(VCROperation.FAST_FORWARD),
            SHORT,
        )
        hits, trials = resume_counts(server.metrics)
        assert trials > 50
        assert hits == trials

    def test_pure_batching_pause_almost_always_misses(self):
        server = simulate_one_title(
            SystemConfiguration.pure_batching(120.0, 30),
            behavior(VCROperation.PAUSE),
            SHORT,
        )
        hits, trials = resume_counts(server.metrics)
        assert trials > 50
        assert hits / trials < 0.02  # measure-zero windows

    def test_pure_batching_ff_hits_are_end_releases(self):
        """Eq. (20): with no buffer, every FF success is a movie-end release."""
        server = simulate_one_title(
            SystemConfiguration.pure_batching(120.0, 30),
            behavior(VCROperation.FAST_FORWARD),
            SHORT,
        )
        hits, trials = resume_counts(server.metrics)
        end_releases = server.metrics.counter_value("vcr.end_release")
        assert end_releases > 0
        assert trials > end_releases
        assert hits == end_releases

    def test_single_operation_mix_issues_only_it(self):
        seen = _OperationLog()
        simulate_one_title(
            CONFIG, behavior(VCROperation.PAUSE), SHORT, observers=(seen,)
        )
        assert seen.operations[VCROperation.PAUSE] > 0
        assert set(seen.operations) == {VCROperation.PAUSE}

    def test_starved_pool_is_an_error(self, monkeypatch):
        monkeypatch.setattr(figure7, "POOL_STREAMS", 30)
        with pytest.raises(SimulationError, match="starved"):
            simulate_one_title(CONFIG, behavior(), SHORT)


class TestComparison:
    def test_point_helpers(self):
        point = ComparisonPoint(
            config=CONFIG, max_wait=1.0, model_hit=0.74, simulated_hit=0.75,
            simulated_ci=0.02, trials=1000, rewind_start_hits=50,
        )
        assert point.num_partitions == 30
        assert point.absolute_error == pytest.approx(0.01)
        assert point.rewind_start_share == pytest.approx(0.05)

    def test_rejects_zero_replications(self, figure7_model):
        with pytest.raises(ConfigurationError):
            compare_model_and_simulation(
                figure7_model, [30], max_wait=1.0, workload=SHORT, replications=0
            )

    def test_skips_infeasible_n(self, figure7_model):
        points = compare_model_and_simulation(
            figure7_model, [30, 500], max_wait=1.0, workload=SHORT,
            replications=1, operation=VCROperation.PAUSE,
        )
        assert [p.num_partitions for p in points] == [30]

    def test_single_operation_isolates_mix(self, figure7_model):
        (point,) = compare_model_and_simulation(
            figure7_model, [30], max_wait=1.0, workload=SHORT,
            replications=1, operation=VCROperation.FAST_FORWARD,
        )
        assert point.model_hit == pytest.approx(
            figure7_model.hit_probability_for(VCROperation.FAST_FORWARD, point.config)
        )
        assert point.trials > 0
        assert point.rewind_reached_start == 0

    def test_replications_pool_counts(self, figure7_model):
        one, two = (
            compare_model_and_simulation(
                figure7_model, [30], max_wait=1.0, workload=SHORT,
                replications=replications,
            )[0]
            for replications in (1, 2)
        )
        assert two.trials > one.trials
        assert two.simulated_ci < one.simulated_ci

    def test_replications_sum_run_counts(self, figure7_model):
        """Replication r runs seed + r; the pooled counts are their sum."""

        def point(workload, replications):
            return compare_model_and_simulation(
                figure7_model, [30], max_wait=1.0, workload=workload,
                replications=replications,
            )[0]

        pooled = point(SHORT, 2)
        first = point(SHORT, 1)
        second = point(dataclasses.replace(SHORT, seed=SHORT.seed + 1), 1)
        assert pooled.trials == first.trials + second.trials
        assert pooled.simulated_hit * pooled.trials == pytest.approx(
            first.simulated_hit * first.trials + second.simulated_hit * second.trials
        )

    def test_rewind_start_hits_are_rewind_hits(self, figure7_model):
        (point,) = compare_model_and_simulation(
            figure7_model, [10], max_wait=1.0, workload=SHORT,
            replications=1, operation=VCROperation.REWIND,
        )
        assert 0 < point.rewind_start_hits <= point.rewind_reached_start
        assert point.rewind_start_hits <= point.simulated_hit * point.trials
