"""Heterogeneous viewer populations."""

from __future__ import annotations

import math

import pytest

from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.parameters import SystemConfiguration
from repro.distributions import ExponentialDuration, GammaDuration
from repro.exceptions import ConfigurationError
from repro.sizing.population import PopulationModel, ViewerClass

CONFIG = SystemConfiguration(120.0, 30, 90.0)


@pytest.fixture(scope="module")
def two_class_population():
    return PopulationModel(
        120.0,
        [
            ViewerClass(
                "surfer", weight=1.0, mix=VCRMix(0.5, 0.3, 0.2),
                durations=GammaDuration(2.0, 6.0), mean_think_time=5.0,
            ),
            ViewerClass(
                "passive", weight=3.0, mix=VCRMix(0.05, 0.05, 0.9),
                durations=ExponentialDuration(3.0), mean_think_time=30.0,
            ),
        ],
    )


class TestConstruction:
    def test_session_shares_normalised(self, two_class_population):
        assert two_class_population.session_share("surfer") == pytest.approx(0.25)
        assert two_class_population.session_share("passive") == pytest.approx(0.75)

    def test_operation_shares_favour_heavy_interactors(self, two_class_population):
        surfer = two_class_population.operation_share("surfer")
        passive = two_class_population.operation_share("passive")
        assert surfer + passive == pytest.approx(1.0)
        # Surfers are 25% of sessions but issue the majority of operations.
        assert surfer > 0.5
        # But fewer than the naive l/think estimate would claim (their FF
        # scans shorten their sessions): 2/3 is the naive share.
        assert surfer < 2.0 / 3.0

    def test_ops_per_session_accounts_for_position_drift(self, two_class_population):
        surfer_ops = two_class_population.expected_operations_per_session("surfer")
        passive_ops = two_class_population.expected_operations_per_session("passive")
        # Surfer: think 5 but FF jumps (+0.5*12) and RW pullbacks (−0.3*12)
        # give a ~7.4-minute net cycle -> ~16 ops; passive: ~30-minute cycle.
        assert surfer_ops == pytest.approx(120.0 / 7.4, rel=0.05)
        assert passive_ops == pytest.approx(4.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PopulationModel(120.0, [])
        cls = ViewerClass("a", 1.0, VCRMix.paper_figure7d(), ExponentialDuration(5.0))
        with pytest.raises(ConfigurationError):
            PopulationModel(120.0, [cls, cls])
        with pytest.raises(ConfigurationError):
            ViewerClass("a", 0.0, VCRMix.paper_figure7d(), ExponentialDuration(5.0))
        with pytest.raises(ConfigurationError):
            ViewerClass("a", 1.0, VCRMix.paper_figure7d(), ExponentialDuration(5.0),
                        mean_think_time=0.0)
        with pytest.raises(ConfigurationError):
            PopulationModel(120.0, [cls]).model_of("zzz")


class TestHitProbability:
    def test_single_class_degenerates_to_plain_model(self):
        population = PopulationModel(
            120.0,
            [ViewerClass("only", 1.0, VCRMix.paper_figure7d(),
                         GammaDuration(2.0, 4.0))],
        )
        plain = HitProbabilityModel(
            120.0, GammaDuration(2.0, 4.0), mix=VCRMix.paper_figure7d()
        )
        assert population.hit_probability(CONFIG) == pytest.approx(
            plain.hit_probability(CONFIG)
        )
        assert population.headcount_weighted_hit(CONFIG) == pytest.approx(
            plain.hit_probability(CONFIG)
        )

    def test_operation_weighting_vs_headcount(self, two_class_population):
        """Heavy interactors dominate the operation-weighted hit probability."""
        correct = two_class_population.hit_probability(CONFIG)
        naive = two_class_population.headcount_weighted_hit(CONFIG)
        breakdowns = two_class_population.class_breakdowns(CONFIG)
        surfer = breakdowns["surfer"].p_hit
        passive = breakdowns["passive"].p_hit
        # The two class probabilities differ, so the two weightings differ.
        assert surfer != pytest.approx(passive, abs=1e-3)
        assert correct != pytest.approx(naive, abs=1e-4)
        # Correct weighting sits closer to the surfer's (2/3 op share).
        assert abs(correct - surfer) < abs(naive - surfer)

    def test_mixture_bounds(self, two_class_population):
        breakdowns = two_class_population.class_breakdowns(CONFIG)
        values = [b.p_hit for b in breakdowns.values()]
        blended = two_class_population.hit_probability(CONFIG)
        assert min(values) - 1e-12 <= blended <= max(values) + 1e-12


class TestReservation:
    def test_load_additive(self, two_class_population):
        total = two_class_population.offered_load(CONFIG, total_arrival_rate=0.6)
        assert total > 0.0
        halves = (
            two_class_population.offered_load(CONFIG, 0.3)
            + two_class_population.offered_load(CONFIG, 0.3)
        )
        assert total == pytest.approx(halves, rel=1e-9)

    def test_plan_meets_target(self, two_class_population):
        plan = two_class_population.plan_reserve(CONFIG, total_arrival_rate=0.6)
        assert plan.achieved_blocking <= plan.blocking_target
        assert plan.reserve_streams >= 1
        assert math.isnan(plan.mean_hold_minutes)  # blended plans do not report one

    def test_rejects_bad_rate(self, two_class_population):
        with pytest.raises(ConfigurationError):
            two_class_population.offered_load(CONFIG, 0.0)


class TestAgainstSimulation:
    def test_pooled_simulation_matches_operation_weighting(self):
        """Simulate each class at its session share; pooling the raw resume
        observations reproduces the operation-share-weighted blend (and not
        the headcount-weighted one)."""
        from repro.experiments.figure7 import resume_counts, simulate_one_title
        from repro.vod.server import ServerWorkload
        from repro.vod.vcr import VCRBehavior

        population = PopulationModel(
            120.0,
            [
                ViewerClass(
                    "surfer", weight=1.0, mix=VCRMix(0.5, 0.3, 0.2),
                    durations=GammaDuration(2.0, 6.0), mean_think_time=5.0,
                ),
                ViewerClass(
                    "passive", weight=3.0, mix=VCRMix(0.05, 0.05, 0.9),
                    durations=ExponentialDuration(3.0), mean_think_time=30.0,
                ),
            ],
        )
        total_rate = 0.8
        pooled_hits = pooled_trials = 0
        per_class_trials: dict[str, int] = {}
        for cls in population.classes:
            behavior = VCRBehavior.uniform_duration_model(
                cls.durations, cls.mix, cls.mean_think_time
            )
            trials = 0
            for replication in range(2):
                server = simulate_one_title(
                    CONFIG,
                    behavior,
                    ServerWorkload(
                        arrival_rate=total_rate * population.session_share(cls.name),
                        horizon=2500.0,
                        warmup=300.0,
                        seed=20250704 + replication,
                    ),
                )
                run_hits, run_trials = resume_counts(server.metrics)
                pooled_hits += run_hits
                trials += run_trials
            per_class_trials[cls.name] = trials
            pooled_trials += trials
        # The weighting rule itself: each class's share of observed resume
        # events matches the drift-corrected operation share (the naive
        # l/think share of 2/3 for the surfers is measurably wrong).
        surfer_trial_share = per_class_trials["surfer"] / pooled_trials
        assert surfer_trial_share == pytest.approx(
            population.operation_share("surfer"), abs=0.05
        )
        assert abs(surfer_trial_share - 2.0 / 3.0) > 0.05
        # And the blended rate matches within the per-class model bias.
        assert pooled_hits / pooled_trials == pytest.approx(
            population.hit_probability(CONFIG), abs=0.04
        )
