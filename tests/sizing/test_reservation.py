"""Erlang-loss reservation sizing for VCR streams."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.vcrop import VCROperation
from repro.distributions import GammaDuration
from repro.exceptions import ConfigurationError, SizingError
from repro.sizing.reservation import (
    ReservationPlan,
    VCRLoadModel,
    erlang_b,
    min_servers_for_blocking,
)


class TestErlangB:
    def test_known_values(self):
        """Classic reference points of the Erlang-B table."""
        assert erlang_b(1, 1.0) == pytest.approx(0.5)
        assert erlang_b(2, 1.0) == pytest.approx(0.2)
        assert erlang_b(5, 3.0) == pytest.approx(0.11005, abs=1e-4)
        assert erlang_b(10, 5.0) == pytest.approx(0.018385, abs=1e-5)

    def test_zero_load(self):
        assert erlang_b(5, 0.0) == 0.0
        assert erlang_b(0, 0.0) == 1.0

    def test_zero_servers_always_blocks(self):
        assert erlang_b(0, 2.0) == 1.0

    def test_monotone_in_servers(self):
        values = [erlang_b(c, 8.0) for c in range(1, 20)]
        assert values == sorted(values, reverse=True)

    def test_monotone_in_load(self):
        values = [erlang_b(5, a) for a in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            erlang_b(-1, 1.0)
        with pytest.raises(ConfigurationError):
            erlang_b(1, -1.0)
        with pytest.raises(ConfigurationError):
            erlang_b(1, math.inf)

    def test_large_system_stable(self):
        """The recurrence must not overflow on big systems."""
        value = erlang_b(1000, 950.0)
        assert 0.0 < value < 1.0


class TestMinServers:
    def test_meets_target(self):
        for load in (0.5, 3.0, 20.0):
            c = min_servers_for_blocking(load, 0.01)
            assert erlang_b(c, load) <= 0.01
            if c > 0:
                assert erlang_b(c - 1, load) > 0.01

    def test_zero_load_needs_nothing(self):
        assert min_servers_for_blocking(0.0, 0.01) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            min_servers_for_blocking(1.0, 0.0)
        with pytest.raises(SizingError):
            min_servers_for_blocking(1e9, 0.01, max_servers=10)


@settings(max_examples=60, deadline=None)
@given(servers=st.integers(0, 200), load=st.floats(0.0, 300.0))
def test_erlang_b_is_probability(servers, load):
    value = erlang_b(servers, load)
    assert 0.0 <= value <= 1.0


@pytest.fixture(scope="module")
def load_model():
    model = HitProbabilityModel(
        120.0, GammaDuration.paper_figure7(), mix=VCRMix.paper_figure7d()
    )
    config = model.configuration(30, 90.0)
    return VCRLoadModel(
        model, config, viewer_arrival_rate=0.5, mean_think_time=15.0
    )


class TestVCRLoadModel:
    def test_population_littles_law(self, load_model):
        assert load_model.concurrent_viewers == pytest.approx(60.0)  # 0.5 * 120
        assert load_model.vcr_request_rate == pytest.approx(4.0)     # 60 / 15

    def test_stream_request_rate_excludes_hitting_pauses(self, load_model):
        # FF + RW always need a stream; pauses only on a miss.
        rate = load_model.stream_request_rate()
        assert rate < load_model.vcr_request_rate
        assert rate > load_model.vcr_request_rate * 0.4  # 0.4 = p_ff + p_rw

    def test_phase1_means(self, load_model):
        ff = load_model.phase1_mean_minutes(VCROperation.FAST_FORWARD)
        # truncated gamma mean (slightly below 8) over speed 3.
        assert ff == pytest.approx(8.0 / 3.0, rel=0.02)
        assert load_model.phase1_mean_minutes(VCROperation.PAUSE) == 0.0

    def test_offered_load_positive(self, load_model):
        assert load_model.offered_load() > 0.0

    def test_plan_meets_target(self, load_model):
        plan = load_model.plan(blocking_target=0.01)
        assert plan.achieved_blocking <= 0.01
        assert plan.reserve_streams >= 1
        assert erlang_b(plan.reserve_streams - 1, plan.offered_load) > 0.01
        assert "ReservationPlan" in plan.describe()

    def test_higher_hit_probability_shrinks_reserve(self):
        """The paper's core argument, quantified: more buffer -> higher
        P(hit) -> shorter holds -> smaller VCR reserve."""
        model = HitProbabilityModel(
            120.0, GammaDuration.paper_figure7(), mix=VCRMix.paper_figure7d()
        )
        rich = VCRLoadModel(
            model, model.configuration(30, 105.0), viewer_arrival_rate=0.5
        )
        poor = VCRLoadModel(
            model, model.configuration(30, 30.0), viewer_arrival_rate=0.5
        )
        assert rich.mean_hold_minutes() < poor.mean_hold_minutes()
        assert (
            rich.plan(0.01).reserve_streams <= poor.plan(0.01).reserve_streams
        )

    def test_validation(self, load_model):
        with pytest.raises(ConfigurationError):
            VCRLoadModel(
                load_model.model, load_model.config, viewer_arrival_rate=0.0
            )
        with pytest.raises(ConfigurationError):
            VCRLoadModel(
                load_model.model, load_model.config,
                viewer_arrival_rate=0.5, mean_think_time=0.0,
            )


class TestSingleBreakdown:
    """A load model evaluates its hit breakdown once and reuses it."""

    def test_plan_evaluates_the_breakdown_once(self):
        model = HitProbabilityModel(
            120.0, GammaDuration.paper_figure7(), mix=VCRMix.paper_figure7d()
        )
        config = model.configuration(30, 90.0)
        calls = []
        breakdown = model.breakdown

        def counting(cfg):
            calls.append(cfg)
            return breakdown(cfg)

        model.breakdown = counting
        load = VCRLoadModel(model, config, viewer_arrival_rate=0.5, mean_think_time=15.0)
        plan = load.plan(blocking_target=0.01)
        load.offered_load()
        assert calls == [config]

        # The same plan, field by field, from one uncached breakdown.
        fresh = HitProbabilityModel(
            120.0, GammaDuration.paper_figure7(), mix=VCRMix.paper_figure7d()
        ).breakdown(config)
        mix = model.mix
        request_rate = load.vcr_request_rate * (
            mix.p_ff + mix.p_rw + mix.p_pause * (1.0 - fresh.p_hit_pause)
        )
        phase2 = load.phase2_model().mean_hold()
        weights = [mix.p_ff, mix.p_rw, mix.p_pause * (1.0 - fresh.p_hit_pause)]
        holds = [
            load.phase1_mean_minutes(VCROperation.FAST_FORWARD)
            + (1.0 - fresh.p_hit_ff) * phase2,
            load.phase1_mean_minutes(VCROperation.REWIND)
            + (1.0 - fresh.p_hit_rw) * phase2,
            phase2,
        ]
        mean_hold = sum(w * h for w, h in zip(weights, holds)) / sum(weights)
        offered = request_rate * mean_hold
        reserve = min_servers_for_blocking(offered, 0.01)
        assert plan == ReservationPlan(
            offered_load=offered,
            reserve_streams=reserve,
            blocking_target=0.01,
            achieved_blocking=erlang_b(reserve, offered),
            mean_hold_minutes=mean_hold,
            stream_request_rate=request_rate,
            hit_probability=fresh.p_hit,
        )
