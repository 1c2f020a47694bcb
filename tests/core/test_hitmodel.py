"""VCRMix, HitBreakdown and the top-level HitProbabilityModel."""

from __future__ import annotations

import pytest

from repro.core.hitmodel import HitBreakdown, HitProbabilityModel, VCRMix
from repro.core.hitsets import end_probability
from repro.core.parameters import SystemConfiguration, VCRRates
from repro.core.vcrop import VCROperation
from repro.distributions import ExponentialDuration, GammaDuration
from repro.exceptions import ConfigurationError


class TestVCRMix:
    def test_paper_mix(self):
        mix = VCRMix.paper_figure7d()
        assert (mix.p_ff, mix.p_rw, mix.p_pause) == (0.2, 0.2, 0.6)

    def test_only(self):
        mix = VCRMix.only(VCROperation.REWIND)
        assert mix.p_rw == 1.0 and mix.p_ff == 0.0 and mix.p_pause == 0.0

    def test_probability_of_and_dict(self):
        mix = VCRMix(0.5, 0.3, 0.2)
        assert mix.probability_of(VCROperation.FAST_FORWARD) == 0.5
        assert mix.as_dict()[VCROperation.PAUSE] == 0.2

    def test_rejects_bad_sum(self):
        with pytest.raises(ConfigurationError, match="sum to 1"):
            VCRMix(0.5, 0.5, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            VCRMix(-0.1, 0.5, 0.6)


class TestHitBreakdown:
    def test_mixture_formula(self):
        """Eq. (22): the mixed probability is the weighted sum."""
        breakdown = HitBreakdown(
            p_hit_ff=0.8, p_hit_rw=0.6, p_hit_pause=0.7, p_end_ff=0.05,
            mix=VCRMix(0.2, 0.3, 0.5),
        )
        assert breakdown.p_hit == pytest.approx(0.2 * 0.8 + 0.3 * 0.6 + 0.5 * 0.7)
        assert breakdown.probability_of(VCROperation.REWIND) == 0.6


class TestHitProbabilityModel:
    def test_single_distribution_broadcast(self, figure7_model):
        for op in VCROperation:
            assert figure7_model.duration_of(op).mean == pytest.approx(
                figure7_model.duration_of(VCROperation.PAUSE).mean
            )

    def test_auto_truncation(self):
        model = HitProbabilityModel(50.0, ExponentialDuration(30.0))
        assert model.duration_of(VCROperation.PAUSE).upper == 50.0

    def test_per_operation_distributions(self):
        model = HitProbabilityModel(
            120.0,
            {
                VCROperation.FAST_FORWARD: ExponentialDuration(10.0),
                VCROperation.REWIND: ExponentialDuration(5.0),
                VCROperation.PAUSE: ExponentialDuration(2.0),
            },
        )
        assert model.duration_of(VCROperation.REWIND).mean == pytest.approx(
            5.0, rel=1e-6
        )

    def test_missing_operation_rejected(self):
        with pytest.raises(ConfigurationError, match="missing duration"):
            HitProbabilityModel(
                120.0, {VCROperation.FAST_FORWARD: ExponentialDuration(5.0)}
            )

    def test_breakdown_consistent_with_per_op(self, figure7_model, base_config):
        breakdown = figure7_model.breakdown(base_config)
        for op in VCROperation:
            assert breakdown.probability_of(op) == pytest.approx(
                figure7_model.hit_probability_for(op, base_config)
            )
        assert figure7_model.hit_probability(base_config) == pytest.approx(
            breakdown.p_hit
        )

    def test_config_length_mismatch_rejected(self, figure7_model):
        wrong = SystemConfiguration(90.0, 10, 45.0)
        with pytest.raises(ConfigurationError, match="does not match"):
            figure7_model.hit_probability(wrong)

    def test_configuration_helper(self, figure7_model):
        config = figure7_model.configuration(30, 90.0)
        assert config.movie_length == 120.0
        assert config.rates == figure7_model.rates

    def test_pure_batching_ff_is_end_probability(self):
        """Eq. (20): with no buffer, FF hits only by running off the end."""
        model = HitProbabilityModel(
            120.0, GammaDuration(2.0, 4.0), mix=VCRMix.only(VCROperation.FAST_FORWARD)
        )
        config = SystemConfiguration.pure_batching(120.0, 30)
        p_end = end_probability(config, model.duration_of(VCROperation.FAST_FORWARD))
        assert p_end > 0.0
        assert model.hit_probability(config) == p_end

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ConfigurationError):
            HitProbabilityModel(0.0, ExponentialDuration(5.0))

    def test_repr_mentions_length(self, figure7_model):
        assert "l=120" in repr(figure7_model)
