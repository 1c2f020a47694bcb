"""VCR behaviour bundles: sampling, truncation, presets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hitmodel import VCRMix
from repro.core.vcrop import VCROperation
from repro.distributions import ExponentialDuration
from repro.exceptions import ConfigurationError
from repro.vod.vcr import VCRBehavior


class TestConstruction:
    def test_uniform_duration_model(self):
        behavior = VCRBehavior.uniform_duration_model(ExponentialDuration(5.0))
        for op in VCROperation:
            assert behavior.durations[op].mean == pytest.approx(5.0)

    def test_paper_preset(self):
        behavior = VCRBehavior.paper_figure7()
        assert behavior.mix == VCRMix.paper_figure7d()
        assert behavior.durations[VCROperation.PAUSE].mean == pytest.approx(8.0)

    def test_mix_and_think_time_carried(self):
        mix = VCRMix(p_ff=0.3, p_rw=0.2, p_pause=0.5)
        behavior = VCRBehavior.uniform_duration_model(
            ExponentialDuration(3.0), mix, mean_think_time=40.0
        )
        assert behavior.mix == mix
        assert behavior.mean_think_time == 40.0

    def test_missing_operation_rejected(self):
        with pytest.raises(ConfigurationError):
            VCRBehavior(
                mix=VCRMix.paper_figure7d(),
                durations={VCROperation.PAUSE: ExponentialDuration(1.0)},
            )

    def test_bad_think_time_rejected(self):
        with pytest.raises(ConfigurationError):
            VCRBehavior.uniform_duration_model(
                ExponentialDuration(5.0), mean_think_time=0.0
            )

    def test_truncated_to(self):
        behavior = VCRBehavior.uniform_duration_model(ExponentialDuration(50.0))
        truncated = behavior.truncated_to(30.0)
        for op in VCROperation:
            assert truncated.durations[op].upper == 30.0
        # Original untouched.
        assert np.isinf(behavior.durations[VCROperation.PAUSE].upper)


class TestSampling:
    def test_operation_mix_frequencies(self, rng):
        behavior = VCRBehavior.paper_figure7()
        draws = [behavior.sample_operation(rng) for _ in range(6000)]
        fraction_pause = draws.count(VCROperation.PAUSE) / len(draws)
        fraction_ff = draws.count(VCROperation.FAST_FORWARD) / len(draws)
        assert fraction_pause == pytest.approx(0.6, abs=0.04)
        assert fraction_ff == pytest.approx(0.2, abs=0.04)

    def test_degenerate_mix(self, rng):
        behavior = VCRBehavior.uniform_duration_model(
            ExponentialDuration(1.0), mix=VCRMix.only(VCROperation.REWIND)
        )
        draws = {behavior.sample_operation(rng) for _ in range(200)}
        assert draws == {VCROperation.REWIND}

    def test_think_time_mean(self, rng):
        behavior = VCRBehavior.paper_figure7(mean_think_time=10.0)
        samples = [behavior.sample_think_time(rng) for _ in range(5000)]
        assert float(np.mean(samples)) == pytest.approx(10.0, rel=0.1)

    def test_duration_sampling_uses_per_op_distribution(self, rng):
        behavior = VCRBehavior(
            mix=VCRMix.paper_figure7d(),
            durations={
                VCROperation.FAST_FORWARD: ExponentialDuration(20.0),
                VCROperation.REWIND: ExponentialDuration(1.0),
                VCROperation.PAUSE: ExponentialDuration(1.0),
            },
        )
        ff = [behavior.sample_duration(VCROperation.FAST_FORWARD, rng) for _ in range(2000)]
        rw = [behavior.sample_duration(VCROperation.REWIND, rng) for _ in range(2000)]
        assert float(np.mean(ff)) > 5 * float(np.mean(rw))
