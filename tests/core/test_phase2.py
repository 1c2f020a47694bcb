"""Phase-2 hold-time model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import SystemConfiguration
from repro.core.phase2 import Phase2Model
from repro.exceptions import ConfigurationError


@pytest.fixture
def model(base_config):
    # l=120, n=30, B=90: gap 1; eps=RATE_TOLERANCE=0.05.
    return Phase2Model(base_config)


class TestGeometry:
    def test_gap_and_drift(self, model):
        assert model.gap_width == pytest.approx(1.0)
        assert model.drift_speed == pytest.approx(0.05)

    def test_merge_time_symmetric(self, model):
        assert model.merge_time_from_offset(0.2) == pytest.approx(0.2 / 0.05)
        assert model.merge_time_from_offset(0.8) == pytest.approx(0.2 / 0.05)
        assert model.merge_time_from_offset(0.5) == pytest.approx(0.5 / 0.05)
        assert model.merge_time_from_offset(0.0) == 0.0

    def test_offset_outside_gap_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.merge_time_from_offset(2.0)


class TestHoldStatistics:
    def test_uncapped_closed_form(self, model):
        # w / (4 eps pb) = 1 / 0.2 = 5 minutes.
        assert model.mean_hold_uncapped() == pytest.approx(5.0)

    def test_capped_below_uncapped(self, model):
        assert model.mean_hold() <= model.mean_hold_uncapped() + 1e-9

    def test_narrow_gap_mostly_merges(self, model):
        assert model.merge_probability() > 0.9
        # With merges fast relative to sessions, cap barely binds.
        assert model.mean_hold() == pytest.approx(model.mean_hold_uncapped(), rel=0.05)

    def test_wide_gap_often_runs_to_end(self):
        # gap 20 -> mean merge needs ~100 wall minutes against a mean
        # remaining session of 60: most holds run to the end of the movie.
        config = SystemConfiguration(120.0, 4, 40.0)
        model = Phase2Model(config)
        assert model.merge_probability() < 0.5
        assert model.mean_hold() < model.mean_hold_uncapped()

    def test_pure_batching_runs_to_end(self):
        config = SystemConfiguration.pure_batching(120.0, 30)
        model = Phase2Model(config)
        assert model.merge_probability() == 0.0
        assert model.mean_hold() == pytest.approx(60.0)  # l / (2 pb)

    def test_full_buffer_no_holds(self):
        config = SystemConfiguration(120.0, 10, 120.0)
        model = Phase2Model(config)
        assert model.mean_hold() == 0.0
        assert model.merge_probability() == 1.0


class TestLittlesLaw:
    def test_expected_pinned_streams(self, model):
        rate = 2.0  # misses per minute
        assert model.expected_pinned_streams(rate) == pytest.approx(
            rate * model.mean_hold()
        )
        assert model.expected_pinned_streams(0.0) == 0.0
        with pytest.raises(ConfigurationError):
            model.expected_pinned_streams(-1.0)


class TestValidation:
    def test_describe(self, model):
        text = model.describe()
        assert "E[hold]" in text and "P(merge)" in text


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 80),
    fraction=st.floats(0.0, 1.0),
)
def test_invariants(n, fraction):
    config = SystemConfiguration(120.0, n, 120.0 * fraction)
    model = Phase2Model(config)
    hold = model.mean_hold()
    merge = model.merge_probability()
    assert 0.0 <= merge <= 1.0
    assert 0.0 <= hold <= 120.0 / (2.0 * config.rates.playback) + 1e-9
    if not config.is_pure_batching:
        assert hold <= model.mean_hold_uncapped() + 1e-9
