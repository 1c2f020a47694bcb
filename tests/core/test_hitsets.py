"""Interval engine: hit-set geometry and the CDF transform."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.catchup import ff_catchup_factor, rw_catchup_factor
from repro.core.hitsets import (
    CdfTransform,
    end_probability,
    fastforward_end_interval,
    fastforward_hit_intervals,
    hit_intervals,
    hit_probability,
    hit_probability_at,
    pause_hit_intervals,
    rewind_hit_intervals,
)
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions import ExponentialDuration, UniformDuration, truncate
from repro.exceptions import ConfigurationError


class TestFastForwardIntervals:
    def test_own_window_threshold(self, base_config):
        """Eq. (3): the own-partition window is [0, alpha*d]."""
        alpha = ff_catchup_factor(base_config.rates)
        union = fastforward_hit_intervals(base_config, v_c=10.0, offset_d=2.0)
        first = union.intervals[0]
        assert first.lo == 0.0
        assert first.hi == pytest.approx(alpha * 2.0)

    def test_jump_window_positions(self, base_config):
        """Windows of partitions ahead sit at alpha*(i*l/n + d − B/n ... + d)."""
        alpha = ff_catchup_factor(base_config.rates)
        spacing = base_config.partition_spacing
        span = base_config.partition_span
        d = 1.0
        union = fastforward_hit_intervals(base_config, v_c=5.0, offset_d=d)
        second = union.intervals[1]
        assert second.lo == pytest.approx(alpha * (spacing + d - span))
        assert second.hi == pytest.approx(alpha * (spacing + d))

    def test_windows_disjoint_when_gap_positive(self, base_config):
        union = fastforward_hit_intervals(base_config, v_c=0.0, offset_d=1.5)
        for left, right in zip(union.intervals[:-1], union.intervals[1:]):
            assert left.hi < right.lo

    def test_clipped_at_movie_end_horizon(self, base_config):
        v_c = 110.0
        union = fastforward_hit_intervals(base_config, v_c=v_c, offset_d=2.0)
        horizon = base_config.movie_length - v_c
        assert all(iv.hi <= horizon + 1e-12 for iv in union.intervals)

    def test_full_buffer_covers_everything(self):
        """B = l: every resume position is buffered, so windows tile [0, l−Vc]."""
        config = SystemConfiguration(120.0, 10, 120.0)
        union = fastforward_hit_intervals(config, v_c=30.0, offset_d=5.0)
        assert union.measure == pytest.approx(120.0 - 30.0)

    def test_pure_batching_measure_zero(self):
        config = SystemConfiguration.pure_batching(120.0, 30)
        union = fastforward_hit_intervals(config, v_c=30.0, offset_d=0.0)
        assert union.measure == 0.0

    def test_end_interval(self, base_config):
        end = fastforward_end_interval(base_config, v_c=100.0)
        assert end.lo == pytest.approx(20.0)
        assert end.hi == pytest.approx(120.0)

    def test_rejects_position_outside_movie(self, base_config):
        with pytest.raises(ConfigurationError):
            fastforward_hit_intervals(base_config, v_c=-1.0, offset_d=0.0)
        with pytest.raises(ConfigurationError):
            fastforward_hit_intervals(base_config, v_c=121.0, offset_d=0.0)

    def test_rejects_offset_outside_span(self, base_config):
        with pytest.raises(ConfigurationError):
            fastforward_hit_intervals(base_config, v_c=0.0, offset_d=4.0)


class TestRewindIntervals:
    def test_own_window(self, base_config):
        """RW own window is [0, gamma*(B/n − d)]."""
        gamma = rw_catchup_factor(base_config.rates)
        span = base_config.partition_span
        union = rewind_hit_intervals(base_config, v_c=60.0, offset_d=1.0)
        first = union.intervals[0]
        assert first.lo == 0.0
        assert first.hi == pytest.approx(gamma * (span - 1.0))

    def test_clipped_at_position(self, base_config):
        """Rewinding past minute 0 is a miss: windows stop at x = V_c."""
        union = rewind_hit_intervals(base_config, v_c=2.0, offset_d=0.5)
        assert all(iv.hi <= 2.0 + 1e-12 for iv in union.intervals)

    def test_windows_behind_positions(self, base_config):
        gamma = rw_catchup_factor(base_config.rates)
        spacing = base_config.partition_spacing
        span = base_config.partition_span
        d = 2.0
        union = rewind_hit_intervals(base_config, v_c=60.0, offset_d=d)
        second = union.intervals[1]
        assert second.lo == pytest.approx(gamma * (spacing - d))
        assert second.hi == pytest.approx(gamma * (spacing - d + span))

    def test_position_zero_viewer_has_no_hits(self, base_config):
        union = rewind_hit_intervals(base_config, v_c=0.0, offset_d=1.0)
        assert union.measure == 0.0


class TestPauseIntervals:
    def test_periodicity(self, base_config):
        """Pause windows repeat every l/n."""
        spacing = base_config.partition_spacing
        union = pause_hit_intervals(base_config, offset_d=1.0)
        intervals = union.intervals
        assert len(intervals) >= 3
        # Consecutive window starts (after the clipped i=0) differ by spacing.
        assert intervals[2].lo - intervals[1].lo == pytest.approx(spacing)

    def test_first_window_clipped_at_zero(self, base_config):
        union = pause_hit_intervals(base_config, offset_d=2.0)
        assert union.intervals[0].lo == 0.0
        assert union.intervals[0].hi == pytest.approx(
            base_config.partition_span - 2.0
        )

    def test_long_pause_fraction(self, base_config):
        """Window density over one period is span/spacing = B/l."""
        union = pause_hit_intervals(base_config, offset_d=0.0)
        spacing = base_config.partition_spacing
        one_period = union.clip(spacing, 2 * spacing)
        assert one_period.measure / spacing == pytest.approx(
            base_config.buffer_fraction, abs=1e-9
        )

    def test_custom_max_duration(self, base_config):
        union = pause_hit_intervals(base_config, offset_d=0.0, max_duration=10.0)
        assert all(iv.hi <= 10.0 for iv in union.intervals)


class TestHitProbabilityAt:
    def test_uniform_duration_equals_relative_measure(self, base_config):
        """With U[0, m] durations, P(hit | state) = |hit set ∩ [0, m]| / m."""
        m = 16.0
        dist = UniformDuration(0.0, m)
        union = fastforward_hit_intervals(base_config, 40.0, 2.0)
        expected = union.clip(0.0, m).measure / m
        # The Eq.-(20) end interval [80, 120] lies past the support [0, 16].
        value = hit_probability_at(
            VCROperation.FAST_FORWARD, base_config, dist, 40.0, 2.0
        )
        assert value == pytest.approx(expected, abs=1e-12)

    def test_end_hit_included_for_ff(self, base_config, gamma_duration):
        """FF adds the Eq.-(20) mass of running past the end to its windows."""
        ff = VCROperation.FAST_FORWARD
        near_end = hit_probability_at(ff, base_config, gamma_duration, 115.0, 0.0)
        windows = hit_intervals(ff, base_config, 115.0, 0.0).measure_under(
            gamma_duration.cdf
        )
        end = fastforward_end_interval(base_config, 115.0)
        end_mass = gamma_duration.probability(end.lo, end.hi)
        assert (end.lo, end.hi) == (5.0, 120.0)
        assert end_mass > 0.0
        assert near_end == pytest.approx(windows + end_mass, abs=1e-12)

    def test_dispatch(self, base_config):
        for op in VCROperation:
            union = hit_intervals(op, base_config, 50.0, 1.0)
            assert union.measure >= 0.0


class TestCdfTransform:
    def test_f_g_h_consistency(self, gamma_duration):
        transform = CdfTransform(gamma_duration, 120.0)
        assert transform.F(-1.0) == 0.0
        assert transform.F(120.0) == pytest.approx(1.0, abs=1e-9)
        assert transform.G(0.0) == 0.0
        # H(c >= l) = G(l); H is monotone.
        assert transform.H(120.0) == pytest.approx(transform.G(120.0))
        assert transform.H(500.0) == transform.H(120.0)
        values = [transform.H(c) for c in (0.0, 1.0, 5.0, 30.0, 119.0, 120.0)]
        assert values == sorted(values)

    def test_h_definition(self, gamma_duration):
        """H(c) = ∫_0^l F(min(c, u)) du, checked by brute-force quadrature.

        The integrand has a kink at u = c, so the reference integral must be
        split there to be trustworthy.
        """
        import numpy as np

        from repro.numerics.quadrature import fixed_quadrature

        transform = CdfTransform(gamma_duration, 120.0)
        for c in (3.0, 10.0, 50.0):
            brute = fixed_quadrature(
                lambda us: np.asarray(
                    [gamma_duration.cdf(min(c, float(u))) for u in np.atleast_1d(us)]
                ),
                0.0,
                120.0,
                breakpoints=(c,),
                num_nodes=64,
            )
            assert transform.H(c) == pytest.approx(brute, rel=1e-5, abs=1e-4)

    def test_end_mass(self, gamma_duration):
        transform = CdfTransform(gamma_duration, 120.0)
        # end_mass = ∫ (1 − F) = E[X] for a variable on [0, l].
        assert transform.end_mass() == pytest.approx(gamma_duration.mean, rel=1e-3)


class TestEndProbability:
    def test_matches_mean_over_length(self, base_config, gamma_duration):
        """Eq. (20) for a [0, l] variable reduces to E[X]/l."""
        assert end_probability(base_config, gamma_duration) == pytest.approx(
            gamma_duration.mean / 120.0, rel=1e-3
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 100),
    fraction=st.floats(0.0, 1.0),
    v_c=st.floats(0.0, 120.0),
    d_frac=st.floats(0.0, 1.0),
)
def test_hit_sets_are_valid_unions(n, fraction, v_c, d_frac):
    config = SystemConfiguration(120.0, n, 120.0 * fraction)
    d = config.partition_span * d_frac
    for op in VCROperation:
        union = hit_intervals(op, config, v_c, d)
        for left, right in zip(union.intervals[:-1], union.intervals[1:]):
            assert left.hi <= right.lo
        assert union.measure >= 0.0
        assert all(iv.lo >= -1e-9 for iv in union.intervals)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 60),
    fraction=st.floats(0.0, 1.0),
    mean=st.floats(0.5, 40.0),
)
def test_hit_probability_in_unit_interval(n, fraction, mean):
    config = SystemConfiguration(120.0, n, 120.0 * fraction)
    dist = truncate(ExponentialDuration(mean), 120.0)
    for op in VCROperation:
        p = hit_probability(op, config, dist)
        assert 0.0 <= p <= 1.0


class TestEdgeGeometries:
    """Degenerate and extreme configurations the sizing sweeps can visit."""

    def test_single_partition(self, gamma_duration):
        config = SystemConfiguration(120.0, 1, 60.0)
        for op in VCROperation:
            p = hit_probability(op, config, gamma_duration)
            assert 0.0 <= p <= 1.0
        # One partition spanning half the movie: pauses shorter than the
        # span mostly stay inside it.
        assert hit_probability(VCROperation.PAUSE, config, gamma_duration) > 0.6

    def test_tiny_movie(self):
        """A 2-minute clip with 8-minute mean durations: truncation rules."""
        from repro.distributions import ExponentialDuration, truncate

        dist = truncate(ExponentialDuration(8.0), 2.0)
        config = SystemConfiguration(2.0, 4, 1.0)
        for op in VCROperation:
            p = hit_probability(op, config, dist)
            assert 0.0 <= p <= 1.0

    def test_many_tiny_partitions(self, gamma_duration):
        config = SystemConfiguration(120.0, 500, 60.0)
        p = hit_probability(VCROperation.FAST_FORWARD, config, gamma_duration)
        assert 0.0 <= p <= 1.0
        # Span 0.12 min, spacing 0.24: half of duration space is covered, so
        # the partition-hit mass is near 1/2 plus the end-hit term.
        assert p == pytest.approx(0.5 + gamma_duration.mean / 120.0, abs=0.05)

    def test_zero_span_nonzero_position(self, base_config, gamma_duration):
        config = SystemConfiguration.pure_batching(120.0, 30)
        assert hit_probability_at(
            VCROperation.PAUSE, config, gamma_duration, 60.0, 0.0
        ) == 0.0

    def test_offset_at_exact_span_boundary(self, base_config, gamma_duration):
        span = base_config.partition_span
        value = hit_probability_at(
            VCROperation.PAUSE, base_config, gamma_duration, 60.0, span
        )
        assert 0.0 <= value <= 1.0
