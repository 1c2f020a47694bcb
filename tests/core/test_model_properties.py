"""Hypothesis invariants of the analytical model.

These encode the paper's qualitative claims as machine-checked properties:
more buffer never hurts, pure batching has no partition hits, full buffering
guarantees FF hits, probabilities are probabilities.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.hitsets import end_probability, hit_probability
from repro.core.parameters import SystemConfiguration, VCRRates
from repro.core.vcrop import VCROperation
from repro.distributions import ExponentialDuration, GammaDuration, truncate

LENGTH = 120.0


def _model(mean: float, mix: VCRMix | None = None) -> HitProbabilityModel:
    return HitProbabilityModel(LENGTH, ExponentialDuration(mean), mix=mix)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 60),
    b1=st.floats(0.0, 120.0),
    extra=st.floats(0.0, 60.0),
    mean=st.floats(1.0, 30.0),
)
def test_more_buffer_never_hurts(n, b1, extra, mean):
    """P(hit) is non-decreasing in B at fixed n, for every operation."""
    b2 = min(LENGTH, b1 + extra)
    dist = truncate(ExponentialDuration(mean), LENGTH)
    for op in VCROperation:
        p1 = hit_probability(op, SystemConfiguration(LENGTH, n, b1), dist)
        p2 = hit_probability(op, SystemConfiguration(LENGTH, n, b2), dist)
        assert p2 >= p1 - 2e-3


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 120), mean=st.floats(1.0, 30.0))
def test_pure_batching_has_no_partition_hits(n, mean):
    config = SystemConfiguration.pure_batching(LENGTH, n)
    dist = truncate(ExponentialDuration(mean), LENGTH)
    for op in VCROperation:
        # FF keeps only the Eq.-(20) end release; RW and PAU never hit.
        expected = end_probability(config, dist) if op is VCROperation.FAST_FORWARD else 0.0
        assert hit_probability(op, config, dist) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 40), mean=st.floats(1.0, 30.0))
def test_full_buffer_ff_certain(n, mean):
    """B = l: every FF resume is buffered (or reaches the end)."""
    config = SystemConfiguration(LENGTH, n, LENGTH)
    dist = truncate(ExponentialDuration(mean), LENGTH)
    p = hit_probability(VCROperation.FAST_FORWARD, config, dist)
    assert p == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 60),
    fraction=st.floats(0.0, 1.0),
    p_ff=st.floats(0.0, 1.0),
    p_rw_frac=st.floats(0.0, 1.0),
    mean=st.floats(1.0, 30.0),
)
def test_mixture_is_convex_combination(n, fraction, p_ff, p_rw_frac, mean):
    """Eq. (22): mixed P(hit) is bounded by the per-op extremes."""
    p_rw = (1.0 - p_ff) * p_rw_frac
    mix = VCRMix(p_ff=p_ff, p_rw=p_rw, p_pause=1.0 - p_ff - p_rw)
    model = _model(mean, mix)
    config = model.configuration(n, LENGTH * fraction)
    breakdown = model.breakdown(config)
    components = [breakdown.p_hit_ff, breakdown.p_hit_rw, breakdown.p_hit_pause]
    assert min(components) - 1e-12 <= breakdown.p_hit <= max(components) + 1e-12


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 50),
    fraction=st.floats(0.0, 1.0),
    shape=st.floats(0.5, 5.0),
    scale=st.floats(0.5, 10.0),
)
def test_probabilities_are_probabilities(n, fraction, shape, scale):
    model = HitProbabilityModel(LENGTH, GammaDuration(shape, scale))
    config = model.configuration(n, LENGTH * fraction)
    breakdown = model.breakdown(config)
    for value in (
        breakdown.p_hit_ff,
        breakdown.p_hit_rw,
        breakdown.p_hit_pause,
        breakdown.p_end_ff,
        breakdown.p_hit,
    ):
        assert 0.0 <= value <= 1.0


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 60), wait=st.floats(0.1, 2.0), mean=st.floats(1.0, 20.0))
def test_ff_hit_at_least_end_probability(n, wait, mean):
    """The Eq.-(21) sum dominates its own P(end) term."""
    if n * wait > LENGTH:
        return
    config = SystemConfiguration.from_wait(LENGTH, n, wait)
    dist = truncate(ExponentialDuration(mean), LENGTH)
    from repro.core.hitsets import end_probability

    assert hit_probability(VCROperation.FAST_FORWARD, config, dist) >= (
        end_probability(config, dist) - 1e-9
    )


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 40),
    fraction=st.floats(0.05, 0.95),
    speedup=st.floats(1.2, 10.0),
    scale=st.floats(0.5, 4.0),
)
def test_rates_matter_only_through_catchup_factors(n, fraction, speedup, scale):
    """The model depends on (R_PB, R_FF, R_RW) only via alpha and gamma
    (Eq. 1), so scaling all three rates together changes nothing."""
    dist = truncate(ExponentialDuration(8.0), LENGTH)
    base = SystemConfiguration(
        LENGTH, n, LENGTH * fraction,
        rates=VCRRates(1.0, speedup, speedup),
    )
    scaled = SystemConfiguration(
        LENGTH, n, LENGTH * fraction,
        rates=VCRRates(scale, speedup * scale, speedup * scale),
    )
    for op in (VCROperation.FAST_FORWARD, VCROperation.REWIND):
        p_base = hit_probability(op, base, dist)
        p_scaled = hit_probability(op, scaled, dist)
        assert p_scaled == pytest.approx(p_base, abs=1e-9)
