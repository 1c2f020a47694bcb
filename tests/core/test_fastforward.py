"""Paper equations (3)–(21) vs the interval engine vs brute force."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.core.fastforward import (
    max_jump_index,
    p_end,
    p_hit_fastforward,
    p_hit_fastforward_direct,
    p_hit_jump,
    p_hit_within,
)
from repro.core.hitsets import hit_probability
from repro.core.parameters import SystemConfiguration, VCRRates
from repro.core.vcrop import VCROperation
from repro.distributions import (
    ExponentialDuration,
    GammaDuration,
    UniformDuration,
    truncate,
)

LENGTH = 120.0


@pytest.fixture(scope="module")
def duration():
    return truncate(GammaDuration(2.0, 4.0), LENGTH)


GRID = [(5, 2.0), (10, 1.0), (30, 1.0), (60, 1.0), (90, 0.25), (20, 0.5)]


@pytest.mark.parametrize("n,w", GRID)
def test_three_paths_agree(n, w, duration):
    """The headline cross-validation: all three FF evaluations coincide."""
    config = SystemConfiguration.from_wait(LENGTH, n, w)
    engine = hit_probability(VCROperation.FAST_FORWARD, config, duration)
    paper = p_hit_fastforward(config, duration)
    direct = p_hit_fastforward_direct(config, duration)
    assert paper == pytest.approx(engine, abs=2e-3)
    assert direct == pytest.approx(engine, abs=2e-3)


@pytest.mark.parametrize("n,w", [(10, 1.0), (30, 1.0)])
def test_agreement_with_other_distributions(n, w):
    config = SystemConfiguration.from_wait(LENGTH, n, w)
    for dist in (
        truncate(ExponentialDuration(8.0), LENGTH),
        UniformDuration(0.0, 16.0),
    ):
        engine = hit_probability(VCROperation.FAST_FORWARD, config, dist)
        paper = p_hit_fastforward(config, dist)
        assert paper == pytest.approx(engine, abs=3e-3)


class TestComponents:
    def test_p_end_closed_form(self, duration):
        """Eq. (20) reduces to E[X]/l for a [0, l]-supported duration."""
        config = SystemConfiguration.from_wait(LENGTH, 30, 1.0)
        assert p_end(config, duration) == pytest.approx(duration.mean / LENGTH, rel=1e-3)

    def test_hit_within_zero_for_pure_batching(self, duration):
        config = SystemConfiguration.pure_batching(LENGTH, 30)
        assert p_hit_within(config, duration) == 0.0
        assert p_hit_jump(config, duration, 1) == 0.0

    def test_pure_batching_total_is_p_end_only(self, duration):
        config = SystemConfiguration.pure_batching(LENGTH, 30)
        assert p_hit_fastforward(config, duration) == pytest.approx(
            p_end(config, duration), abs=1e-9
        )

    def test_jump_terms_decrease(self, duration):
        """Farther partitions require longer FF durations: less mass."""
        config = SystemConfiguration.from_wait(LENGTH, 30, 1.0)
        terms = [p_hit_jump(config, duration, i) for i in range(1, 6)]
        assert all(t >= 0.0 for t in terms)
        assert terms[0] > terms[-1]

    def test_jump_rejects_bad_index(self, duration):
        config = SystemConfiguration.from_wait(LENGTH, 30, 1.0)
        with pytest.raises(ConfigurationError):
            p_hit_jump(config, duration, 0)

    def test_max_jump_index_formula(self):
        """Eq. (19) equals floor(n/alpha − B/l) for these rates."""
        config = SystemConfiguration.from_wait(LENGTH, 30, 1.0)
        alpha = 1.5
        expected = int((30 / alpha) - config.buffer_minutes / LENGTH)
        assert max_jump_index(config) == expected

    def test_full_buffer_hits_with_certainty(self, duration):
        config = SystemConfiguration(LENGTH, 10, LENGTH)
        assert p_hit_fastforward(config, duration) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 80),
    wait=st.floats(0.25, 2.0),
    mean=st.floats(2.0, 20.0),
)
def test_paths_agree_property(n, wait, mean):
    if n * wait > LENGTH:
        return
    config = SystemConfiguration.from_wait(LENGTH, n, wait)
    dist = truncate(ExponentialDuration(mean), LENGTH)
    engine = hit_probability(VCROperation.FAST_FORWARD, config, dist)
    paper = p_hit_fastforward(config, dist)
    assert paper == pytest.approx(engine, abs=5e-3)
