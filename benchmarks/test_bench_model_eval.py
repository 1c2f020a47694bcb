"""Microbenchmarks of the analytical model's evaluation paths.

These are true pytest-benchmark measurements (many rounds): per-operation
hit-probability evaluation, CDF-transform construction, and the literal
paper-equation path for comparison.  They quantify why the interval engine is
the production path for the Section-5 sizing sweeps.
"""

from __future__ import annotations

import pytest

from repro.core.fastforward import p_hit_fastforward
from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.hitsets import CdfTransform, hit_probability
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions import GammaDuration, truncate

LENGTH = 120.0
CONFIG = SystemConfiguration(LENGTH, 60, 60.0)
DURATION = truncate(GammaDuration.paper_figure7(), LENGTH)
TRANSFORM = CdfTransform(DURATION, LENGTH)


@pytest.mark.parametrize("operation", list(VCROperation), ids=lambda op: op.value)
def test_engine_per_operation(benchmark, operation):
    value = benchmark(
        hit_probability, operation, CONFIG, DURATION, transform=TRANSFORM
    )
    assert 0.0 <= value <= 1.0


def test_paper_equation_path(benchmark):
    value = benchmark.pedantic(
        p_hit_fastforward, args=(CONFIG, DURATION), rounds=3, iterations=1
    )
    assert 0.0 <= value <= 1.0


def test_cdf_transform_construction(benchmark):
    transform = benchmark(CdfTransform, DURATION, LENGTH)
    assert transform.F(LENGTH) == pytest.approx(1.0, abs=1e-9)


def test_full_breakdown(benchmark):
    model = HitProbabilityModel(
        LENGTH, GammaDuration.paper_figure7(), mix=VCRMix.paper_figure7d()
    )
    config = model.configuration(60, 60.0)
    breakdown = benchmark(model.breakdown, config)
    assert 0.0 <= breakdown.p_hit <= 1.0


def test_catchup_factors_memoised(benchmark):
    """The Eq. (1) factors are derived from the same frozen rate triple on
    every hit-set evaluation; the memoised path must be a pure lookup."""
    from repro.core.catchup import ff_catchup_factor, rw_catchup_factor
    from repro.core.parameters import VCRRates

    rates = VCRRates(playback=1.0, fast_forward=3.0, rewind=3.0)

    def both():
        return ff_catchup_factor(rates), rw_catchup_factor(rates)

    alpha, gamma = benchmark(both)
    assert alpha == pytest.approx(1.5)
    assert gamma == pytest.approx(0.75)


def test_truncation_invariants_memoised(benchmark):
    """Re-truncating the same parametric family reuses the normalisation
    constant and the 64-node conditional-mean quadrature across instances."""
    from repro.distributions.truncated import (
        clear_truncation_cache,
        truncation_cache_info,
    )

    clear_truncation_cache()
    reference = truncate(GammaDuration.paper_figure7(), LENGTH)
    reference_mean = reference.mean  # pays the quadrature once

    def rebuild():
        return truncate(GammaDuration.paper_figure7(), LENGTH).mean

    value = benchmark(rebuild)
    assert value == pytest.approx(reference_mean)
    info = truncation_cache_info()
    assert info["hits"] > 0
    assert info["entries"] >= 1
