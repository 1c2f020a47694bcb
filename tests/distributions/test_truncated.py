"""Truncation wrapper: renormalisation, sampling, no-op path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import (
    DeterministicDuration,
    ExponentialDuration,
    GammaDuration,
    TruncatedDuration,
    UniformDuration,
    truncate,
)
from repro.exceptions import DistributionError
from repro.numerics.quadrature import gauss_legendre


class TestTruncatedDuration:
    def test_cdf_renormalised(self):
        base = ExponentialDuration(5.0)
        trunc = TruncatedDuration(base, 10.0)
        assert trunc.cdf(10.0) == 1.0
        assert trunc.cdf(5.0) == pytest.approx(base.cdf(5.0) / base.cdf(10.0))
        assert trunc.cdf(11.0) == 1.0
        assert trunc.cdf(-1.0) == 0.0

    def test_pdf_integrates_to_one(self):
        trunc = TruncatedDuration(GammaDuration(2.0, 4.0), 20.0)
        total = gauss_legendre(
            lambda xs: np.asarray([trunc.pdf(float(x)) for x in np.atleast_1d(xs)]),
            0.0,
            20.0,
            num_nodes=64,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mean_below_base_mean(self):
        base = ExponentialDuration(5.0)
        trunc = TruncatedDuration(base, 8.0)
        assert trunc.mean < base.mean
        # Closed form for truncated exponential mean.
        import math

        lam = 1.0 / 5.0
        t = 8.0
        expected = (1.0 / lam) - t * math.exp(-lam * t) / (1.0 - math.exp(-lam * t))
        assert trunc.mean == pytest.approx(expected, rel=1e-4)

    def test_samples_respect_limit(self, rng):
        trunc = TruncatedDuration(ExponentialDuration(50.0), 10.0)
        samples = trunc.sample(rng, size=2000)
        assert float(np.max(samples)) <= 10.0 + 1e-9
        assert float(np.min(samples)) >= 0.0

    def test_sized_draw_equals_scalar_draws(self):
        trunc = TruncatedDuration(GammaDuration(2.0, 4.0), 120.0)
        batch = trunc.sample(np.random.default_rng(7), size=64)
        rng = np.random.default_rng(7)
        scalars = [trunc.sample(rng) for _ in range(64)]
        assert batch.dtype == np.float64
        assert batch.tolist() == scalars

    def test_sample_distribution_matches_cdf(self, rng):
        trunc = TruncatedDuration(GammaDuration(2.0, 4.0), 15.0)
        samples = np.asarray([trunc.sample(rng) for _ in range(4000)])
        for x in (3.0, 8.0, 12.0):
            empirical = float(np.mean(samples <= x))
            assert empirical == pytest.approx(trunc.cdf(x), abs=0.03)

    def test_ppf_inverts(self):
        trunc = TruncatedDuration(ExponentialDuration(5.0), 12.0)
        for q in (0.1, 0.5, 0.9):
            assert trunc.cdf(trunc.ppf(q)) == pytest.approx(q, abs=1e-9)

    def test_rejects_truncation_with_no_mass(self):
        with pytest.raises(DistributionError):
            TruncatedDuration(DeterministicDuration(10.0), 5.0)

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(DistributionError):
            TruncatedDuration(ExponentialDuration(1.0), 0.0)


class TestTruncateHelper:
    def test_noop_when_support_within_limit(self):
        bounded = UniformDuration(0.0, 5.0)
        assert truncate(bounded, 10.0) is bounded

    def test_wraps_unbounded(self):
        wrapped = truncate(ExponentialDuration(5.0), 10.0)
        assert isinstance(wrapped, TruncatedDuration)
        assert wrapped.limit == 10.0

    def test_truncated_mass_reported(self):
        base = ExponentialDuration(5.0)
        wrapped = truncate(base, 10.0)
        assert wrapped.truncated_mass == pytest.approx(base.cdf(10.0))
