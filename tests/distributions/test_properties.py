"""Property-based invariants shared by every distribution family."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributions import (
    DeterministicDuration,
    EmpiricalDuration,
    ExponentialDuration,
    GammaDuration,
    LognormalDuration,
    MixtureDuration,
    TruncatedDuration,
    UniformDuration,
    WeibullDuration,
)
from repro.exceptions import NumericsError
from repro.numerics.quadrature import gauss_legendre

#: Every family :func:`distributions` draws from.
FAMILIES = (
    "exp", "gamma", "uniform", "deterministic", "lognormal", "weibull",
    "empirical", "mixture", "truncated", "truncated_gamma",
)


@st.composite
def distributions(draw, families=FAMILIES):
    """Strategy producing an arbitrary parameterised duration distribution."""
    family = draw(st.sampled_from(families))
    if family == "exp":
        return ExponentialDuration(draw(st.floats(0.1, 50.0)))
    if family == "gamma":
        return GammaDuration(draw(st.floats(0.3, 10.0)), draw(st.floats(0.1, 20.0)))
    if family == "uniform":
        lo = draw(st.floats(0.0, 20.0))
        return UniformDuration(lo, lo + draw(st.floats(0.1, 30.0)))
    if family == "deterministic":
        return DeterministicDuration(draw(st.floats(0.0, 50.0)))
    if family == "lognormal":
        return LognormalDuration(draw(st.floats(-1.0, 3.0)), draw(st.floats(0.1, 1.5)))
    if family == "weibull":
        return WeibullDuration(draw(st.floats(0.4, 4.0)), draw(st.floats(0.5, 20.0)))
    if family == "empirical":
        samples = draw(
            st.lists(st.floats(0.0, 60.0), min_size=3, max_size=20).filter(
                lambda xs: max(xs) > min(xs)
            )
        )
        return EmpiricalDuration(samples)
    if family == "mixture":
        return MixtureDuration(
            [ExponentialDuration(draw(st.floats(0.5, 10.0))),
             UniformDuration(0.0, draw(st.floats(1.0, 20.0)))],
            [draw(st.floats(0.1, 5.0)), draw(st.floats(0.1, 5.0))],
        )
    if family == "truncated_gamma":
        # Exponential truncations invert in closed form; a gamma base takes
        # the generic root-finding ``ppf``.
        base = GammaDuration(draw(st.floats(1.0, 10.0)), draw(st.floats(0.5, 20.0)))
        return TruncatedDuration(base, draw(st.floats(5.0, 150.0)))
    base = ExponentialDuration(draw(st.floats(1.0, 30.0)))
    return TruncatedDuration(base, draw(st.floats(1.0, 100.0)))


@settings(max_examples=120, deadline=None)
@given(dist=distributions(), x=st.floats(-10.0, 200.0), dx=st.floats(0.0, 100.0))
def test_cdf_monotone_and_bounded(dist, x, dx):
    fx, fy = dist.cdf(x), dist.cdf(x + dx)
    assert 0.0 <= fx <= 1.0 + 1e-12
    assert fy >= fx - 1e-12


@settings(max_examples=80, deadline=None)
@given(dist=distributions(), x=st.floats(-5.0, 200.0))
def test_pdf_nonnegative_and_zero_below_support(dist, x):
    value = dist.pdf(x)
    assert value >= 0.0
    if x < 0.0:
        assert value == 0.0


@settings(max_examples=80, deadline=None)
@given(dist=distributions(), lo=st.floats(0.0, 100.0), width=st.floats(0.0, 100.0))
def test_interval_probability_consistent(dist, lo, width):
    p = dist.probability(lo, lo + width)
    assert -1e-12 <= p <= 1.0 + 1e-12
    assert p == pytest.approx(dist.cdf(lo + width) - dist.cdf(lo), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(dist=distributions(), q=st.floats(0.01, 0.99))
# A steep gamma head: an absolute 1e-10 on the quantile 5.1e-8 misses q by
# 1.6e-6, so the generic ppf needs a relative tolerance near zero.
@example(dist=GammaDuration(0.3125, 0.109375), q=0.01171875)
def test_ppf_is_cdf_inverse(dist, q):
    x = dist.ppf(q)
    assert x >= 0.0
    # For continuous families CDF(ppf(q)) == q; for step CDFs (deterministic,
    # empirical knots) we can only assert the defining inequality.
    assert dist.cdf(x) >= q - 1e-6


@settings(max_examples=40, deadline=None)
@given(dist=distributions(), seed=st.integers(0, 2**31 - 1))
def test_samples_within_support(dist, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    samples = np.atleast_1d(dist.sample(rng, size=50))
    assert float(np.min(samples)) >= 0.0
    if np.isfinite(dist.upper):
        assert float(np.max(samples)) <= dist.upper + 1e-9


@settings(max_examples=30, deadline=None)
@given(dist=distributions())
def test_survival_complements_cdf(dist):
    for x in (0.5, 3.0, 17.0):
        assert dist.survival(x) == pytest.approx(1.0 - dist.cdf(x), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(dist=distributions())
def test_mean_matches_tail_integral(dist):
    """E[X] of a non-negative variable equals ∫ (1 − F) — checked numerically.

    Unbounded supports are truncated at an extreme quantile with a second
    integration panel for the far tail; very heavy tails (lognormal with
    large sigma) still carry real mass out there, so the tolerance is looser
    than for bounded supports.
    """

    def survival_batch(xs):
        return np.asarray([dist.survival(float(v)) for v in np.atleast_1d(xs)])

    if np.isfinite(dist.upper):
        tail = gauss_legendre(survival_batch, 0.0, float(dist.upper), num_nodes=96)
        assert tail == pytest.approx(dist.mean, rel=0.02, abs=0.02)
    else:
        mid = float(dist.ppf(1.0 - 1e-6))
        far = float(dist.ppf(1.0 - 1e-12))
        tail = gauss_legendre(survival_batch, 0.0, mid, num_nodes=96)
        tail += gauss_legendre(survival_batch, mid, far, num_nodes=96)
        assert tail == pytest.approx(dist.mean, rel=0.05, abs=0.02)


def _edge_points(dist):
    """Support edges of ``dist``: knots, and a truncation limit ±1 ulp."""
    if isinstance(dist, EmpiricalDuration):
        return dist._knots.tolist()
    if isinstance(dist, TruncatedDuration):
        limit = dist.limit
        return [np.nextafter(limit, -np.inf), limit, np.nextafter(limit, np.inf)]
    if isinstance(dist, UniformDuration):
        return [dist.lo, dist.hi]
    return []


# Empirical knots a subnormal apart overflow the slope to inf, in both paths.
@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=150, deadline=None)
@given(
    dist=distributions(),
    xs=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, -1.0, -1e-300, 5e-324, 2.2e-308, 1e-310]),
            st.floats(-10.0, 200.0),
            st.floats(0.0, 1e-300, allow_subnormal=True),
        ),
        max_size=30,
    ),
)
def test_pdf_batch_matches_scalar_bit_for_bit(dist, xs):
    points = [float(x) for x in xs + _edge_points(dist)]
    expected = np.array([dist.pdf(x) for x in points], dtype=float)
    for batch_in in (points, np.asarray(points, dtype=float)):
        values = dist.pdf_batch(batch_in)
        assert isinstance(values, np.ndarray)
        assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cdf_batch_follows_scalar_on_nan(family, data):
    """NaN gets the scalar's answer from ``cdf_batch``: its bits, or its error."""
    dist = data.draw(distributions(families=(family,)))
    batches = ([math.nan], np.asarray([1.0, math.nan, 0.0]))
    try:
        expected = np.float64(dist.cdf(math.nan)).tobytes()
    except NumericsError as error:
        for batch in batches:
            with pytest.raises(NumericsError) as raised:
                dist.cdf_batch(batch)
            assert str(raised.value) == str(error)
        return
    assert dist.cdf_batch(batches[0]).tobytes() == expected
    assert dist.cdf_batch(batches[1])[1:2].tobytes() == expected
