"""The generic ``ppf`` (Brent) against a bisection oracle on the same bracket.

Every family without a closed-form inverse goes through
``DurationDistribution.ppf``; a truncation inverts its base at ``q * mass``.
The oracle repeats that bracket and solves it with :func:`bisect` at the
same ``1e-10`` tolerance.
"""

from __future__ import annotations

import copy
import math

import pytest

from repro.distributions import (
    ExponentialDuration,
    GammaDuration,
    LognormalDuration,
    MixtureDuration,
    TruncatedDuration,
    UniformDuration,
)
from repro.numerics.rootfind import bisect, brent

QS = [1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1 - 1e-6, 1 - 1e-9]

FAMILIES = [
    pytest.param(GammaDuration.paper_figure7(), id="gamma-2-4"),
    pytest.param(GammaDuration(8.0, 1.5), id="gamma-8-1.5"),
    pytest.param(LognormalDuration(1.0, 0.8), id="lognormal-1-0.8"),
    pytest.param(LognormalDuration(0.0, 1.5), id="lognormal-0-1.5"),
    pytest.param(
        MixtureDuration([ExponentialDuration(3.0), UniformDuration(0.0, 10.0)], [1.0, 2.0]),
        id="mixture-exp-uniform",
    ),
    pytest.param(
        MixtureDuration([GammaDuration(2.0, 4.0), LognormalDuration(1.0, 0.5)], [0.3, 0.7]),
        id="mixture-gamma-lognormal",
    ),
    pytest.param(TruncatedDuration(GammaDuration(2.0, 4.0), 120.0), id="truncated-gamma-2-4-l120"),
]


def _solved(dist, q):
    """The distribution and level the generic ``ppf`` actually inverts."""
    if isinstance(dist, TruncatedDuration):
        return dist.base, q * dist.truncated_mass
    return dist, q


def _bisect_ppf(dist, q):
    hi = dist.upper
    if math.isinf(hi):
        hi = max(dist.mean, 1.0)
        while dist.cdf(hi) < q:
            hi *= 2.0
    return bisect(lambda x: dist.cdf(x) - q, 0.0, hi, tol=1e-10)


@pytest.mark.parametrize("dist", FAMILIES)
@pytest.mark.parametrize("q", QS)
def test_ppf_matches_bisection_oracle(dist, q):
    x = dist.ppf(q)
    target, level = _solved(dist, q)
    ref = _bisect_ppf(target, level)
    assert abs(dist.cdf(x) - q) <= 1e-9
    if q < 1 - 1e-6 or abs(x - ref) <= 2e-10:
        assert abs(x - ref) <= 2e-10
    else:
        # In the upper tail the float CDF equals ``level`` to the last bit
        # over a range much wider than the tolerance, and each solver stops
        # at the first exact zero it meets.  Both answers must be such zeros.
        assert target.cdf(x) == level
        assert target.cdf(ref) == level


def _uncached_ppf(dist, q):
    """``ppf`` as it was before the bracket cache: every probe recomputed."""
    hi = dist.upper
    if math.isinf(hi):
        hi = max(dist.mean, 1.0)
        while dist.cdf(hi) < q:
            hi *= 2.0
    return brent(lambda x: dist.cdf(x) - q, 0.0, hi, tol=1e-10)


@pytest.mark.parametrize("dist", FAMILIES)
@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_bracket_cache_keeps_every_bit(dist, order):
    """The cached probes give Brent the values it would compute itself.

    The cache grows in a different order when the first levels asked for
    are high (one call doubles the whole way) or low (one probe per call).
    """
    target, _ = _solved(dist, 0.5)
    fresh = copy.deepcopy(target)
    vars(fresh).pop("_ppf_probes", None)
    levels = sorted(_solved(dist, q)[1] for q in QS)
    if order == "descending":
        levels.reverse()
    for level in levels + levels:
        assert fresh.ppf(level) == _uncached_ppf(target, level)


def test_bracket_probes_are_computed_once():
    calls = []

    class Counted(GammaDuration):
        def cdf(self, x):
            calls.append(x)
            return super().cdf(x)

    dist = Counted(2.0, 4.0)
    first = dist.ppf(0.999)
    probes = [hi for hi, _ in dist._ppf_probes]
    assert probes == [8.0, 16.0, 32.0, 64.0]
    del calls[:]
    assert dist.ppf(0.999) == first
    assert not set(calls) & set(probes)  # no probe and no upper endpoint again
