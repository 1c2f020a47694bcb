"""The truncation's grid-bracketed quantile against the base's own ``ppf``.

A truncation whose base has no closed-form inverse solves ``F(x) = p`` for
``p = q * F(limit)`` on one cell of an exact CDF grid of ``[0, limit]``.
Families with a closed form invert directly; here they are also solved on
the grid, through a subclass that keeps the generic numerical ``ppf``.  The
contract is the generic ``ppf``'s: ``1e-10`` from the quantile, absolute
above 1 and relative below 1.  The reference quantile is the closed form
where there is one, else a ``1e-15`` Brent solve on ``[0, limit]``; the
base's own ``ppf`` carries a ``1e-10`` error of its own.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.distributions import (
    EmpiricalDuration,
    ExponentialDuration,
    GammaDuration,
    LognormalDuration,
    MixtureDuration,
    TruncatedDuration,
    UniformDuration,
    WeibullDuration,
)
from repro.distributions.base import DurationDistribution
from repro.distributions.truncated import _GRID_CELLS, clear_truncation_cache
from repro.numerics.rootfind import brent
from repro.sizing.feasible import distribution_signature

LIMITS = (30.0, 60.0, 90.0, 120.0, 180.0)
QS = (1e-9, 1e-6, 1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999)


def _numeric(cls):
    """``cls`` with the generic numerical ``ppf``, so a truncation uses its grid."""
    return type(f"Numeric{cls.__name__}", (cls,), {"ppf": DurationDistribution.ppf})


def _solved(base, p, limit):
    """The reference quantile by a ``1e-15`` solve (no closed form)."""
    return brent(lambda x: base.cdf(x) - p, 0.0, limit, tol=1e-15)


def _closed_form(cls):
    """The reference quantile: ``cls``'s closed form on a numeric subclass."""
    return lambda base, p, limit: cls.ppf(base, p)


#: (id, base, reference quantile at level p).
BASES = [
    *(
        (f"gamma-{shape:g}", GammaDuration(shape, 4.0), _solved)
        for shape in (0.3, 0.7, 1.0, 2.0, 5.0)
    ),
    ("lognormal-1-0.5", LognormalDuration(1.0, 0.5), _solved),
    ("lognormal-2-1.5", LognormalDuration(2.0, 1.5), _solved),
    ("exponential-3", _numeric(ExponentialDuration)(3.0), _closed_form(ExponentialDuration)),
    ("exponential-40", _numeric(ExponentialDuration)(40.0), _closed_form(ExponentialDuration)),
    ("weibull-0.6", _numeric(WeibullDuration)(0.6, 20.0), _closed_form(WeibullDuration)),
    ("weibull-3", _numeric(WeibullDuration)(3.0, 20.0), _closed_form(WeibullDuration)),
]

#: Sparse samples: the CDF is near-flat across the wide gaps between them.
_SPARSE = [0.5, 0.6, 0.7, 0.8, 1.0, 2.0, 2.1, 95.0, 95.5, 170.0, 171.0, 400.0]


def _levels(base, limit):
    """Levels ``p`` to invert: fixed quantiles, the end cells, grid values."""
    fs = base.cdf_batch(np.linspace(0.0, limit, _GRID_CELLS + 1))
    mass = fs[-1]
    levels = [q * mass for q in QS]
    levels += [fs[1] * 1e-3, fs[1] * 0.5]  # first cell
    levels += [fs[-2] + (fs[-1] - fs[-2]) * frac for frac in (0.25, 0.75)]  # last cell
    levels += [fs[k] for k in (1, 7, 2048, 4095)]  # the grid's own values
    return [p for p in levels if 0.0 < p < mass]


def _assert_close(base, p, x, ref):
    tol = 1e-10 * min(1.0, abs(ref))
    if abs(x - ref) <= tol:
        return
    # Where the float CDF equals ``p`` to the last bit over a range wider
    # than the tolerance (light upper tails, flat stretches) the quantile is
    # not determined to 1e-10; each solver stops at an exact zero it meets.
    # A mismatch anywhere else is a miss.
    assert base.cdf(x) == p
    assert base.cdf(ref) == p


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("name, base, reference", BASES, ids=[b[0] for b in BASES])
def test_grid_quantile_matches_the_base_inverse(name, base, reference, limit):
    dist = TruncatedDuration(base, limit)
    mass = dist.truncated_mass
    for p in _levels(base, limit):
        q = p / mass
        if not 0.0 < q < 1.0:
            continue
        level = q * mass
        x = dist.ppf(q)
        assert 0.0 <= x <= limit
        _assert_close(base, level, x, reference(base, level, limit))


@pytest.mark.parametrize("limit", (30.0, 120.0))
def test_empirical_base_with_near_flat_stretches(limit):
    base = _numeric(EmpiricalDuration)(_SPARSE)
    dist = TruncatedDuration(base, limit)
    mass = dist.truncated_mass
    for p in _levels(base, limit):
        level = (p / mass) * mass
        _assert_close(base, level, dist.ppf(p / mass), _solved(base, level, limit))


def test_mixture_with_an_exactly_flat_stretch():
    base = MixtureDuration([UniformDuration(0.0, 10.0), UniformDuration(50.0, 60.0)], [1.0, 1.0])
    dist = TruncatedDuration(base, 55.0)
    mass = dist.truncated_mass
    for p in _levels(base, 55.0) + [0.5]:
        level = (p / mass) * mass
        x = dist.ppf(p / mass)
        assert not 10.0 < x < 50.0 or base.cdf(x) == level
        _assert_close(base, level, x, _solved(base, level, 55.0))


def test_closed_form_bases_invert_directly():
    base = ExponentialDuration(3.0)
    dist = TruncatedDuration(base, 30.0)
    for q in QS:
        assert dist.ppf(q) == base.ppf(q * dist.truncated_mass)


def test_a_sized_draw_equals_scalar_draws():
    dist = TruncatedDuration(GammaDuration.paper_figure7(), 90.0)
    draws = dist.sample(np.random.default_rng(3), size=200)
    rng = np.random.default_rng(3)
    assert draws.tolist() == [dist.sample(rng) for _ in range(200)]


def test_the_grid_is_built_once_per_base_and_limit():
    calls = []

    class Counted(GammaDuration):
        def cdf_batch(self, xs):
            calls.append(len(xs))
            return super().cdf_batch(xs)

    clear_truncation_cache()
    first = TruncatedDuration(Counted(2.0, 4.0), 90.0)
    second = TruncatedDuration(Counted(2.0, 4.0), 90.0)
    rng = np.random.default_rng(0)
    first.sample(rng)
    third = TruncatedDuration(Counted(2.0, 4.0), 90.0)
    second.sample(rng)
    third.sample(rng)
    assert calls == [_GRID_CELLS + 1]


def test_sampling_keeps_the_signature():
    dist = TruncatedDuration(GammaDuration.paper_figure7(), 75.0)
    before = distribution_signature(dist)
    dist.sample(np.random.default_rng(1), size=10)
    assert distribution_signature(dist) == before


FUNCS = [
    pytest.param(lambda x: x * x - 2.0, 0.0, 2.0, id="sqrt2"),
    pytest.param(lambda x: math.cos(x) - x, 0.0, 1.0, id="cos"),
    pytest.param(lambda x: GammaDuration(2.0, 4.0).cdf(x) - 0.3, 0.0, 90.0, id="gamma-cdf"),
    pytest.param(lambda x: math.expm1(x) - 1e-9, 0.0, 1.0, id="tiny-root"),
    pytest.param(lambda x: x - 1.0, 1.0, 3.0, id="root-at-lo"),
]


@pytest.mark.parametrize("func, lo, hi", FUNCS)
@pytest.mark.parametrize("tol", (1e-12, 1e-10))
def test_brent_f_lo_changes_no_bit(func, lo, hi, tol):
    plain = brent(func, lo, hi, tol=tol)
    assert brent(func, lo, hi, tol=tol, f_lo=func(lo)) == plain
    assert brent(func, lo, hi, tol=tol, f_lo=func(lo), f_hi=func(hi)) == plain
