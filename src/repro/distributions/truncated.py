"""Truncation of a duration distribution onto ``[0, limit]``.

The paper defines every VCR-duration pdf on ``[0, l]`` where ``l`` is the
movie length.  For the parametric families whose support is unbounded
(exponential, gamma, lognormal, Weibull) this wrapper performs the standard
conditioning ``X | X <= limit`` and renormalises, so the resulting pdf
integrates to exactly one on ``[0, limit]`` — which keeps the hit/miss/end
decomposition of Eq. (21) a proper partition of probability.

Sampling uses inverse-CDF rejection-free transformation: draw
``U ~ Uniform(0, F(limit))`` and invert.

Sizing sweeps and the runtime re-planner construct the same truncations over
and over (every :class:`~repro.core.hitmodel.HitProbabilityModel` truncates
its durations, and the reservation layer reads ``mean`` — a 64-node
quadrature — on each evaluation), so the two invariants of a truncation, the
normalisation constant ``F(limit)`` and the conditional mean, are memoised in
a bounded module-level cache.  Only distributions whose parameters are plain
scalars (every parametric family) are cached; empirical and composite
distributions fall back to per-instance computation because their textual
descriptions do not uniquely determine them.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.distributions.base import DurationDistribution
from repro.exceptions import DistributionError

__all__ = [
    "TruncatedDuration",
    "truncate",
    "truncation_cache_info",
    "clear_truncation_cache",
]

_CACHE_MAX_ENTRIES = 2048
_invariants: "OrderedDict[tuple, dict[str, float]]" = OrderedDict()
_cache_hits = 0
_cache_misses = 0


def _invariant_key(base: DurationDistribution, limit: float) -> tuple | None:
    """A hashable key identifying ``(base, limit)``, or None when unsafe.

    The key is the concrete type plus every slot value; distributions whose
    state is not plain scalars (empirical knot arrays, nested distributions)
    are not cacheable across instances and return None.
    """
    values: list[float | str | bool] = []
    for klass in type(base).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            try:
                value = getattr(base, slot)
            except AttributeError:
                return None
            if not isinstance(value, (int, float, str, bool)):
                return None
            values.append(value)
    return (type(base).__qualname__, tuple(values), float(limit))


def _invariant_entry(key: tuple | None) -> dict[str, float] | None:
    """Cache lookup with LRU promotion and hit/miss accounting."""
    global _cache_hits, _cache_misses
    if key is None:
        return None
    entry = _invariants.get(key)
    if entry is None:
        _cache_misses += 1
        return None
    _invariants.move_to_end(key)
    _cache_hits += 1
    return entry


def _invariant_store(key: tuple | None, entry: dict[str, float]) -> None:
    if key is None:
        return
    _invariants[key] = entry
    _invariants.move_to_end(key)
    while len(_invariants) > _CACHE_MAX_ENTRIES:
        _invariants.popitem(last=False)


def truncation_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the shared invariant cache."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "entries": len(_invariants),
    }


def clear_truncation_cache() -> None:
    """Drop every memoised invariant (test isolation helper)."""
    global _cache_hits, _cache_misses
    _invariants.clear()
    _cache_hits = 0
    _cache_misses = 0


class TruncatedDuration(DurationDistribution):
    """``base`` conditioned on the event ``{X <= limit}``."""

    __slots__ = ("_base", "_limit", "_mass", "_mean_cache", "_invariant_key_cache")

    def __init__(self, base: DurationDistribution, limit: float) -> None:
        limit = self._require_positive("limit", limit)
        key = _invariant_key(base, limit)
        entry = _invariant_entry(key)
        if entry is None:
            mass = base.cdf(limit)
            entry = {"mass": mass}
            _invariant_store(key, entry)
        else:
            mass = entry["mass"]
        if mass <= 0.0:
            raise DistributionError(
                f"cannot truncate {base.describe()} at {limit}: no mass below the limit"
            )
        self._base = base
        self._limit = limit
        self._mass = mass
        self._mean_cache = entry.get("mean")
        self._invariant_key_cache = key

    @property
    def base(self) -> DurationDistribution:
        """The untruncated distribution."""
        return self._base

    @property
    def limit(self) -> float:
        """The truncation point (the movie length in model use)."""
        return self._limit

    @property
    def truncated_mass(self) -> float:
        """``P(X <= limit)`` under the base distribution."""
        return self._mass

    @property
    def upper(self) -> float:
        return self._limit

    @property
    def mean(self) -> float:
        # E[X | X <= limit] = (1/mass) * integral_0^limit x f(x) dx.  Use the
        # identity integral x f = limit*F(limit) − integral_0^limit F(x) dx to
        # avoid needing the base pdf (works for the step-CDF families too).
        # The 64-node quadrature is the expensive invariant of a truncation,
        # so it is computed once and shared through the module cache.
        if self._mean_cache is not None:
            return self._mean_cache
        from repro.numerics.quadrature import gauss_legendre

        integral_cdf = gauss_legendre(self._base.cdf_batch, 0.0, self._limit, num_nodes=64)
        value = (self._limit * self._mass - integral_cdf) / self._mass
        self._mean_cache = value
        entry = _invariant_entry(self._invariant_key_cache)
        if entry is not None:
            entry["mean"] = value
        return value

    def pdf(self, x: float) -> float:
        if x < 0.0 or x > self._limit:
            return 0.0
        return self._base.pdf(x) / self._mass

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        if x >= self._limit:
            return 1.0
        return self._base.cdf(x) / self._mass

    def cdf_batch(self, xs):
        # One base-distribution batch over the interior points, with the
        # same clamps and the same renormalising division as ``cdf`` (both
        # exactly-rounded vector ops).  NaN passes both clamps, as in ``cdf``.
        xs = np.asarray(xs, dtype=float)
        limit = self._limit
        out = np.where(xs >= limit, 1.0, 0.0)
        inner = ~((xs <= 0.0) | (xs >= limit))
        if inner.any():
            out[inner] = self._base.cdf_batch(xs[inner]) / self._mass
        return out

    def pdf_batch(self, xs):
        # Same support test and renormalising division as ``pdf``.
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        inner = ~((xs < 0.0) | (xs > self._limit))
        if inner.any():
            out[inner] = self._base.pdf_batch(xs[inner]) / self._mass
        return out

    def ppf(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            return super().ppf(q)
        return self._base.ppf(q * self._mass)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if size is None:
            return self._base.ppf(float(rng.uniform(0.0, self._mass)))
        qs = rng.uniform(0.0, self._mass, size=size)
        return np.fromiter(map(self._base.ppf, qs.tolist()), dtype=float, count=size)

    def describe(self) -> str:
        return f"Truncated({self._base.describe()}, limit={self._limit:g})"


def truncate(base: DurationDistribution, limit: float) -> DurationDistribution:
    """Truncate ``base`` onto ``[0, limit]``; no-op if already within bounds.

    Returns ``base`` unchanged when its support already ends at or before
    ``limit``, avoiding a useless wrapper layer.
    """
    if base.upper <= limit:
        return base
    return TruncatedDuration(base, limit)
