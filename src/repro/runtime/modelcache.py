"""Keyed, bounded memoisation of the per-operation hit probabilities.

The controller re-plans on every accepted drift, and a re-plan sweeps the
``B = l − n·w`` line of every movie through :class:`HitProbabilityModel` —
tens of quadrature-heavy evaluations per movie per tick — then scores the
incumbent and the candidate plan with a per-movie ``HitBreakdown``.

A tick's spec carries the snapshot's decayed VCR mix, which moves on every
tick, so a whole spec (and its mixed ``P(hit)``) almost never repeats.  What
repeats is underneath: Eq. (22) is ``Σ p_op · P(hit | op)``, and each
``P(hit | op)`` depends only on that operation's duration distribution,
``l``, the rates and ``(B, n)`` — not on the mix.  A refit usually replaces
one operation's fit and leaves the others alone.
:class:`ModelEvaluationCache` therefore keeps two bounded LRU maps:

* **operations**, ``P(hit | op)`` keyed by ``(op, distribution signature,
  l, rates, n, quantised B)``: every model the cache builds resolves its
  per-operation batches here, so a mix-only change or an unchanged
  operation costs no kernel evaluation across ticks.  The key needs nothing
  else because the model has no other input: the Eq.-(20) end hit always
  counts, and the offset nodes and the CDF grid are the constants of
  :mod:`repro.core.hitsets`;
* **transforms**, the ``(truncated duration, CdfTransform)`` pair keyed by
  ``(distribution signature, l)``, so a model built for a new mix reuses
  the expensive construction of its unchanged distributions.

Mixed values and breakdowns are recombined from the per-operation values
with the unchanged :class:`~repro.core.hitmodel.HitBreakdown` expression,
so every value is bit-for-bit what an uncached model returns.  Buffer
minutes are quantised onto a fixed grid before keying — floats that differ
below the grid resolution are physically the same configuration and must
not miss.  Hit/miss/eviction counters are exposed per map so the benchmark
suite (and operators) can verify the cache is actually working.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from repro.core.hitmodel import HitProbabilityModel
from repro.core.hitsets import CdfTransform
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions.base import DurationDistribution
from repro.exceptions import ConfigurationError
from repro.sizing.feasible import FeasibleSet, MovieSizingSpec, distribution_signature

__all__ = ["CacheStats", "LRUCache", "ModelEvaluationCache", "CachedFeasibleSet"]

#: Module-private miss marker.  ``LRUCache.get`` must be able to cache *any*
#: value — including ``None`` and falsy ones — so a miss is signalled by this
#: sentinel (or a caller-supplied default), never by ``None``.
_MISS = object()

#: Bound of the transform map: distinct (distribution, length) pairs kept.
_MAX_TRANSFORMS = 64
#: Bound of the per-operation map: ``P(hit | op)`` values kept.
_MAX_EVALUATIONS = 8192
#: Buffer minutes closer than this share one per-operation key.
_BUFFER_QUANTUM_MINUTES = 1e-4


def _quantise(buffer_minutes: float) -> int:
    return round(buffer_minutes / _BUFFER_QUANTUM_MINUTES)


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time view of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    entries: int
    maxsize: int

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0


class LRUCache:
    """A bounded mapping with least-recently-used eviction and counters."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ConfigurationError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable, default=None):
        """The cached value, or ``default`` on a miss (misses are counted).

        A cached value may legitimately be ``None`` (or otherwise falsy);
        callers that need to distinguish a miss from a cached ``None`` pass
        their own sentinel as ``default`` and compare with ``is``.
        """
        try:
            value = self._data[key]
        except KeyError:
            self._misses += 1
            return default
        self._data.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        """Insert (or refresh) a value, evicting the LRU entry when full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self._maxsize:
            self._data.popitem(last=False)
            self._evictions += 1

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]):
        """The cached value of ``key``, or ``compute()`` stored under it."""
        value = self.get(key, _MISS)
        if value is _MISS:
            value = compute()
            self.put(key, value)
        return value

    def get_many(self, keys: Sequence[Hashable], compute: Callable[[list[int]], list]) -> list:
        """One counted lookup per key; misses computed in one call and stored.

        ``compute`` receives the index (into ``keys``) of the first
        occurrence of every distinct missing key and returns their values in
        that order.  Each value is stored once, and every occurrence of its
        key gets it.
        """
        out: list = [None] * len(keys)
        missing: "OrderedDict[Hashable, list[int]]" = OrderedDict()
        for i, key in enumerate(keys):
            cached = self.get(key, _MISS)
            if cached is _MISS:
                missing.setdefault(key, []).append(i)
            else:
                out[i] = cached
        if missing:
            values = compute([idxs[0] for idxs in missing.values()])
            for (key, idxs), value in zip(missing.items(), values):
                self.put(key, value)
                for i in idxs:
                    out[i] = value
        return out

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        # Membership tests do not disturb recency or the counters.
        return key in self._data

    def clear(self) -> None:
        """Drop every entry; the counters survive (they are cumulative)."""
        self._data.clear()

    @property
    def stats(self) -> CacheStats:
        """The current counters."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            entries=len(self._data),
            maxsize=self._maxsize,
        )


class _CachedHitModel(HitProbabilityModel):
    """A hit model whose per-operation work goes through a shared cache.

    Truncations and transforms come from the cache's transform map, and
    :meth:`hit_probability_for_batch` — which :meth:`hit_probability_batch`
    and :meth:`breakdown` resolve through — reads ``P(hit | op)`` from its
    per-operation map.  Misses go to the base class, i.e. to the
    module-level kernel :func:`repro.core.hitmodel.hit_probability_batch`.
    """

    def __init__(self, shared: "ModelEvaluationCache", spec: MovieSizingSpec) -> None:
        durations = spec.durations
        if isinstance(durations, DurationDistribution):
            durations = dict.fromkeys(VCROperation, durations)
        self._shared = shared
        self._signatures = {
            id(dist): distribution_signature(dist) for dist in durations.values()
        }
        super().__init__(spec.length, spec.durations, mix=spec.mix, rates=spec.rates)
        self._operation_keys = {
            op: (op, self._signatures[id(durations[op])]) for op in VCROperation
        }

    def _prepare(self, dist: DurationDistribution) -> tuple[DurationDistribution, CdfTransform]:
        key = (self._signatures[id(dist)], self.movie_length)
        prepare = super()._prepare
        return self._shared._transforms.get_or_compute(key, lambda: prepare(dist))

    def hit_probability_for_batch(
        self, operation: VCROperation, configs: Sequence[SystemConfiguration]
    ) -> list[float]:
        for config in configs:
            self._check_config(config)
        prefix = self._operation_keys[operation]
        keys = [
            prefix
            + (c.movie_length, c.rates, c.num_partitions, _quantise(c.buffer_minutes))
            for c in configs
        ]
        evaluate = super().hit_probability_for_batch
        return self._shared._operations.get_many(
            keys, lambda firsts: evaluate(operation, [configs[i] for i in firsts])
        )


class ModelEvaluationCache:
    """Shared memoisation of per-operation ``P(hit | op)`` and of transforms.

    The transform map holds ``_MAX_TRANSFORMS`` entries and the
    per-operation map ``_MAX_EVALUATIONS``; buffer minutes are keyed on a
    ``_BUFFER_QUANTUM_MINUTES`` grid.
    """

    def __init__(self) -> None:
        self._transforms = LRUCache(_MAX_TRANSFORMS)
        self._operations = LRUCache(_MAX_EVALUATIONS)

    def model_for(self, spec: MovieSizingSpec) -> HitProbabilityModel:
        """A hit model of ``spec`` that resolves its work through this cache.

        Each call builds a new model, but its transforms and per-operation
        values come from the shared maps; its values equal
        ``spec.build_model()``'s bit for bit.
        """
        return _CachedHitModel(self, spec)

    def feasible_set(self, spec: MovieSizingSpec, points=None) -> "CachedFeasibleSet":
        """A :class:`FeasibleSet` whose sweeps route through this cache.

        ``points`` warm-starts the per-set frontier cache (e.g. with a
        parallel sweep's already-evaluated :class:`FeasiblePoint` rows).
        """
        return CachedFeasibleSet(spec, self, points=points)

    @property
    def evaluation_stats(self) -> CacheStats:
        """Counters of the per-operation ``P(hit | op)`` map."""
        return self._operations.stats

    def stats(self) -> dict[str, CacheStats]:
        """Every map's counters, keyed for reports."""
        return {"operations": self.evaluation_stats, "transforms": self._transforms.stats}

    def clear(self) -> None:
        """Drop every cached entry (counters survive)."""
        self._operations.clear()
        self._transforms.clear()


class CachedFeasibleSet(FeasibleSet):
    """A feasibility frontier that reads and feeds a shared evaluation cache.

    Identical contract to :class:`FeasibleSet`; the only difference is that
    its model comes from :meth:`ModelEvaluationCache.model_for`, so two
    frontiers whose specs share a duration distribution — e.g. this tick's
    re-plan and the next tick's, under a new mix — share its ``P(hit | op)``
    values.
    """

    def __init__(
        self, spec: MovieSizingSpec, shared_cache: ModelEvaluationCache, points=None
    ) -> None:
        super().__init__(spec, points=points)
        self._shared = shared_cache

    @property
    def model(self) -> HitProbabilityModel:
        """The hit model, resolved through the shared cache on first use."""
        if self._model is None:
            self._model = self._shared.model_for(self.spec)
        return self._model
