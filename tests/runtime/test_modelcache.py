"""Per-operation memoisation: bit-identical values, reuse across specs,
quantised keys, eviction and counters."""

from __future__ import annotations

import pytest

import repro.core.hitmodel as hitmodel
import repro.runtime.modelcache as modelcache
from repro.core.hitmodel import VCRMix
from repro.core.vcrop import VCROperation
from repro.distributions import (
    EmpiricalDuration,
    ExponentialDuration,
    GammaDuration,
    distribution_from_spec,
    truncate,
)
from repro.distributions.truncated import clear_truncation_cache
from repro.exceptions import ConfigurationError
from repro.runtime.modelcache import (
    _BUFFER_QUANTUM_MINUTES,
    LRUCache,
    ModelEvaluationCache,
)
from repro.sizing.feasible import FeasibleSet, MovieSizingSpec, distribution_signature


#: Every model evaluates all three operations, so one mixed ``P(hit)`` is
#: three lookups in the per-operation map.
_OPS = len(VCROperation)


def _spec(name="m0", length=120.0, max_wait=2.0, mean=None, p_star=0.5):
    durations = (
        GammaDuration.paper_figure7() if mean is None else ExponentialDuration(mean)
    )
    return MovieSizingSpec(
        name=name, length=length, max_wait=max_wait, durations=durations, p_star=p_star
    )


def _configs(spec, points):
    model = spec.build_model()
    return [model.configuration(n, b) for n, b in points]


class TestLRUCache:
    def test_round_trip_and_counters(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b becomes LRU
        cache.put("c", 3)       # evicts b
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LRUCache(maxsize=0)

    def test_get_many_evicts_past_maxsize(self):
        cache = LRUCache(maxsize=8)
        cache.get_many(list(range(20)), lambda firsts: [k * 10 for k in firsts])
        stats = cache.stats
        assert stats.entries == 8
        assert stats.evictions == 12
        assert all(k in cache for k in range(12, 20))

    def test_cached_none_is_a_hit(self):
        # ``None`` is a legitimate cached value: retrieving it must count as
        # a hit, not be conflated with a miss.
        cache = LRUCache(maxsize=4)
        cache.put("k", None)
        assert cache.get("k") is None
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 0

    def test_get_default_distinguishes_miss_from_cached_none(self):
        cache = LRUCache(maxsize=4)
        sentinel = object()
        assert cache.get("absent", sentinel) is sentinel
        cache.put("k", None)
        assert cache.get("k", sentinel) is None
        stats = cache.stats
        assert stats.misses == 1 and stats.hits == 1

    def test_falsy_values_round_trip(self):
        cache = LRUCache(maxsize=4)
        for key, value in (("zero", 0.0), ("empty", ()), ("false", False)):
            cache.put(key, value)
            assert cache.get(key, "MISS") == value
        assert cache.stats.misses == 0


class TestModelEvaluationCache:
    def test_hit_probability_parity_with_plain_feasible_set(self):
        spec = _spec()
        cache = ModelEvaluationCache()
        cached = cache.feasible_set(spec)
        plain = FeasibleSet(spec)
        assert cached.max_streams() == plain.max_streams()
        for n in (1, 10, 25):
            assert cached.point(n).hit_probability == plain.point(n).hit_probability

    def test_repeated_sweep_hits_the_cache(self):
        spec = _spec()
        cache = ModelEvaluationCache()
        cache.feasible_set(spec).max_streams()
        first = cache.evaluation_stats
        cache.feasible_set(spec).max_streams()
        second = cache.evaluation_stats
        assert second.misses == first.misses          # no new model evaluations
        assert second.hits > first.hits
        assert second.hit_rate > 0.4

    def test_quantised_keys_coalesce_float_noise(self):
        spec = _spec()
        cache = ModelEvaluationCache()
        model = cache.model_for(spec)
        a = model.hit_probability(model.configuration(10, 100.0))
        b = model.hit_probability(model.configuration(10, 100.0 + 1e-6))  # below the grid
        assert a == b
        assert cache.evaluation_stats.hits == _OPS

    def test_buffers_within_grid_resolution_share_a_key(self):
        # Audit of the quantisation grid: two buffer values that differ by
        # less than half a quantum land on the same key, while a full-quantum
        # step lands on a new one.
        spec = _spec()
        quantum = _BUFFER_QUANTUM_MINUTES
        cache = ModelEvaluationCache()
        model = cache.model_for(spec)
        for buffer in (100.0, 100.0 + 0.4 * quantum, 100.0 + quantum):
            model.hit_probability_batch([model.configuration(10, buffer)])
        stats = cache.evaluation_stats
        assert stats.hits == _OPS and stats.misses == 2 * _OPS

    def test_warm_grid_batched_sweep_is_all_hits(self):
        # A batched sweep over an already-evaluated grid, by a new frontier,
        # must be 100% cache hits — no kernel evaluation, one counted hit per
        # point and operation.
        spec = _spec()
        cache = ModelEvaluationCache()
        counts = range(1, 31)
        cold = cache.feasible_set(spec).points_batch(counts)
        baseline = cache.evaluation_stats
        assert baseline.misses == len(counts) * _OPS
        warm = cache.feasible_set(spec).points_batch(counts)
        stats = cache.evaluation_stats
        assert warm == cold
        assert stats.misses == baseline.misses
        assert stats.hits == baseline.hits + len(counts) * _OPS

    def test_bulk_call_deduplicates_equal_keys(self):
        # Duplicate configurations inside one batch are evaluated once per
        # operation (one put) but still pay one counted lookup each.
        spec = _spec()
        cache = ModelEvaluationCache()
        model = cache.model_for(spec)
        config = model.configuration(10, 100.0)
        values = model.hit_probability_batch([config, config])
        assert values[0] == values[1]
        stats = cache.evaluation_stats
        assert stats.misses == 2 * _OPS and stats.entries == _OPS
        assert model.hit_probability_batch([config]) == [values[0]]
        assert cache.evaluation_stats.hits == _OPS

    def test_bulk_matches_scalar_lookup_path(self):
        spec = _spec()
        configs = _configs(spec, [(n, 120.0 - 2.0 * n) for n in (1, 5, 10, 25, 40)])
        bulk = ModelEvaluationCache().model_for(spec).hit_probability_batch(configs)
        scalar_model = ModelEvaluationCache().model_for(spec)
        assert bulk == [scalar_model.hit_probability(c) for c in configs]

    def test_eviction_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(modelcache, "_MAX_EVALUATIONS", 8)
        spec = _spec()
        cache = ModelEvaluationCache()
        model = cache.model_for(spec)
        for n in range(1, 21):
            model.hit_probability(model.configuration(n, 120.0 - 2.0 * n))
        stats = cache.evaluation_stats
        assert stats.entries == 8
        assert stats.evictions == 20 * _OPS - 8

    def test_stats_mapping(self):
        cache = ModelEvaluationCache()
        stats = cache.stats()
        assert set(stats) == {"operations", "transforms"}
        assert stats["operations"] == cache.evaluation_stats

    def test_clear_keeps_counters(self):
        spec = _spec()
        cache = ModelEvaluationCache()
        model = cache.model_for(spec)
        model.hit_probability(model.configuration(5, 110.0))
        cache.clear()
        assert cache.evaluation_stats.entries == 0
        assert cache.evaluation_stats.misses == _OPS


_MIXTURE = {
    "family": "mixture",
    "components": [
        {"family": "exponential", "mean": 1.0},
        {"family": "gamma", "shape": 2.0, "scale": 4.0},
    ],
    "weights": [0.3, 0.7],
}
_TRUNCATED = {"family": "gamma", "shape": 2.0, "scale": 4.0, "truncate_at": 60.0}


class TestDistributionSignature:
    @pytest.mark.parametrize("dist_spec", [_MIXTURE, _TRUNCATED], ids=["mixture", "truncated"])
    def test_composite_spec_through_the_cache(self, dist_spec):
        spec = MovieSizingSpec(
            name="m0", length=120.0, max_wait=2.0, durations=distribution_from_spec(dist_spec)
        )
        cache = ModelEvaluationCache()
        config = spec.build_model().configuration(10, 100.0)
        expected = spec.build_model().hit_probability(config)
        assert cache.model_for(spec).hit_probability_batch([config]) == [expected]
        # An equal composite spec finds its transform and values cached.
        assert cache.model_for(spec).hit_probability_batch([config]) == [expected]
        stats = cache.stats()
        assert stats["transforms"].misses == 1 and stats["transforms"].hits == 1
        assert stats["operations"].misses == _OPS and stats["operations"].hits == _OPS

    def test_equal_composites_equal_signatures(self):
        assert distribution_signature(distribution_from_spec(_MIXTURE)) == (
            distribution_signature(distribution_from_spec(_MIXTURE))
        )
        other = dict(_MIXTURE, weights=[0.4, 0.6])
        assert distribution_signature(distribution_from_spec(other)) != (
            distribution_signature(distribution_from_spec(_MIXTURE))
        )

    def test_reading_the_mean_keeps_the_signature(self):
        clear_truncation_cache()
        dist = truncate(GammaDuration(shape=2.0, scale=4.0), 60.0)
        before = distribution_signature(dist)
        assert dist.mean > 0.0
        assert distribution_signature(dist) == before


def _gamma_spec(**overrides):
    fields = {"name": "m0", "length": 120.0, "max_wait": 2.0}
    fields["durations"] = GammaDuration.paper_figure7()
    return MovieSizingSpec(**{**fields, **overrides})


_EXACTNESS_SPECS = {
    "gamma": _gamma_spec(),
    "exponential": _gamma_spec(durations=ExponentialDuration(4.0)),
    "empirical": _gamma_spec(durations=EmpiricalDuration([0.5, 1.0, 2.5, 4.0, 7.5, 12.0])),
    "per-operation": _gamma_spec(
        durations={
            VCROperation.FAST_FORWARD: ExponentialDuration(3.0),
            VCROperation.REWIND: GammaDuration(shape=2.0, scale=2.0),
            VCROperation.PAUSE: ExponentialDuration(6.0),
        }
    ),
}
# The Eq.-(2) line plus one point off it: the same B as n = 20 at another n.
_POINTS = [(n, 120.0 - 2.0 * n) for n in (1, 7, 20, 41, 60)] + [(3, 80.0)]


def _record_kernel_calls(monkeypatch) -> list:
    """Record the operation and batch size of every Eq.-(21) kernel call."""
    calls = []
    kernel = hitmodel.hit_probability_batch

    def recording(operation, configs, *args, **kwargs):
        calls.append((operation, len(configs)))
        return kernel(operation, configs, *args, **kwargs)

    monkeypatch.setattr(hitmodel, "hit_probability_batch", recording)
    return calls


class TestPerOperationReuse:
    @pytest.mark.parametrize("name", sorted(_EXACTNESS_SPECS))
    def test_cached_values_equal_an_uncached_model(self, name):
        spec = _EXACTNESS_SPECS[name]
        plain = spec.build_model()
        configs = _configs(spec, _POINTS)
        cached = ModelEvaluationCache().model_for(spec)
        assert cached.hit_probability_batch(configs) == plain.hit_probability_batch(configs)
        assert [cached.breakdown(c) for c in configs] == [plain.breakdown(c) for c in configs]

    def test_mix_only_change_is_exact_and_evaluates_nothing(self, monkeypatch):
        first = _EXACTNESS_SPECS["per-operation"]
        second = _gamma_spec(durations=first.durations, mix=VCRMix(0.5, 0.1, 0.4))
        plain = second.build_model()
        configs = _configs(second, _POINTS)
        expected = plain.hit_probability_batch(configs)
        expected_breakdowns = [plain.breakdown(c) for c in configs]
        cache = ModelEvaluationCache()
        cache.model_for(first).hit_probability_batch(configs)
        before = cache.stats()
        calls = _record_kernel_calls(monkeypatch)
        model = cache.model_for(second)
        assert model.hit_probability_batch(configs) == expected
        assert [model.breakdown(c) for c in configs] == expected_breakdowns
        assert calls == []
        after = cache.stats()
        for name in ("operations", "transforms"):
            assert after[name].misses == before[name].misses

    def test_refitting_one_operation_re_evaluates_only_it(self, monkeypatch):
        first = _EXACTNESS_SPECS["per-operation"]
        refit = dict(first.durations)
        refit[VCROperation.REWIND] = GammaDuration(shape=3.0, scale=1.5)
        second = _gamma_spec(durations=refit)
        configs = _configs(second, _POINTS)
        expected = second.build_model().hit_probability_batch(configs)
        cache = ModelEvaluationCache()
        cache.model_for(first).hit_probability_batch(configs)
        calls = _record_kernel_calls(monkeypatch)
        assert cache.model_for(second).hit_probability_batch(configs) == expected
        assert calls == [(VCROperation.REWIND, len(_POINTS))]
