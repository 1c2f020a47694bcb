"""Bounded memoisation: correctness parity, eviction, and counters."""

from __future__ import annotations

import pytest

import repro.core.hitmodel as hitmodel
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
from repro.runtime.modelcache import LRUCache, ModelEvaluationCache
from repro.sizing.feasible import (
    FeasibleSet,
    MovieSizingSpec,
    distribution_signature,
    spec_signature,
)


def _spec(name="m0", length=120.0, max_wait=2.0, mean=None, p_star=0.5):
    durations = (
        GammaDuration.paper_figure7() if mean is None else ExponentialDuration(mean)
    )
    return MovieSizingSpec(
        name=name, length=length, max_wait=max_wait, durations=durations, p_star=p_star
    )


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


class TestSpecSignature:
    def test_equal_specs_equal_signatures(self):
        assert spec_signature(_spec()) == spec_signature(_spec())

    def test_any_statistical_change_changes_signature(self):
        base = spec_signature(_spec())
        assert spec_signature(_spec(mean=5.0)) != base
        assert spec_signature(_spec(max_wait=2.5)) != base
        assert spec_signature(_spec(p_star=0.6)) != base
        assert spec_signature(_spec(name="other")) != base

    def test_signature_is_hashable(self):
        assert hash(spec_signature(_spec())) == hash(spec_signature(_spec()))


class TestModelEvaluationCache:
    def test_model_reuse_across_equal_specs(self):
        cache = ModelEvaluationCache()
        model_a = cache.model_for(_spec())
        model_b = cache.model_for(_spec())
        assert model_a is model_b
        assert cache.model_stats.hits == 1 and cache.model_stats.misses == 1

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
        cache = ModelEvaluationCache(buffer_quantum_minutes=1e-4)
        a = cache.hit_probability(spec, 10, 100.0)
        b = cache.hit_probability(spec, 10, 100.0 + 1e-6)  # below the grid
        assert a == b
        assert cache.evaluation_stats.hits == 1

    def test_buffers_within_grid_resolution_share_a_key(self):
        # Audit of the quantisation grid: two buffer values that differ by
        # less than half a quantum land on the same key, while a full-quantum
        # step lands on a new one.
        spec = _spec()
        quantum = 1e-4
        cache = ModelEvaluationCache(buffer_quantum_minutes=quantum)
        cache.hit_probability(spec, 10, 100.0)
        cache.hit_probability(spec, 10, 100.0 + 0.4 * quantum)   # same cell
        cache.hit_probability(spec, 10, 100.0 + quantum)         # next cell
        stats = cache.evaluation_stats
        assert stats.hits == 1 and stats.misses == 2

    def test_warm_grid_batched_sweep_is_all_hits(self):
        # A batched sweep over an already-evaluated (n, B) grid must be 100%
        # cache hits — no model evaluation, one counted hit per point.
        spec = _spec()
        cache = ModelEvaluationCache()
        points = [(n, 120.0 - 2.0 * n) for n in range(1, 31)]
        cold = cache.hit_probability_many(spec, points)
        baseline = cache.evaluation_stats
        assert baseline.misses == len(points)
        warm = cache.hit_probability_many(spec, points)
        stats = cache.evaluation_stats
        assert warm == cold
        assert stats.misses == baseline.misses
        assert stats.hits == baseline.hits + len(points)

    def test_bulk_call_deduplicates_equal_keys(self):
        # Duplicate (n, B) points inside one bulk call are evaluated once
        # (one put) but still pay one counted lookup each.
        spec = _spec()
        cache = ModelEvaluationCache()
        values = cache.hit_probability_many(spec, [(10, 100.0), (10, 100.0)])
        assert values[0] == values[1]
        stats = cache.evaluation_stats
        assert stats.misses == 2 and stats.entries == 1
        again = cache.hit_probability_many(spec, [(10, 100.0)])
        assert again == [values[0]]
        assert cache.evaluation_stats.hits == 1

    def test_bulk_matches_scalar_lookup_path(self):
        spec = _spec()
        bulk_cache = ModelEvaluationCache()
        scalar_cache = ModelEvaluationCache()
        points = [(n, 120.0 - 2.0 * n) for n in (1, 5, 10, 25, 40)]
        bulk = bulk_cache.hit_probability_many(spec, points)
        scalar = [scalar_cache.hit_probability(spec, n, b) for n, b in points]
        assert bulk == scalar

    def test_eviction_bounds_memory(self):
        spec = _spec()
        cache = ModelEvaluationCache(max_evaluations=8)
        for n in range(1, 21):
            cache.hit_probability(spec, n, 120.0 - 2.0 * n)
        stats = cache.evaluation_stats
        assert stats.entries <= 8
        assert stats.evictions >= 12

    def test_stats_mapping(self):
        cache = ModelEvaluationCache()
        stats = cache.stats()
        assert set(stats) == {"models", "evaluations", "operations", "transforms"}

    def test_clear_keeps_counters(self):
        spec = _spec()
        cache = ModelEvaluationCache()
        cache.hit_probability(spec, 5, 110.0)
        cache.clear()
        assert cache.evaluation_stats.entries == 0
        assert cache.evaluation_stats.misses == 1


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
        assert cache.model_for(spec) is cache.model_for(spec)
        config = spec.build_model().configuration(10, 100.0)
        assert cache.hit_probability(spec, 10, 100.0) == spec.build_model().hit_probability(
            config
        )

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
        configs = [plain.configuration(n, b) for n, b in _POINTS]
        cache = ModelEvaluationCache()
        assert cache.hit_probability_many(spec, _POINTS) == plain.hit_probability_batch(configs)
        cached = cache.model_for(spec)
        assert [cached.breakdown(c) for c in configs] == [plain.breakdown(c) for c in configs]

    def test_mix_only_change_is_exact_and_evaluates_nothing(self, monkeypatch):
        first = _EXACTNESS_SPECS["per-operation"]
        second = _gamma_spec(durations=first.durations, mix=VCRMix(0.5, 0.1, 0.4))
        plain = second.build_model()
        configs = [plain.configuration(n, b) for n, b in _POINTS]
        expected = plain.hit_probability_batch(configs)
        expected_breakdowns = [plain.breakdown(c) for c in configs]
        cache = ModelEvaluationCache()
        cache.hit_probability_many(first, _POINTS)
        before = cache.stats()
        calls = _record_kernel_calls(monkeypatch)
        assert cache.hit_probability_many(second, _POINTS) == expected
        model = cache.model_for(second)
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
        plain = second.build_model()
        expected = plain.hit_probability_batch([plain.configuration(n, b) for n, b in _POINTS])
        cache = ModelEvaluationCache()
        cache.hit_probability_many(first, _POINTS)
        calls = _record_kernel_calls(monkeypatch)
        assert cache.hit_probability_many(second, _POINTS) == expected
        assert calls == [(VCROperation.REWIND, len(_POINTS))]
