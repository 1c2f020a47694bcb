"""Sizing-pipeline benchmarks: frontier search and multi-movie optimisation."""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.distributions import ExponentialDuration, GammaDuration
from repro.runtime.modelcache import ModelEvaluationCache
from repro.sizing.cost import CostModel, cost_curve
from repro.sizing.feasible import FeasibleSet, MovieSizingSpec
from repro.sizing.optimizer import optimize_allocation


def _fresh_sets():
    specs = [
        MovieSizingSpec("movie1", 75.0, 0.1, GammaDuration(2.0, 4.0)),
        MovieSizingSpec("movie2", 60.0, 0.5, ExponentialDuration(5.0)),
        MovieSizingSpec("movie3", 90.0, 0.25, ExponentialDuration(2.0)),
    ]
    return [FeasibleSet(spec) for spec in specs]


def test_frontier_search_single_movie(benchmark):
    """max_streams bisection over a 750-point frontier (Example 1's movie 1)."""

    def search():
        spec = MovieSizingSpec("movie1", 75.0, 0.1, GammaDuration(2.0, 4.0))
        return FeasibleSet(spec).max_streams()

    best = benchmark.pedantic(search, rounds=3, iterations=1)
    assert 330 <= best <= 400


def test_example1_full_optimisation(benchmark):
    """The entire Example-1 solve from cold caches."""

    def solve():
        return optimize_allocation(_fresh_sets(), stream_budget=1230)

    result = benchmark.pedantic(solve, rounds=3, iterations=1)
    assert result.total_streams == pytest.approx(602, rel=0.05)


def test_modelcache_repeated_sweep_speedup():
    """Acceptance: the runtime model cache turns a repeated feasible-set
    sweep — what the controller does on every re-plan tick — into lookups,
    at least 5x faster than recomputing, with the counters proving it."""
    specs = [
        MovieSizingSpec("movie1", 75.0, 0.1, GammaDuration(2.0, 4.0)),
        MovieSizingSpec("movie2", 60.0, 0.5, ExponentialDuration(5.0)),
        MovieSizingSpec("movie3", 90.0, 0.25, ExponentialDuration(2.0)),
    ]
    rounds, sweep_range = 4, range(10, 60, 5)

    def sweep(sets):
        return [fs.point(n).hit_probability for fs in sets for n in sweep_range]

    # The naive re-planner: fresh frontiers every tick, full quadrature each.
    start = perf_counter()
    for _ in range(rounds):
        cold_values = sweep([FeasibleSet(spec) for spec in specs])
    cold_time = perf_counter() - start

    cache = ModelEvaluationCache()
    sweep([cache.feasible_set(spec) for spec in specs])  # tick 1 pays once
    start = perf_counter()
    for _ in range(rounds):
        warm_values = sweep([cache.feasible_set(spec) for spec in specs])
    warm_time = perf_counter() - start

    assert warm_values == cold_values
    assert cold_time / warm_time >= 5.0
    stats = cache.evaluation_stats
    assert stats.hit_rate >= 0.7
    assert stats.hits >= rounds * len(specs) * len(sweep_range)


def test_cost_curve_generation(benchmark):
    """One Figure-9 panel over warm caches."""
    sets = _fresh_sets()
    for fs in sets:
        fs.max_streams()  # warm the caches as the experiment harness does

    def curve():
        return cost_curve(sets, CostModel.from_phi(11.0))

    points = benchmark.pedantic(curve, rounds=3, iterations=1)
    assert len(points) > 10
