"""Feasible sets: frontier monotonicity, max-n search, Figure-8 steps."""

from __future__ import annotations

import pytest

from repro.core.hitmodel import VCRMix
from repro.distributions import ExponentialDuration, GammaDuration
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.sizing.feasible import FeasiblePoint, FeasibleSet, MovieSizingSpec


@pytest.fixture(scope="module")
def spec():
    return MovieSizingSpec(
        "movie2", length=60.0, max_wait=0.5,
        durations=ExponentialDuration(5.0), p_star=0.5,
    )


@pytest.fixture(scope="module")
def feasible(spec):
    return FeasibleSet(spec)


class TestSpecValidation:
    def test_rejects_bad_wait(self):
        with pytest.raises(ConfigurationError):
            MovieSizingSpec("m", 60.0, 0.0, ExponentialDuration(5.0))
        with pytest.raises(ConfigurationError):
            MovieSizingSpec("m", 60.0, 100.0, ExponentialDuration(5.0))

    def test_rejects_bad_p_star(self):
        with pytest.raises(ConfigurationError):
            MovieSizingSpec("m", 60.0, 0.5, ExponentialDuration(5.0), p_star=1.5)

    def test_pure_batching_streams(self, spec):
        assert spec.pure_batching_streams == 120

    def test_build_model(self, spec):
        model = spec.build_model()
        assert model.movie_length == 60.0


class TestPointEvaluation:
    def test_point_follows_eq2(self, feasible):
        point = feasible.point(60)
        assert point.buffer_minutes == pytest.approx(60.0 - 60 * 0.5)
        assert 0.0 <= point.hit_probability <= 1.0

    def test_point_cached(self, feasible):
        assert feasible.point(40) is feasible.point(40)

    def test_out_of_range_rejected(self, feasible):
        with pytest.raises(ConfigurationError):
            feasible.point(0)
        with pytest.raises(ConfigurationError):
            feasible.point(feasible.max_possible_streams + 1)

    def test_configuration_matches_point(self, feasible):
        config = feasible.configuration(30)
        point = feasible.point(30)
        assert config.num_partitions == 30
        assert config.buffer_minutes == pytest.approx(point.buffer_minutes)

    def test_frontier_monotone(self, feasible):
        values = [feasible.point(n).hit_probability for n in (5, 20, 40, 60, 90, 119)]
        for left, right in zip(values[:-1], values[1:]):
            assert right <= left + 1e-6


class TestMaxStreams:
    def test_paper_example1_movie2(self, feasible):
        """The paper's (B*, n*) = (30, 60) point sits at our frontier."""
        best = feasible.max_streams()
        assert best == pytest.approx(60, abs=2)
        point = feasible.point(best)
        assert point.hit_probability >= 0.5
        assert feasible.point(best + 1).hit_probability < 0.5

    def test_trivial_target_takes_max(self):
        spec = MovieSizingSpec(
            "easy", 60.0, 0.5, ExponentialDuration(5.0), p_star=0.0
        )
        feasible = FeasibleSet(spec)
        assert feasible.max_streams() == feasible.max_possible_streams

    def test_impossible_target_raises(self):
        spec = MovieSizingSpec(
            "hard", 60.0, 0.5, ExponentialDuration(5.0), p_star=0.999999
        )
        with pytest.raises(InfeasibleError):
            FeasibleSet(spec).max_streams()

    def test_best_point_meets_target(self, feasible):
        best = feasible.best_point()
        assert best.meets(0.5)


def test_gamma_movie1_matches_paper():
    """Movie 1 of Example 1: paper picks (39, 360); our frontier is within
    a few percent (the exact VCR mix is unstated in the paper)."""
    spec = MovieSizingSpec(
        "movie1", 75.0, 0.1, GammaDuration(2.0, 4.0),
        p_star=0.5, mix=VCRMix.paper_figure7d(),
    )
    best = FeasibleSet(spec).max_streams()
    assert 330 <= best <= 400
    buffer_minutes = 75.0 - best * 0.1
    assert buffer_minutes == pytest.approx(39.0, abs=4.0)


class TestMaxStreamsBoundaries:
    """Regression: n_max must be verified-feasible at the sizing boundaries."""

    def test_integral_length_over_wait(self):
        # w | l exactly: the top of the Eq.-(2) line is pure batching (B = 0).
        spec = MovieSizingSpec(
            "wl", length=60.0, max_wait=0.5,
            durations=ExponentialDuration(5.0), p_star=0.5,
        )
        fs = FeasibleSet(spec)
        assert fs.max_possible_streams == 120
        top = fs.point(fs.max_possible_streams)
        assert top.buffer_minutes == 0.0
        n_max = fs.max_streams()
        assert fs.point(n_max).meets(spec.p_star)
        if n_max < fs.max_possible_streams:
            assert not fs.point(n_max + 1).meets(spec.p_star)

    def test_n_max_equals_one(self):
        # Only one point on the line; it must be returned verified, not
        # assumed feasible via the bisection invariant.
        spec = MovieSizingSpec(
            "one", length=60.0, max_wait=59.0,
            durations=ExponentialDuration(5.0), p_star=0.1,
        )
        fs = FeasibleSet(spec)
        assert fs.max_possible_streams == 1
        assert fs.max_streams() == 1
        assert fs.point(1).meets(spec.p_star)

    def test_whole_line_feasible_returns_top(self):
        # p_star = 0 makes every point (including B = 0) feasible.
        spec = MovieSizingSpec(
            "all", length=60.0, max_wait=0.5,
            durations=ExponentialDuration(5.0), p_star=0.0,
        )
        fs = FeasibleSet(spec)
        assert fs.max_streams() == fs.max_possible_streams

    def test_infeasible_at_one_raises(self):
        spec = MovieSizingSpec(
            "hard", length=60.0, max_wait=30.0,
            durations=ExponentialDuration(5.0), p_star=0.999999,
        )
        with pytest.raises(InfeasibleError):
            FeasibleSet(spec).max_streams()

    def test_max_streams_memoised(self):
        spec = MovieSizingSpec(
            "memo", length=60.0, max_wait=0.5,
            durations=ExponentialDuration(5.0), p_star=0.5,
        )
        fs = FeasibleSet(spec)
        assert fs.max_streams() == fs.max_streams()

    def test_noisy_frontier_walks_down_to_verified_point(self):
        # Force non-monotone noise: make one point above the true boundary
        # spuriously pass so the bisection lands on it, and check the
        # verification walk refuses to return it.
        spec = MovieSizingSpec(
            "noisy", length=60.0, max_wait=0.5,
            durations=ExponentialDuration(5.0), p_star=0.5,
        )
        fs = FeasibleSet(spec)
        true_max = fs.max_streams()

        # Seed a cache with an infeasible value at a point above the true
        # boundary: if the search ever lands there, the verification walk
        # must keep stepping down rather than return it.
        lie_n = min(true_max + 5, FeasibleSet(spec).max_possible_streams)
        noisy = FeasibleSet(
            spec,
            points=[
                FeasiblePoint(
                    num_streams=lie_n,
                    buffer_minutes=spec.length - lie_n * spec.max_wait,
                    hit_probability=spec.p_star - 1e-6,  # genuinely infeasible
                )
            ],
        )
        got = noisy.max_streams()
        assert noisy.point(got).meets(spec.p_star)


class TestWarmStart:
    def test_points_injection_replays_without_model(self):
        spec = MovieSizingSpec(
            "warm", length=60.0, max_wait=0.5,
            durations=ExponentialDuration(5.0), p_star=0.5,
        )
        cold = FeasibleSet(spec)
        n_max = cold.max_streams()
        warm = FeasibleSet(spec, points=cold.known_points())
        # The warm set replays the same bisection purely from cache: the
        # model must never be constructed.
        assert warm.max_streams() == n_max
        assert warm._model is None
        assert warm.known_points() == cold.known_points()

    def test_known_points_sorted(self):
        spec = MovieSizingSpec(
            "sorted", length=60.0, max_wait=1.0,
            durations=ExponentialDuration(5.0), p_star=0.5,
        )
        fs = FeasibleSet(spec)
        fs.point(10), fs.point(3), fs.point(7)
        assert [p.num_streams for p in fs.known_points()] == [3, 7, 10]
