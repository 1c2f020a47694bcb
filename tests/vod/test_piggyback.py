"""Piggyback merge planning."""

from __future__ import annotations

import math

import pytest

from repro.core.parameters import SystemConfiguration
from repro.exceptions import ConfigurationError
from repro.sim.engine import Environment
from repro.sim.metrics import MetricsRegistry
from repro.vod.movie import Movie
from repro.vod.partitioning import MovieService
from repro.vod.piggyback import MergePlan, PiggybackPolicy
from repro.vod.streams import StreamPool


@pytest.fixture
def config():
    # l=120, n=6 -> spacing 20; B=60 -> span 10.
    return SystemConfiguration(120.0, 6, 60.0)


class TestPlanFromGaps:
    def test_forward_merge_time(self):
        policy = PiggybackPolicy(rate_tolerance=0.05)
        plan = policy.plan_from_gaps(gap_ahead=2.0, gap_behind=None, minutes_to_end=100.0)
        assert plan.direction == "forward"
        assert plan.wall_minutes == pytest.approx(2.0 / 0.05)
        assert plan.merges

    def test_backward_when_cheaper(self):
        policy = PiggybackPolicy(rate_tolerance=0.05)
        plan = policy.plan_from_gaps(gap_ahead=10.0, gap_behind=1.0, minutes_to_end=100.0)
        assert plan.direction == "backward"
        assert plan.wall_minutes == pytest.approx(20.0)

    def test_unreachable_runs_to_end(self):
        policy = PiggybackPolicy(rate_tolerance=0.05)
        plan = policy.plan_from_gaps(gap_ahead=None, gap_behind=None, minutes_to_end=30.0)
        assert not plan.merges
        assert plan.hold_minutes == pytest.approx(30.0)

    def test_deadline_disqualifies_late_merge(self):
        policy = PiggybackPolicy(rate_tolerance=0.05)
        # Merge would need 200 min but the movie ends in ~10.
        plan = policy.plan_from_gaps(gap_ahead=10.0, gap_behind=None, minutes_to_end=10.0)
        assert not plan.merges
        assert plan.hold_minutes == pytest.approx(10.0)


def live_plan(config, now, position, policy):
    """Plan as the server does: gaps from an unconstrained MovieService's
    live streams, which restart on the periodic lattice, fed to
    ``plan_from_gaps``."""
    env = Environment()
    metrics = MetricsRegistry()
    pool = StreamPool(env, 2 * config.num_partitions + 2, metrics)
    movie = Movie(0, "m", config.movie_length, popularity=1.0)
    service = MovieService(env, movie, config, pool, metrics)
    service.start()
    env.run(until=now)
    assert service.find_window(position) is None
    gap_ahead, gap_behind = service.live_gaps(position)
    playback = config.rates.playback
    minutes_to_end = (config.movie_length - position) / playback
    plan = policy.plan_from_gaps(
        gap_ahead, gap_behind, minutes_to_end, playback_rate=playback
    )
    return env, service, plan


class TestPlanAgainstLattice:
    def test_wide_gap_runs_to_end(self, config):
        """With spacing 20 / span 10, a mid-gap viewer is ~5 minutes from a
        window; at 5% drift the merge needs ~100 wall minutes - longer than
        the remaining session, so the stream stays pinned.  This is exactly
        the paper's argument for keeping gaps (waits) small."""
        policy = PiggybackPolicy(rate_tolerance=0.05)
        _, _, plan = live_plan(config, 100.0, 85.0, policy)
        assert not plan.merges
        assert plan.hold_minutes == pytest.approx(35.0)

    def test_narrow_gap_merges(self):
        # l=120, n=30 -> spacing 4; B=90 -> span 3; gaps are 1 minute wide.
        config = SystemConfiguration(120.0, 30, 90.0)
        policy = PiggybackPolicy(rate_tolerance=0.05)
        # Position 44.5 at t=100 sits mid-gap (44, 45).
        _, _, plan = live_plan(config, 100.0, 44.5, policy)
        assert plan.direction == "forward"
        assert plan.merges
        assert plan.wall_minutes == pytest.approx(0.5 / 0.05)

    def test_merge_consistency_simulated(self):
        """Simulate the drift: after wall_minutes at (1+eps), a live
        partition covers the viewer."""
        config = SystemConfiguration(120.0, 30, 90.0)
        policy = PiggybackPolicy(rate_tolerance=0.05)
        now, position = 100.0, 44.5
        env, service, plan = live_plan(config, now, position, policy)
        assert plan.direction == "forward"
        t = plan.wall_minutes
        env.run(until=now + t)
        viewer_pos = position + t * 1.05
        assert service.find_window(min(viewer_pos, 120.0)) is not None


class TestValidation:
    def test_tolerance_range(self):
        with pytest.raises(ConfigurationError):
            PiggybackPolicy(rate_tolerance=0.0)
        with pytest.raises(ConfigurationError):
            PiggybackPolicy(rate_tolerance=1.0)

    def test_merge_plan_hold(self):
        plan = MergePlan(direction="forward", wall_minutes=5.0, minutes_to_end=30.0)
        assert plan.hold_minutes == 5.0
        plan = MergePlan(direction="none", wall_minutes=math.inf, minutes_to_end=30.0)
        assert plan.hold_minutes == 30.0
