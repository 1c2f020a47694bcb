"""The control loop: bootstrap, hysteresis gates, and delta invariants."""

from __future__ import annotations

import pytest

from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions import ExponentialDuration
from repro.exceptions import ConfigurationError
from repro.runtime.controller import (
    AllocationDelta,
    CapacityController,
    ControllerPolicy,
    MovieSlot,
)
from repro.runtime.telemetry import TelemetryHub
from repro.vod.movie import Movie, MovieCatalog
from repro.vod.vcr import VCRBehavior
from repro.workloads.generator import WorkloadGenerator

STREAM_BUDGET = 40


@pytest.fixture(scope="module")
def paper_trace():
    generator = WorkloadGenerator.single_movie(
        120.0, VCRBehavior.paper_figure7(mean_think_time=12.0), arrival_rate=0.5, seed=3
    )
    return generator.generate(1200.0)


@pytest.fixture
def hub(paper_trace):
    hub = TelemetryHub()
    hub.ingest_trace(paper_trace)
    return hub


def _slots():
    return [MovieSlot(movie_id=0, name="m0", length=120.0, max_wait=2.0)]


def _controller(hub, **policy_overrides):
    policy = ControllerPolicy(stream_budget=STREAM_BUDGET, **policy_overrides)
    return CapacityController(_slots(), hub, policy=policy)


def _assert_delta_invariants(delta: AllocationDelta, slots):
    """Every delta respects the paper's feasibility constraints."""
    assert delta.total_streams <= STREAM_BUDGET
    by_id = {slot.movie_id: slot for slot in slots}
    for movie_id, config in delta.configurations.items():
        slot = by_id[movie_id]
        # Eq. (2): w = (l - B) / n must meet the advertised latency target.
        wait = (slot.length - config.buffer_minutes) / config.num_partitions
        assert wait <= slot.max_wait + 1e-9
        assert 0.0 <= config.buffer_minutes <= slot.length


class TestValidation:
    def test_slot_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            MovieSlot(movie_id=0, name="m", length=0.0, max_wait=2.0)
        with pytest.raises(ConfigurationError):
            MovieSlot(movie_id=0, name="m", length=120.0, max_wait=0.0)
        with pytest.raises(ConfigurationError):
            MovieSlot(movie_id=0, name="m", length=120.0, max_wait=121.0)

    def test_policy_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            ControllerPolicy(cooldown_minutes=-1.0)
        with pytest.raises(ConfigurationError):
            ControllerPolicy(min_improvement=-0.1)
        with pytest.raises(ConfigurationError):
            ControllerPolicy(blocking_target=0.0)

    def test_controller_needs_unique_slots(self):
        hub = TelemetryHub()
        with pytest.raises(ConfigurationError):
            CapacityController([], hub)
        with pytest.raises(ConfigurationError):
            CapacityController(_slots() + _slots(), hub)


class TestBootstrap:
    def test_bootstrap_tick_emits_a_plan(self, hub):
        controller = _controller(hub)
        delta = controller.tick(1200.0)
        assert delta is not None
        assert not delta.is_reallocation
        assert "bootstrap" in delta.describe()
        assert delta.reserve_streams > 0
        assert delta.changes and delta.changes[0].old_streams is None
        _assert_delta_invariants(delta, _slots())
        assert controller.counters()["deltas_emitted"] == 1
        assert controller.current_allocation == delta.configurations

    def test_insufficient_data_defers_planning(self):
        hub = TelemetryHub()
        hub.movie(0, movie_length=120.0)  # known but silent movie
        controller = _controller(hub)
        assert controller.tick(10.0) is None
        assert controller.counters()["skipped_insufficient_data"] == 1


class TestHysteresis:
    def test_stationary_tick_is_a_no_op(self, hub):
        controller = _controller(hub)
        assert controller.tick(1200.0) is not None
        assert controller.tick(1210.0) is None
        assert controller.counters()["skipped_stationary"] == 1

    def test_seeded_offline_plan_stays_quiet_when_it_matches(self, hub):
        """initial_behaviors + initial_plan: a matching offline fit idles."""
        bootstrap = _controller(hub)
        delta = bootstrap.tick(1200.0)
        behavior = bootstrap.refitter.behavior_for(hub.snapshot(1200.0)[0])
        policy = ControllerPolicy(stream_budget=STREAM_BUDGET)
        seeded = CapacityController(
            _slots(),
            hub,
            policy=policy,
            initial_behaviors={0: behavior},
            initial_plan=delta.configurations,
        )
        assert seeded.tick(1200.0) is None
        assert seeded.counters()["skipped_stationary"] == 1

    def test_cooldown_blocks_an_early_replan(self, hub, rng):
        controller = _controller(hub, cooldown_minutes=60.0)
        assert controller.tick(1200.0) is not None
        telemetry = hub.movie(0)
        for value in rng.uniform(20.0, 40.0, size=400):
            telemetry.record_operation(VCROperation.PAUSE, float(value), 1205.0)
        assert controller.tick(1210.0) is None
        assert controller.counters()["skipped_cooldown"] == 1

    def test_mismatched_offline_plan_is_reallocated(self):
        """Wrong offline assumptions: tick 1 detects the drift and re-plans.

        Two movies at 80/20 popularity, but the incumbent plan was built for
        the mirror image (the hot movie got the thin allocation).  The seeded
        offline behaviour also mismatches the observed windows, so the drift
        gate opens and the controller must discover a strictly better plan.
        """
        catalog = MovieCatalog(
            [Movie(0, "m0", 120.0, popularity=0.8), Movie(1, "m1", 120.0, popularity=0.2)],
            popular_count=2,
        )
        generator = WorkloadGenerator(
            catalog,
            VCRBehavior.paper_figure7(mean_think_time=12.0),
            arrival_rate=1.2,
            seed=3,
        )
        hub = TelemetryHub()
        hub.ingest_trace(generator.generate(1200.0))
        slots = [MovieSlot(0, "m0", 120.0, 2.0), MovieSlot(1, "m1", 120.0, 2.0)]
        mirror = {
            0: SystemConfiguration(movie_length=120.0, num_partitions=29, buffer_minutes=62.0),
            1: SystemConfiguration(movie_length=120.0, num_partitions=11, buffer_minutes=98.0),
        }
        wrong = VCRBehavior.uniform_duration_model(ExponentialDuration(30.0))
        controller = CapacityController(
            slots,
            hub,
            policy=ControllerPolicy(
                stream_budget=STREAM_BUDGET, cooldown_minutes=0.0, min_improvement=0.0
            ),
            initial_behaviors={0: wrong, 1: wrong},
            initial_plan=mirror,
        )
        delta = controller.tick(1200.0)
        assert delta is not None
        assert delta.is_reallocation
        assert delta.old_score is not None
        # Accepted means strictly no worse than the misallocated incumbent.
        assert delta.new_score <= delta.old_score + 1e-9
        _assert_delta_invariants(delta, slots)
        # The hot movie's allocation moved, and every change is reported.
        moved = {change.movie_id for change in delta.changes}
        assert moved == {0, 1}
        assert controller.counters()["deltas_emitted"] == 1

    def test_refit_without_improvement_keeps_the_plan(self, hub, rng):
        """Drift that does not move the optimum is absorbed silently."""
        controller = _controller(hub, cooldown_minutes=0.0, min_improvement=0.5)
        assert controller.tick(1200.0) is not None
        telemetry = hub.movie(0)
        for value in rng.uniform(20.0, 40.0, size=500):
            telemetry.record_operation(VCROperation.PAUSE, float(value), 1205.0)
        assert controller.tick(1300.0) is None
        counters = controller.counters()
        assert counters["skipped_no_improvement"] == 1
        assert counters["deltas_emitted"] == 1


class TestBudget:
    def test_stream_budget_is_respected(self, hub):
        for budget in (20, 40):
            controller = CapacityController(
                _slots(), hub, policy=ControllerPolicy(stream_budget=budget)
            )
            delta = controller.tick(1200.0)
            assert delta is not None
            assert delta.total_streams <= budget
