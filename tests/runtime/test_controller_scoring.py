"""A re-plan scores both plans with the models its own feasible sets hold.

The optimiser sweeps each movie's frontier through a model the sizer's
feasible set builds; the hysteresis gate then scores the incumbent and the
candidate plan with :class:`~repro.sizing.reservation.VCRLoadModel`.  Both
must use that same per-movie model, so a re-plan builds one model per movie
and the two scores come from the statistics the plan was solved with.
"""

from __future__ import annotations

import pytest

import repro.runtime.controller as controller_module
from repro.core.hitmodel import HitProbabilityModel
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions import ExponentialDuration
from repro.runtime.controller import CapacityController, ControllerPolicy, MovieSlot
from repro.runtime.telemetry import TelemetryHub
from repro.vod.movie import Movie, MovieCatalog
from repro.vod.vcr import VCRBehavior
from repro.workloads.generator import WorkloadGenerator

SLOTS = [MovieSlot(0, "m0", 120.0, 2.0), MovieSlot(1, "m1", 120.0, 2.0)]


@pytest.fixture(scope="module")
def hub_trace():
    catalog = MovieCatalog(
        [Movie(0, "m0", 120.0, popularity=0.8), Movie(1, "m1", 120.0, popularity=0.2)],
        popular_count=2,
    )
    generator = WorkloadGenerator(
        catalog, VCRBehavior.paper_figure7(mean_think_time=12.0), arrival_rate=1.2, seed=3
    )
    return generator.generate(1200.0)


def _misallocated_controller(trace) -> tuple[CapacityController, TelemetryHub]:
    """An incumbent plan and offline fit both wrong: the first tick re-plans."""
    hub = TelemetryHub()
    hub.ingest_trace(trace)
    mirror = {
        0: SystemConfiguration(movie_length=120.0, num_partitions=29, buffer_minutes=62.0),
        1: SystemConfiguration(movie_length=120.0, num_partitions=11, buffer_minutes=98.0),
    }
    wrong = VCRBehavior.uniform_duration_model(ExponentialDuration(30.0))
    controller = CapacityController(
        SLOTS,
        hub,
        policy=ControllerPolicy(stream_budget=40, cooldown_minutes=0.0, min_improvement=0.0),
        initial_behaviors={0: wrong, 1: wrong},
        initial_plan=mirror,
    )
    return controller, hub


@pytest.fixture
def recorded(monkeypatch):
    """Record every hit model built and every model a load score reads."""
    built: list[HitProbabilityModel] = []
    scored: list[HitProbabilityModel] = []
    init = HitProbabilityModel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    load_model = controller_module.VCRLoadModel

    def recording_load(**kwargs):
        scored.append(kwargs["model"])
        return load_model(**kwargs)

    monkeypatch.setattr(HitProbabilityModel, "__init__", recording_init)
    monkeypatch.setattr(controller_module, "VCRLoadModel", recording_load)
    return built, scored


def test_replan_scores_both_plans_with_the_feasible_sets_models(hub_trace, recorded):
    built, scored = recorded
    controller, _ = _misallocated_controller(hub_trace)
    delta = controller.tick(1200.0)
    assert delta is not None and delta.old_score is not None  # both plans scored
    assert len(built) == len(SLOTS)  # one model per movie for the whole re-plan
    # Candidate, then incumbent: one score per movie each, all on those models.
    assert [id(m) for m in scored] == [id(m) for m in built] * 2


def test_each_replan_builds_one_fresh_model_per_movie(hub_trace, recorded, rng):
    built, _ = recorded
    controller, hub = _misallocated_controller(hub_trace)
    assert controller.tick(1200.0) is not None
    first = list(built)
    for value in rng.uniform(20.0, 40.0, size=500):
        hub.movie(0).record_operation(VCROperation.PAUSE, float(value), 1205.0)
    controller.tick(1300.0)  # drifted, past the cool-down: a second re-plan
    assert len(built) == 2 * len(SLOTS)
    assert not {id(m) for m in built[len(SLOTS):]} & {id(m) for m in first}
