"""Decision guard for the control-tick path of a live deployment.

``loadgen --mode virtual`` attaches no controller, so its byte-determinism
check never runs a re-plan.  This test builds the engine and the capacity
controller on a virtual clock the way ``repro-vod serve`` does, drives a
Figure-7 VCR trace through it, and pins what the re-plans decided: the
sequence of applied allocations, the controller's outcome counters and the
decision counts.  Any change to the model chain the ticks drive (CDF
grids, hit kernels, reservation scoring) that moves a single bit of a
decision fails here.
"""

from __future__ import annotations

import hashlib
import io

from repro.obs.catalog import catalog_registry
from repro.obs.slo import SLOConfig
from repro.runtime.controller import CapacityController, ControllerPolicy, MovieSlot
from repro.service.bootstrap import default_catalog, plan_for, reserve_for
from repro.service.clock import VirtualClock
from repro.service.engine import AdmissionEngine
from repro.service.loadgen import run_virtual
from repro.vod.vcr import VCRBehavior
from repro.workloads.generator import WorkloadGenerator

WAIT_MINUTES = 2.0
TICK_MINUTES = 30.0
CAPACITY = 250

#: ``(at_minutes, ((movie_id, n, B), ...), reserve_streams, reason)`` of
#: every delta the actuator applied, in order.
EXPECTED_APPLIED = [
    (
        30.570254783853642,
        ((0, 32, 65.0679906679257), (1, 26, 53.2078294007847), (2, 32, 62.929849350558214)),
        7,
        "bootstrap plan",
    ),
    (
        90.66605819383908,
        ((0, 30, 69.0679906679257), (1, 26, 53.2078294007847), (2, 32, 62.929849350558214)),
        13,
        "drift re-plan accepted",
    ),
    (
        120.73920831138365,
        ((0, 30, 69.0679906679257), (1, 24, 57.2078294007847), (2, 29, 68.92984935055821)),
        13,
        "drift re-plan accepted",
    ),
    (
        150.83722028248502,
        ((0, 29, 71.0679906679257), (1, 24, 57.2078294007847), (2, 29, 68.92984935055821)),
        42,
        "drift re-plan accepted",
    ),
]
EXPECTED_COUNTERS = {
    "ticks": 12,
    "deltas_emitted": 4,
    "skipped_stationary": 4,
    "skipped_cooldown": 0,
    "skipped_no_improvement": 3,
    "skipped_insufficient_data": 1,
    "infeasible_plans": 0,
    "requeued_actuations": 0,
}
EXPECTED_DECISIONS = {
    "admit": 1168,
    "batch": 65,
    "hit": 1076,
    "miss": 9,
    "closed": 148,
}
EXPECTED_LOG_SHA256 = "b32424dd3ab94e31319b9de0b53c2adabb83b5fc8c2ab236938105baa23443a6"


def _run_deployment(movies=12, popular=3, rate=1.5, seed=4, horizon=100.0):
    """Engine + controller as ``serve`` builds them, driven by a VCR trace."""
    catalog = default_catalog(movies, popular, seed=1234)
    plan = plan_for(catalog, WAIT_MINUTES)
    reserve = reserve_for(plan)
    log = io.StringIO()
    engine = AdmissionEngine(
        catalog,
        plan,
        CAPACITY,
        reserve_streams=reserve,
        clock=VirtualClock(),
        registry=catalog_registry(),
        decision_log=log,
        tick_minutes=TICK_MINUTES,
        slo=SLOConfig(latency_threshold_seconds=0.5),
    )
    slots = [
        MovieSlot(
            movie_id=movie.movie_id,
            name=movie.title,
            length=movie.length,
            max_wait=min(WAIT_MINUTES, movie.length),
            p_star=0.5,
        )
        for movie in catalog.popular
    ]
    policy = ControllerPolicy(
        stream_budget=max(1, CAPACITY - reserve), cooldown_minutes=TICK_MINUTES
    )
    controller = CapacityController(slots, engine.hub, policy=policy)
    engine.attach_controller(controller)

    applied = []
    adopt = engine.adopt

    def recording_adopt(delta):
        applied.append(
            (
                delta.at_minutes,
                tuple(
                    (movie_id, config.num_partitions, config.buffer_minutes)
                    for movie_id, config in sorted(delta.configurations.items())
                ),
                delta.reserve_streams,
                delta.reason,
            )
        )
        adopt(delta)

    engine.adopt = recording_adopt
    trace = WorkloadGenerator(
        catalog, VCRBehavior.paper_figure7(), arrival_rate=rate, seed=seed
    ).generate(horizon)
    report = run_virtual(engine, trace)
    return applied, controller, report, log.getvalue(), engine.control_loop


def test_replans_apply_the_pinned_allocations():
    applied, controller, report, log, _ = _run_deployment()
    replans = [entry for entry in applied if entry[3] != "bootstrap plan"]
    assert len(replans) >= 2
    assert applied == EXPECTED_APPLIED
    assert controller.counters() == EXPECTED_COUNTERS
    assert report.decisions == EXPECTED_DECISIONS
    assert hashlib.sha256(log.encode()).hexdigest() == EXPECTED_LOG_SHA256


#: Decision-log sha256 of the fitted-mix rounding reproducer below.
MIX_ROUNDING_LOG_SHA256 = "88ea45fb653ca8b6d0728c6e4fd54103b74792e03bd543d8dd60ded6c87a0da9"


def test_fitted_mix_rounding_does_not_fail_a_tick():
    """The first tick (t≈30.2) fits a mix from FF and RW only; the pause
    remainder ``1 - p_ff - p_rw`` rounds to about -5.6e-17, which must be
    clamped to 0 rather than fail the tick and leave the plan coasting."""
    applied, controller, report, log, loop = _run_deployment(
        movies=20, popular=5, rate=2.0, seed=7, horizon=150.0
    )
    assert loop.failures == 0
    assert loop.ticks_run == controller.counters()["ticks"] == 13
    assert applied[0][0] == 30.178010186706157
    assert applied[0][3] == "bootstrap plan"
    assert hashlib.sha256(log.encode()).hexdigest() == MIX_ROUNDING_LOG_SHA256
