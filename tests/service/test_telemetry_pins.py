"""Byte-identity pins for the engine's request-path telemetry.

A seeded virtual-clock deployment — catalog-armed registry, SLO monitor,
attached capacity controller, Figure-7 VCR traffic on a stream pool tight
enough that the deny-rate objective pages — is driven end to end, and three
artifacts are pinned by sha256: the stable-tier Prometheus exposition and
the health snapshot as sorted JSON, both taken every
:data:`SNAPSHOT_EVERY` requests and after the last one (the burn rates are
non-zero only mid-run), and the decision log.  How the engine and
the SLO monitor reach their metric children is free to change; what a
scrape, a health probe and the log read is not.
"""

from __future__ import annotations

import hashlib
import io
import json

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
SNAPSHOT_EVERY = 50

EXPECTED_EXPOSITION_SHA256 = "8725d853238a6a774a5b828611d7ceecb45a635d518fcc9e9fbdb9704f260fe6"
EXPECTED_HEALTH_SHA256 = "aeccd479820f57267e409541b5ede9fe3205c88874213ad9fd208b54f6f38ee9"
EXPECTED_LOG_SHA256 = "1431645772eca7e0b60f14381c35234b4e663fac5b5fc57e22b93ec34f603099"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(capacity=120, seed=3, horizon=90.0):
    catalog = default_catalog(10, 3, seed=1234)
    plan = plan_for(catalog, WAIT_MINUTES)
    reserve = reserve_for(plan)
    registry = catalog_registry()
    log = io.StringIO()
    engine = AdmissionEngine(
        catalog,
        plan,
        capacity,
        reserve_streams=reserve,
        clock=VirtualClock(),
        registry=registry,
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
        stream_budget=max(1, capacity - reserve), cooldown_minutes=TICK_MINUTES
    )
    engine.attach_controller(CapacityController(slots, engine.hub, policy=policy))

    expositions: list[str] = []
    healths: list[str] = []

    def snapshot() -> None:
        expositions.append(registry.render_prometheus())
        healths.append(json.dumps(engine.health_snapshot(), sort_keys=True))

    handle = engine.handle

    def snapshotting_handle(request, context=None):
        response = handle(request, context)
        if engine.stats.requests % SNAPSHOT_EVERY == 0:
            snapshot()
        return response

    engine.handle = snapshotting_handle
    trace = WorkloadGenerator(
        catalog, VCRBehavior.paper_figure7(), arrival_rate=1.5, seed=seed
    ).generate(horizon)
    report = run_virtual(engine, trace)
    snapshot()
    return engine, report, "".join(expositions), "\n".join(healths), log.getvalue()


def test_telemetry_artifacts_are_byte_identical():
    engine, report, exposition, health, log = _run()
    # The run exercises what the pins cover: VCR grants and resumes, a
    # re-plan tick, and at least one SLO alert edge.
    assert {"admit", "hit"} <= set(report.decisions)
    assert engine.control_loop.ticks_run >= 2
    assert engine.slo.alerts_emitted >= 1
    assert '"severity": "page"' in health
    assert "repro_slo_alerts_total{" in exposition
    assert _sha256(exposition) == EXPECTED_EXPOSITION_SHA256
    assert _sha256(health) == EXPECTED_HEALTH_SHA256
    assert _sha256(log) == EXPECTED_LOG_SHA256
