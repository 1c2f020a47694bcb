"""SLO burn-rate monitor: config validation, edges, windows, mirroring."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.registry import ObsRegistry
from repro.obs.scrape import parse_exposition
from repro.obs.slo import (
    FAST_WINDOW_MINUTES,
    OBJECTIVES,
    PAGE_BURN,
    SLOW_WINDOW_MINUTES,
    WARN_BURN,
    SLOConfig,
    SLOMonitor,
)


class _StubTracer:
    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, ev, t, **payload):
        self.events.append({"ev": ev, "t": t, **payload})


class TestSLOConfig:
    def test_defaults_validate(self):
        config = SLOConfig()
        assert config.budget("p99_latency") == pytest.approx(0.01)
        assert config.budget("deny_rate") == pytest.approx(0.05)

    def test_unknown_objective_raises(self):
        with pytest.raises(ConfigurationError, match="unknown SLO objective"):
            SLOConfig().budget("availability")

    @pytest.mark.parametrize("kwargs", [
        {"latency_threshold_seconds": 0.0},
        {"latency_threshold_seconds": -1.0},
        {"min_samples": 0},
        {"latency_threshold_seconds": float("nan")},
        {"latency_threshold_seconds": float("inf")},
    ])
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            SLOConfig(**kwargs)


class TestBurnRateEdges:
    def _page_config(self) -> SLOConfig:
        return SLOConfig(latency_threshold_seconds=0.1, min_samples=5)

    def test_quiet_traffic_never_alerts(self):
        monitor = SLOMonitor(SLOConfig(min_samples=2))
        for t in range(20):
            alerts = monitor.record_decision(float(t), "resume", "ok", 0.001)
            assert alerts == []
        assert monitor.alerts_emitted == 0

    def test_latency_breach_pages_once_at_min_samples(self):
        monitor = SLOMonitor(self._page_config())
        edges = []
        for t in range(8):
            edges.extend(monitor.record_decision(float(t), "resume", "ok", 0.2))
        # One edge, fired exactly when the fast window reached min_samples,
        # and no repeat while the severity holds.
        assert [(a.objective, a.severity, a.breaching) for a in edges] == [
            ("p99_latency", "page", True)
        ]
        assert edges[0].burn_fast >= PAGE_BURN
        assert edges[0].burn_slow >= PAGE_BURN
        assert edges[0].value == pytest.approx(0.2)
        assert monitor.alerts_emitted == 1

    def test_min_samples_gates_the_alert(self):
        monitor = SLOMonitor(self._page_config())
        for t in range(4):  # one short of min_samples=5
            assert monitor.record_decision(float(t), "resume", "ok", 0.2) == []
        assert monitor.snapshot()["p99_latency"]["severity"] == "ok"

    def test_window_eviction_clears_the_alert(self):
        monitor = SLOMonitor(self._page_config())
        for t in range(5):
            monitor.record_decision(float(t), "resume", "ok", 0.2)
        # Jump past the slow window: the bad samples evict, the lone good
        # sample is below min_samples, so the severity drops to ok with a
        # breaching=false edge that names the severity being left.
        edges = monitor.record_decision(100.0, "resume", "ok", 0.001)
        assert [(a.severity, a.breaching) for a in edges] == [("page", False)]
        assert monitor.snapshot()["p99_latency"]["severity"] == "ok"
        assert monitor.snapshot()["p99_latency"]["samples"] == 1

    def test_warn_then_page_escalation_is_two_edges(self):
        assert (WARN_BURN, PAGE_BURN) == (1.0, 2.0)
        monitor = SLOMonitor(SLOConfig(latency_threshold_seconds=0.1, min_samples=60))
        edges = []
        for _ in range(59):
            edges += monitor.record_decision(0.0, "resume", "ok", 0.01)  # good
        edges += monitor.record_decision(1.0, "resume", "ok", 0.2)   # bad
        # fraction 1/60 over budget 0.01 -> burn ~1.67 -> warn.
        assert [(a.severity, a.breaching) for a in edges] == [("warn", True)]
        edges += monitor.record_decision(2.0, "resume", "ok", 0.01)  # good
        # fraction 1/61 -> burn ~1.64, still warn: no new edge.
        assert len(edges) == 1
        edges += monitor.record_decision(3.0, "resume", "ok", 0.2)   # bad
        # fraction 2/62 -> burn ~3.2 -> page edge.
        assert [(a.severity, a.breaching) for a in edges] == [
            ("warn", True), ("page", True)
        ]

    def test_slow_window_guard_blocks_stale_burn(self):
        """Old errors alone must not alert once the fast window is clean."""
        assert (FAST_WINDOW_MINUTES, SLOW_WINDOW_MINUTES) == (5.0, 60.0)
        monitor = SLOMonitor(SLOConfig(latency_threshold_seconds=0.1, min_samples=3))
        alerts = []
        alerts += monitor.record_decision(0.0, "resume", "ok", 0.2)  # bad
        alerts += monitor.record_decision(1.0, "resume", "ok", 0.2)  # bad
        for t in (50.0, 51.0, 52.0):  # healthy again, fast window clean
            alerts += monitor.record_decision(t, "resume", "ok", 0.001)
        assert alerts == []
        snapshot = monitor.snapshot()["p99_latency"]
        # The slow window still burns over the page threshold, but the fast
        # window is clean; min(fast, slow) keeps the severity at ok.
        assert snapshot["burn_slow"] >= PAGE_BURN
        assert snapshot["burn_fast"] == 0.0
        assert snapshot["severity"] == "ok"


class TestDenyObjective:
    def _config(self) -> SLOConfig:
        return SLOConfig(min_samples=4)

    def test_rejected_session_starts_burn_the_budget(self):
        monitor = SLOMonitor(self._config())
        edges = []
        for t in range(4):
            edges.extend(
                monitor.record_decision(float(t), "session_start", "reject", 0.0)
            )
        assert [(a.objective, a.severity) for a in edges] == [
            ("deny_rate", "page")
        ]
        assert edges[0].value == pytest.approx(1.0)

    def test_non_session_kinds_do_not_feed_deny(self):
        monitor = SLOMonitor(self._config())
        for t in range(10):
            assert monitor.record_decision(float(t), "resume", "reject", 0.0) == []
        assert monitor.snapshot()["deny_rate"]["samples"] == 0

    def test_admissions_do_not_burn(self):
        monitor = SLOMonitor(self._config())
        for t, decision in enumerate(["batch", "immediate", "batch", "batch"]):
            assert monitor.record_decision(
                float(t), "session_start", decision, 0.0
            ) == []
        assert monitor.snapshot()["deny_rate"]["severity"] == "ok"


class TestMirroring:
    def test_registry_families_track_state(self):
        registry = ObsRegistry()
        monitor = SLOMonitor(
            SLOConfig(latency_threshold_seconds=0.1, min_samples=5),
            registry=registry,
        )
        for t in range(5):
            monitor.record_decision(float(t), "resume", "ok", 0.2)
        exposition = parse_exposition(registry.render_prometheus())
        assert exposition.value(
            "repro_slo_alerts_total", objective="p99_latency", severity="page"
        ) == 1.0
        assert exposition.value(
            "repro_slo_breaching", objective="p99_latency"
        ) == 1.0
        assert exposition.value(
            "repro_slo_breaching", objective="deny_rate"
        ) == 0.0
        assert exposition.value(
            "repro_slo_burn_rate", objective="p99_latency", window="fast"
        ) >= PAGE_BURN

    def test_tracer_sees_alert_edges_with_trace_id(self):
        tracer = _StubTracer()
        monitor = SLOMonitor(
            SLOConfig(latency_threshold_seconds=0.1, min_samples=2),
            tracer=tracer,
        )
        monitor.record_decision(0.0, "resume", "ok", 0.2, trace_id="req-000000")
        monitor.record_decision(1.0, "resume", "ok", 0.2, trace_id="req-000001")
        assert [e["ev"] for e in tracer.events] == ["slo_alert"]
        event = tracer.events[0]
        assert event["objective"] == "p99_latency"
        assert event["severity"] == "page"
        assert event["breaching"] is True
        assert event["trace_id"] == "req-000001"

    def test_monitor_without_registry_still_evaluates(self):
        monitor = SLOMonitor(SLOConfig(min_samples=1))
        alerts = monitor.record_decision(0.0, "resume", "ok", 10.0)
        assert alerts and alerts[0].breaching


class TestSnapshot:
    def test_snapshot_lists_every_objective(self):
        snapshot = SLOMonitor().snapshot()
        assert set(snapshot) == set(OBJECTIVES)
        for state in snapshot.values():
            assert state["severity"] == "ok"
            assert state["samples"] == 0

    def test_latency_value_is_nearest_rank_p99(self):
        monitor = SLOMonitor(SLOConfig(min_samples=50))
        for t, latency in enumerate([0.1, 0.2, 0.3]):
            monitor.record_decision(float(t), "resume", "ok", latency)
        # rank ceil(0.99 * 3) = 3 -> the largest observation.
        assert monitor.snapshot()["p99_latency"]["value"] == pytest.approx(0.3)
