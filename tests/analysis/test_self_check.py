"""Self-check: the linter against the live source tree.

These tests pin the contract the CI lint gate enforces: the shipped tree is
clean under the committed baseline, the trace/metric schemas have zero drift
against their emission sites, and the event/metric name sets themselves are
pinned so schema edits are deliberate.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.analysis import Baseline, run_lint
from repro.analysis.schema_check import MetricSchemaRule, TraceSchemaRule
from repro.obs.catalog import METRIC_CATALOG
from repro.obs.trace import EVENT_SCHEMA, EVENT_SCHEMAS

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

V1_EVENTS = frozenset({
    "batch_restart", "frontier", "movie_config", "plan_actuation",
    "replan_decision", "resume", "run_end", "run_start", "session_end",
    "session_start", "stream_acquire", "stream_release", "vcr_begin", "vcr_end",
})
V2_EVENTS = frozenset({
    "degradation_entered", "degradation_exited", "fault_injected", "worker_retry",
})
V3_EVENTS = frozenset({
    "admission_decision", "backpressure_reject", "drain_complete",
    "request_received", "session_closed",
})
V4_EVENTS = frozenset({"slo_alert"})


class TestPinnedSchemas:
    def test_v1_event_set_is_pinned(self):
        assert frozenset(EVENT_SCHEMAS[1]) == V1_EVENTS

    def test_v2_adds_exactly_the_fault_events(self):
        assert frozenset(EVENT_SCHEMAS[2]) == V1_EVENTS | V2_EVENTS

    def test_v3_adds_exactly_the_service_events(self):
        assert frozenset(EVENT_SCHEMAS[3]) == V1_EVENTS | V2_EVENTS | V3_EVENTS

    def test_v4_adds_exactly_the_slo_events(self):
        assert frozenset(EVENT_SCHEMA) == (
            V1_EVENTS | V2_EVENTS | V3_EVENTS | V4_EVENTS
        )

    def test_v3_schema_excludes_v4_tracing_fields(self):
        """v4 added fields to pre-existing events; v3 must not require them."""
        v3 = EVENT_SCHEMAS[3]["admission_decision"]
        assert "trace_id" not in v3
        assert "queue_wait" not in v3
        assert "trace_id" in EVENT_SCHEMA["admission_decision"]
        assert "trace_id" not in EVENT_SCHEMAS[3]["request_received"]
        assert "parent_span" not in EVENT_SCHEMAS[3]["plan_actuation"]

    def test_metric_catalog_is_pinned(self):
        assert METRIC_CATALOG == frozenset({
            "repro_chaos_session_drop_rate",
            "repro_chaos_sessions_dropped_total",
            "repro_controller_decisions_total",
            "repro_frontier_points_total",
            "repro_parallel_map_seconds",
            "repro_parallel_shard_cache_lookups",
            "repro_parallel_shard_seconds",
            "repro_parallel_shard_tasks",
            "repro_parallel_workers",
            "repro_partial_actuations_total",
            "repro_request_latency_seconds",
            "repro_service_decisions_total",
            "repro_service_inflight_requests",
            "repro_service_request_latency_seconds",
            "repro_sim_events_total",
            "repro_sim_tally_mean",
            "repro_sim_time_avg",
            "repro_slo_alerts_total",
            "repro_slo_breaching",
            "repro_slo_burn_rate",
            "repro_span_seconds",
        })


class TestLiveTreeDrift:
    def test_trace_schema_has_zero_drift(self):
        report = run_lint(SRC, rules=[TraceSchemaRule()])
        # chaos replay re-emits validated events through a dynamic name; that
        # single site carries an inline allow pragma and nothing else may.
        assert report.findings == []
        assert len(report.suppressed_pragma) == 1
        assert report.suppressed_pragma[0].path == "repro/experiments/chaos.py"

    def test_metric_catalog_has_zero_drift(self):
        report = run_lint(SRC, rules=[MetricSchemaRule()])
        assert report.findings == []

    def test_full_tree_clean_under_committed_baseline(self):
        baseline = Baseline.load(REPO / "lint-baseline.json")
        report = run_lint(SRC, baseline=baseline)
        assert report.findings == [], report.render_text()
        assert report.stale_baseline == []

    def test_baseline_is_empty(self):
        """The ratchet reached zero; it must never grow again.

        Every historical suppression has been retired (the last one moved
        the span clock behind ``repro.obs.proctime``).  New debt goes
        through an inline pragma with a justification, not the baseline.
        """
        assert len(Baseline.load(REPO / "lint-baseline.json")) == 0

    def test_concurrency_rules_clean_on_live_tree(self):
        report = run_lint(SRC, rule_ids=[
            "async-blocking", "async-await-span", "async-task-leak",
        ])
        assert report.findings == [], report.render_text()


class TestSeededViolation:
    def test_gate_catches_injected_wall_clock(self, tmp_path):
        """Copy the tree, plant ``time.time()`` in repro/sim, expect exit 2."""
        seeded = tmp_path / "src"
        shutil.copytree(SRC, seeded, ignore=shutil.ignore_patterns("__pycache__"))
        target = seeded / "repro" / "sim" / "rng.py"
        target.write_text(
            target.read_text()
            + "\n\ndef _leak_wall_clock():\n    import time\n    return time.time()\n"
        )
        baseline = Baseline.load(REPO / "lint-baseline.json")
        report = run_lint(seeded, baseline=baseline)
        assert report.exit_code == 2
        assert any(
            f.rule == "determinism-wallclock" and f.path == "repro/sim/rng.py"
            for f in report.findings
        )

    def test_gate_catches_injected_concurrency_violations(self, tmp_path):
        """One seeded copy of the live tree must trip all three async rules.

        This is the proof the concurrency gate is live end to end: the
        violations sit inside the real engine module, so detection exercises
        the project call graph (the blocking call is only *transitively*
        async-reachable), not just per-function pattern matching.
        """
        seeded = tmp_path / "src"
        shutil.copytree(SRC, seeded, ignore=shutil.ignore_patterns("__pycache__"))
        target = seeded / "repro" / "service" / "engine.py"
        target.write_text(target.read_text() + (
            "\n\n"
            "import asyncio as _seeded_asyncio\n"
            "import time as _seeded_time\n"
            "\n\n"
            "def _seeded_blocking_helper():\n"
            "    _seeded_time.sleep(0.05)\n"
            "\n\n"
            "async def _seeded_entry(engine):\n"
            "    _seeded_blocking_helper()\n"
            "    _seeded_asyncio.sleep(0)\n"
            "    count = engine.registry.in_flight\n"
            "    await _seeded_asyncio.sleep(0)\n"
            "    engine.registry.in_flight = count + 1\n"
        ))
        report = run_lint(seeded, rule_ids=[
            "async-blocking", "async-await-span", "async-task-leak",
        ])
        assert report.exit_code == 2
        fired = {f.rule for f in report.findings}
        assert fired == {
            "async-blocking", "async-await-span", "async-task-leak",
        }, report.render_text()
        # The blocking finding proves the transitive chain, not a direct hit.
        (blocking,) = [f for f in report.findings if f.rule == "async-blocking"]
        assert "_seeded_entry -> " in blocking.message
