"""The declared catalog of ``repro_*`` metric family names.

Every metric family registered against an :class:`~repro.obs.registry.ObsRegistry`
carries a ``repro_``-prefixed name; this module is the single place those
names are *declared*.  The static cross-check rule
(:mod:`repro.analysis.schema_check`) extracts every literal family name used
at a ``registry.counter/gauge/histogram`` call site and fails the lint run
when a used name is missing here or a declared name is never used anywhere —
so the catalog can never drift from the code, and dashboards/alerts built on
these names can treat the catalog as authoritative.

Sim-internal tallies (``restarts``, ``gate.denied.<movie>``, …) live in
:mod:`repro.sim.metrics` name-spaces and are exported under the labelled
families below; they are deliberately *not* part of this catalog.
"""

from __future__ import annotations

from repro.obs.registry import ObsRegistry

__all__ = ["METRIC_CATALOG", "catalog_registry"]

#: Every declared ObsRegistry metric family name.  Keep sorted.
METRIC_CATALOG: frozenset[str] = frozenset(
    {
        # Chaos experiment (repro.experiments.chaos).
        "repro_chaos_session_drop_rate",
        "repro_chaos_sessions_dropped_total",
        # Control plane (repro.runtime, repro.obs.adapters).
        "repro_controller_decisions_total",
        "repro_partial_actuations_total",
        # Analytic sweeps (repro.experiments.figure8).
        "repro_frontier_points_total",
        # Parallel executor telemetry (repro.obs.adapters).
        "repro_parallel_map_seconds",
        "repro_parallel_shard_cache_lookups",
        "repro_parallel_shard_seconds",
        "repro_parallel_shard_tasks",
        "repro_parallel_workers",
        # Request-scoped telemetry (repro.service.engine).
        "repro_request_latency_seconds",
        # Live admission service (repro.service).
        "repro_service_decisions_total",
        "repro_service_inflight_requests",
        "repro_service_request_latency_seconds",
        # SLO monitor (repro.obs.slo).
        "repro_slo_alerts_total",
        "repro_slo_breaching",
        "repro_slo_burn_rate",
        # Simulation exports (repro.obs.adapters).
        "repro_sim_events_total",
        "repro_sim_tally_mean",
        "repro_sim_time_avg",
        # Profiling spans (repro.obs.spans).
        "repro_span_seconds",
    }
)


def catalog_registry() -> ObsRegistry:
    """An :class:`ObsRegistry` with runtime catalog enforcement armed.

    Long-lived deployments construct their registry here so that any
    ``repro_*`` family name missing from :data:`METRIC_CATALOG` raises at
    registration time — the runtime counterpart of the static
    ``metric-schema`` lint rule.
    """
    return ObsRegistry(catalog=METRIC_CATALOG)
