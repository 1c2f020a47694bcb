"""Unified observability: metrics registry, event tracing, profiling spans.

One zero-dependency subsystem carries every quantity the paper's argument
needs watched end-to-end:

* :mod:`repro.obs.registry` — labelled :class:`Counter`/:class:`Gauge`/
  :class:`Histogram` families with Prometheus-style text exposition and JSON
  export, split into a deterministic ``stable`` tier and a wall-clock
  ``process`` tier;
* :mod:`repro.obs.trace` — schema-versioned JSONL event tracing
  (:class:`TraceWriter` / :class:`NullTraceWriter`) of the batching/VCR
  session lifecycle, stream pool and control plane;
* :mod:`repro.obs.spans` — the :func:`span` profiling context manager,
  aggregated into the registry as histograms;
* :mod:`repro.obs.adapters` — exporters from the simulation-time metrics
  and parallel outcomes into the registry, plus the
  :class:`TracingObserver` server bridge;
* :mod:`repro.obs.summarize` — trace replay into a run report (observed vs
  predicted ``P(hit)``, stream occupancy timeline, VCR mix);
* :mod:`repro.obs.context` — request-scoped trace contexts (deterministic
  trace/span ids threaded engine → gate → control loop → actuator);
* :mod:`repro.obs.scrape` — the live scrape endpoint plus the client-side
  exposition parser and counter-monotonicity differ;
* :mod:`repro.obs.slo` — burn-rate SLO monitoring (p99 latency, deny rate)
  over deterministic service-clock windows;
* :mod:`repro.obs.log` — the library-wide :mod:`logging` hierarchy the CLI
  configures via ``-v``/``-q``.

Determinism contract: trace events and stable-tier metrics read time from
the simulation environment, never the wall clock, so serial and parallel
runs of the same inputs export byte-identical files.
"""

from repro.obs.adapters import (
    TracingObserver,
    export_controller_counters,
    export_parallel_outcome,
    export_sim_metrics,
)
from repro.obs.catalog import METRIC_CATALOG, catalog_registry
from repro.obs.context import RequestContext, mint_trace_id
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    REQUEST_LATENCY_BUCKETS,
    TIER_PROCESS,
    TIER_STABLE,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    ObsRegistry,
    default_registry,
    log_buckets,
    set_default_registry,
)
from repro.obs.scrape import (
    Exposition,
    ScrapeEndpoint,
    monotonic_regressions,
    parse_exposition,
)
from repro.obs.slo import SLOAlert, SLOConfig, SLOMonitor
from repro.obs.spans import Span, span
from repro.obs.summarize import (
    MovieSummary,
    RequestChain,
    TraceSummary,
    reconstruct_request,
    summarize_trace,
    wilson_interval,
)
from repro.obs.trace import (
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    NullTraceWriter,
    TraceWriter,
    read_trace,
    validate_event,
    validate_trace_file,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "ObsRegistry",
    "DEFAULT_BUCKETS",
    "REQUEST_LATENCY_BUCKETS",
    "TIER_STABLE",
    "TIER_PROCESS",
    "METRIC_CATALOG",
    "catalog_registry",
    "default_registry",
    "log_buckets",
    "set_default_registry",
    "TraceWriter",
    "NullTraceWriter",
    "SCHEMA_VERSION",
    "EVENT_SCHEMA",
    "read_trace",
    "validate_event",
    "validate_trace_file",
    "RequestContext",
    "mint_trace_id",
    "ScrapeEndpoint",
    "Exposition",
    "parse_exposition",
    "monotonic_regressions",
    "SLOAlert",
    "SLOConfig",
    "SLOMonitor",
    "Span",
    "span",
    "TracingObserver",
    "export_sim_metrics",
    "export_controller_counters",
    "export_parallel_outcome",
    "MovieSummary",
    "RequestChain",
    "TraceSummary",
    "reconstruct_request",
    "summarize_trace",
    "wilson_interval",
    "get_logger",
    "configure_logging",
]
