"""Bridges between the existing telemetry carriers and :mod:`repro.obs`.

Two worlds already accumulate observations: the simulation-time
:class:`~repro.sim.metrics.MetricsRegistry` (hot path, deterministic) and
the parallel executor's :class:`~repro.parallel.executor.ParallelOutcome`.
The adapters here export each into an :class:`~repro.obs.registry.ObsRegistry`
after the fact — the hot paths keep their purpose-built carriers, the
exposition gains one common format.

:class:`TracingObserver` converts the :class:`~repro.vod.server.VODServer`
observer protocol into structured trace events.  It implements only the
hooks that map to events (partial observers are part of the protocol), and
reads time from the hook's simulation timestamp — never the wall clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.registry import TIER_PROCESS, TIER_STABLE, ObsRegistry
from repro.obs.trace import NullTraceWriter, TraceWriter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.executor import ParallelOutcome
    from repro.sim.metrics import MetricsRegistry

__all__ = [
    "TracingObserver",
    "export_sim_metrics",
    "export_controller_counters",
    "export_parallel_outcome",
]


class TracingObserver:
    """VOD-server observer that writes structured trace events.

    Implements ``on_session_start`` / ``on_session_end`` / ``on_vcr`` /
    ``on_vcr_end`` / ``on_resume_detail``; the coarse ``on_resume`` and the
    high-frequency ``on_playback`` hooks are intentionally absent (the
    detailed resume event subsumes the former, playback segments carry no
    decision information).
    """

    def __init__(self, tracer: TraceWriter | NullTraceWriter) -> None:
        self._tracer = tracer

    def on_session_start(self, movie_id: int, length: float, now: float) -> None:
        """A viewer session was admitted to a popular movie."""
        self._tracer.emit("session_start", now, movie=movie_id, length=length)

    def on_session_end(self, movie_id: int, now: float) -> None:
        """A viewer session finished."""
        self._tracer.emit("session_end", now, movie=movie_id)

    def on_vcr(self, movie_id: int, operation, duration: float, now: float) -> None:
        """A VCR operation was issued (phase-1 begin)."""
        self._tracer.emit(
            "vcr_begin", now, movie=movie_id, op=operation.value, duration=duration
        )

    def on_vcr_end(self, movie_id: int, operation, outcome: str, now: float) -> None:
        """A VCR operation resolved (``ok``/``denied``/``end_of_movie``)."""
        self._tracer.emit(
            "vcr_end", now, movie=movie_id, op=operation.value, outcome=outcome
        )

    def on_resume_detail(
        self,
        movie_id: int,
        hit: bool,
        position: float,
        window_start: float | None,
        now: float,
    ) -> None:
        """A resume resolved: hit/miss, position, matched partition restart."""
        self._tracer.emit(
            "resume",
            now,
            movie=movie_id,
            hit=hit,
            position=position,
            window_start=window_start,
        )


def _metric_suffix(flat_name: str) -> tuple[str, str]:
    """Split a ``kind.rest`` sim-metric key into (kind, label value)."""
    kind, _, rest = flat_name.partition(".")
    return kind, rest


def export_sim_metrics(
    sim_metrics: "MetricsRegistry", now: float, registry: ObsRegistry
) -> None:
    """Export a simulation run's metrics into labelled stable-tier families.

    Counters land in ``repro_sim_events_total{event=...}``, tally means in
    ``repro_sim_tally_mean{tally=...}`` and time-weighted averages in
    ``repro_sim_time_avg{metric=...}``.  Simulation metrics are a pure
    function of the run's inputs, hence ``TIER_STABLE``.
    """
    counters = registry.counter(
        "repro_sim_events_total",
        "Simulation event counts since the warm-up reset.",
        labelnames=("event",),
        tier=TIER_STABLE,
    )
    means = registry.gauge(
        "repro_sim_tally_mean",
        "Per-observation sample means of simulation tallies.",
        labelnames=("tally",),
        tier=TIER_STABLE,
    )
    time_avgs = registry.gauge(
        "repro_sim_time_avg",
        "Time-weighted averages of simulation state variables.",
        labelnames=("metric",),
        tier=TIER_STABLE,
    )
    for flat_name, value in sorted(sim_metrics.snapshot(now).items()):
        kind, rest = _metric_suffix(flat_name)
        if kind == "count":
            counters.labels(rest).inc(value)
        elif kind == "mean":
            means.labels(rest).set(value)
        elif kind == "timeavg":
            time_avgs.labels(rest).set(value)


def export_controller_counters(counters, registry: ObsRegistry) -> None:
    """Export a control loop's decision counters (``TIER_STABLE``).

    ``counters`` is the ``{name: count}`` mapping of
    :meth:`~repro.runtime.controller.CapacityController.counters` — a pure
    function of the replayed telemetry, hence stable.
    """
    family = registry.counter(
        "repro_controller_decisions_total",
        "Control-loop tick outcomes (deltas and hysteresis skips).",
        labelnames=("decision",),
        tier=TIER_STABLE,
    )
    for name, value in sorted(counters.items()):
        family.labels(name).inc(value)


def export_parallel_outcome(
    outcome: "ParallelOutcome", registry: ObsRegistry
) -> None:
    """Export a fan-out's shard telemetry (``TIER_PROCESS``).

    Per-shard wall-clock seconds, task counts and worker-local cache
    hit/miss deltas, plus driver-level totals.
    """
    shard_seconds = registry.gauge(
        "repro_parallel_shard_seconds",
        "Per-shard wall-clock seconds of the last fan-out.",
        labelnames=("shard",),
        tier=TIER_PROCESS,
    )
    shard_tasks = registry.gauge(
        "repro_parallel_shard_tasks",
        "Per-shard task counts of the last fan-out.",
        labelnames=("shard",),
        tier=TIER_PROCESS,
    )
    shard_cache = registry.gauge(
        "repro_parallel_shard_cache_lookups",
        "Per-shard worker-cache lookups by result.",
        labelnames=("shard", "result"),
        tier=TIER_PROCESS,
    )
    totals = registry.gauge(
        "repro_parallel_map_seconds",
        "Driver wall-clock seconds of the last fan-out.",
        tier=TIER_PROCESS,
    )
    workers = registry.gauge(
        "repro_parallel_workers",
        "Worker count of the last fan-out.",
        tier=TIER_PROCESS,
    )
    for shard in outcome.shards:
        label = str(shard.shard)
        shard_seconds.labels(label).set(shard.seconds)
        shard_tasks.labels(label).set(shard.tasks)
        shard_cache.labels(label, "hit").set(shard.cache_hits)
        shard_cache.labels(label, "miss").set(shard.cache_misses)
    totals.set(outcome.seconds)
    workers.set(outcome.workers)
