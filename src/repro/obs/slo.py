"""SLO objectives with multi-window burn-rate alerting.

The paper's argument is about sustained operating behaviour — bounded
response-time waits and high resume hit ratios under heavy traffic — so the
live service watches itself against two service-level objectives:

* ``p99_latency`` — at least :data:`LATENCY_TARGET` (99%) of requests
  answer within ``latency_threshold_seconds``;
* ``deny_rate`` — at least :data:`DENY_TARGET` (95%) of ``session_start``
  requests are admitted (batch or immediate) rather than rejected/denied.

Each objective has an **error budget** of ``1 - target``.  The monitor
keeps a sliding sample window per objective on the *service clock* and
computes the **burn rate** — observed error fraction divided by the budget —
over a fast (:data:`FAST_WINDOW_MINUTES`, 5 min) and a slow
(:data:`SLOW_WINDOW_MINUTES`, 60 min) window.  An alert fires only when
*both* windows burn above a threshold (the standard multi-window guard: the
slow window proves the problem is real, the fast window proves it is still
happening), with ``page`` at :data:`PAGE_BURN` (2×) and ``warn`` at
:data:`WARN_BURN` (1×).

Alerts are edges, not levels: the monitor emits one ``slo_alert`` trace
event when an objective enters a severity and one (``breaching=false``)
when it clears, and mirrors its state into ``repro_slo_*`` metric families
so a live scrape shows the current burn.  A ``page`` on either objective
can arm :class:`~repro.vod.degradation.DegradationManager` shedding — the
engine decides that; this module only measures and reports.

Determinism: samples are keyed on service-clock minutes and evaluation is
pure arithmetic over them, so virtual-clock runs alert identically on every
run and worker count.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "LATENCY_TARGET",
    "DENY_TARGET",
    "FAST_WINDOW_MINUTES",
    "SLOW_WINDOW_MINUTES",
    "PAGE_BURN",
    "WARN_BURN",
    "SLOConfig",
    "SLOAlert",
    "SLOMonitor",
    "OBJECTIVES",
]

#: The objectives the monitor evaluates, in evaluation order.
OBJECTIVES: tuple[str, ...] = ("p99_latency", "deny_rate")

#: Fraction of requests that must answer within the latency threshold.
LATENCY_TARGET = 0.99
#: Fraction of ``session_start`` requests that must be admitted.
DENY_TARGET = 0.95
#: The burn-rate windows, in service-clock minutes.
FAST_WINDOW_MINUTES = 5.0
SLOW_WINDOW_MINUTES = 60.0
#: Burn rates (error fraction over budget) at which an objective pages / warns.
PAGE_BURN = 2.0
WARN_BURN = 1.0

#: ``session_start`` verdicts that spend the deny-rate error budget.
_DENY_DECISIONS = frozenset({"reject", "deny"})


@dataclass(frozen=True)
class SLOConfig:
    """The latency threshold and alerting sample floor of one monitor."""

    latency_threshold_seconds: float = 0.5
    min_samples: int = 10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.latency_threshold_seconds)
                and self.latency_threshold_seconds > 0.0):
            raise ConfigurationError(
                f"latency_threshold_seconds must be finite and > 0, "
                f"got {self.latency_threshold_seconds}"
            )
        if self.min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )

    def budget(self, objective: str) -> float:
        """The objective's error budget (allowed error fraction)."""
        if objective == "p99_latency":
            return 1.0 - LATENCY_TARGET
        if objective == "deny_rate":
            return 1.0 - DENY_TARGET
        raise ConfigurationError(f"unknown SLO objective {objective!r}")


@dataclass(frozen=True)
class SLOAlert:
    """One alert edge: an objective entered or left a severity."""

    objective: str
    severity: str
    breaching: bool
    burn_fast: float
    burn_slow: float
    value: float


class _ObjectiveState:
    """Sliding samples and current severity for one objective.

    The slow-window deque holds every live sample; the fast window is a
    second deque over the same stream with its own eviction horizon.  Both
    carry running (total, bad) tallies so each decision costs O(1)
    amortised — the monitor sits on the admission hot path and must not
    rescan its windows per request.
    """

    __slots__ = (
        "slow", "fast", "slow_bad", "fast_bad",
        "severity", "burn_fast", "burn_slow",
    )

    def __init__(self) -> None:
        #: (t_minutes, bad, value) — value is the latency (seconds) for the
        #: latency objective, 1.0/0.0 for the deny objective.
        self.slow: Deque[Tuple[float, bool, float]] = deque()
        self.fast: Deque[Tuple[float, bool, float]] = deque()
        self.slow_bad = 0
        self.fast_bad = 0
        self.severity: str | None = None
        self.burn_fast = 0.0
        self.burn_slow = 0.0

    def append(self, sample: Tuple[float, bool, float]) -> None:
        self.slow.append(sample)
        self.fast.append(sample)
        if sample[1]:
            self.slow_bad += 1
            self.fast_bad += 1

    def evict(self, now: float) -> None:
        slow_cutoff = now - SLOW_WINDOW_MINUTES
        while self.slow and self.slow[0][0] < slow_cutoff:
            if self.slow.popleft()[1]:
                self.slow_bad -= 1
        fast_cutoff = now - FAST_WINDOW_MINUTES
        while self.fast and self.fast[0][0] < fast_cutoff:
            if self.fast.popleft()[1]:
                self.fast_bad -= 1

    def value(self, objective: str) -> float:
        """The objective's observed fast-window reading (on demand only —
        the p99 sort is too costly for the per-request path)."""
        if not self.fast:
            return 0.0
        if objective == "p99_latency":
            return _nearest_rank([value for _, _, value in self.fast], 0.99)
        return self.fast_bad / len(self.fast)


def _nearest_rank(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the LoadReport/histogram definition)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


class SLOMonitor:
    """Evaluates the objectives over live decisions and reports edges.

    ``registry``/``tracer`` are optional: without them the monitor still
    evaluates and returns alerts (the engine may shed on them); with them it
    mirrors state into ``repro_slo_*`` families and ``slo_alert`` events.
    """

    def __init__(self, config: SLOConfig | None = None, registry=None, tracer=None):
        self.config = config or SLOConfig()
        self._tracer = tracer
        self._states = {objective: _ObjectiveState() for objective in OBJECTIVES}
        self._latency_state = self._states["p99_latency"]
        self._deny_state = self._states["deny_rate"]
        #: Per objective, in evaluation order: ``(objective, state, budget,
        #: fast burn gauge, slow burn gauge, breaching gauge)``, the gauges
        #: ``None`` without a registry.  Bound on the first evaluation, so
        #: a scrape before the first request shows no zero-valued children.
        self._rows: tuple | None = None
        self.alerts_emitted = 0
        self._burn_gauge = None
        self._breaching_gauge = None
        self._alerts_counter = None
        if registry is not None:
            self._burn_gauge = registry.gauge(
                "repro_slo_burn_rate",
                "Error-budget burn rate per objective and window",
                labelnames=("objective", "window"),
            )
            self._breaching_gauge = registry.gauge(
                "repro_slo_breaching",
                "1 when the objective is in an alerting state (warn or page)",
                labelnames=("objective",),
            )
            self._alerts_counter = registry.counter(
                "repro_slo_alerts_total",
                "SLO alert edges by objective and severity",
                labelnames=("objective", "severity"),
            )

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def record_decision(
        self,
        t_minutes: float,
        kind: str,
        decision: str,
        latency_seconds: float,
        trace_id: str | None = None,
    ) -> list[SLOAlert]:
        """Feed one answered request; returns any alert edges it caused."""
        self._latency_state.append(
            (t_minutes, latency_seconds > self.config.latency_threshold_seconds,
             latency_seconds)
        )
        if kind == "session_start":
            bad = decision in _DENY_DECISIONS
            self._deny_state.append((t_minutes, bad, 1.0 if bad else 0.0))
        return self._evaluate(t_minutes, trace_id)

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------
    def _bind_rows(self) -> tuple:
        rows = []
        for objective in OBJECTIVES:
            gauges = (None, None, None)
            if self._burn_gauge is not None:
                gauges = (
                    self._burn_gauge.labels(objective, "fast"),
                    self._burn_gauge.labels(objective, "slow"),
                    self._breaching_gauge.labels(objective),
                )
            rows.append(
                (objective, self._states[objective],
                 self.config.budget(objective), *gauges)
            )
        self._rows = tuple(rows)
        return self._rows

    def _evaluate(self, now: float, trace_id: str | None) -> list[SLOAlert]:
        alerts: list[SLOAlert] = []
        rows = self._rows or self._bind_rows()
        for objective, state, budget, fast_gauge, slow_gauge, breaching_gauge in rows:
            state.evict(now)
            fast_total = len(state.fast)
            slow_total = len(state.slow)
            state.burn_fast = (
                (state.fast_bad / fast_total) / budget if fast_total else 0.0
            )
            state.burn_slow = (
                (state.slow_bad / slow_total) / budget if slow_total else 0.0
            )

            severity: str | None = None
            if fast_total >= self.config.min_samples:
                floor = min(state.burn_fast, state.burn_slow)
                if floor >= PAGE_BURN:
                    severity = "page"
                elif floor >= WARN_BURN:
                    severity = "warn"

            if fast_gauge is not None:
                fast_gauge.set(state.burn_fast)
                slow_gauge.set(state.burn_slow)
                breaching_gauge.set(1.0 if severity is not None else 0.0)

            if severity != state.severity:
                breaching = severity is not None
                reported = severity if breaching else state.severity
                alert = SLOAlert(
                    objective=objective,
                    severity=reported or "clear",
                    breaching=breaching,
                    burn_fast=state.burn_fast,
                    burn_slow=state.burn_slow,
                    value=state.value(objective),
                )
                alerts.append(alert)
                self.alerts_emitted += 1
                if self._alerts_counter is not None:
                    self._alerts_counter.labels(objective, alert.severity).inc()
                if self._tracer is not None and self._tracer.enabled:
                    self._tracer.emit(
                        "slo_alert",
                        now,
                        objective=alert.objective,
                        severity=alert.severity,
                        breaching=alert.breaching,
                        burn_fast=alert.burn_fast,
                        burn_slow=alert.burn_slow,
                        value=alert.value,
                        trace_id=trace_id,
                    )
                state.severity = severity
        return alerts

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Current per-objective state for the health endpoint."""
        out: dict = {}
        for objective in OBJECTIVES:
            state = self._states[objective]
            out[objective] = {
                "severity": state.severity or "ok",
                "burn_fast": round(state.burn_fast, 6),
                "burn_slow": round(state.burn_slow, 6),
                "value": round(state.value(objective), 6),
                "samples": len(state.slow),
            }
        return out
