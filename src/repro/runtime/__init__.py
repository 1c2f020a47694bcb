"""Online capacity control plane: telemetry → re-fit → re-plan → admission.

The paper's sizing procedure (Section 5) assumes the VCR statistics are
"obtained by statistics while the movie is displayed".  The offline packages
exercise that path once — :mod:`repro.workloads` fits a trace and
:mod:`repro.sizing` plans an allocation — but a deployed server must keep the
loop closed while traffic drifts.  This package is that loop:

* :mod:`repro.runtime.telemetry` — streaming per-movie rolling windows of
  VCR durations, operation mix, arrival rates and hit/miss counts with
  exponential decay, fed by a live :class:`repro.vod.server.VODServer` (as an
  observer) or by a JSON-lines trace replay;
* :mod:`repro.runtime.refit` — incremental distribution re-fitting gated by
  a Kolmogorov–Smirnov drift detector, so stationary traffic does no work;
* :mod:`repro.runtime.modelcache` — a keyed, bounded memoisation of each
  operation's ``P(hit | op)`` and each distribution's CDF transform, shared
  by every model and feasible set a re-plan builds (quantised keys, LRU
  eviction, hit/miss counters);
* :mod:`repro.runtime.controller` — the background re-planner that turns
  drift into an :class:`~repro.runtime.controller.AllocationDelta` under the
  global stream budget, with hysteresis against churn;
* :mod:`repro.runtime.actuator` — applies deltas to a running server
  between batch restarts, never mid-window;
* :mod:`repro.runtime.admission` — gates new sessions against the *current*
  plan plus the Erlang VCR reserve of :mod:`repro.sizing.reservation`;
* :mod:`repro.runtime.circuit` — a circuit breaker around the whole cycle:
  repeated failures open it and the server coasts on the last-good plan.
"""

from __future__ import annotations

from repro.runtime.actuator import ActuationReport, PlanActuator
from repro.runtime.admission import GateDecision, RuntimeAdmissionGate
from repro.runtime.circuit import CircuitBreaker, GuardedControlLoop
from repro.runtime.controller import (
    AllocationDelta,
    CapacityController,
    ControllerPolicy,
    MovieChange,
    MovieSlot,
)
from repro.runtime.modelcache import CacheStats, LRUCache, ModelEvaluationCache
from repro.runtime.refit import DriftReport, IncrementalRefitter
from repro.runtime.telemetry import MovieTelemetry, TelemetryHub, TelemetrySnapshot

__all__ = [
    "ActuationReport",
    "PlanActuator",
    "GateDecision",
    "RuntimeAdmissionGate",
    "CircuitBreaker",
    "GuardedControlLoop",
    "AllocationDelta",
    "CapacityController",
    "ControllerPolicy",
    "MovieChange",
    "MovieSlot",
    "CacheStats",
    "LRUCache",
    "ModelEvaluationCache",
    "DriftReport",
    "IncrementalRefitter",
    "MovieTelemetry",
    "TelemetryHub",
    "TelemetrySnapshot",
]
