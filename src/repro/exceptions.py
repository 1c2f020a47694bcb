"""Exception hierarchy for the ``repro`` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch a single base class at an
application boundary while still discriminating specific failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError, ValueError):
    """An invalid system configuration (e.g. ``B > l`` or ``n < 1``).

    Inherits from :class:`ValueError` because configuration problems are
    fundamentally bad argument values; ``except ValueError`` also works.
    """


class DistributionError(ReproError, ValueError):
    """An invalid probability-distribution parameterisation."""


class NumericsError(ReproError, ArithmeticError):
    """A numerical routine failed to converge or received a bad bracket."""


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""


class ResourceError(SimulationError):
    """A simulated resource (stream, buffer) was misused, e.g. double release."""


class StreamAccountingError(ResourceError):
    """A stream grant was released, retagged or revoked against the wrong books.

    Raised on double release, on releasing/retagging a grant a pool never
    issued (a *foreign* grant), and on operating on a grant the fault layer
    already revoked.  Revocation makes all three reachable from correct
    viewer code, so the pool polices them explicitly instead of silently
    corrupting the per-purpose occupancy accounts.
    """


class FittingError(ConfigurationError):
    """A distribution or behaviour fit could not be performed on the sample.

    Subclasses :class:`ConfigurationError` so existing callers that catch the
    broader class keep working; the online refit path catches this narrow
    type to skip a refit instead of crashing mid-cycle.
    """


class InsufficientDataError(FittingError):
    """Too few samples to fit anything (0–1 samples, or below the floor)."""


class ClockRegressionError(SimulationError):
    """A time-stamped statistic was fed a timestamp earlier than its last one.

    Time-weighted metrics integrate state over elapsed time; a regressing
    clock would subtract area and silently corrupt the weighted mean, so the
    update (and any read at a stale ``now``) fails loudly instead.
    """


class ObserverError(SimulationError):
    """An attached observer raised inside one of its hooks.

    The offending hook and observer are named in the message and the original
    exception is chained, so instrumentation bugs surface as themselves
    instead of masquerading as simulation failures.
    """


class ObservabilityError(ReproError):
    """Base class for metrics/tracing errors raised by :mod:`repro.obs`."""


class TraceSchemaError(ObservabilityError, ValueError):
    """A structured trace event does not conform to the event schema."""


class SizingError(ReproError, RuntimeError):
    """System sizing could not produce a feasible allocation."""


class InfeasibleError(SizingError):
    """No ``(B, n)`` pair satisfies the requested performance targets."""


class FaultError(ReproError, RuntimeError):
    """Base class for the deterministic fault-injection layer."""


class FaultPlanError(FaultError, ValueError):
    """A fault plan is malformed: bad JSON shape, unknown kind, bad times.

    Inherits :class:`ValueError` because a bad plan is fundamentally a bad
    argument; ``except ValueError`` at a CLI boundary also works.
    """


class DegradedModeError(FaultError):
    """A fresh plan/actuation was demanded while the control loop is degraded.

    The circuit breaker is open: repeated re-fit/solve/actuation failures
    tripped it, and the system is deliberately coasting on the last-good
    allocation until the sim-clock backoff expires.  Callers that can accept
    stale plans should not see this; callers that *require* a fresh plan get
    a typed refusal instead of a silently stale answer.
    """


class ActuationRetryExhausted(FaultError):
    """Re-queued partial actuations kept failing past the retry bound.

    The remainder of a partially applied :class:`AllocationDelta` was
    re-queued and re-applied the configured number of times without ever
    landing fully; the loop falls back to the deployed state and surfaces
    this so operators see a stuck actuation instead of an infinite retry.
    """


class ServiceError(ReproError, RuntimeError):
    """Base class for the live admission service (:mod:`repro.service`)."""


class ProtocolError(ServiceError, ValueError):
    """A request/response line violates the JSON-line wire protocol.

    Inherits :class:`ValueError` because a malformed line is fundamentally a
    bad argument; the server answers with a typed ``error`` response instead
    of dropping the connection, so one bad client line never kills a session.
    """


class SessionStateError(ServiceError):
    """A request references a session in an impossible state.

    Raised (and mapped to an ``error`` response at the server boundary) on
    duplicate ``session_start`` ids, on VCR/end requests for sessions that
    were never started, and on requests arriving after the session closed.
    """


class WorkerCrashError(FaultError):
    """A parallel worker process died and bounded shard retries ran out.

    Task *exceptions* propagate as themselves; this is reserved for the
    worker process vanishing (OOM-kill, segfault, ``os._exit``) repeatedly
    enough that reassignment gave up.
    """
