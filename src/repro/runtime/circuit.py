"""A circuit breaker around the re-planning loop: fail fast, coast on last-good.

The control plane is an *optimisation*, not a prerequisite — the server keeps
serving with whatever ``(B_i, n_i)`` map is deployed even when every re-plan
attempt dies.  The breaker encodes that asymmetry: after
:data:`FAILURE_THRESHOLD` (3) consecutive tick failures (solver blow-ups,
refit errors, actuation retries exhausted) it **opens**, and the guarded loop
stops calling into the controller for a bounded, exponentially-growing
stretch of *simulation* time.  While open, :meth:`GuardedControlLoop.run_tick`
returns ``None`` and the server coasts on the last allocation that fully
actuated.

After the backoff expires, one probe tick runs **half-open**: success closes
the breaker and resets the backoff, another failure re-opens it with the
backoff multiplied by :data:`BACKOFF_FACTOR` (2).  The first open waits
:data:`BASE_BACKOFF_MINUTES` (30) and no open waits longer than
:data:`MAX_BACKOFF_MINUTES` (480): 30 → 60 → 120 → 240 → 480 → 480 ….  All timing is in sim minutes from the caller's clock —
nothing here reads a wall clock, so a degraded run replays byte-identically.
"""

from __future__ import annotations

from repro.exceptions import DegradedModeError, ReproError
from repro.obs.log import get_logger
from repro.runtime.controller import AllocationDelta

__all__ = [
    "FAILURE_THRESHOLD",
    "BASE_BACKOFF_MINUTES",
    "BACKOFF_FACTOR",
    "MAX_BACKOFF_MINUTES",
    "CircuitBreaker",
    "GuardedControlLoop",
]

_log = get_logger("runtime.circuit")

#: Consecutive tick failures that open a closed breaker.
FAILURE_THRESHOLD = 3
#: Sim minutes the first open waits before a half-open probe.
BASE_BACKOFF_MINUTES = 30.0
#: Growth of the backoff with each consecutive open.
BACKOFF_FACTOR = 2.0
#: Cap on any one backoff, in sim minutes.
MAX_BACKOFF_MINUTES = 480.0

_CLOSED = "closed"
_OPEN = "open"
_HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with sim-clock exponential backoff."""

    def __init__(self) -> None:
        self._state = _CLOSED
        self._failures = 0
        self._opens = 0
        self._retry_at: float | None = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half_open``."""
        return self._state

    @property
    def consecutive_failures(self) -> int:
        """Failures since the last success."""
        return self._failures

    @property
    def retry_at(self) -> float | None:
        """Sim time (minutes) when an open breaker allows a probe."""
        return self._retry_at

    def current_backoff(self) -> float:
        """The backoff window (minutes) the next open would impose."""
        exponent = max(0, self._opens - 1)
        return min(MAX_BACKOFF_MINUTES, BASE_BACKOFF_MINUTES * BACKOFF_FACTOR**exponent)

    # ------------------------------------------------------------------
    # The protocol.
    # ------------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """May a tick run at ``now``?  Promotes open to half-open on expiry."""
        if self._state == _CLOSED:
            return True
        if self._state == _OPEN:
            if self._retry_at is not None and now >= self._retry_at:
                self._state = _HALF_OPEN
                _log.info("breaker half-open at t=%g: probing one tick", now)
                return True
            return False
        # Half-open: the single probe is already in flight this tick; the
        # caller resolves it via record_success / record_failure.
        return True

    def record_success(self) -> None:
        """A tick completed: close the breaker and forget the history."""
        self._state = _CLOSED
        self._failures = 0
        self._opens = 0
        self._retry_at = None

    def record_failure(self, now: float) -> None:
        """A tick failed; open the breaker once the threshold is crossed."""
        self._failures += 1
        tripped = self._failures >= FAILURE_THRESHOLD
        if self._state == _HALF_OPEN or tripped:
            self._opens += 1
            backoff = self.current_backoff()
            self._state = _OPEN
            self._retry_at = now + backoff
            _log.warning(
                "breaker open at t=%g after %d failure(s): retry at t=%g",
                now,
                self._failures,
                self._retry_at,
            )


class GuardedControlLoop:
    """Runs tick → actuate → notify under a breaker, coasting when it opens.

    The loop owns the *wiring* of one control cycle and nothing else: the
    controller still decides, the actuator still applies.  Any
    :class:`~repro.exceptions.ReproError` out of that cycle counts as one
    breaker failure; while the breaker is open the loop skips the cycle
    entirely and the deployed plan — tracked as ``last_good`` — stays in
    force.  Callers that *require* a live control plane (e.g. an experiment
    asserting convergence) call :meth:`require_healthy`.
    """

    def __init__(self, controller, actuator, tracer=None) -> None:
        self._controller = controller
        self._actuator = actuator
        self._breaker = CircuitBreaker()
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._last_good: AllocationDelta | None = None
        self._last_error: ReproError | None = None
        self.ticks_run = 0
        self.ticks_coasted = 0
        self.failures = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def breaker(self) -> CircuitBreaker:
        """The breaker (exposed for diagnostics)."""
        return self._breaker

    @property
    def degraded(self) -> bool:
        """True while the breaker keeps the control plane offline."""
        return self._breaker.state != _CLOSED

    @property
    def last_good(self) -> AllocationDelta | None:
        """The most recent delta that fully actuated."""
        return self._last_good

    @property
    def last_error(self) -> ReproError | None:
        """The failure that most recently tripped the breaker's counter."""
        return self._last_error

    def require_healthy(self) -> None:
        """Raise :class:`DegradedModeError` unless the breaker is closed."""
        if self.degraded:
            cause = f": last failure was {self._last_error}" if self._last_error else ""
            raise DegradedModeError(
                f"control plane is {self._breaker.state} "
                f"(retry at t={self._breaker.retry_at}){cause}"
            )

    # ------------------------------------------------------------------
    # One guarded cycle.
    # ------------------------------------------------------------------
    def run_tick(self, now: float, context=None) -> AllocationDelta | None:
        """One cycle: breaker gate, tick, actuate, feedback.

        Returns the delta that actuated, or ``None`` when the loop coasted
        (breaker open) or the controller held the plan steady.  Never raises
        on a tick failure — the breaker absorbs it.

        ``context`` is the request-scoped trace context of the request whose
        arrival triggered this tick (the live service path); the loop enters
        a ``tick`` span on it and hands it to the actuator so any
        ``plan_actuation`` event links into the request's causal chain.
        """
        if not self._breaker.allow(now):
            self.ticks_coasted += 1
            if self._tracer is not None:
                self._tracer.emit("replan_decision", now, outcome="coasting", tick=-1)
            return None
        self.ticks_run += 1
        if context is not None:
            context.enter("tick")
        try:
            delta = self._controller.tick(now)
            if delta is not None:
                if context is not None:
                    report = self._actuator.apply(delta, context=context)
                else:
                    report = self._actuator.apply(delta)
                self._controller.notify_actuation(report, delta)
                if report.fully_applied:
                    self._last_good = delta
        except ReproError as exc:
            self.failures += 1
            self._last_error = exc
            self._breaker.record_failure(now)
            _log.warning("guarded tick failed at t=%g: %s", now, exc)
            return None
        self._breaker.record_success()
        return delta
