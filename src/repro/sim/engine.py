"""Event loop, clock, processes and timeouts for the DES substrate.

Model: an :class:`Environment` owns a priority queue of ``(time, priority,
sequence, event)`` entries.  An :class:`Event` is a one-shot latch with
callbacks; a :class:`Process` wraps a Python generator that ``yield``\\ s
events and is resumed when they fire.  :class:`Timeout` is an event scheduled
a fixed delay in the future.  Processes can be interrupted, which raises
:class:`Interrupt` inside the generator at its current yield point.

Determinism: ties in time are broken by priority then by an insertion
sequence number, so two runs with the same seeds produce identical event
orderings — essential for the reproducibility of every experiment in this
repository.

Events nobody can be waiting on are settled in place rather than queued: a
process that finishes with no callbacks attached, and a non-blocking
:meth:`~repro.sim.resources.Resource.try_request` grant.  Such an entry
would fire at the current time with nothing to run; leaving it out draws no
sequence number, and the numbers the other entries draw stay increasing, so
their order is unchanged.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Generator, Iterable

from repro.exceptions import SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]

PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process generator when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """One-shot event: untriggered → triggered (with a value) → processed.

    Callbacks attached before processing run when the event is popped from
    the queue; attaching a callback to an already-processed event runs it
    immediately (same semantics SimPy users expect).
    """

    __slots__ = ("env", "callbacks", "_value", "_triggered", "_processed", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = None
        self._triggered = False
        self._processed = False
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """False when the event carries a failure (exception) value."""
        return self._ok

    @property
    def value(self) -> Any:
        """The payload (raises if untriggered)."""
        if not self._triggered:
            raise SimulationError("value of an untriggered event")
        return self._value

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully; it fires at the current time."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, delay=0.0, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event as a failure; waiting processes re-raise it."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay=0.0, priority=priority)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback`` when the event fires (immediately if it already has)."""
        if self._processed:
            callback(self)
        else:
            assert self.callbacks is not None
            self.callbacks.append(callback)

    def _settle(self, value: Any) -> None:
        """Trigger and process the event in place, without queuing it.

        Only valid while nobody waits on the event: a later ``yield`` or
        :meth:`add_callback` sees it processed and resumes at once.
        """
        self._triggered = True
        self._processed = True
        self._value = value
        self.callbacks = None


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    ``delay`` must be finite and non-negative: a NaN entry would sit at the
    top of the queue and stop :meth:`Environment.run` without an error.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not 0.0 <= delay < math.inf:
            raise SimulationError(f"timeout delay must be finite and >= 0, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env._schedule(self, delay=delay, priority=PRIORITY_NORMAL)


class Process(Event):
    """A running generator; itself an event that fires when the generator ends.

    The generator may ``yield`` any :class:`Event`; it is resumed with the
    event's value (or the event's exception is thrown into it).  Yielding a
    :class:`Process` waits for that process to finish.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"Process needs a generator, got {generator!r}")
        self._generator = generator
        self._waiting_on: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator at time `now` via an initial event.
        init = Event(env)
        init._triggered = True
        init.add_callback(self._resume)
        env._schedule(init, delay=0.0, priority=PRIORITY_URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a finished process is an error; interrupting a process
        that is about to be resumed in the same time step is delivered before
        that resumption (urgent priority).
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        waiting_on = self._waiting_on
        if waiting_on is not None and not waiting_on.processed:
            # Detach from the event we were waiting on; it may still fire but
            # must no longer resume us.
            if waiting_on.callbacks is not None and self._resume in waiting_on.callbacks:
                waiting_on.callbacks.remove(self._resume)
        self._waiting_on = None
        interrupt_event = Event(self.env)
        interrupt_event._triggered = True
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.add_callback(self._resume)
        self.env._schedule(interrupt_event, delay=0.0, priority=PRIORITY_URGENT)

    def _resume(self, trigger: Event) -> None:
        self._waiting_on = None
        try:
            if trigger.ok:
                target = self._generator.send(trigger._value)
            else:
                target = self._generator.throw(trigger._value)
        except StopIteration as stop:
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nobody waits: settle in place instead of queuing an event
                # that would fire with no callback.
                self._settle(stop.value)
            return
        except Interrupt as exc:
            # An unhandled interrupt terminates the process as a failure.
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield events"
            )
        if target.processed:
            # Already-fired event: resume immediately (next queue step).
            immediate = Event(self.env)
            immediate._triggered = True
            immediate._ok = target.ok
            immediate._value = target._value
            immediate.add_callback(self._resume)
            self.env._schedule(immediate, delay=0.0, priority=PRIORITY_URGENT)
            self._waiting_on = immediate
        else:
            target.add_callback(self._resume)
            self._waiting_on = target


class ConditionEvent(Event):
    """Base for AllOf/AnyOf composite waits."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = tuple(events)
        self._pending = len(self._events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            event.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self._events if e.processed and e.ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Fires when every constituent event has fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(ConditionEvent):
    """Fires when the first constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # ------------------------------------------------------------------
    # Factories.
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered one-shot event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any], name: str | None = None) -> Process:
        """Launch a generator as a cooperative process."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing at the first constituent."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and the main loop.
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._sequence), event))

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` when the queue is empty)."""
        return self._queue[0][0] if self._queue else math.inf

    def step(self) -> None:
        """Process exactly one event: advance the clock, run its callbacks."""
        try:
            when, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise SimulationError("step() on an empty event queue") from None
        now = self._now
        if when > now:
            self._now = when
        elif when < now - 1e-12:
            raise SimulationError(
                f"causality violation: event scheduled at {when} processed at {now}"
            )
        event._processed = True
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain the queue), a number (advance the
        clock to exactly that time), or an :class:`Event` (return its value
        when it fires; raises :class:`SimulationError` if the queue drains
        first).
        """
        if isinstance(until, Event):
            sentinel = until
            while not sentinel.processed:
                if not self._queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited event fired"
                    )
                self.step()
            if not sentinel.ok:
                raise sentinel._value
            return sentinel._value
        deadline = math.inf if until is None else float(until)
        if deadline < self._now:
            raise SimulationError(f"run(until={deadline}) is in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        if until is not None:
            self._now = deadline
        return None
