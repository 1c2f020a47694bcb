"""Capacity-limited FIFO resources for the DES substrate.

The VOD server's I/O streams and buffer partitions are modelled as counted
resources: a request either grabs a free unit immediately or queues.
Requests are events, so a process simply ``yield``\\ s them; releases are
immediate and wake the head of the queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.exceptions import ResourceError
from repro.sim.engine import Environment, Event

__all__ = ["Resource", "ResourceRequest"]


class ResourceRequest(Event):
    """A pending or granted claim on one unit of a :class:`Resource`."""

    __slots__ = ("resource", "_granted", "_cancelled")

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        self._granted = False
        self._cancelled = False

    @property
    def granted(self) -> bool:
        """True while this request holds a unit."""
        return self._granted

    def cancel(self) -> None:
        """Withdraw a queued request (no-op if already granted)."""
        if self._granted:
            raise ResourceError("cannot cancel a granted request; release it instead")
        self._cancelled = True
        self.resource._drop_cancelled()

    def release(self) -> None:
        """Return the unit to the pool."""
        self.resource.release(self)


class Resource:
    """A pool of ``capacity`` interchangeable units with a FIFO wait queue."""

    def __init__(self, env: Environment, capacity: int, name: str = "resource") -> None:
        if capacity < 0:
            raise ResourceError(f"capacity must be >= 0, got {capacity}")
        self.env = env
        self.name = name
        self._capacity = int(capacity)
        self._in_use = 0
        self._waiting: Deque[ResourceRequest] = deque()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total units in the pool."""
        return self._capacity

    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def available(self) -> int:
        """Units free to grant right now."""
        return self._capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Waiting (non-cancelled) requests."""
        return sum(1 for r in self._waiting if not r._cancelled)

    @property
    def utilization(self) -> float:
        """Instantaneous fraction of capacity in use (0 for a 0-capacity pool)."""
        if self._capacity == 0:
            return 0.0
        return self._in_use / self._capacity

    # ------------------------------------------------------------------
    # Acquisition / release.
    # ------------------------------------------------------------------
    def request(self) -> ResourceRequest:
        """Claim one unit; the returned event fires when the claim is granted."""
        req = ResourceRequest(self)
        if self._in_use < self._capacity and not self._waiting:
            self._grant(req)
        else:
            self._waiting.append(req)
        return req

    def try_request(self) -> ResourceRequest | None:
        """Non-blocking claim: a granted request, or ``None`` if at capacity.

        Nobody can be waiting on a request that is granted before it is
        returned, so the grant comes back processed and is never queued.
        """
        if self._in_use < self._capacity and not self._waiting:
            req = ResourceRequest(self)
            self._in_use += 1
            req._granted = True
            req._settle(req)
            return req
        return None

    def release(self, request: ResourceRequest) -> None:
        """Return a previously granted unit and wake the next waiter."""
        if request.resource is not self:
            raise ResourceError("request released against the wrong resource")
        if not request._granted:
            raise ResourceError("releasing a request that was never granted")
        request._granted = False
        self._in_use -= 1
        if self._in_use < 0:
            raise ResourceError(f"{self.name}: negative in-use count (double release?)")
        self._wake_next()

    def resize(self, capacity: int) -> None:
        """Change the pool size; growth wakes waiters, shrink is lazy."""
        if capacity < 0:
            raise ResourceError(f"capacity must be >= 0, got {capacity}")
        self._capacity = int(capacity)
        self._wake_next()

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _grant(self, req: ResourceRequest) -> None:
        self._in_use += 1
        req._granted = True
        req.succeed(req)

    def _drop_cancelled(self) -> None:
        while self._waiting and self._waiting[0]._cancelled:
            self._waiting.popleft()

    def _wake_next(self) -> None:
        self._drop_cancelled()
        while self._waiting and self._in_use < self._capacity:
            req = self._waiting.popleft()
            if req._cancelled:
                continue
            self._grant(req)
            self._drop_cancelled()

    def __repr__(self) -> str:
        return (
            f"Resource({self.name!r}, capacity={self._capacity}, in_use={self._in_use}, "
            f"queued={self.queue_length})"
        )
