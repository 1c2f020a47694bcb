"""I/O stream pool with purpose tagging.

The server's streams are one fungible pool (the disk array doesn't care what
a stream carries), but the experiments need to know *why* each stream is held
— steady playback of a partition, a phase-1 VCR operation, a dedicated
stream pinned by a resume miss, or an unpopular-title session.  The pool
therefore tags grants and keeps time-weighted occupancy per purpose, which is
exactly the evidence the A2 ablation uses to show the value of pre-allocation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.exceptions import ResourceError, StreamAccountingError
from repro.sim.engine import Environment
from repro.sim.metrics import MetricsRegistry, TimeWeighted
from repro.sim.resources import Resource, ResourceRequest

__all__ = ["StreamPurpose", "StreamGrant", "StreamPool", "REVOCATION_ORDER"]


class StreamPurpose(enum.Enum):
    """Why a stream is being held."""

    PLAYBACK = "playback"          # one per partition, held for the movie length
    VCR = "vcr"                    # phase 1: serving a FF/RW operation
    MISS_HOLD = "miss_hold"        # phase 2: resume missed, stream still pinned
    UNPOPULAR = "unpopular"        # dedicated stream for a long-tail title


#: Each purpose's hold-duration tally, named once.
_HOLD_TALLY: dict[StreamPurpose, str] = {
    purpose: f"hold_minutes.{purpose.value}" for purpose in StreamPurpose
}

#: Default order in which revocation sheds load: interactive extras go
#: before anything a whole batch of viewers depends on.
REVOCATION_ORDER: tuple[StreamPurpose, ...] = (
    StreamPurpose.VCR,
    StreamPurpose.MISS_HOLD,
    StreamPurpose.UNPOPULAR,
    StreamPurpose.PLAYBACK,
)


@dataclass
class StreamGrant:
    """A granted stream plus its accounting tag."""

    request: ResourceRequest
    purpose: StreamPurpose
    granted_at: float
    #: Monotone issue number; orders grants deterministically for revocation.
    token: int = -1
    #: Set when the fault layer reclaimed the stream out from under the
    #: holder; every later release/retag of this grant is an accounting error.
    revoked: bool = False

    def retag(self, pool: "StreamPool", purpose: StreamPurpose) -> None:
        """Change the accounting purpose without releasing the stream.

        Used when a phase-1 VCR stream becomes a phase-2 miss hold: the same
        physical stream keeps flowing, only the books change.
        """
        pool._retag(self, purpose)


class StreamPool:
    """Counted stream pool with per-purpose occupancy metrics.

    When a trace writer is attached, every acquisition and release emits a
    ``stream_acquire``/``stream_release`` event carrying the purpose and the
    pool-wide occupancy after the transition; with ``tracer=None`` the hot
    path costs one branch.
    """

    def __init__(
        self,
        env: Environment,
        capacity: int,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ) -> None:
        self._env = env
        self._resource = Resource(env, capacity, name="io-streams")
        self._metrics = metrics or MetricsRegistry()
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._held: dict[StreamPurpose, int] = {purpose: 0 for purpose in StreamPurpose}
        self._live: dict[int, StreamGrant] = {}
        self._next_token = 0
        # Held by reference: ``MetricsRegistry.reset_all`` resets them in place.
        # One per purpose, in ``_held``'s (declaration) order.
        self._occupancy: tuple[TimeWeighted, ...] = tuple(
            self._metrics.time_weighted(f"streams.{purpose.value}", now=env.now)
            for purpose in self._held
        )
        self._occupancy_total = self._metrics.time_weighted("streams.total", now=env.now)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Total streams in the pool."""
        return self._resource.capacity

    @property
    def in_use(self) -> int:
        """Streams currently granted."""
        return self._resource.in_use

    @property
    def available(self) -> int:
        """Streams free to grant right now."""
        return self._resource.available

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry recording per-purpose occupancy."""
        return self._metrics

    def held_for(self, purpose: StreamPurpose) -> int:
        """Streams currently held for one purpose."""
        return self._held[purpose]

    # ------------------------------------------------------------------
    # Acquisition.
    # ------------------------------------------------------------------
    def try_acquire(self, purpose: StreamPurpose) -> StreamGrant | None:
        """Non-blocking acquisition; ``None`` when the pool is exhausted."""
        request = self._resource.try_request()
        if request is None:
            return None
        return self._issue(request, purpose)

    def acquire(self, purpose: StreamPurpose) -> ResourceRequest:
        """Blocking acquisition: yield the returned request in a process.

        After the request fires, call :meth:`attach` to obtain the tagged
        grant (two steps because the wait happens inside the caller's
        process).
        """
        return self._resource.request()

    def attach(self, request: ResourceRequest, purpose: StreamPurpose) -> StreamGrant:
        """Tag a granted request obtained via :meth:`acquire`."""
        if not request.granted:
            raise ResourceError("attach() on a request that has not been granted")
        return self._issue(request, purpose)

    def release(self, grant: StreamGrant) -> None:
        """Return the stream and record the hold duration.

        Raises :class:`~repro.exceptions.StreamAccountingError` on a revoked
        grant, a double release, or a grant this pool never issued.
        """
        self._check_live(grant, "release")
        del self._live[grant.token]
        self._resource.release(grant.request)
        self._held[grant.purpose] -= 1
        if self._held[grant.purpose] < 0:
            raise ResourceError(f"negative hold count for {grant.purpose}")
        held = self._env.now - grant.granted_at
        self._metrics.tally(_HOLD_TALLY[grant.purpose]).push(held)
        self._account()
        if self._tracer is not None:
            self._tracer.emit(
                "stream_release",
                self._env.now,
                purpose=grant.purpose.value,
                in_use=self._resource.in_use,
                held_minutes=held,
            )

    # ------------------------------------------------------------------
    # Fault layer.
    # ------------------------------------------------------------------
    def resize(self, capacity: int) -> None:
        """Change the pool size (growth wakes waiters, shrink is lazy)."""
        self._resource.resize(capacity)
        self._account()

    def revoke(
        self,
        count: int,
        order: tuple[StreamPurpose, ...] = REVOCATION_ORDER,
    ) -> list[StreamGrant]:
        """Forcibly reclaim up to ``count`` live grants, least critical first.

        Victims are chosen deterministically: by ``order`` across purposes,
        oldest issue token first within a purpose.  Each victim's stream unit
        returns to the pool immediately and the grant is marked ``revoked``;
        the holder discovers this at its next touch (or via the degradation
        manager's interrupt) and must not release the grant again.  Returns
        the revoked grants so callers can notify the holders.
        """
        if count < 0:
            raise StreamAccountingError(f"cannot revoke {count} streams")
        victims: list[StreamGrant] = []
        by_purpose: dict[StreamPurpose, list[StreamGrant]] = {p: [] for p in order}
        for grant in self._live.values():  # insertion == token order
            if grant.purpose in by_purpose:
                by_purpose[grant.purpose].append(grant)
        for purpose in order:
            for grant in by_purpose[purpose]:
                if len(victims) >= count:
                    break
                victims.append(grant)
        for grant in victims:
            del self._live[grant.token]
            grant.revoked = True
            self._resource.release(grant.request)
            self._held[grant.purpose] -= 1
            held = self._env.now - grant.granted_at
            self._metrics.tally(_HOLD_TALLY[grant.purpose]).push(held)
            self._metrics.counter("streams.revoked").increment()
            if self._tracer is not None:
                self._tracer.emit(
                    "stream_release",
                    self._env.now,
                    purpose=grant.purpose.value,
                    in_use=self._resource.in_use,
                    held_minutes=held,
                )
        self._account()
        return victims

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _issue(self, request: ResourceRequest, purpose: StreamPurpose) -> StreamGrant:
        grant = StreamGrant(
            request=request,
            purpose=purpose,
            granted_at=self._env.now,
            token=self._next_token,
        )
        self._next_token += 1
        self._live[grant.token] = grant
        self._held[purpose] += 1
        self._account()
        if self._tracer is not None:
            self._tracer.emit(
                "stream_acquire",
                self._env.now,
                purpose=purpose.value,
                in_use=self._resource.in_use,
            )
        return grant

    def _check_live(self, grant: StreamGrant, verb: str) -> None:
        if grant.revoked:
            raise StreamAccountingError(
                f"{verb} of a revoked {grant.purpose.value} grant "
                f"(token {grant.token}): the fault layer already reclaimed it"
            )
        live = self._live.get(grant.token)
        if live is not grant:
            raise StreamAccountingError(
                f"{verb} of a grant this pool does not hold "
                f"(token {grant.token}): double {verb} or foreign grant"
            )

    def _retag(self, grant: StreamGrant, purpose: StreamPurpose) -> None:
        self._check_live(grant, "retag")
        self._held[grant.purpose] -= 1
        self._held[purpose] += 1
        self._metrics.tally(_HOLD_TALLY[grant.purpose]).push(
            self._env.now - grant.granted_at
        )
        grant.purpose = purpose
        grant.granted_at = self._env.now
        self._account()

    def _account(self) -> None:
        now = self._env.now
        for metric, count in zip(self._occupancy, self._held.values()):
            metric.update(now, count)
        self._occupancy_total.update(now, self._resource.in_use)
