"""Graceful degradation: ordered shedding policies for a faulted server.

When the fault layer shrinks the stream pool (disk degradation) or revokes
grants, something has to give.  Without a policy the server just drops the
sessions whose streams vanish; the :class:`DegradationManager` instead sheds
load in a configurable order, least painful first:

1. ``shed_vcr`` — revoke phase-1 VCR streams and phase-2 miss holds.  Those
   viewers degrade (the VCR op is denied, the resume becomes a miss/stall)
   but their sessions survive.
2. ``widen_restart`` — reconfigure each movie to one fewer partition
   (``n-1``), widening the restart interval ``l/n`` and the gap between
   partitions, the maximum wait ``w = (l-B)/n``.  This lowers
   *future* stream demand; streams already live run to their natural end.
3. ``collapse_partition`` — collapse the coldest partitions (oldest
   restarts, nearest the end of the movie, hence serving the fewest future
   resumes) to free playback streams immediately.

Each policy engagement bumps the degradation *level* (its 1-based position
in the engaged order) and emits a ``degradation_entered`` trace event; when
the injector reports that every transient fault has recovered, the manager
restores the baseline allocations and unwinds the levels with
``degradation_exited`` events, deepest first.
"""

from __future__ import annotations

from repro.core.parameters import SystemConfiguration
from repro.exceptions import SimulationError
from repro.vod.streams import StreamPurpose

__all__ = ["DEFAULT_POLICIES", "DegradationManager"]

#: The default shedding order described in the module docstring.
DEFAULT_POLICIES: tuple[str, ...] = (
    "shed_vcr",
    "widen_restart",
    "collapse_partition",
)


class DegradationManager:
    """Sheds load in policy order; restores the baseline on recovery."""

    def __init__(
        self,
        env,
        streams,
        services,
        reconfigure=None,
        policies: tuple[str, ...] = DEFAULT_POLICIES,
        metrics=None,
        tracer=None,
    ) -> None:
        unknown = set(policies) - set(DEFAULT_POLICIES)
        if unknown:
            raise SimulationError(
                f"unknown degradation policies {sorted(unknown)} "
                f"(known: {list(DEFAULT_POLICIES)})"
            )
        self._env = env
        self._streams = streams
        self._services = tuple(services)
        # reconfigure(movie_id, config) — typically VODServer.reconfigure_movie
        # so the buffer books move with the service; None disables widening.
        self._reconfigure = reconfigure
        self._policies = tuple(policies)
        self._metrics = metrics
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._engaged: list[str] = []
        self._baseline: dict[int, SystemConfiguration] = {}
        self.sessions_degraded = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """Current degradation depth (0 = healthy)."""
        return len(self._engaged)

    @property
    def engaged_policies(self) -> tuple[str, ...]:
        """The policies currently holding the system degraded, in order."""
        return tuple(self._engaged)

    # ------------------------------------------------------------------
    # Hooks the viewer path uses.
    # ------------------------------------------------------------------
    def session_degraded(self) -> None:
        """A viewer survived a revocation by degrading instead of dropping."""
        self.sessions_degraded += 1
        if self._metrics is not None:
            self._metrics.counter("degradation.sessions_degraded").increment()

    # ------------------------------------------------------------------
    # Hooks the injector drives.
    # ------------------------------------------------------------------
    def on_pressure(self) -> None:
        """Capacity shrank: shed in policy order until the books balance."""
        for policy in self._policies:
            overcommit = self._streams.in_use - self._streams.capacity
            if overcommit <= 0:
                return
            if policy == "shed_vcr":
                self._shed_vcr(overcommit)
            elif policy == "widen_restart":
                self._widen_restart()
            elif policy == "collapse_partition":
                self._collapse_coldest(
                    self._streams.in_use - self._streams.capacity
                )

    def on_revocation(self, victims) -> None:
        """Grants were revoked out from under their holders."""
        if victims and any(
            grant.purpose is StreamPurpose.PLAYBACK for grant in victims
        ):
            # Playback revocations already collapsed partitions; record the
            # shedding level so the trace shows the degraded interval.
            self._engage("collapse_partition")

    def shed_partitions(self, count: int) -> int:
        """Buffer pressure: collapse the ``count`` coldest partitions."""
        return self._collapse_coldest(count)

    def shed_load(self, count: int) -> int:
        """SLO-armed shedding: revoke up to ``count`` VCR/miss-hold streams.

        Unlike :meth:`on_pressure` this does not require the books to be
        overcommitted — a burn-rate page means the service is too slow or
        too deny-happy *within* capacity, and freeing interaction streams is
        the gentlest lever (the victims degrade back into their batch
        rather than dropping).  Returns the number of streams actually
        revoked; engages the ``shed_vcr`` level when any were.
        """
        if count <= 0:
            return 0
        victims = self._streams.revoke(
            count, order=(StreamPurpose.VCR, StreamPurpose.MISS_HOLD)
        )
        if victims:
            self._engage("shed_vcr")
        return len(victims)

    def on_recovery(self) -> None:
        """Every transient fault recovered: restore and unwind the levels."""
        for movie_id, config in sorted(self._baseline.items()):
            if self._reconfigure is not None:
                self._reconfigure(movie_id, config)
        self._baseline.clear()
        while self._engaged:
            level = len(self._engaged)
            self._engaged.pop()
            if self._metrics is not None:
                self._metrics.counter("degradation.exited").increment()
            if self._tracer is not None:
                self._tracer.emit("degradation_exited", self._env.now, level=level)

    # ------------------------------------------------------------------
    # Policies.
    # ------------------------------------------------------------------
    def _engage(self, policy: str) -> None:
        if policy in self._engaged:
            return
        self._engaged.append(policy)
        if self._metrics is not None:
            self._metrics.counter("degradation.entered").increment()
            self._metrics.counter(f"degradation.entered.{policy}").increment()
        if self._tracer is not None:
            self._tracer.emit(
                "degradation_entered",
                self._env.now,
                level=len(self._engaged),
                policy=policy,
            )

    def _shed_vcr(self, count: int) -> None:
        self.shed_load(count)

    def _widen_restart(self) -> None:
        widened = False
        for service in sorted(self._services, key=lambda s: s.movie.movie_id):
            config = service.config
            if config.num_partitions <= 1:
                continue
            movie_id = service.movie.movie_id
            self._baseline.setdefault(movie_id, config)
            if self._reconfigure is not None:
                self._reconfigure(
                    movie_id, config.with_partitions(config.num_partitions - 1)
                )
                widened = True
        if widened:
            self._engage("widen_restart")

    def _collapse_coldest(self, count: int) -> int:
        """Collapse up to ``count`` partitions, oldest restart first."""
        if count <= 0:
            return 0
        candidates = [
            (stream, service)
            for service in self._services
            for stream in service.live_streams
        ]
        candidates.sort(
            key=lambda pair: (pair[0].start_time, pair[1].movie.movie_id)
        )
        collapsed = 0
        for stream, service in candidates[:count]:
            service.collapse(stream)
            collapsed += 1
        if collapsed:
            self._engage("collapse_partition")
        return collapsed
