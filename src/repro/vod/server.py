"""The assembled VOD server simulation.

Wires catalog, allocation, stream pool, buffer pool, admission control,
movie services and viewer processes into one runnable system, and reduces a
run to a :class:`ServerMetricsReport` — the quantities the end-to-end
benchmarks compare across allocation policies:

* resume hit rate (the paper's ``P(hit)`` realised under contention);
* VCR denial rate (phase-1 starvation);
* time-averaged streams pinned by phase-2 miss holds;
* unpopular-title rejection rate (the capacity the data-sharing techniques
  free up, Section 5's motivation);
* starved restarts (an allocation overcommitting playback streams).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Mapping

from repro.core.parameters import SystemConfiguration
from repro.exceptions import SimulationError
from repro.obs.adapters import TracingObserver
from repro.obs.log import get_logger
from repro.obs.spans import span
from repro.sim.engine import Environment, Event
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RandomStreams
from repro.vod.admission import AdmissionController
from repro.vod.buffer import BufferPool
from repro.vod.movie import MovieCatalog
from repro.vod.observers import notify_observers
from repro.vod.piggyback import PiggybackPolicy
from repro.vod.streams import StreamPool, StreamPurpose
from repro.vod.vcr import VCRBehavior
from repro.vod.viewer import PopularViewer

__all__ = ["ServerWorkload", "ServerMetricsReport", "VODServer"]

_log = get_logger("vod.server")


@dataclass(frozen=True)
class ServerWorkload:
    """Arrival process and run control for a server experiment."""

    arrival_rate: float            # total request arrivals per minute
    horizon: float = 1200.0
    warmup: float = 240.0
    seed: int = 424242
    mean_patience: float | None = None  # queued viewers renege after ~this (None: infinite patience)

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise SimulationError(f"arrival_rate must be positive, got {self.arrival_rate}")
        if self.warmup < 0 or self.horizon <= self.warmup:
            raise SimulationError(
                f"need 0 <= warmup < horizon, got warmup={self.warmup}, "
                f"horizon={self.horizon}"
            )
        if self.mean_patience is not None and self.mean_patience <= 0:
            raise SimulationError(
                f"mean_patience must be positive or None, got {self.mean_patience}"
            )


@dataclass(frozen=True)
class ServerMetricsReport:
    """Headline outcomes of one server run.

    ``hit_rate`` counts resumes only: ``resume_hits / (resume_hits +
    resume_misses)``.  The model's P(hit) also counts an FF that reaches
    the end of the movie as a hit (Eq. 20); compare against it with
    :func:`repro.experiments.figure7.resume_counts` instead.
    """

    hit_rate: float
    resume_hits: int
    resume_misses: int
    vcr_blocked: int
    vcr_issued: int
    resume_stalled: int
    piggyback_merged: int
    piggyback_ran_to_end: int
    restarts_starved: int
    rejected_unpopular: int
    admitted_unpopular: int
    mean_streams_playback: float
    mean_streams_vcr: float
    mean_streams_miss_hold: float
    mean_streams_unpopular: float
    mean_streams_total: float
    viewers_started: int
    viewers_completed: int
    viewers_defected: int
    mean_wait_minutes: float
    # Fault-layer outcomes (all zero on a fault-free run).
    viewers_dropped: int = 0
    viewers_degraded: int = 0
    faults_injected: int = 0
    streams_revoked: int = 0
    partitions_collapsed: int = 0

    @property
    def session_drop_rate(self) -> float:
        """Fraction of started sessions lost to revocations."""
        return self.viewers_dropped / self.viewers_started if self.viewers_started else 0.0

    @property
    def vcr_denial_rate(self) -> float:
        """Fraction of issued VCR operations denied a stream."""
        total = self.vcr_issued
        return self.vcr_blocked / total if total else 0.0

    @property
    def unpopular_rejection_rate(self) -> float:
        """Fraction of long-tail requests rejected."""
        total = self.rejected_unpopular + self.admitted_unpopular
        return self.rejected_unpopular / total if total else 0.0

    def summary_lines(self) -> list[str]:
        """Human-readable report block used by examples and the CLI."""
        return [
            f"resume hit rate          : {self.hit_rate:.4f} "
            f"({self.resume_hits} hits / {self.resume_misses} misses)",
            f"VCR operations issued    : {self.vcr_issued} "
            f"(denied: {self.vcr_blocked}, denial rate {self.vcr_denial_rate:.4f})",
            f"resume stalls            : {self.resume_stalled}",
            f"piggyback merges         : {self.piggyback_merged} "
            f"(ran to end: {self.piggyback_ran_to_end})",
            f"starved restarts         : {self.restarts_starved}",
            f"tail titles              : admitted {self.admitted_unpopular}, "
            f"rejected {self.rejected_unpopular} "
            f"(rejection rate {self.unpopular_rejection_rate:.4f})",
            f"mean streams in use      : total {self.mean_streams_total:.1f} "
            f"(playback {self.mean_streams_playback:.1f}, vcr {self.mean_streams_vcr:.1f}, "
            f"miss-hold {self.mean_streams_miss_hold:.1f}, "
            f"tail {self.mean_streams_unpopular:.1f})",
            f"viewers                  : started {self.viewers_started}, "
            f"completed {self.viewers_completed}, defected {self.viewers_defected}, "
            f"mean batching wait {self.mean_wait_minutes:.2f} min",
            f"faults                   : injected {self.faults_injected}, "
            f"streams revoked {self.streams_revoked}, "
            f"partitions collapsed {self.partitions_collapsed}, "
            f"sessions dropped {self.viewers_dropped} "
            f"(drop rate {self.session_drop_rate:.4f}), "
            f"degraded {self.viewers_degraded}",
        ]


class VODServer:
    """A complete simulated VOD server under a fixed resource allocation."""

    def __init__(
        self,
        catalog: MovieCatalog,
        allocation: Mapping[int, SystemConfiguration],
        num_streams: int,
        buffer_pool: BufferPool,
        behavior: VCRBehavior | Mapping[int, VCRBehavior],
        workload: ServerWorkload,
        observers: tuple = (),
        gate=None,
        tracer=None,
        predicted_hits: Mapping[int, float] | None = None,
    ) -> None:
        self._catalog = catalog
        self._allocation = dict(allocation)
        if isinstance(behavior, VCRBehavior):
            self._behaviors = {m.movie_id: behavior for m in catalog.popular}
        else:
            self._behaviors = dict(behavior)
            missing = [
                m.movie_id for m in catalog.popular if m.movie_id not in self._behaviors
            ]
            if missing:
                raise SimulationError(
                    f"per-movie behaviours missing for popular movie ids {missing}"
                )
        self._workload = workload
        self._piggyback = PiggybackPolicy()
        # Observers see session/VCR/resume events (duck-typed: any subset of
        # the hooks documented in repro.vod.observers); the gate may veto
        # admissions before routing.  When tracing is on, a TracingObserver
        # joins them and the pool/services emit resource events; when off,
        # nothing is wired and the run is code-identical to an untraced one.
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        self._predicted_hits = dict(predicted_hits or {})
        observers = tuple(observers)
        if self._tracer is not None:
            observers = observers + (TracingObserver(self._tracer),)
        self._observers = observers
        self._gate = gate
        self._started = False
        self._degradation = None
        self._injector = None
        self._env = Environment()
        self._metrics = MetricsRegistry()
        self._streams = StreamPool(
            self._env, num_streams, self._metrics, tracer=self._tracer
        )
        self._buffers = buffer_pool
        self._admission = AdmissionController(
            self._env,
            catalog,
            self._allocation,
            self._streams,
            self._buffers,
            self._metrics,
            tracer=self._tracer,
        )

    @property
    def metrics(self) -> MetricsRegistry:
        """The run's metrics registry."""
        return self._metrics

    @property
    def env(self) -> Environment:
        """The underlying simulation environment."""
        return self._env

    @property
    def stream_pool(self) -> StreamPool:
        """The shared I/O stream pool (fault-layer wiring point)."""
        return self._streams

    @property
    def buffer_pool(self) -> BufferPool:
        """The buffer pool (fault-layer wiring point)."""
        return self._buffers

    @property
    def admission(self) -> AdmissionController:
        """The admission controller owning the movie services."""
        return self._admission

    @property
    def degradation(self):
        """The attached DegradationManager, or None."""
        return self._degradation

    # ------------------------------------------------------------------
    # Fault layer.
    # ------------------------------------------------------------------
    def attach_fault_layer(
        self,
        plan,
        degrade: bool = True,
        policies: tuple[str, ...] | None = None,
        telemetry=None,
    ):
        """Wire a :class:`~repro.faults.plan.FaultPlan` into this server.

        With ``degrade=True`` a :class:`~repro.vod.degradation.DegradationManager`
        sheds load gracefully (viewers degrade instead of dropping); with
        ``degrade=False`` the faults simply land — the chaos experiment's
        no-policy baseline.  Must be called before :meth:`start`.  Returns
        the :class:`~repro.faults.injector.FaultInjector`.
        """
        # Local imports keep repro.vod importable without the faults package
        # loaded (and avoid a cycle: repro.faults reads vod modules too).
        from repro.faults.injector import FaultInjector
        from repro.vod.degradation import DEFAULT_POLICIES, DegradationManager

        if self._started:
            raise SimulationError("attach_fault_layer() after start()")
        if self._injector is not None:
            raise SimulationError("a fault layer is already attached")
        if degrade:
            self._degradation = DegradationManager(
                self._env,
                self._streams,
                self._admission.services,
                reconfigure=self.reconfigure_movie,
                policies=policies if policies is not None else DEFAULT_POLICIES,
                metrics=self._metrics,
                tracer=self._tracer,
            )
        self._injector = FaultInjector(
            self._env,
            plan,
            streams=self._streams,
            buffers=self._buffers,
            services=self._admission.services,
            telemetry=telemetry,
            manager=self._degradation,
            metrics=self._metrics,
            tracer=self._tracer,
        )
        return self._injector

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(self) -> ServerMetricsReport:
        """Execute the workload and reduce to a report."""
        _log.info(
            "run: %d popular movies, %d streams, horizon %g min",
            len(self._catalog.popular),
            self._streams.capacity,
            self._workload.horizon,
        )
        with span("server.run"):
            self.start()
            # Warm up, reset the books, then measure.
            self.step(self._workload.warmup)
            self._metrics.reset_all(self._env.now)
            self.step(self._workload.horizon)
            report = self.report()
        if self._tracer is not None:
            self._tracer.emit("run_end", self._env.now, label="vod-server")
            self._tracer.flush()
        _log.info(
            "run done: hit_rate=%.4f, %d viewers started",
            report.hit_rate,
            report.viewers_started,
        )
        return report

    def start(self) -> None:
        """Launch the restart schedules and the arrival process (idempotent).

        Separated from :meth:`run` so a control plane can drive the clock in
        ticks with :meth:`step` and reconfigure between them.
        """
        if self._started:
            return
        self._started = True
        if self._tracer is not None:
            self._tracer.emit("run_start", self._env.now, label="vod-server")
            for movie in self._catalog.popular:
                config = self._allocation[movie.movie_id]
                self._tracer.emit(
                    "movie_config",
                    self._env.now,
                    movie=movie.movie_id,
                    name=movie.title,
                    length=movie.length,
                    streams=config.num_partitions,
                    buffer_minutes=config.buffer_minutes,
                    predicted_hit=self._predicted_hits.get(movie.movie_id),
                )
        streams = RandomStreams(self._workload.seed)
        self._admission.start()
        if self._injector is not None:
            self._injector.start()
        self._env.process(self._arrival_process(streams), name="arrivals")

    def step(self, until: float) -> float:
        """Advance the simulation clock to ``until``; returns the new now."""
        if not self._started:
            raise SimulationError("step() before start()")
        if until > self._env.now:
            self._env.run(until=until)
        return self._env.now

    def report(self) -> ServerMetricsReport:
        """Reduce the metrics accumulated since the last reset to a report."""
        return self._report()

    # ------------------------------------------------------------------
    # Live reconfiguration (driven by the runtime actuator).
    # ------------------------------------------------------------------
    def current_allocation(self) -> dict[int, SystemConfiguration]:
        """The deployed ``{movie_id: configuration}`` map."""
        return self._admission.current_allocation()

    def set_behavior(self, movie_id: int, behavior: VCRBehavior) -> None:
        """Swap the ground-truth behaviour new sessions of one movie draw from.

        This is the experiment-side lever for injecting a mid-run behaviour
        shift (viewers already in flight keep their old behaviour); the
        control plane only ever sees its effects through telemetry.
        """
        if movie_id not in self._behaviors:
            raise SimulationError(f"movie {movie_id} has no behaviour to replace")
        self._behaviors[movie_id] = behavior

    def reconfigure_movie(self, movie_id: int, config: SystemConfiguration) -> None:
        """Adopt a new ``(B, n)`` for one popular movie.

        Buffer deltas move through the pool transactionally and the new
        restart spacing is picked up at the next restart boundary — see
        :meth:`repro.vod.admission.AdmissionController.reconfigure_movie`.
        Raises :class:`~repro.exceptions.ResourceError` when a buffer grow
        does not fit.
        """
        self._admission.reconfigure_movie(movie_id, config)
        self._allocation[movie_id] = config

    def _arrival_process(self, streams: RandomStreams) -> Generator[Event, object, None]:
        env = self._env
        rng_arrivals = streams.stream("arrivals")
        rng_movies = streams.stream("movie-choice")
        viewer_seq = 0
        while True:
            yield env.timeout(float(rng_arrivals.exponential(1.0 / self._workload.arrival_rate)))
            movie = self._catalog.sample(rng_movies)
            if self._gate is not None:
                verdict = self._gate.screen(movie, self._streams, env.now)
                if not verdict.allowed:
                    self._metrics.counter("gate.denied").increment()
                    self._metrics.counter(f"gate.denied.{movie.movie_id}").increment()
                    continue
            decision = self._admission.admit(movie)
            if not decision.admitted:
                continue
            viewer_seq += 1
            if decision.service is not None:
                notify_observers(
                    self._observers,
                    "on_session_start",
                    movie.movie_id,
                    movie.length,
                    now=env.now,
                )
                viewer = PopularViewer(
                    env,
                    decision.service,
                    self._behaviors[movie.movie_id],
                    self._streams,
                    self._piggyback,
                    self._metrics,
                    streams.stream("viewer"),
                    warmup=self._workload.warmup,
                    mean_patience=self._workload.mean_patience,
                    observers=self._observers,
                    degradation=self._degradation,
                )
                env.process(viewer.process(), name=f"viewer-{viewer_seq}")
            else:
                env.process(
                    self._tail_viewer(decision.dedicated_grant, movie.length),
                    name=f"tail-viewer-{viewer_seq}",
                )

    def _tail_viewer(self, grant, length: float) -> Generator[Event, object, None]:
        """A long-tail session: dedicated stream for the whole movie."""
        yield self._env.timeout(length)
        # A revoked dedicated stream already left the pool (the tail session
        # was dropped mid-movie; no policy can save a session whose only
        # stream is gone).
        if not grant.revoked:
            self._streams.release(grant)

    # ------------------------------------------------------------------
    # Reduction.
    # ------------------------------------------------------------------
    def _report(self) -> ServerMetricsReport:
        m = self._metrics
        now = self._env.now
        hits = m.counter_value("resume.hit")
        misses = m.counter_value("resume.miss")
        issued = sum(
            m.counter_value(f"vcr.issued.{suffix}") for suffix in ("FF", "RW", "PAU")
        )
        wait_stat = m.tally("wait_minutes")
        return ServerMetricsReport(
            hit_rate=hits / (hits + misses) if hits + misses else math.nan,
            resume_hits=hits,
            resume_misses=misses,
            vcr_blocked=m.counter_value("vcr.blocked"),
            vcr_issued=issued,
            resume_stalled=m.counter_value("resume.stalled"),
            piggyback_merged=m.counter_value("piggyback.merged"),
            piggyback_ran_to_end=m.counter_value("piggyback.ran_to_end"),
            restarts_starved=m.counter_value("restarts_starved"),
            rejected_unpopular=m.counter_value("rejected_unpopular"),
            admitted_unpopular=m.counter_value("admitted_unpopular"),
            mean_streams_playback=m.time_weighted(
                f"streams.{StreamPurpose.PLAYBACK.value}", now=now
            ).mean(now),
            mean_streams_vcr=m.time_weighted(
                f"streams.{StreamPurpose.VCR.value}", now=now
            ).mean(now),
            mean_streams_miss_hold=m.time_weighted(
                f"streams.{StreamPurpose.MISS_HOLD.value}", now=now
            ).mean(now),
            mean_streams_unpopular=m.time_weighted(
                f"streams.{StreamPurpose.UNPOPULAR.value}", now=now
            ).mean(now),
            mean_streams_total=m.time_weighted("streams.total", now=now).mean(now),
            viewers_started=m.counter_value("viewers.started"),
            viewers_completed=m.counter_value("viewers.completed"),
            viewers_defected=m.counter_value("viewers.defected"),
            mean_wait_minutes=wait_stat.mean if wait_stat.count else 0.0,
            viewers_dropped=m.counter_value("viewers.dropped"),
            viewers_degraded=m.counter_value("viewers.degraded"),
            faults_injected=m.counter_value("faults.injected"),
            streams_revoked=m.counter_value("streams.revoked"),
            partitions_collapsed=m.counter_value("partitions.collapsed"),
        )
