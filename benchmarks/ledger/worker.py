"""The in-process workloads, run in a fresh process per measurement.

Usage::

    python3 worker.py WORKLOAD SEED SECONDS TRACE RESULT_JSON

The worker imports the program and builds what an operation needs, prints
``ready`` (the parent times set-up up to that line), then runs the
workload's operations in rounds — example1's plan, sweep and validate
phases, replay-vcr's whole replay — until the next one would end after
``SECONDS``, and writes one JSON document with every operation's timings,
counters and check results.  A ``speed.Sampler`` runs from the start: each
operation carries the reference slices taken during it, and its times
exclude the slices'.  ``SECONDS`` of 0 is a set-up probe: after ``ready``
the worker prints the slices taken while it set up, and exits.  With
``TRACE`` 1 the rounds alternate untraced and traced, so the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import gc
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import speed  # noqa: E402
from spans import Tracer  # noqa: E402

#: The Example-1 stream budget (pure batching needs 1230 streams).
STREAM_BUDGET = 1230
#: Validation run of the Example-1 plan on the simulated server.
VALIDATE_ARRIVALS_PER_MINUTE = 1.0
VALIDATE_HORIZON = 900.0
VALIDATE_WARMUP = 300.0


def _clock():
    return time.perf_counter(), time.process_time()


# ----------------------------------------------------------------------
# example1: plan -> sweep -> validate, caches reset before each phase.
# ----------------------------------------------------------------------
class Example1:
    #: One round: each phase is an operation of its own, timed alone, so a
    #: stall of the machine spoils one phase sample rather than a round.
    OPS = ("plan", "sweep", "validate")

    def __init__(self, seed: int) -> None:
        from repro.core.vcrop import VCROperation
        from repro.distributions.truncated import clear_truncation_cache
        from repro.experiments.example1 import paper_example1_specs
        from repro.experiments.figure8 import run_figure8
        from repro.parallel.executor import reset_worker_cache
        from repro.sizing.planner import SystemSizer
        from repro.sizing.reservation import VCRLoadModel
        from repro.vod.buffer import BufferPool
        from repro.vod.movie import Movie, MovieCatalog
        from repro.vod.server import ServerWorkload, VODServer
        from repro.vod.vcr import VCRBehavior

        self.seed = seed
        self.specs = paper_example1_specs()
        self._reset = lambda: (reset_worker_cache(), clear_truncation_cache())
        self._sizer = SystemSizer
        self._load_model = VCRLoadModel
        self._figure8 = run_figure8
        self._buffer_pool = BufferPool
        self._workload = ServerWorkload
        self._server = VODServer
        movies = [
            Movie(index, spec.name, spec.length, popularity=1.0 / len(self.specs))
            for index, spec in enumerate(self.specs)
        ]
        self.catalog = MovieCatalog(movies, popular_count=len(movies))
        # The simulated viewers behave like the first movie's spec, as in
        # ``repro-vod simulate``.
        first = self.specs[0]
        self.behavior = VCRBehavior(
            mix=first.mix, durations={op: first.durations for op in VCROperation}
        )
        self.ids = {spec.name: index for index, spec in enumerate(self.specs)}
        self.report = None
        self.reserve = 0

    def plan(self) -> dict:
        sizer = self._sizer(self.specs)
        report = sizer.solve(stream_budget=STREAM_BUDGET)
        allocation = report.result.as_configuration_map(self.ids)
        share = VALIDATE_ARRIVALS_PER_MINUTE / len(self.specs)
        reserve = sum(
            self._load_model(
                sizer.feasible_sets[index].model, allocation[index], viewer_arrival_rate=share
            ).plan(blocking_target=0.01).reserve_streams
            for index in range(len(self.specs))
        )
        self.report, self.reserve = report, reserve
        return {
            "allocation": {
                a.spec.name: [a.num_streams, a.buffer_minutes, a.hit_probability]
                for a in report.result.allocations
            },
            "total_streams": report.result.total_streams,
            "total_buffer": report.result.total_buffer_minutes,
            "reserve": reserve,
        }

    def sweep(self) -> dict:
        figure = self._figure8(fast=False, workers=1)
        return {"figure8_digest": hashlib.sha256(figure.render().encode()).hexdigest()}

    def validate(self) -> dict:
        """Simulate the latest plan (every plan of a run is the same)."""
        result = self.report.result
        predicted = {self.ids[a.spec.name]: a.hit_probability for a in result.allocations}
        server = self._server(
            self.catalog,
            result.as_configuration_map(self.ids),
            num_streams=result.total_streams + self.reserve,
            buffer_pool=self._buffer_pool.for_minutes(result.total_buffer_minutes + 1.0),
            behavior=self.behavior,
            workload=self._workload(
                arrival_rate=VALIDATE_ARRIVALS_PER_MINUTE,
                horizon=VALIDATE_HORIZON,
                warmup=VALIDATE_WARMUP,
                seed=self.seed,
            ),
            predicted_hits=predicted,
        )
        outcome = server.run()
        return {
            "resume_hits": outcome.resume_hits,
            "resume_misses": outcome.resume_misses,
            "viewers": outcome.viewers_started,
            "planned_hits": sorted(predicted.values()),
        }

    def op(self, phase: str) -> dict:
        """One timed phase, caches reset first so every phase starts cold."""
        self._reset()
        wall0, cpu0 = _clock()
        out = getattr(self, phase)()
        wall1, cpu1 = _clock()
        return {"wall_s": wall1 - wall0, "cpu_s": cpu1 - cpu0, "ops": 1, "errors": 0, **out}


# ----------------------------------------------------------------------
# replay-vcr: the serve-vcr schedule through the engine on a virtual clock.
# ----------------------------------------------------------------------
class ReplayVCR:
    OPS = ("replay",)

    def __init__(self, seed: int, tracer: Tracer, sampler: speed.Sampler) -> None:
        import schedule
        from repro.obs.catalog import catalog_registry
        from repro.obs.slo import SLOConfig
        from repro.runtime.controller import CapacityController, ControllerPolicy, MovieSlot
        from repro.service import AdmissionEngine, VirtualClock

        self.tracer = tracer
        self.sampler = sampler
        self._schedule = schedule
        self.catalog, self.plan, self.capacity, self.reserve = schedule.deployment()
        self._registry = catalog_registry
        self._slo = SLOConfig
        self._engine = AdmissionEngine
        self._clock = VirtualClock
        self._controller = CapacityController
        self._policy = ControllerPolicy
        self._slot = MovieSlot
        self.steps = None
        self.seed = seed

    def load_inputs(self) -> None:
        schedule = self._schedule
        self.steps = schedule.workload_schedule(self.catalog, with_vcr=True, seed=self.seed)
        self.requests = [schedule.to_request(s, i + 1) for i, s in enumerate(self.steps)]

    def build(self, log: io.StringIO):
        """The engine exactly as ``repro-vod serve`` builds it."""
        schedule = self._schedule
        engine = self._engine(
            self.catalog,
            self.plan,
            self.capacity,
            reserve_streams=self.reserve,
            clock=self._clock(),
            registry=self._registry(),
            decision_log=log,
            tick_minutes=schedule.TICK_MINUTES,
            slo=self._slo(latency_threshold_seconds=0.5),
        )
        slots = [
            self._slot(
                movie_id=movie.movie_id,
                name=movie.title,
                length=movie.length,
                max_wait=min(schedule.WAIT_MINUTES, movie.length),
                p_star=0.5,
            )
            for movie in self.catalog.popular
        ]
        policy = self._policy(
            stream_budget=max(1, self.capacity - self.reserve),
            cooldown_minutes=schedule.TICK_MINUTES,
        )
        engine.attach_controller(self._controller(slots, engine.hub, policy=policy))
        return engine

    def op(self, phase: str) -> dict:
        from repro.vod.streams import StreamPurpose

        clock = time.perf_counter
        wall0, cpu0 = _clock()
        log = io.StringIO()
        engine = self.build(log)
        advance = engine._clock.advance_to
        tracer = self.tracer
        sampler = self.sampler
        open_sessions: set[int] = set()
        latencies: list[float] = []
        decisions: dict[str, int] = {}
        skipped = 0
        for step, request in zip(self.steps, self.requests):
            if step.kind != "session_start" and step.session not in open_sessions:
                skipped += 1
                continue
            advance(max(engine.now, step.at))
            tracer.rid = request.request_id
            sampled = sampler.wall_s
            started = clock()
            response = engine.handle(request)
            # A reference slice taken inside the call is not its latency.
            latencies.append((clock() - started - (sampler.wall_s - sampled)) * 1e3)
            decision = response.decision
            decisions[decision] = decisions.get(decision, 0) + 1
            if step.kind == "session_start":
                if decision in ("admit", "batch"):
                    open_sessions.add(step.session)
            elif step.kind == "session_end":
                open_sessions.discard(step.session)
        tracer.rid = None
        engine.drain()
        wall1, cpu1 = _clock()
        account = engine.account
        balanced = len(engine.registry) == 0 and account.in_use == account.held_for(
            StreamPurpose.PLAYBACK
        )
        return {
            "wall_s": wall1 - wall0,
            "cpu_s": cpu1 - cpu0,
            "ops": len(latencies),
            "errors": decisions.get("error", 0),
            "latency_ms": latencies,
            "decisions": decisions,
            "skipped": skipped,
            "stats": vars(engine.stats),
            "ticks": engine.control_loop.ticks_run,
            "balanced": balanced,
            "log_digest": hashlib.sha256(log.getvalue().encode()).hexdigest(),
        }


def main(argv: list[str]) -> int:
    sampler = speed.Sampler()
    sampler.start()
    try:
        return run(argv, sampler)
    finally:
        # Its timer signal would end the process once the handler is gone.
        sampler.stop()


def run(argv: list[str], sampler: speed.Sampler) -> int:
    workload, seed, seconds, traced, result_path = argv
    seed, seconds, traced = int(seed), float(seconds), traced == "1"
    from repro.obs.log import configure

    configure(quiet=2)  # the SLO monitor logs every shed at WARNING
    tracer = Tracer()
    tracer.enabled = False
    import layers

    # Captured objects stay alive until read, so only a traced run keeps them.
    captured = layers.capture() if traced else layers.Captured()
    if traced:
        layers.install(tracer)
    if workload == "example1":
        runner = Example1(seed)
    else:
        runner = ReplayVCR(seed, tracer, sampler)
    print("ready", flush=True)
    if seconds <= 0.0:
        # A set-up probe: the slices taken while setting up scale its time.
        print(json.dumps(sampler.since()), flush=True)
        return 0
    if workload != "example1":
        runner.load_inputs()

    ops: list[dict] = []
    cache = {"hits": 0, "misses": 0}
    begun = time.perf_counter()
    for index in itertools.count():
        rounds, position = divmod(index, len(runner.OPS))
        phase = runner.OPS[position]
        trace_this = traced and rounds % 2 == 1
        # Stop before an operation that would end past the deadline, once
        # one whole round (and in a traced run one traced round) is done.
        # A traced round runs whole or not at all: its counters are per round.
        if rounds >= (2 if traced else 1) and (position == 0 or not trace_this):
            remaining = runner.OPS if trace_this else (phase,)
            typical = sum(
                statistics.median(o["wall_s"] for o in ops if o["phase"] == p)
                for p in remaining
            )
            if time.perf_counter() - begun + typical > seconds:
                break
        tracer.enabled = trace_this
        root = tracer.open("job") if trace_this else None
        mark = sampler.mark()
        op = runner.op(phase)
        if root is not None:
            tracer.close(root)
        tracer.enabled = False
        sampled = sampler.since(mark)
        op["cpu_s"] -= sampled["cpu_s"]
        op["wall_s"] -= sampled["wall_s"]
        op["slices"] = sampled["timings"]
        op["phase"] = phase
        op["traced"] = trace_this
        ops.append(op)
        if trace_this:
            cache["hits"] += sum(c.evaluation_stats.hits for c in captured.caches)
            cache["misses"] += sum(c.evaluation_stats.misses for c in captured.caches)
        for kept in (captured.caches, captured.controllers, captured.engines):
            kept.clear()
        # A finished engine is a web of reference cycles; collecting it here,
        # outside the timed operation, keeps peak RSS the peak of one
        # operation instead of a function of how many fit and when the
        # collector ran.
        gc.collect()
        if index == len(runner.OPS) - 1:
            # Peak RSS as of the first round, which every run completes: a
            # second Figure-8 sweep raises the peak by ~5%, and how many
            # sweeps fit in a run depends on the machine's speed.
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ops": ops,
        "maxrss_kb": maxrss_kb,
        "cache": cache,
    }
    if traced:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
