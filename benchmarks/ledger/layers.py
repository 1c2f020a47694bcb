"""Which public functions the traced run wraps, per layer.

Each layer is named by its module.  :func:`install` patches the names in
every module that looks them up, so a call is seen whichever way the
program reaches it; :func:`capture` keeps the engines, controllers and
caches the program builds so their counters can be read after the run.
"""

from __future__ import annotations

import math

from spans import END, NAME, RID, START, Tracer, self_times

#: Layers in pipeline order: model side, then service side.
LAYERS = (
    "distributions",
    "core.hitsets",
    "core.hitmodel",
    "sizing",
    "sizing.reservation",
    "sim",
    "vod.server",
    "runtime",
    "runtime.refit",
    "service.engine",
    "service.gate",
    "slo",
    "service.protocol",
    "service.server",
    "event_loop.idle",
)

#: Engine decision kinds reported as ``service.decisions.<kind>``.
DECISION_KINDS = ("admit", "batch", "reject", "deny", "hit", "miss", "closed")


class Captured:
    """Program objects the wrappers saw constructed (read after the run)."""

    def __init__(self) -> None:
        self.caches: list = []
        self.controllers: list = []
        self.engines: list = []


def _keep(cls, into: list) -> None:
    original = cls.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        into.append(self)

    cls.__init__ = init


def _len_arg(position: int, counter: str):
    return lambda args, kwargs, result: {counter: len(args[position])}


def capture() -> Captured:
    """Keep every engine, controller and evaluation cache the program builds."""
    import repro.runtime.controller as controller
    import repro.runtime.modelcache as modelcache
    import repro.service.engine as engine

    captured = Captured()
    _keep(modelcache.ModelEvaluationCache, captured.caches)
    _keep(controller.CapacityController, captured.controllers)
    _keep(engine.AdmissionEngine, captured.engines)
    return captured


def install(tracer: Tracer) -> None:
    """Patch every layer's public entry points with span wrappers."""
    import repro.core.hitmodel as hitmodel
    import repro.core.hitsets as hitsets
    import repro.distributions  # noqa: F401 - registers every distribution
    import repro.obs.slo as slo
    import repro.runtime.admission as admission
    import repro.runtime.circuit as circuit
    import repro.runtime.controller as controller
    import repro.runtime.modelcache as modelcache
    import repro.runtime.refit as refit
    import repro.service.engine as engine
    import repro.service.server as server
    import repro.sim.engine as sim
    import repro.sizing.feasible as feasible
    import repro.sizing.optimizer as optimizer
    import repro.sizing.planner as planner
    import repro.sizing.reservation as reservation
    import repro.vod.degradation as degradation
    import repro.vod.server as vod_server
    from repro.distributions.base import DurationDistribution

    # distributions: the batched CDF and the sampler of every family.
    families = [DurationDistribution]
    while families:
        cls = families.pop()
        families.extend(cls.__subclasses__())
        if "cdf_batch" in cls.__dict__:
            tracer.wrap(
                cls,
                "cdf_batch",
                "distributions",
                count=lambda a, k, r: {
                    "distributions.cdf_calls": 1,
                    "distributions.cdf_points": len(r),
                },
                group="distributions.cdf",
            )
        if "sample" in cls.__dict__:
            tracer.wrap(cls, "sample", "distributions", group="distributions.sample")

    # core.hitsets: the Eq.-(21) kernels, where hitmodel looks them up too.
    for module in (hitsets, hitmodel):
        tracer.wrap(
            module, "hit_probability", "core.hitsets",
            count=lambda a, k, r: {"core.hitsets.configs": 1},
            group="core.hitsets",
        )
        tracer.wrap(
            module, "hit_probability_batch", "core.hitsets",
            count=_len_arg(1, "core.hitsets.configs"),
            group="core.hitsets",
        )

    # core.hitmodel: model construction and the mixed P(hit) entry points.
    model = hitmodel.HitProbabilityModel
    tracer.wrap(
        model, "__init__", "core.hitmodel",
        count=lambda a, k, r: {"core.hitmodel.models_built": 1},
    )
    for name in ("hit_probability", "hit_probability_batch", "breakdown", "breakdown_batch"):
        tracer.wrap(model, name, "core.hitmodel")

    # sizing: frontier queries, evaluation of uncached points, the optimiser.
    sets = feasible.FeasibleSet
    tracer.wrap(
        sets, "point", "sizing",
        count=lambda a, k, r: {"sizing.points_requested": 1}, group="sizing.request",
    )
    tracer.wrap(
        sets, "points_batch", "sizing",
        count=lambda a, k, r: {"sizing.points_requested": len(r)}, group="sizing.request",
    )
    tracer.wrap(
        sets, "max_streams", "sizing", count=lambda a, k, r: {"sizing.max_streams_calls": 1}
    )
    for cls in (sets, modelcache.CachedFeasibleSet):
        tracer.wrap(
            cls, "_evaluate_missing", "sizing",
            count=_len_arg(1, "sizing.points_evaluated"), group="sizing.evaluate",
        )
    for module in (optimizer, planner):
        tracer.wrap(module, "optimize_allocation", "sizing")

    # sizing.reservation: the Erlang VCR-load model.
    for name in ("offered_load", "plan"):
        tracer.wrap(reservation.VCRLoadModel, name, "sizing.reservation")

    # sim + vod.server: the discrete-event validation run.
    tracer.wrap(sim.Environment, "run", "sim")
    tracer.count_calls(sim.Environment, "step", "sim.events")
    tracer.wrap(vod_server.VODServer, "run", "vod.server")

    # runtime: the guarded control tick, the re-plan inside it, the refit.
    tracer.wrap(
        circuit.GuardedControlLoop, "run_tick", "runtime",
        count=lambda a, k, r: {"runtime.ticks": 1},
    )
    tracer.count_calls(controller.CapacityController, "_solve", "runtime.replans")
    tracer.wrap(refit.IncrementalRefitter, "observe", "runtime.refit")

    # service: engine decision, gate, SLO bookkeeping, codec, front-end.
    tracer.wrap(engine.AdmissionEngine, "handle", "service.engine")
    tracer.wrap(admission.RuntimeAdmissionGate, "screen", "service.gate")
    tracer.wrap(
        slo.SLOMonitor, "record_decision", "slo",
        count=lambda a, k, r: {"slo.alerts": len(r)},
    )
    tracer.wrap(
        degradation.DegradationManager, "shed_load", "slo",
        count=lambda a, k, r: {"slo.shed_streams": r},
    )
    original_decode = server.decode_request

    def decode_request(text):
        request = original_decode(text)
        tracer.rid = request.request_id
        return request

    server.decode_request = decode_request
    tracer.wrap(server, "decode_request", "service.protocol")
    tracer.wrap(server, "encode_response", "service.protocol")
    tracer.wrap(server.AdmissionService, "_serve_line", "service.server")


def install_idle(tracer: Tracer) -> None:
    """Span the event loop's waits for I/O (server processes only)."""
    import selectors

    tracer.wrap(selectors.DefaultSelector, "select", "event_loop.idle")


# ----------------------------------------------------------------------
# Reduction to metrics.
# ----------------------------------------------------------------------
def nearest_rank(values, q: float) -> float:
    """The ``q``-quantile by nearest rank: rank ``ceil(q * N)``, 1-based."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(q * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def span_digest(spans: list, roots: tuple[str, ...]) -> dict:
    """Per-layer self seconds, per-call self-time samples and the root wall.

    ``roots`` names the harness spans that bound the measured work; their
    self time is the part no layer span covers.
    """
    selfs = self_times(spans)
    self_seconds: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    wall = 0.0
    for record, own in zip(spans, selfs):
        name = record[NAME]
        self_seconds[name] = self_seconds.get(name, 0.0) + own
        samples.setdefault(name, []).append(own)
        if name in roots:
            wall += record[END] - record[START]
    return {"self_s": self_seconds, "samples": samples, "wall_s": wall}


def server_times_by_rid(spans: list) -> dict:
    """Inclusive ``service.server`` span seconds per request id."""
    return {
        record[RID]: record[END] - record[START]
        for record in spans
        if record[NAME] == "service.server" and record[RID] is not None
    }


def tick_durations(spans: list) -> list[float]:
    """Inclusive seconds of every control tick."""
    return [r[END] - r[START] for r in spans if r[NAME] == "runtime"]
