"""Extension experiment: static plan vs the online control plane.

The paper sizes ``(B_i, n_i)`` once, offline, from statistics "obtained
while the movie is displayed" — and then trusts them.  This experiment asks
what that trust costs when the workload moves mid-run, and what the
:mod:`repro.runtime` control plane buys back:

* **static** — the offline allocation runs untouched, and admissions are the
  seed server's first-come-first-served policy: any free stream goes to
  whoever asks, including a long-tail title that pins it for 100 minutes;
* **adaptive** — the same server wires a :class:`~repro.runtime.telemetry.TelemetryHub`
  into its observer hooks, a :class:`~repro.runtime.controller.CapacityController`
  ticks in the background (drift-gated re-fit → re-plan → actuate), and a
  :class:`~repro.runtime.admission.RuntimeAdmissionGate` screens arrivals
  against the deployed plan plus the Erlang VCR reserve.

Mid-run the workload shifts: popularity mass migrates from the popular head
to the long tail, and the popular viewers' VCR mix turns pause-heavy with
much longer operations.  Under the static plan the tail sessions soak up the
shared pool, so batch restarts starve and phase-1 VCR requests are denied;
the control plane refuses exactly those tail admissions that would invade
the plan's streams and the reserve, keeping the promised service alive.

Post-shift report, both arms on the same trace (identical seeds/shift):

* ``vcr_denied_rate`` — denied-admission rate for phase-1 VCR service
  (lower is better);
* ``phase1_streams`` — time-averaged streams actually *held* by phase-1 VCR
  service (higher is better: a starved pool denies the operation outright,
  so static's phase-1 occupancy collapses along with its service);
* supporting columns: starved restarts, resume stalls, tail rejections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.hitmodel import VCRMix
from repro.distributions import ExponentialDuration, UniformDuration
from repro.experiments.reporting import ExperimentResult, Table
from repro.runtime.actuator import PlanActuator
from repro.runtime.admission import RuntimeAdmissionGate
from repro.runtime.controller import CapacityController, ControllerPolicy, MovieSlot
from repro.runtime.telemetry import TelemetryHub
from repro.sizing.feasible import MovieSizingSpec
from repro.sizing.planner import SystemSizer
from repro.sizing.reservation import VCRLoadModel, min_servers_for_blocking
from repro.vod.buffer import BufferPool
from repro.vod.movie import Movie, MovieCatalog
from repro.vod.server import ServerMetricsReport, ServerWorkload, VODServer
from repro.vod.vcr import VCRBehavior

__all__ = ["OnlineControlOutcome", "run_online_arms", "run_online_control"]

_POPULAR = ((0, "hot", 120.0, 2.0), (1, "warm", 120.0, 2.0))
_TAIL_COUNT = 4
_TAIL_LENGTH = 100.0
_STREAM_BUDGET = 40
_HEADROOM = 12            # free streams beyond the plan: the tail's playground
_ARRIVAL_RATE = 1.0
_TICK_MINUTES = 20.0


@dataclass(frozen=True)
class OnlineControlOutcome:
    """Both arms' post-shift reports plus control-plane diagnostics."""

    static: ServerMetricsReport
    adaptive: ServerMetricsReport
    controller_counters: dict[str, int]
    gate_denied_tail: int
    deltas_applied: int


def _catalog() -> MovieCatalog:
    movies = [
        Movie(movie_id, name, length, popularity=share)
        for (movie_id, name, length, _), share in zip(_POPULAR, (0.55, 0.35))
    ]
    movies += [
        Movie(10 + i, f"tail-{i}", _TAIL_LENGTH, popularity=0.1 / _TAIL_COUNT)
        for i in range(_TAIL_COUNT)
    ]
    return MovieCatalog(movies, popular_count=len(_POPULAR))


def _shifted_popularities() -> dict[int, float]:
    """After the shift, over half the request mass lands on the tail."""
    shifted = {0: 0.20, 1: 0.25}
    shifted.update({10 + i: 0.55 / _TAIL_COUNT for i in range(_TAIL_COUNT)})
    return shifted


def _offline_behavior() -> VCRBehavior:
    """What the offline sizing assumed the viewers do."""
    return VCRBehavior.uniform_duration_model(
        ExponentialDuration(8.0), VCRMix.paper_figure7d(), mean_think_time=12.0
    )


def _live_behavior() -> VCRBehavior:
    """What the viewers actually do before the shift."""
    return VCRBehavior.paper_figure7(mean_think_time=12.0)


def _shifted_behavior() -> VCRBehavior:
    """Post-shift: pause-heavy mix with much longer operations."""
    return VCRBehavior.uniform_duration_model(
        UniformDuration(15.0, 30.0),
        VCRMix(p_ff=0.1, p_rw=0.1, p_pause=0.8),
        mean_think_time=12.0,
    )


def _offline_plan():
    """The Example-1-style offline sizing under the assumed behaviour."""
    behavior = _offline_behavior()
    specs = [
        MovieSizingSpec(
            name=name,
            length=length,
            max_wait=max_wait,
            durations=dict(behavior.durations),
            p_star=0.5,
            mix=behavior.mix,
        )
        for _, name, length, max_wait in _POPULAR
    ]
    result = SystemSizer(specs).solve(_STREAM_BUDGET).result
    plan = result.as_configuration_map(
        {name: movie_id for movie_id, name, _, _ in _POPULAR}
    )
    # The Erlang-B VCR reserve the offline plan implies for the live rates.
    load = sum(
        VCRLoadModel(
            model=spec.build_model(),
            config=plan[movie_id],
            viewer_arrival_rate=_ARRIVAL_RATE * share,
            mean_think_time=12.0,
        ).offered_load()
        for (movie_id, _, _, _), spec, share in zip(_POPULAR, specs, (0.55, 0.35))
    )
    reserve = min_servers_for_blocking(load, 0.05)
    return plan, reserve


def _run_arm(
    adaptive: bool,
    shift_at: float,
    settle: float,
    horizon: float,
    warmup: float,
) -> tuple[ServerMetricsReport, dict[str, int], int, int]:
    plan, reserve = _offline_plan()
    catalog = _catalog()
    workload = ServerWorkload(
        arrival_rate=_ARRIVAL_RATE, horizon=horizon, warmup=warmup, seed=20260805
    )
    total_buffer = sum(config.buffer_minutes for config in plan.values())

    hub = TelemetryHub()
    gate = None
    if adaptive:
        gate = RuntimeAdmissionGate()
        gate.update(
            sum(config.num_partitions for config in plan.values()),
            reserve,
            set(plan),
        )
    server = VODServer(
        catalog,
        plan,
        num_streams=sum(config.num_partitions for config in plan.values()) + _HEADROOM,
        buffer_pool=BufferPool.for_minutes(total_buffer + 60.0),
        behavior=_live_behavior(),
        workload=workload,
        observers=(hub,) if adaptive else (),
        gate=gate,
    )
    controller = actuator = None
    if adaptive:
        slots = [
            MovieSlot(movie_id=movie_id, name=name, length=length, max_wait=max_wait)
            for movie_id, name, length, max_wait in _POPULAR
        ]
        controller = CapacityController(
            slots,
            hub,
            policy=ControllerPolicy(
                stream_budget=_STREAM_BUDGET,
                cooldown_minutes=_TICK_MINUTES,
                min_improvement=0.0,
                blocking_target=0.05,
            ),
            initial_behaviors={
                movie_id: _offline_behavior() for movie_id, _, _, _ in _POPULAR
            },
            initial_plan=plan,
        )
        actuator = PlanActuator(server, gate=gate)

    server.start()
    shifted = reset_done = False
    now = 0.0
    while now < horizon:
        now = server.step(min(now + _TICK_MINUTES, horizon))
        if not shifted and now >= shift_at:
            # The mid-run workload shift, identical in both arms.
            catalog.set_popularities(_shifted_popularities())
            for movie_id, _, _, _ in _POPULAR:
                server.set_behavior(movie_id, _shifted_behavior())
            shifted = True
        if not reset_done and now >= shift_at + settle:
            # Post-shift measurement window starts here.
            server.metrics.reset_all(server.env.now)
            reset_done = True
        if controller is not None and now >= warmup:
            delta = controller.tick(now)
            if delta is not None:
                actuator.apply(delta)
    report = server.report()
    counters = controller.counters() if controller else {}
    denied_tail = gate.denied_tail if gate else 0
    applied = actuator.deltas_applied if actuator else 0
    return report, counters, denied_tail, applied


def run_online_arms(fast: bool = False) -> OnlineControlOutcome:
    """Run both arms on the identical shifted trace; returns raw outcomes.

    Split out from :func:`run_online_control` so the integration test can
    assert on the reports directly without re-parsing a table.
    """
    horizon = 900.0 if fast else 1500.0
    shift_at = 450.0 if fast else 750.0
    settle = 60.0
    warmup = 150.0
    static, _, _, _ = _run_arm(False, shift_at, settle, horizon, warmup)
    adaptive, counters, denied_tail, applied = _run_arm(
        True, shift_at, settle, horizon, warmup
    )
    return OnlineControlOutcome(
        static=static,
        adaptive=adaptive,
        controller_counters=counters,
        gate_denied_tail=denied_tail,
        deltas_applied=applied,
    )


def run_online_control(fast: bool = False) -> ExperimentResult:
    """Static offline plan vs the runtime control plane under a mid-run shift."""
    outcome = run_online_arms(fast)
    result = ExperimentResult(
        experiment_id="online-control",
        title="Online control plane vs static plan under a popularity/mix shift",
    )
    table = result.add_table(
        Table(
            caption="post-shift window only; identical arrivals, shift and seeds",
            headers=(
                "arm", "vcr_denied_rate", "phase1_streams", "restarts_starved",
                "resume_stalls", "hit_rate", "tail_rejected",
            ),
        )
    )
    for name, report in (("static", outcome.static), ("adaptive", outcome.adaptive)):
        table.add_row(
            name,
            report.vcr_denial_rate,
            round(report.mean_streams_vcr + report.mean_streams_miss_hold, 2),
            report.restarts_starved,
            report.resume_stalled,
            report.hit_rate if not math.isnan(report.hit_rate) else 0.0,
            report.rejected_unpopular,
        )
    counters = outcome.controller_counters
    result.add_note(
        "phase1_streams is the time-averaged stream count actually held by "
        "VCR service (phase 1 + phase-2 holds): when the pool is starved the "
        "operation is denied outright, so LOW occupancy here means service "
        "was refused, not that it was cheap; the adaptive arm pays for the "
        "miss-holds it serves with some extra starved batch restarts"
    )
    result.add_note(
        f"control plane: {counters.get('ticks', 0)} ticks, "
        f"{counters.get('deltas_emitted', 0)} deltas emitted, "
        f"{outcome.deltas_applied} applied, "
        f"{outcome.gate_denied_tail} tail admissions vetoed by the gate"
    )
    return result
