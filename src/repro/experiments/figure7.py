"""Figure 7: analytical model versus simulation.

Workload (paper Section 4): movie of ``l = 120`` minutes, Poisson arrivals
with mean interarrival 2 minutes, VCR durations from the skewed gamma with
mean 8 (shape 2, scale 4), ``R_FF = R_RW = 3 R_PB``.  Panels (a)–(c) issue a
single operation type; panel (d) mixes them with
``P_FF = 0.2, P_RW = 0.2, P_PAU = 0.6``.  Each curve fixes a maximum wait
``w`` and sweeps the number of partitions ``n`` (the buffer follows from
Eq. 2: ``B = l − n·w``).

The paper does not print its ``w`` values; we sweep
``w ∈ {0.25, 0.5, 1.0}`` minutes, which brackets the waits it uses in
Example 1.  Nor does it print the think time between operations; viewers
use :class:`~repro.vod.vcr.VCRBehavior`'s 15 minutes, and the measured hit
probability is a per-operation quantity that barely depends on it.  The
reproduction target is the *relationship*: simulation tracks the model
closely, with the model slightly over-estimating FF/PAU at small ``n`` and
under-estimating RW (the boundary conventions of Section 4).

The simulation is the full :class:`~repro.vod.server.VODServer` showing one
title on a stream pool too large to starve (:data:`POOL_STREAMS`), so it
runs the partition mechanics the model describes: Poisson viewers,
enrollment windows, type-1/type-2 viewers, FF ending the session at ``l``
(Eq. 20), RW stopping at minute 0 and PAU.  A resume hits when a live
partition window covers the viewer's position; an FF that reaches the end
of the movie releases its resources and counts as a hit, as in the model's
Eq. (21) ``P(end)`` term.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions.gamma import GammaDuration
from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments.charts import ascii_chart
from repro.experiments.reporting import ExperimentResult, Table
from repro.numerics.stats import confidence_halfwidth
from repro.sim.metrics import MetricsRegistry
from repro.vod.buffer import BufferPool
from repro.vod.movie import Movie, MovieCatalog
from repro.vod.server import ServerWorkload, VODServer
from repro.vod.vcr import VCRBehavior

__all__ = [
    "run_figure7",
    "PANEL_OPERATIONS",
    "POOL_STREAMS",
    "paper_figure7_model",
    "ComparisonPoint",
    "compare_model_and_simulation",
    "simulate_one_title",
    "resume_counts",
]

PANEL_OPERATIONS: dict[str, VCROperation | None] = {
    "a": VCROperation.FAST_FORWARD,
    "b": VCROperation.REWIND,
    "c": VCROperation.PAUSE,
    "d": None,  # the mixed workload
}

#: Sweep values (minutes) for the maximum wait; see module docstring.
DEFAULT_WAITS = (0.25, 0.5, 1.0)
DEFAULT_PARTITIONS = (10, 20, 30, 45, 60, 80, 100)
FAST_PARTITIONS = (10, 30, 60)

#: I/O streams in each simulated server: far more than one title ever holds,
#: so no restart starves and no VCR operation is denied a stream.
#: :func:`simulate_one_title` checks that premise on every run.
POOL_STREAMS = 100_000


def paper_figure7_model() -> HitProbabilityModel:
    """The Figure-7 movie: l=120, gamma(2,4) durations, mix (0.2,0.2,0.6)."""
    return HitProbabilityModel(
        120.0, GammaDuration.paper_figure7(), mix=VCRMix.paper_figure7d()
    )


def simulate_one_title(
    config: SystemConfiguration,
    behavior: VCRBehavior,
    workload: ServerWorkload,
    observers: tuple = (),
) -> VODServer:
    """Run ``workload`` against a one-title server and return the server.

    The title is served under ``config`` from a pool of
    :data:`POOL_STREAMS` streams.  Raises :class:`SimulationError` if a VCR
    operation was denied or a restart starved after all: the run would then
    measure contention, not the partition mechanics.
    """
    movie = Movie(0, "figure7", config.movie_length, popularity=1.0)
    server = VODServer(
        MovieCatalog([movie], popular_count=1),
        {movie.movie_id: config},
        POOL_STREAMS,
        BufferPool.for_minutes(config.buffer_minutes),
        behavior,
        workload,
        observers=observers,
    )
    report = server.run()
    if report.vcr_blocked or report.restarts_starved:
        raise SimulationError(
            f"the {POOL_STREAMS}-stream pool starved at n={config.num_partitions}: "
            f"{report.vcr_blocked} VCR operations denied, "
            f"{report.restarts_starved} restarts starved"
        )
    return server


def resume_counts(metrics: MetricsRegistry) -> tuple[int, int]:
    """``(hits, trials)`` over the measured operations of a server run.

    A trial is a resume or an FF that reached the end of the movie; the
    latter releases the phase-1 resources and is a hit (Eq. 20).
    """
    hits = metrics.counter_value("resume.hit") + metrics.counter_value(
        "vcr.end_release"
    )
    return hits, hits + metrics.counter_value("resume.miss")


class _RewindStartCounter:
    """Counts rewinds that resume at minute 0 after warm-up, and their hits.

    The model books a rewind that reaches the start as a miss; the server
    can resume it in an open enrollment window, which carries Figure 7(b)'s
    gap.  A viewer's ``on_vcr_end`` is followed by its ``on_resume_detail``
    at the same instant, so the operation last seen is the resuming one.
    """

    def __init__(self, warmup: float) -> None:
        self._warmup = warmup
        self._operation: VCROperation | None = None
        self.reached = 0
        self.hits = 0

    def on_vcr_end(self, movie_id, operation, outcome, now) -> None:
        self._operation = operation

    def on_resume_detail(self, movie_id, hit, position, window_start, now) -> None:
        if (
            self._operation is VCROperation.REWIND
            and position == 0.0
            and now >= self._warmup
        ):
            self.reached += 1
            if hit:
                self.hits += 1


@dataclass(frozen=True)
class ComparisonPoint:
    """One Figure-7 data point: model prediction vs simulation estimate."""

    config: SystemConfiguration
    max_wait: float
    model_hit: float
    simulated_hit: float
    simulated_ci: float
    trials: int
    rewind_reached_start: int = 0
    rewind_start_hits: int = 0

    @property
    def num_partitions(self) -> int:
        """The configuration's stream count n."""
        return self.config.num_partitions

    @property
    def absolute_error(self) -> float:
        """``|model − simulated|`` at this point."""
        return abs(self.model_hit - self.simulated_hit)

    @property
    def rewind_start_share(self) -> float:
        """Share of the trials that were rewinds hitting at minute 0."""
        return self.rewind_start_hits / self.trials


def compare_model_and_simulation(
    model: HitProbabilityModel,
    partition_counts: Sequence[int],
    max_wait: float,
    workload: ServerWorkload,
    replications: int = 3,
    operation: VCROperation | None = None,
) -> list[ComparisonPoint]:
    """Model-vs-simulation sweep along the Eq.-(2) constraint ``B = l − n·w``.

    ``operation=None`` compares the mixed Eq.-(22) probability under the
    model's VCR mix (Figure 7(d)); otherwise the sweep isolates one operation
    by simulating with a degenerate mix (Figures 7(a)–(c)).  Replication
    ``r`` runs ``workload`` with seed ``workload.seed + r``; the estimate
    pools their counts.
    """
    if replications < 1:
        raise ConfigurationError(f"need >= 1 replication, got {replications}")
    behavior = VCRBehavior(
        mix=model.mix if operation is None else VCRMix.only(operation),
        durations={op: model.duration_of(op) for op in VCROperation},
    )
    points: list[ComparisonPoint] = []
    for n in partition_counts:
        buffer_minutes = model.movie_length - n * max_wait
        if buffer_minutes < 0.0:
            continue
        config = model.configuration(int(n), buffer_minutes)
        if operation is None:
            predicted = model.hit_probability(config)
        else:
            predicted = model.hit_probability_for(operation, config)
        hits = trials = 0
        rewind_start = _RewindStartCounter(workload.warmup)
        for replication in range(replications):
            server = simulate_one_title(
                config,
                behavior,
                dataclasses.replace(workload, seed=workload.seed + replication),
                observers=(rewind_start,),
            )
            run_hits, run_trials = resume_counts(server.metrics)
            hits += run_hits
            trials += run_trials
        if trials == 0:
            raise SimulationError(f"no resumes observed at n={n}")
        rate = hits / trials
        points.append(
            ComparisonPoint(
                config=config,
                max_wait=max_wait,
                model_hit=predicted,
                simulated_hit=rate,
                simulated_ci=confidence_halfwidth(math.sqrt(rate * (1.0 - rate)), trials),
                trials=trials,
                rewind_reached_start=rewind_start.reached,
                rewind_start_hits=rewind_start.hits,
            )
        )
    return points


def run_figure7(panel: str, fast: bool = False) -> ExperimentResult:
    """Reproduce one panel of Figure 7.

    ``fast`` shrinks the grid and the simulated horizon for benchmark/CI use;
    the full setting matches the fidelity of the paper's plots.
    """
    if panel not in PANEL_OPERATIONS:
        raise ConfigurationError(
            f"panel must be one of {sorted(PANEL_OPERATIONS)}, got {panel!r}"
        )
    operation = PANEL_OPERATIONS[panel]
    model = paper_figure7_model()
    workload = ServerWorkload(
        arrival_rate=0.5,
        horizon=900.0 if fast else 2400.0,
        warmup=180.0 if fast else 400.0,
        seed=20250704,
    )
    replications = 2 if fast else 4
    waits = DEFAULT_WAITS[1:2] if fast else DEFAULT_WAITS
    partitions = FAST_PARTITIONS if fast else DEFAULT_PARTITIONS

    label = operation.value if operation else "FF/RW/PAU mix (0.2/0.2/0.6)"
    result = ExperimentResult(
        experiment_id=f"figure7{panel}",
        title=f"Figure 7({panel}): P(hit) vs n, {label}; model vs simulation",
    )
    for wait in waits:
        table = result.add_table(
            Table(
                caption=f"w = {wait:g} min (B = 120 − {wait:g}·n)",
                headers=("n", "B_minutes", "model", "simulated", "ci95", "abs_err"),
            )
        )
        points = compare_model_and_simulation(
            model,
            partition_counts=list(partitions),
            max_wait=wait,
            workload=workload,
            replications=replications,
            operation=operation,
        )
        for point in points:
            table.add_row(
                point.num_partitions,
                point.config.buffer_minutes,
                point.model_hit,
                point.simulated_hit,
                point.simulated_ci,
                point.absolute_error,
            )
        errors = [p.absolute_error for p in points]
        result.add_chart(
            ascii_chart(
                {
                    "model": [(p.num_partitions, p.model_hit) for p in points],
                    "simulated": [(p.num_partitions, p.simulated_hit) for p in points],
                },
                title=f"P(hit) vs n at w = {wait:g} min",
                y_label="P(hit)",
                x_label="number of partitions n",
            )
        )
        result.add_note(
            f"w={wait:g}: max |model − sim| = {max(errors):.4f}, "
            f"mean = {sum(errors) / len(errors):.4f} over {len(points)} points"
        )
        if operation is VCROperation.REWIND:
            shares = ", ".join(
                f"n={p.num_partitions}: {p.rewind_start_share:.4f}" for p in points
            )
            residuals = [
                p.simulated_hit - p.model_hit - p.rewind_start_share for p in points
            ]
            result.add_note(
                f"w={wait:g}: share of RW resumes that hit at minute 0 — {shares}; "
                f"(sim − model) − share lies in [{min(residuals):+.4f}, "
                f"{max(residuals):+.4f}]"
            )
    if operation is VCROperation.REWIND:
        result.add_note(
            "expected (paper Section 4): the model under-estimates RW hits — "
            "rewinding to minute 0 is booked a miss analytically but can "
            "re-enroll in the simulator"
        )
    if operation in (VCROperation.FAST_FORWARD, VCROperation.PAUSE):
        result.add_note(
            "expected (paper Section 4): slight model over-estimation at small n "
            "from the uniform-position approximation (simulated viewers cluster "
            "at partition leading edges)"
        )
    return result
