"""Parallel feasible-set sweeps: per-movie frontier evaluation as tasks.

One task = one movie's slice of a Section-5 sizing grid: find its largest
verified-feasible stream count and/or evaluate a requested set of points on
the ``B = l − n·w`` line.  A worker routes every evaluation through its
process-local :func:`~repro.parallel.executor.worker_cache`, then ships back
a :class:`MovieFrontier` — plain data (name, ``n_max``, evaluated points) —
which the driver can replay into a warm
:class:`~repro.sizing.feasible.FeasibleSet` without ever rebuilding the hit
model.

Two-phase grids (Figure 9: first per-movie maxima, then the cost curve's
specific allocations) pass the first phase's points back in via
``warm_points``, so the second phase pays only for the new evaluations even
though pool workers do not persist between phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.parallel.executor import ParallelExecutor, ParallelOutcome, worker_cache
from repro.sizing.feasible import FeasiblePoint, FeasibleSet, MovieSizingSpec

__all__ = [
    "FrontierTask",
    "MovieFrontier",
    "evaluate_frontier",
    "sweep_frontiers",
    "warm_feasible_set",
]


@dataclass(frozen=True)
class FrontierTask:
    """One movie's work order for a sweep."""

    spec: MovieSizingSpec
    #: Extra stream counts to evaluate beyond what ``find_max`` touches.
    stream_counts: tuple[int, ...] = ()
    #: Run :meth:`FeasibleSet.max_streams` (bisection + verification walk).
    find_max: bool = True
    #: Already-evaluated points to warm-start from (phase-2 grids).
    warm_points: tuple[FeasiblePoint, ...] = ()


@dataclass(frozen=True)
class MovieFrontier:
    """A movie's evaluated frontier slice, as shipped back by a worker."""

    name: str
    n_max: int | None
    points: tuple[FeasiblePoint, ...]
    _by_n: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_n.update({p.num_streams: p for p in self.points})

    def point(self, num_streams: int) -> FeasiblePoint:
        """The evaluated point at ``n`` (KeyError when not swept)."""
        return self._by_n[num_streams]

    def __contains__(self, num_streams: int) -> bool:
        return num_streams in self._by_n


def evaluate_frontier(task: FrontierTask) -> MovieFrontier:
    """Worker task: evaluate one movie's frontier slice.

    Module-level so the executor can pickle it by reference; all evaluation
    goes through the worker-local shared cache, so a movie re-swept in the
    same worker reuses its distributions' transforms and every prior
    ``P(hit | op)``.
    """
    cache = worker_cache()
    feasible = cache.feasible_set(task.spec, points=task.warm_points)
    n_max = feasible.max_streams() if task.find_max else None
    if task.stream_counts:
        # One batched evaluation for the whole requested slice.
        feasible.points_batch(task.stream_counts)
    return MovieFrontier(
        name=task.spec.name, n_max=n_max, points=feasible.known_points()
    )


def sweep_frontiers(
    tasks: Sequence[FrontierTask],
    workers: int | None = 1,
    executor: ParallelExecutor | None = None,
) -> tuple[list[MovieFrontier], ParallelOutcome]:
    """Fan the tasks out and return frontiers in task order plus telemetry."""
    executor = executor or ParallelExecutor(workers)
    outcome = executor.map(evaluate_frontier, list(tasks))
    return list(outcome.results), outcome


def warm_feasible_set(spec: MovieSizingSpec, frontier: MovieFrontier) -> FeasibleSet:
    """A driver-side :class:`FeasibleSet` warm-started from a sweep result.

    Queries that touch only swept points (including a :meth:`max_streams`
    replay — the worker ran the identical bisection) are pure cache lookups;
    anything else lazily builds the model and computes exactly what a cold
    set would, so correctness never depends on sweep coverage.
    """
    return FeasibleSet(spec, points=frontier.points)
