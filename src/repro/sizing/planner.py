"""High-level sizing pipeline: specs in, deployable allocation out.

:class:`SystemSizer` is the user-facing entry point for the paper's
application story: describe the popular movies (length, wait target, VCR
statistics, hit-probability target), and get back

* the optimal per-movie ``(B*, n*)`` split,
* the comparison against pure batching (Example 1's 1230 → 602 streams),
* the dollar cost under a hardware price model (Example 2),
* a ``{movie_id: SystemConfiguration}`` map ready to drive
  :class:`repro.vod.server.VODServer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from typing import TYPE_CHECKING

from repro.core.parameters import SystemConfiguration
from repro.exceptions import ConfigurationError
from repro.sizing.cost import CostModel
from repro.sizing.feasible import FeasibleSet, MovieSizingSpec
from repro.sizing.optimizer import AllocationResult, optimize_allocation

if TYPE_CHECKING:  # pragma: no cover - lazy: sweeps imports this package
    from repro.parallel.executor import ParallelOutcome

__all__ = ["SizingReport", "SystemSizer"]


@dataclass(frozen=True)
class SizingReport:
    """The complete outcome of a sizing run."""

    result: AllocationResult
    cost_model: CostModel
    total_cost: float
    pure_batching_cost: float

    @property
    def cost_saving(self) -> float:
        """Pure-batching dollars minus the sized system's dollars."""
        return self.pure_batching_cost - self.total_cost

    def summary_lines(self) -> list[str]:
        """Human-readable report block used by examples and the CLI."""
        lines = [
            f"{'movie':<12} {'n*':>6} {'B* (min)':>10} {'P(hit)':>8} {'batching n':>11}",
        ]
        for allocation in self.result.allocations:
            lines.append(
                f"{allocation.spec.name:<12} {allocation.num_streams:>6d} "
                f"{allocation.buffer_minutes:>10.1f} {allocation.hit_probability:>8.4f} "
                f"{allocation.spec.pure_batching_streams:>11d}"
            )
        lines.append(
            f"{'TOTAL':<12} {self.result.total_streams:>6d} "
            f"{self.result.total_buffer_minutes:>10.1f} {'':>8} "
            f"{self.result.pure_batching_streams:>11d}"
        )
        lines.append(
            f"streams saved vs pure batching : {self.result.streams_saved} "
            f"at the expense of {self.result.total_buffer_minutes:.1f} buffer-minutes"
        )
        lines.append(
            f"system cost (phi={self.cost_model.phi:.2f})      : "
            f"${self.total_cost:,.0f}"
        )
        lines.append(
            f"pure batching for reference    : ${self.pure_batching_cost:,.0f} "
            "(but P(hit)=0 — fails the P* target and drains VCR resources)"
        )
        return lines


class SystemSizer:
    """Runs the three-step Section-5 procedure over a set of movie specs."""

    def __init__(
        self,
        specs: Sequence[MovieSizingSpec],
        cost_model: CostModel | None = None,
        feasible_factory=None,
        workers: int | None = 1,
    ) -> None:
        if not specs:
            raise ConfigurationError("sizing needs at least one movie spec")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"movie names must be unique, got {names}")
        self._specs = tuple(specs)
        self._cost_model = cost_model or CostModel.from_hardware()
        # feasible_factory lets callers route frontier evaluation through a
        # shared cache (duck-typed: any spec -> FeasibleSet).
        factory = feasible_factory or FeasibleSet
        self._feasible = [factory(spec) for spec in specs]
        # Imported lazily: repro.parallel.sweeps imports this package, so a
        # top-level import here would close an import cycle.
        from repro.parallel.executor import resolve_workers

        self._workers = resolve_workers(workers)
        self._prewarmed = False
        #: Telemetry of the most recent parallel prewarm (None when serial).
        self.last_parallel_outcome: "ParallelOutcome | None" = None

    @property
    def feasible_sets(self) -> tuple[FeasibleSet, ...]:
        """The per-movie feasibility frontiers (cached)."""
        return tuple(self._feasible)

    @property
    def cost_model(self) -> CostModel:
        """The pricing model used by :meth:`solve`."""
        return self._cost_model

    def prewarm(self) -> "ParallelOutcome | None":
        """Fan the per-movie frontier searches over the worker pool.

        Each movie's ``max_streams`` bisection (the expensive part of
        :meth:`solve`) runs as one task on the deterministic executor, warm-
        started with whatever this sizer already knows; the evaluated points
        and verified maxima are absorbed back into the local feasible sets,
        so the subsequent optimisation replays them from cache.  A no-op
        returning ``None`` when the sizer was built with ``workers <= 1``.
        Runs at most once per sizer.
        """
        from repro.parallel.sweeps import FrontierTask, sweep_frontiers

        self._prewarmed = True
        if self._workers <= 1:
            return None
        tasks = [
            FrontierTask(fs.spec, warm_points=fs.known_points())
            for fs in self._feasible
        ]
        frontiers, outcome = sweep_frontiers(tasks, workers=self._workers)
        for fs, frontier in zip(self._feasible, frontiers):
            fs.absorb(frontier.points, n_max=frontier.n_max)
        self.last_parallel_outcome = outcome
        return outcome

    def solve(self, stream_budget: int | None = None) -> SizingReport:
        """Optimise the allocation and price it."""
        if not self._prewarmed:
            self.prewarm()
        result = optimize_allocation(self._feasible, stream_budget=stream_budget)
        total_cost = self._cost_model.allocation_cost(result)
        # Pure batching uses no buffer and l/w streams per movie.
        batching_cost = self._cost_model.system_cost(
            0.0, result.pure_batching_streams
        )
        return SizingReport(
            result=result,
            cost_model=self._cost_model,
            total_cost=total_cost,
            pure_batching_cost=batching_cost,
        )

    def allocation_for_server(
        self, movie_ids: Mapping[str, int], stream_budget: int | None = None
    ) -> dict[int, SystemConfiguration]:
        """Solve and adapt to the VOD server's configuration map."""
        return self.solve(stream_budget).result.as_configuration_map(movie_ids)
