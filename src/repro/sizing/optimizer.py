"""Multi-movie allocation — the Example-1 constrained optimisation.

The problem (paper Section 5):

    minimise   Σ_i B_i*          (buffer is the expensive resource)
    subject to Σ_i n_i <= n_s,   P_i(B_i, n_i) >= P_i*,   B_i = l_i − n_i w_i

Because ``B_i = l_i − n_i w_i`` is linear and decreasing in ``n_i`` and the
feasible region per movie is the prefix ``1 <= n_i <= n_i^max`` (frontier
monotonicity), the problem is a continuous knapsack in disguise: minimising
``Σ B_i = Σ l_i − Σ n_i w_i`` means *maximising* ``Σ n_i w_i``, so streams go
preferentially to the movies with the largest waits ``w_i``.  The greedy
solution is exact; the test suite cross-checks it against brute force on
small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.parameters import SystemConfiguration
from repro.exceptions import InfeasibleError
from repro.sizing.feasible import FeasiblePoint, FeasibleSet, MovieSizingSpec

__all__ = [
    "MovieAllocation",
    "AllocationResult",
    "optimize_allocation",
    "planned_streams",
]


@dataclass(frozen=True)
class MovieAllocation:
    """The chosen ``(B*, n*)`` for one movie plus its achieved hit probability."""

    spec: MovieSizingSpec
    num_streams: int
    buffer_minutes: float
    hit_probability: float

    def configuration(self) -> SystemConfiguration:
        """The chosen allocation as a SystemConfiguration."""
        return SystemConfiguration(
            movie_length=self.spec.length,
            num_partitions=self.num_streams,
            buffer_minutes=self.buffer_minutes,
            rates=self.spec.rates,
        )


@dataclass(frozen=True)
class AllocationResult:
    """The full multi-movie solution."""

    allocations: tuple[MovieAllocation, ...]
    stream_budget: int | None

    @property
    def total_streams(self) -> int:
        """``Σ n_i`` across the solution."""
        return sum(a.num_streams for a in self.allocations)

    @property
    def total_buffer_minutes(self) -> float:
        """``Σ B_i`` (minutes) across the solution."""
        return sum(a.buffer_minutes for a in self.allocations)

    @property
    def pure_batching_streams(self) -> int:
        """Streams pure batching would need for the same waits (the baseline)."""
        return sum(a.spec.pure_batching_streams for a in self.allocations)

    @property
    def streams_saved(self) -> int:
        """Example 1's headline: streams saved versus pure batching."""
        return self.pure_batching_streams - self.total_streams

    def by_name(self, name: str) -> MovieAllocation:
        """The allocation for one movie by spec name."""
        for allocation in self.allocations:
            if allocation.spec.name == name:
                return allocation
        raise KeyError(f"no allocation for movie {name!r}")

    def as_configuration_map(self, movie_ids: Mapping[str, int]) -> dict[int, SystemConfiguration]:
        """Adapt to the VOD server's ``{movie_id: SystemConfiguration}`` form."""
        return {
            movie_ids[a.spec.name]: a.configuration() for a in self.allocations
        }

    def summary_rows(self) -> list[tuple[str, int, float, float]]:
        """``(name, n*, B*, P(hit))`` rows for reports."""
        return [
            (a.spec.name, a.num_streams, a.buffer_minutes, a.hit_probability)
            for a in self.allocations
        ]


def planned_streams(
    movies: Sequence[tuple[str, float, int]],
    stream_budget: int | None = None,
) -> dict[str, int]:
    """The budgeted stream plan as pure arithmetic over ``(name, w, n_max)``.

    This is the greedy-knapsack core of :func:`optimize_allocation`: every
    movie starts at its per-movie optimum; when the total exceeds the budget,
    streams are given back cheapest-buffer-growth first (removing one stream
    from movie ``i`` adds ``w_i`` minutes of buffer, so the movies with the
    smallest waits shrink first — equivalently, streams with the largest
    ``w_i`` are kept, which is the knapsack greedy and exact here).

    Exposed separately so grid drivers (Figure 9) can predict exactly which
    frontier points a budget sweep will touch — and pre-evaluate them in
    parallel — without holding feasible sets.
    """
    chosen = {name: n_max for name, _, n_max in movies}
    if stream_budget is not None:
        if stream_budget < len(movies):
            raise InfeasibleError(
                f"stream budget {stream_budget} cannot cover one stream per movie "
                f"({len(movies)} movies)"
            )
        total = sum(chosen.values())
        if total > stream_budget:
            order = sorted(movies, key=lambda movie: movie[1])
            excess = total - stream_budget
            for name, _, _ in order:
                if excess == 0:
                    break
                removable = chosen[name] - 1
                take = min(removable, excess)
                chosen[name] -= take
                excess -= take
            if excess > 0:
                raise InfeasibleError(
                    f"stream budget {stream_budget} infeasible even at one stream "
                    "per movie"
                )
    return chosen


def optimize_allocation(
    feasible_sets: Sequence[FeasibleSet],
    stream_budget: int | None = None,
) -> AllocationResult:
    """Solve the Section-5 optimisation over prepared feasible sets.

    ``stream_budget`` is the paper's ``n_s``; ``None`` means unconstrained
    (every movie takes its per-movie optimum, which is what Example 1's
    ``n_s = 1230`` effectively allows since ``Σ n_i^max = 602``).

    Raises :class:`InfeasibleError` when even the minimum-stream allocation
    (``n_i = 1`` for all movies, i.e. maximal buffering) exceeds the budget
    or a movie cannot meet its ``P*`` at any point.
    """
    # Per-movie optima first (may raise InfeasibleError per movie).
    chosen = planned_streams(
        [(fs.spec.name, fs.spec.max_wait, fs.max_streams()) for fs in feasible_sets],
        stream_budget,
    )

    allocations = []
    for fs in feasible_sets:
        point: FeasiblePoint = fs.point(chosen[fs.spec.name])
        if not point.meets(fs.spec.p_star):
            # Shrinking n only raises P(hit); this can fail only on a
            # non-monotone frontier, which the verification walk in
            # max_streams() already guards against.
            raise InfeasibleError(
                f"{fs.spec.name}: chosen n={point.num_streams} misses "
                f"P*={fs.spec.p_star} ({point.hit_probability:.4f})"
            )
        allocations.append(
            MovieAllocation(
                spec=fs.spec,
                num_streams=point.num_streams,
                buffer_minutes=point.buffer_minutes,
                hit_probability=point.hit_probability,
            )
        )
    return AllocationResult(allocations=tuple(allocations), stream_budget=stream_budget)
