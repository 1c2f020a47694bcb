"""The Example-2 cost model and the Figure-9 cost curves.

``C = C_b Σ B_i* + C_n Σ n_i* = C_n (φ Σ B_i* + Σ n_i*)`` with
``φ = C_b / C_n`` (Eq. 23).  Example 2 derives the 1997 constants:

* ``C_b``: one minute of 4 Mb/s MPEG-2 is 30 MB; at $25/MB, **$750/minute**;
* ``C_n``: a $700 disk sustaining 5 MB/s carries ten 4 Mb/s streams,
  so **$70/stream**;
* hence ``φ ≈ 11`` (more precisely 10.71).

Figure 9 sweeps φ over {3, 4, 6, 10, 11, 16} to show how the cost-optimal
stream count moves as the memory/bandwidth price ratio shifts;
:func:`cost_curve` regenerates each panel by re-solving the Example-1
optimisation at every total-stream budget and pricing the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.sizing.feasible import FeasibleSet
from repro.sizing.optimizer import AllocationResult, optimize_allocation
from repro.vod.disk import DiskModel

__all__ = ["CostModel", "CostPoint", "cost_curve", "PAPER_PHI_VALUES"]

#: The φ values of Figure 9's six panels.
PAPER_PHI_VALUES = (3.0, 4.0, 6.0, 10.0, 11.0, 16.0)


@dataclass(frozen=True)
class CostModel:
    """Linear resource pricing: ``cost = c_stream * (phi * B + n)``."""

    cost_per_buffer_minute: float
    cost_per_stream: float

    def __post_init__(self) -> None:
        if self.cost_per_buffer_minute < 0 or self.cost_per_stream <= 0:
            raise ConfigurationError(
                f"costs must be positive (buffer >= 0), got "
                f"C_b={self.cost_per_buffer_minute}, C_n={self.cost_per_stream}"
            )

    @classmethod
    def from_hardware(
        cls,
        disk: DiskModel | None = None,
        bitrate_mbps: float = 4.0,
        memory_cost_per_mb: float = 25.0,
    ) -> "CostModel":
        """Example 2's derivation from hardware prices."""
        disk = disk or DiskModel.paper_example2()
        megabytes_per_minute = 60.0 * bitrate_mbps / 8.0
        return cls(
            cost_per_buffer_minute=megabytes_per_minute * memory_cost_per_mb,
            cost_per_stream=disk.cost_per_stream(bitrate_mbps),
        )

    @classmethod
    def from_phi(cls, phi: float, cost_per_stream: float = 70.0) -> "CostModel":
        """Fix the ratio φ directly (the Figure-9 sweeps)."""
        if phi < 0:
            raise ConfigurationError(f"phi must be >= 0, got {phi}")
        return cls(
            cost_per_buffer_minute=phi * cost_per_stream,
            cost_per_stream=cost_per_stream,
        )

    @property
    def phi(self) -> float:
        """``φ = C_b / C_n`` — Eq. (23)'s price ratio."""
        return self.cost_per_buffer_minute / self.cost_per_stream

    def system_cost(self, total_buffer_minutes: float, total_streams: int) -> float:
        """Eq. (23): ``C = C_n (φ ΣB + Σn)``."""
        return self.cost_per_stream * (self.phi * total_buffer_minutes + total_streams)

    def allocation_cost(self, result: AllocationResult) -> float:
        """Eq. (23) applied to an allocation's totals."""
        return self.system_cost(result.total_buffer_minutes, result.total_streams)


@dataclass(frozen=True)
class CostPoint:
    """One point of a Figure-9 curve."""

    total_streams: int
    total_buffer_minutes: float
    cost: float


def cost_curve(
    feasible_sets: Sequence[FeasibleSet],
    cost_model: CostModel,
    stream_totals: Sequence[int] | None = None,
) -> list[CostPoint]:
    """Minimum system cost as a function of the total stream count.

    For each candidate total ``Σn`` the Example-1 optimiser finds the
    minimum-buffer allocation within that budget; Eq. (23) prices it.  The
    default sweep runs from one stream per movie up to the sum of per-movie
    feasibility maxima (beyond which extra streams are unusable).
    """
    if not feasible_sets:
        raise ConfigurationError("cost curve needs at least one movie")
    if stream_totals is None:
        lo = len(feasible_sets)
        hi = sum(fs.max_streams() for fs in feasible_sets)
        count = min(40, hi - lo + 1)
        if count <= 1:
            stream_totals = [hi]
        else:
            step = (hi - lo) / (count - 1)
            stream_totals = sorted({int(round(lo + i * step)) for i in range(count)})
    points: list[CostPoint] = []
    for total in stream_totals:
        try:
            result = optimize_allocation(feasible_sets, stream_budget=int(total))
        except InfeasibleError:
            continue
        points.append(
            CostPoint(
                total_streams=result.total_streams,
                total_buffer_minutes=result.total_buffer_minutes,
                cost=cost_model.allocation_cost(result),
            )
        )
    return points


def optimal_cost_point(points: Sequence[CostPoint]) -> CostPoint:
    """The minimum-cost point of a curve (Figure 9's sizing answer)."""
    if not points:
        raise ConfigurationError("empty cost curve")
    return min(points, key=lambda p: p.cost)
