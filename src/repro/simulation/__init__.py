"""Discrete-event validation of the analytical model (paper Section 4).

The simulator implements the *mechanics* of the static-partitioned
batching-and-buffering scheme — periodic restarts, enrollment windows,
type-1/type-2 viewers, FF/RW/PAU with real boundary behaviour — and measures
the empirical hit probability on resume.  Its deliberate differences from the
analytical model (viewers clustering at partition leading edges, rewinds
reaching minute 0 possibly re-enrolling) are exactly the discrepancy sources
the paper discusses when comparing Figure 7's curves.
"""

from repro.simulation.hit_simulator import (
    HitSimulationResult,
    HitSimulator,
    SimulationSettings,
)
from repro.simulation.runner import (
    ComparisonPoint,
    compare_model_and_simulation,
    simulate_hit_probability,
)

__all__ = [
    "HitSimulator",
    "HitSimulationResult",
    "SimulationSettings",
    "ComparisonPoint",
    "compare_model_and_simulation",
    "simulate_hit_probability",
]
