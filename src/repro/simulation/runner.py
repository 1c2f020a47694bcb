"""Replication control and model-vs-simulation comparison (Figure 7 harness).

``simulate_hit_probability`` pools several independent replications of the
hit simulator; ``compare_model_and_simulation`` pairs those estimates with
the analytical model's predictions over a grid of ``(n, w)`` points — the
exact structure of the paper's Figure 7 panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.parameters import SystemConfiguration
from repro.core.vcrop import VCROperation
from repro.distributions.base import DurationDistribution
from repro.exceptions import ConfigurationError
from repro.simulation.hit_simulator import (
    HitSimulationResult,
    HitSimulator,
    SimulationSettings,
)

__all__ = ["ComparisonPoint", "simulate_hit_probability", "compare_model_and_simulation"]


def simulate_hit_probability(
    config: SystemConfiguration,
    durations: DurationDistribution | dict[VCROperation, DurationDistribution],
    mix: VCRMix,
    settings: SimulationSettings | None = None,
    replications: int = 3,
) -> HitSimulationResult:
    """Pooled hit-rate estimate over independent replications."""
    if replications < 1:
        raise ConfigurationError(f"need >= 1 replication, got {replications}")
    simulator = HitSimulator(config, durations, mix, settings=settings)
    result = simulator.run(replication=0)
    for r in range(1, replications):
        result = result.merge(simulator.run(replication=r))
    return result


@dataclass(frozen=True)
class ComparisonPoint:
    """One Figure-7 data point: model prediction vs simulation estimate."""

    config: SystemConfiguration
    max_wait: float
    model_hit: float
    simulated_hit: float
    simulated_ci: float
    trials: int

    @property
    def num_partitions(self) -> int:
        """The configuration's stream count n."""
        return self.config.num_partitions

    @property
    def absolute_error(self) -> float:
        """``|model − simulated|`` at this point."""
        return abs(self.model_hit - self.simulated_hit)

    @property
    def within_ci(self) -> bool:
        """Model prediction inside the simulation's 95% CI."""
        return self.absolute_error <= self.simulated_ci


def compare_model_and_simulation(
    model: HitProbabilityModel,
    partition_counts: Sequence[int],
    max_wait: float,
    settings: SimulationSettings | None = None,
    replications: int = 3,
    operation: VCROperation | None = None,
) -> list[ComparisonPoint]:
    """Model-vs-simulation sweep along the Eq.-(2) constraint ``B = l − n·w``.

    ``operation=None`` compares the mixed Eq.-(22) probability under the
    model's VCR mix (Figure 7(d)); otherwise the sweep isolates one operation
    by simulating with a degenerate mix (Figures 7(a)–(c)).
    """
    mix = model.mix if operation is None else VCRMix.only(operation)
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
        observed = simulate_hit_probability(
            config,
            {op: model.duration_of(op) for op in VCROperation},
            mix,
            settings=settings,
            replications=replications,
        )
        pooled = observed.overall if operation is None else observed.per_operation[operation]
        points.append(
            ComparisonPoint(
                config=config,
                max_wait=max_wait,
                model_hit=predicted,
                simulated_hit=pooled.rate,
                simulated_ci=pooled.ci_halfwidth(),
                trials=pooled.trials,
            )
        )
    return points
