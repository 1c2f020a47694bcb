"""Viewer VCR behaviour: when operations happen, which, and for how long.

Bundles the three ingredients the paper treats as measurable user statistics
(Section 3.1.4): the think-time process between interactions, the operation
mix ``(P_FF, P_RW, P_PAU)``, and a duration distribution per operation.
Used by both the hit simulator and the full server simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hitmodel import VCRMix
from repro.core.vcrop import VCROperation
from repro.distributions.base import DurationDistribution
from repro.distributions.exponential import ExponentialDuration
from repro.distributions.gamma import GammaDuration
from repro.distributions.truncated import truncate
from repro.exceptions import ConfigurationError

__all__ = ["VCRBehavior"]


@dataclass(frozen=True)
class VCRBehavior:
    """Complete interactive-behaviour specification for one movie's viewers."""

    mix: VCRMix
    durations: dict[VCROperation, DurationDistribution]
    mean_think_time: float = 15.0

    def __post_init__(self) -> None:
        if self.mean_think_time <= 0:
            raise ConfigurationError(
                f"mean_think_time must be positive, got {self.mean_think_time}"
            )
        missing = [op for op in VCROperation if op not in self.durations]
        if missing:
            raise ConfigurationError(f"missing duration distributions for {missing}")

    @classmethod
    def uniform_duration_model(
        cls,
        duration: DurationDistribution,
        mix: VCRMix | None = None,
        mean_think_time: float = 15.0,
    ) -> "VCRBehavior":
        """One duration distribution shared by all operations (Figure 7 style)."""
        return cls(
            mix=mix or VCRMix.paper_figure7d(),
            durations={op: duration for op in VCROperation},
            mean_think_time=mean_think_time,
        )

    @classmethod
    def paper_figure7(cls, mean_think_time: float = 15.0) -> "VCRBehavior":
        """Figure 7(d): gamma(2, 4) durations, mix (0.2, 0.2, 0.6)."""
        return cls.uniform_duration_model(
            GammaDuration.paper_figure7(), VCRMix.paper_figure7d(), mean_think_time
        )

    @classmethod
    def calm(cls, mean_duration: float = 3.0, mean_think_time: float = 40.0) -> "VCRBehavior":
        """A low-interaction profile: rare, short operations."""
        return cls.uniform_duration_model(
            ExponentialDuration(mean_duration),
            VCRMix(p_ff=0.3, p_rw=0.2, p_pause=0.5),
            mean_think_time,
        )

    def truncated_to(self, movie_length: float) -> "VCRBehavior":
        """Durations conditioned onto ``[0, l]`` (the model's convention)."""
        return VCRBehavior(
            mix=self.mix,
            durations={
                op: truncate(dist, movie_length) for op, dist in self.durations.items()
            },
            mean_think_time=self.mean_think_time,
        )

    # ------------------------------------------------------------------
    # Sampling.
    # ------------------------------------------------------------------
    def sample_think_time(self, rng: np.random.Generator) -> float:
        """Draw a playback interval before the next operation."""
        return float(rng.exponential(self.mean_think_time))

    def sample_operation(self, rng: np.random.Generator) -> VCROperation:
        """Draw an operation type from the mix."""
        u = float(rng.uniform())
        cumulative = 0.0
        for op in VCROperation:
            cumulative += self.mix.probability_of(op)
            if u <= cumulative:
                return op
        return VCROperation.PAUSE

    def sample_duration(self, operation: VCROperation, rng: np.random.Generator) -> float:
        """Draw a duration for the given operation."""
        return float(self.durations[operation].sample(rng))
