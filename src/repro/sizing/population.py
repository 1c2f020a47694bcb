"""Heterogeneous viewer populations.

The paper models one homogeneous viewer population per movie.  Real
audiences mix behaviours — channel-surfing teenagers issue long frequent
scans while background watchers pause occasionally.  This module extends the
model to a weighted mixture of *viewer classes*, with two non-obvious
aggregation rules done correctly:

* the population hit probability weights each class by its share of **VCR
  operations**, not by headcount — a class that interacts three times as
  often contributes three times the resumes (`weight / think_time`
  weighting);
* the offered VCR-stream load is additive across classes (superposition of
  the classes' Poisson request streams), so one Erlang-B reserve covers the
  blended population.

Sizing against the naive headcount-weighted average under-estimates the
influence of heavy interactors; the tests quantify the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.hitmodel import HitBreakdown, HitProbabilityModel, VCRMix
from repro.core.parameters import SystemConfiguration, VCRRates
from repro.core.vcrop import VCROperation
from repro.distributions.base import DurationDistribution
from repro.exceptions import ConfigurationError
from repro.sizing.reservation import ReservationPlan, VCRLoadModel, erlang_b, min_servers_for_blocking

__all__ = ["ViewerClass", "PopulationModel"]


@dataclass(frozen=True)
class ViewerClass:
    """One behavioural segment of a movie's audience."""

    name: str
    weight: float                     # share of arriving sessions
    mix: VCRMix
    durations: DurationDistribution | dict[VCROperation, DurationDistribution]
    mean_think_time: float = 15.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight > 0.0):
            raise ConfigurationError(f"class weight must be positive, got {self.weight}")
        if self.mean_think_time <= 0.0:
            raise ConfigurationError(
                f"mean think time must be positive, got {self.mean_think_time}"
            )


class PopulationModel:
    """Hit probability and VCR load for a mixture of viewer classes."""

    def __init__(
        self,
        movie_length: float,
        classes: Sequence[ViewerClass],
        rates: VCRRates | None = None,
    ) -> None:
        if not classes:
            raise ConfigurationError("population needs at least one viewer class")
        names = [cls.name for cls in classes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"class names must be unique, got {names}")
        self._classes = tuple(classes)
        total_weight = sum(cls.weight for cls in classes)
        self._session_shares = {
            cls.name: cls.weight / total_weight for cls in classes
        }
        self._models = {
            cls.name: HitProbabilityModel(
                movie_length,
                cls.durations,
                mix=cls.mix,
                rates=rates,
            )
            for cls in classes
        }

    @property
    def classes(self) -> tuple[ViewerClass, ...]:
        """The behavioural segments in this population."""
        return self._classes

    def model_of(self, name: str) -> HitProbabilityModel:
        """The per-class hit model."""
        try:
            return self._models[name]
        except KeyError:
            raise ConfigurationError(f"unknown viewer class {name!r}") from None

    def session_share(self, name: str) -> float:
        """The class's share of arriving sessions (headcount weight)."""
        return self._session_shares[name]

    def expected_operations_per_session(self, name: str) -> float:
        """Estimated VCR operations one session of this class issues.

        Not simply ``l / think``: the operations themselves move the
        position, so FF-heavy sessions end sooner (each scan jumps the
        playhead forward) and RW-heavy ones last longer.  Per think-operation
        cycle the position advances by

            ``think · R_PB + P_FF · E[x_FF] − P_RW · E[x_RW]``

        movie minutes on average, so a session issues about
        ``l / advance`` operations.  (Rewind truncation at minute 0 and
        FF-to-end truncation are second-order and ignored; the pooled
        simulation in the test suite confirms the estimate to a few
        percent.)  A non-positive net advance — a pathological
        rewind-dominated class that would never finish — is floored at one
        think-length of progress per cycle.
        """
        cls = next(c for c in self._classes if c.name == name)
        model = self._models[name]
        rates = model.rates
        advance = (
            cls.mean_think_time * rates.playback
            + cls.mix.p_ff * model.duration_of(VCROperation.FAST_FORWARD).mean
            - cls.mix.p_rw * model.duration_of(VCROperation.REWIND).mean
        )
        advance = max(advance, cls.mean_think_time * rates.playback * 0.1)
        return model.movie_length / advance

    def operation_share(self, name: str) -> float:
        """The class's share of VCR *operations*.

        Each class contributes sessions in proportion to its headcount
        weight and operations per session per
        :meth:`expected_operations_per_session`; normalising across classes
        gives the class's share of the resume events whose hit/miss outcomes
        the model predicts.
        """
        rates = {
            cls.name: self._session_shares[cls.name]
            * self.expected_operations_per_session(cls.name)
            for cls in self._classes
        }
        return rates[name] / sum(rates.values())

    # ------------------------------------------------------------------
    # Hit probabilities.
    # ------------------------------------------------------------------
    def class_breakdowns(
        self, config: SystemConfiguration
    ) -> dict[str, HitBreakdown]:
        """Per-class Eq.-(22) breakdowns for one configuration."""
        return {
            name: model.breakdown(config) for name, model in self._models.items()
        }

    def hit_probability(self, config: SystemConfiguration) -> float:
        """Population ``P(hit)``: operation-share-weighted class mixture."""
        breakdowns = self.class_breakdowns(config)
        return sum(
            self.operation_share(name) * breakdown.p_hit
            for name, breakdown in breakdowns.items()
        )

    def headcount_weighted_hit(self, config: SystemConfiguration) -> float:
        """The naive headcount-weighted average — kept for comparison.

        Biased whenever think times differ across classes: heavy interactors
        are under-represented.  The sensitivity tests quantify the gap.
        """
        breakdowns = self.class_breakdowns(config)
        return sum(
            self.session_share(name) * breakdown.p_hit
            for name, breakdown in breakdowns.items()
        )

    # ------------------------------------------------------------------
    # Aggregated reservation sizing.
    # ------------------------------------------------------------------
    def offered_load(self, config: SystemConfiguration, total_arrival_rate: float) -> float:
        """Summed Erlang load of all classes (Poisson superposition)."""
        if total_arrival_rate <= 0.0:
            raise ConfigurationError(
                f"arrival rate must be positive, got {total_arrival_rate}"
            )
        total = 0.0
        for cls in self._classes:
            share = self._session_shares[cls.name] * total_arrival_rate
            load_model = VCRLoadModel(
                self._models[cls.name],
                config,
                viewer_arrival_rate=share,
                mean_think_time=cls.mean_think_time,
            )
            total += load_model.offered_load()
        return total

    def plan_reserve(
        self,
        config: SystemConfiguration,
        total_arrival_rate: float,
        blocking_target: float = 0.01,
    ) -> ReservationPlan:
        """Size one shared VCR reserve for the whole population."""
        load = self.offered_load(config, total_arrival_rate)
        reserve = min_servers_for_blocking(load, blocking_target)
        return ReservationPlan(
            offered_load=load,
            reserve_streams=reserve,
            blocking_target=blocking_target,
            achieved_blocking=erlang_b(reserve, load),
            mean_hold_minutes=math.nan,  # blended; per-class holds differ
            stream_request_rate=math.nan,
            hit_probability=self.hit_probability(config),
        )
