"""Top-level hit-probability model — Eq. (22) and friends.

:class:`HitProbabilityModel` packages the per-operation probabilities of
:mod:`repro.core.hitsets` with the VCR mix ``(P_FF, P_RW, P_PAU)`` into the
paper's headline quantity

    ``P(hit) = P(hit|FF) P_FF + P(hit|RW) P_RW + P(hit|PAU) P_PAU``

for a given system configuration, and is the object the sizing layer sweeps.
Duration distributions are truncated and renormalised onto ``[0, l]`` on
construction (the paper defines every pdf there), and the per-distribution
CDF transforms are cached so that sweeping hundreds of ``(B, n)`` candidates
for one movie re-uses the expensive part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# ``hit_probability`` (the scalar oracle) stays importable from this module
# beside the batch kernel: tracers that wrap the Eq.-(21) kernels by module
# attribute look for both names here.
from repro.core.hitsets import (  # noqa: F401
    CdfTransform,
    end_probability,
    hit_probability,
    hit_probability_batch,
)
from repro.core.parameters import SystemConfiguration, VCRRates
from repro.core.vcrop import VCROperation
from repro.distributions.base import DurationDistribution
from repro.distributions.truncated import truncate
from repro.exceptions import ConfigurationError

__all__ = ["VCRMix", "HitBreakdown", "HitProbabilityModel"]


@dataclass(frozen=True)
class VCRMix:
    """Probabilities that an issued VCR request is FF / RW / PAU.

    Section 3.1.4: "the values of these probabilities can be determined by
    measuring user behavior".  Must sum to 1 (within tolerance); individual
    entries may be zero, which the Figure 7(a)–(c) single-operation
    experiments use.
    """

    p_ff: float
    p_rw: float
    p_pause: float

    def __post_init__(self) -> None:
        for name, value in (("p_ff", self.p_ff), ("p_rw", self.p_rw), ("p_pause", self.p_pause)):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        total = self.p_ff + self.p_rw + self.p_pause
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ConfigurationError(f"VCR mix must sum to 1, got {total}")

    @classmethod
    def only(cls, operation: VCROperation) -> "VCRMix":
        """A mix concentrated on a single operation (Figures 7(a)–(c))."""
        return cls(
            p_ff=1.0 if operation is VCROperation.FAST_FORWARD else 0.0,
            p_rw=1.0 if operation is VCROperation.REWIND else 0.0,
            p_pause=1.0 if operation is VCROperation.PAUSE else 0.0,
        )

    @classmethod
    def paper_figure7d(cls) -> "VCRMix":
        """The mixed-workload experiment of Figure 7(d)."""
        return cls(p_ff=0.2, p_rw=0.2, p_pause=0.6)

    def probability_of(self, operation: VCROperation) -> float:
        """The mix weight of one operation."""
        if operation is VCROperation.FAST_FORWARD:
            return self.p_ff
        if operation is VCROperation.REWIND:
            return self.p_rw
        return self.p_pause

    def as_dict(self) -> dict[VCROperation, float]:
        """The mix as an operation-keyed dictionary."""
        return {op: self.probability_of(op) for op in VCROperation}


@dataclass(frozen=True)
class HitBreakdown:
    """Per-operation hit probabilities plus the Eq.-(22) mixture."""

    p_hit_ff: float
    p_hit_rw: float
    p_hit_pause: float
    p_end_ff: float
    mix: VCRMix

    @property
    def p_hit(self) -> float:
        """The mixed hit probability, Eq. (22)."""
        return (
            self.p_hit_ff * self.mix.p_ff
            + self.p_hit_rw * self.mix.p_rw
            + self.p_hit_pause * self.mix.p_pause
        )

    def probability_of(self, operation: VCROperation) -> float:
        """The per-operation hit probability for ``operation``."""
        if operation is VCROperation.FAST_FORWARD:
            return self.p_hit_ff
        if operation is VCROperation.REWIND:
            return self.p_hit_rw
        return self.p_hit_pause


class HitProbabilityModel:
    """Analytical ``P(hit)`` evaluator for one movie.

    Parameters
    ----------
    movie_length:
        ``l`` in minutes.
    durations:
        Either a single :class:`DurationDistribution` used for all three
        operations (the paper's Figure 7 setup) or a mapping from
        :class:`VCROperation` to distributions.  Distributions whose support
        extends past ``l`` are truncated and renormalised automatically.
        Each distinct distribution object is truncated once and gets one
        :class:`~repro.core.hitsets.CdfTransform`, shared by every
        operation mapped to it (matched by identity, not equality).
    mix:
        The VCR request mix; defaults to Figure 7(d)'s
        ``(0.2, 0.2, 0.6)``.
    rates:
        Playback/FF/RW rates; default 1/3/3 per the paper.

    Fast-forwarding past the end of the movie always counts as a release
    event, as Eq. (21) has it, so FF under pure batching still hits with
    ``P(end)``.  The in-partition-offset integral uses
    :data:`~repro.core.hitsets.DEFAULT_OFFSET_NODES` (32) Gauss–Legendre
    nodes, over a :class:`~repro.core.hitsets.CdfTransform` grid of
    :data:`~repro.core.hitsets.DEFAULT_GRID_POINTS` (4097) points.
    """

    def __init__(
        self,
        movie_length: float,
        durations: DurationDistribution | dict[VCROperation, DurationDistribution],
        mix: VCRMix | None = None,
        rates: VCRRates | None = None,
    ) -> None:
        if movie_length <= 0:
            raise ConfigurationError(f"movie_length must be positive, got {movie_length}")
        self._movie_length = float(movie_length)
        self._rates = rates or VCRRates.paper_default()
        self._mix = mix or VCRMix.paper_figure7d()
        if isinstance(durations, DurationDistribution):
            durations = {op: durations for op in VCROperation}
        missing = [op for op in VCROperation if op not in durations]
        if missing:
            raise ConfigurationError(f"missing duration distributions for {missing}")
        prepared: dict[int, tuple[DurationDistribution, CdfTransform]] = {}
        self._durations: dict[VCROperation, DurationDistribution] = {}
        self._transforms: dict[VCROperation, CdfTransform] = {}
        for op, dist in durations.items():
            if id(dist) not in prepared:
                prepared[id(dist)] = self._prepare(dist)
            self._durations[op], self._transforms[op] = prepared[id(dist)]

    def _prepare(self, dist: DurationDistribution) -> tuple[DurationDistribution, CdfTransform]:
        """Truncate ``dist`` onto ``[0, l]`` and build its CDF transform.

        The expensive part of construction, and the hook a memoising
        subclass overrides to share the pair between models.
        """
        truncated = truncate(dist, self._movie_length)
        return truncated, CdfTransform(truncated, self._movie_length)

    # ------------------------------------------------------------------
    # Accessors.
    # ------------------------------------------------------------------
    @property
    def movie_length(self) -> float:
        """The movie length ``l`` in minutes."""
        return self._movie_length

    @property
    def rates(self) -> VCRRates:
        """The playback/FF/RW rates the model was built with."""
        return self._rates

    @property
    def mix(self) -> VCRMix:
        """The VCR request mix used by Eq. (22)."""
        return self._mix

    def duration_of(self, operation: VCROperation) -> DurationDistribution:
        """The (truncated) duration distribution used for ``operation``."""
        return self._durations[operation]

    def configuration(self, num_partitions: int, buffer_minutes: float) -> SystemConfiguration:
        """Build a :class:`SystemConfiguration` bound to this movie's ``l``."""
        return SystemConfiguration(
            movie_length=self._movie_length,
            num_partitions=num_partitions,
            buffer_minutes=buffer_minutes,
            rates=self._rates,
        )

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------
    def hit_probability_for(
        self, operation: VCROperation, config: SystemConfiguration
    ) -> float:
        """``P(hit | operation)`` under this movie's duration statistics.

        A batch of one through :meth:`hit_probability_for_batch` — bit for
        bit equal to the scalar :func:`~repro.core.hitsets.hit_probability`,
        the readable form of the paper's equations, which the tests keep as
        the oracle.
        """
        return self.hit_probability_for_batch(operation, [config])[0]

    def hit_probability_for_batch(
        self, operation: VCROperation, configs: Sequence[SystemConfiguration]
    ) -> list[float]:
        """``P(hit | operation)`` for many configurations in one fused call."""
        for config in configs:
            self._check_config(config)
        return hit_probability_batch(
            operation,
            configs,
            self._durations[operation],
            transform=self._transforms[operation],
        )

    def hit_probability(self, config: SystemConfiguration) -> float:
        """The Eq.-(22) mixed hit probability for ``config``."""
        return self.breakdown(config).p_hit

    def hit_probability_batch(self, configs: Sequence[SystemConfiguration]) -> list[float]:
        """The Eq.-(22) mixed hit probability for many configurations.

        One fused evaluation per operation over the whole grid — this is the
        entry point frontier sweeps, the sizing optimiser and the runtime
        re-planner batch through.  Byte-identical to mapping
        :meth:`hit_probability` over ``configs``.
        """
        return [b.p_hit for b in self.breakdown_batch(configs)]

    def breakdown(self, config: SystemConfiguration) -> HitBreakdown:
        """All per-operation components for ``config``.

        Operations with zero mix weight are still evaluated — the breakdown
        is frequently used to compare single-operation curves (Figure 7).
        """
        return self.breakdown_batch([config])[0]

    def breakdown_batch(self, configs: Sequence[SystemConfiguration]) -> list[HitBreakdown]:
        """Per-operation components for many configurations in one pass."""
        ff_op = VCROperation.FAST_FORWARD
        ff = self.hit_probability_for_batch(ff_op, configs)
        rw = self.hit_probability_for_batch(VCROperation.REWIND, configs)
        pause = self.hit_probability_for_batch(VCROperation.PAUSE, configs)
        return [
            HitBreakdown(
                p_hit_ff=ff[i],
                p_hit_rw=rw[i],
                p_hit_pause=pause[i],
                p_end_ff=end_probability(
                    config, self._durations[ff_op], transform=self._transforms[ff_op]
                ),
                mix=self._mix,
            )
            for i, config in enumerate(configs)
        ]

    def _check_config(self, config: SystemConfiguration) -> None:
        if not math.isclose(config.movie_length, self._movie_length, rel_tol=0, abs_tol=1e-9):
            raise ConfigurationError(
                f"configuration movie length {config.movie_length} does not match "
                f"the model's movie length {self._movie_length}"
            )

    def __repr__(self) -> str:
        return (
            f"HitProbabilityModel(l={self._movie_length:g}, mix={self._mix}, "
            f"rates={self._rates})"
        )
