"""VCR stream-reservation sizing: an Erlang-loss layer over the hit model.

The paper's motivation for maximising the hit probability is resource
circulation: "if there is no chance of releasing I/O resources back to the
system pool, then each VCR request will consume one I/O resource until the
viewer finishes the movie ... more VCR requests implies more resources will
be held" (footnote 3).  Its reference [8] models the reserved VCR resources
with queueing networks; this module supplies that layer:

* VCR requests needing a stream arrive (approximately) Poisson from the
  enrolled viewer population;
* a request holds its stream for the phase-1 service time (operation
  duration divided by the FF/RW speed) plus, with probability
  ``1 − P(hit)``, the phase-2 piggyback hold of
  :class:`~repro.core.phase2.Phase2Model`;
* a request finding no free reserved stream is **denied** (the server
  simulation implements exactly this loss behaviour), so the reserve is an
  ``M/G/c/c`` system and the Erlang-B formula applies — *insensitively* to
  the service-time distribution, only its mean matters.

The punchline quantifies the paper's argument: the reserve needed for a
target denial probability scales with the mean hold, and the mean hold is
dominated by the miss term — so raising ``P(hit)`` directly shrinks the
stream reserve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.core.hitmodel import HitBreakdown, HitProbabilityModel
from repro.core.parameters import SystemConfiguration
from repro.core.phase2 import Phase2Model
from repro.core.vcrop import VCROperation
from repro.exceptions import ConfigurationError, SizingError

__all__ = [
    "erlang_b",
    "min_servers_for_blocking",
    "VCRLoadModel",
    "ReservationPlan",
]


def erlang_b(servers: int, offered_load: float) -> float:
    """Erlang-B blocking probability for an ``M/G/c/c`` loss system.

    Evaluated with the standard stable recurrence
    ``B(0) = 1; B(k) = a B(k−1) / (k + a B(k−1))``.
    """
    if servers < 0:
        raise ConfigurationError(f"server count must be >= 0, got {servers}")
    if offered_load < 0.0 or not math.isfinite(offered_load):
        raise ConfigurationError(f"offered load must be finite and >= 0, got {offered_load}")
    if offered_load == 0.0:
        return 0.0 if servers > 0 else 1.0
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    return blocking


def min_servers_for_blocking(offered_load: float, target: float, max_servers: int = 100_000) -> int:
    """Smallest ``c`` with ``ErlangB(c, a) <= target``."""
    if not 0.0 < target < 1.0:
        raise ConfigurationError(f"blocking target must be in (0, 1), got {target}")
    blocking = 1.0
    if offered_load == 0.0:
        return 0
    for c in range(1, max_servers + 1):
        blocking = offered_load * blocking / (c + offered_load * blocking)
        if blocking <= target:
            return c
    raise SizingError(
        f"no reserve up to {max_servers} streams meets blocking {target} at "
        f"load {offered_load}"
    )


@dataclass(frozen=True)
class VCRLoadModel:
    """Derives the offered VCR-stream load for one movie's viewer population.

    Parameters
    ----------
    model:
        The movie's hit-probability model (supplies durations and the mix).
    config:
        The deployed ``(l, n, B)`` configuration.
    viewer_arrival_rate:
        Session arrivals per minute for this movie.
    mean_think_time:
        Mean minutes of normal playback between a viewer's VCR operations.

    Phase-2 holds drift at :data:`~repro.core.phase2.RATE_TOLERANCE` (0.05).
    """

    model: HitProbabilityModel
    config: SystemConfiguration
    viewer_arrival_rate: float
    mean_think_time: float = 15.0

    def __post_init__(self) -> None:
        if self.viewer_arrival_rate <= 0.0:
            raise ConfigurationError(
                f"viewer arrival rate must be positive, got {self.viewer_arrival_rate}"
            )
        if self.mean_think_time <= 0.0:
            raise ConfigurationError(
                f"mean think time must be positive, got {self.mean_think_time}"
            )

    # ------------------------------------------------------------------
    # Population and request rates.
    # ------------------------------------------------------------------
    @property
    def concurrent_viewers(self) -> float:
        """Little's law: ``N = lambda * l`` enrolled viewers in steady state."""
        return self.viewer_arrival_rate * self.config.movie_length / self.config.rates.playback

    @property
    def vcr_request_rate(self) -> float:
        """VCR operations per minute across the population (all types)."""
        return self.concurrent_viewers / self.mean_think_time

    def stream_request_rate(self) -> float:
        """Operations per minute that need a phase-1 stream immediately.

        FF and RW hold a stream during the operation.  A pause holds none in
        phase 1 but needs a stream at resume *iff* it misses — that demand is
        included as an arrival whose service is pure phase-2 hold.
        """
        mix = self.model.mix
        breakdown = self._breakdown
        pause_miss = mix.p_pause * (1.0 - breakdown.p_hit_pause)
        return self.vcr_request_rate * (mix.p_ff + mix.p_rw + pause_miss)

    # ------------------------------------------------------------------
    # Service times.
    # ------------------------------------------------------------------
    def phase1_mean_minutes(self, operation: VCROperation) -> float:
        """Mean wall-clock minutes the phase-1 stream is held during the op."""
        duration = self.model.duration_of(operation).mean
        rates = self.config.rates
        if operation is VCROperation.FAST_FORWARD:
            return duration / rates.fast_forward
        if operation is VCROperation.REWIND:
            return duration / rates.rewind
        return 0.0  # a frozen frame needs no I/O stream

    def phase2_model(self) -> Phase2Model:
        """The phase-2 hold model for this configuration."""
        return Phase2Model(self.config)

    def mean_hold_minutes(self) -> float:
        """Mean stream-hold per stream-consuming request (phase 1 + phase 2).

        Weighted over the request classes of :meth:`stream_request_rate`,
        with the phase-2 term entering through each class's miss
        probability.
        """
        mix = self.model.mix
        breakdown = self._breakdown
        phase2 = self.phase2_model().mean_hold()
        ff_hold = self.phase1_mean_minutes(VCROperation.FAST_FORWARD) + (
            1.0 - breakdown.p_hit_ff
        ) * phase2
        rw_hold = self.phase1_mean_minutes(VCROperation.REWIND) + (
            1.0 - breakdown.p_hit_rw
        ) * phase2
        pause_miss_weight = mix.p_pause * (1.0 - breakdown.p_hit_pause)
        weights = [mix.p_ff, mix.p_rw, pause_miss_weight]
        holds = [ff_hold, rw_hold, phase2]
        total_weight = sum(weights)
        if total_weight == 0.0:
            return 0.0
        return sum(w * h for w, h in zip(weights, holds)) / total_weight

    def offered_load(self) -> float:
        """Erlang offered load ``a = lambda * E[S]`` in stream-minutes/minute."""
        return self.stream_request_rate() * self.mean_hold_minutes()

    # ------------------------------------------------------------------
    # Sizing.
    # ------------------------------------------------------------------
    def plan(self, blocking_target: float = 0.01) -> "ReservationPlan":
        """Size the VCR stream reserve for a denial-probability target."""
        load = self.offered_load()
        reserve = min_servers_for_blocking(load, blocking_target)
        return ReservationPlan(
            offered_load=load,
            reserve_streams=reserve,
            blocking_target=blocking_target,
            achieved_blocking=erlang_b(reserve, load),
            mean_hold_minutes=self.mean_hold_minutes(),
            stream_request_rate=self.stream_request_rate(),
            hit_probability=self._breakdown.p_hit,
        )

    @cached_property
    def _breakdown(self) -> HitBreakdown:
        # Evaluated once per load model: the load, the mean hold and the
        # plan all read the same breakdown.
        return self.model.breakdown(self.config)


@dataclass(frozen=True)
class ReservationPlan:
    """The sized VCR reserve and the quantities that produced it."""

    offered_load: float
    reserve_streams: int
    blocking_target: float
    achieved_blocking: float
    mean_hold_minutes: float
    stream_request_rate: float
    hit_probability: float

    def describe(self) -> str:
        """Single-line human-readable summary."""
        return (
            f"ReservationPlan(reserve={self.reserve_streams} streams for "
            f"load {self.offered_load:.2f} erl; blocking "
            f"{self.achieved_blocking:.4f} <= {self.blocking_target}; "
            f"E[hold]={self.mean_hold_minutes:.2f} min at P(hit)="
            f"{self.hit_probability:.3f})"
        )
