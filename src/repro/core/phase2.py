"""Analytical phase-2 model: how long a missed resume pins a stream.

When a resume misses every partition, the paper keeps the viewer on his
phase-1 stream "until he can join a partition, for instance, using the
piggybacking technique" (Section 2).  This module models that hold time
analytically so the reservation sizing in :mod:`repro.sizing.reservation`
can price misses without simulation:

* Conditional on a miss, the resume position sits in a gap of width
  ``w = spacing − span`` between the leading edge of the partition behind
  and the trailing edge of the partition ahead.  For smooth duration
  distributions the position is approximately uniform across the gap (the
  same style of approximation the paper uses for ``P(V_f)``), so the
  distance to the nearer window edge is ``min(u, w − u)``, ``u ~ U[0, w]``.
* Piggybacking closes that distance at ``epsilon * R_PB`` movie-minutes per
  wall minute, giving an uncapped mean hold of ``w / (4 epsilon R_PB)``.
  The paper prices phase 2 with one display-rate tolerance, the classic
  ±5% viewers accept: ``epsilon`` is :data:`RATE_TOLERANCE` (0.05), the
  one constant the analytic model here and the simulated piggyback policy
  of :mod:`repro.vod.piggyback` share.
* The merge must finish before the session does; with the resume position
  approximately uniform over the movie, the cap is ``(l − V)/R_PB``,
  ``V ~ U[0, l]``.

The :class:`Phase2Model` evaluates both the closed-form uncapped mean and
the capped mean/merge probability by quadrature, and converts miss rates
into steady-state pinned streams via Little's law.  The full-server
simulation validates the predictions (see
``tests/integration/test_phase2_validation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.parameters import SystemConfiguration
from repro.exceptions import ConfigurationError
from repro.numerics.quadrature import gauss_legendre

__all__ = ["RATE_TOLERANCE", "Phase2Model"]

#: The display-rate deviation epsilon a drifting viewer tolerates.
RATE_TOLERANCE = 0.05


@dataclass(frozen=True)
class Phase2Model:
    """Hold-time statistics for miss-resumed viewers under piggybacking.

    Viewers drift at the :data:`RATE_TOLERANCE` (0.05) display-rate
    deviation.
    """

    config: SystemConfiguration

    # ------------------------------------------------------------------
    # Geometry helpers.
    # ------------------------------------------------------------------
    @property
    def gap_width(self) -> float:
        """``w`` — the un-buffered distance between adjacent windows."""
        return self.config.gap

    @property
    def drift_speed(self) -> float:
        """Movie-minutes of lag closed per wall minute: ``epsilon * R_PB``."""
        return RATE_TOLERANCE * self.config.rates.playback

    def merge_time_from_offset(self, offset: float) -> float:
        """Wall minutes to merge from ``offset`` into the gap (uncapped).

        The cheaper direction wins: drift back ``offset`` minutes to the
        window behind or forward ``gap − offset`` to the window ahead.
        """
        if not 0.0 <= offset <= self.gap_width + 1e-12:
            raise ConfigurationError(
                f"offset {offset} outside the gap [0, {self.gap_width}]"
            )
        return min(offset, self.gap_width - offset) / self.drift_speed

    # ------------------------------------------------------------------
    # Hold-time statistics.
    # ------------------------------------------------------------------
    def mean_hold_uncapped(self) -> float:
        """``E[min(u, w − u)] / drift = w / (4 epsilon R_PB)`` — closed form."""
        if self.gap_width == 0.0:
            return 0.0
        return self.gap_width / (4.0 * self.drift_speed)

    def mean_hold(self) -> float:
        """Mean hold with the end-of-movie cap, by 2-D quadrature.

        Pure batching (no windows at all) degenerates to the expected
        remaining session, ``l / (2 R_PB)``.
        """
        playback = self.config.rates.playback
        length = self.config.movie_length
        if self.config.is_pure_batching:
            return length / (2.0 * playback)
        gap = self.gap_width
        if gap == 0.0:
            return 0.0

        def over_position(offset: float) -> float:
            merge = self.merge_time_from_offset(offset)
            # Cap by the remaining session, resume position V ~ U[0, l]:
            # E[min(merge, (l − V)/pb)] has a closed form per offset.
            cap_boundary = length - merge * playback  # V above this caps
            if cap_boundary <= 0.0:
                # Always capped: E[(l − V)/pb] = l/(2 pb).
                return length / (2.0 * playback)
            uncapped_mass = cap_boundary / length
            capped_mean = (length - cap_boundary) / (2.0 * playback)
            return merge * uncapped_mass + capped_mean * (1.0 - uncapped_mass)

        return gauss_legendre(over_position, 0.0, gap, num_nodes=48) / gap

    def merge_probability(self) -> float:
        """Probability a missed viewer merges before his session ends."""
        playback = self.config.rates.playback
        length = self.config.movie_length
        if self.config.is_pure_batching:
            return 0.0
        gap = self.gap_width
        if gap == 0.0:
            return 1.0

        def over_position(offset: float) -> float:
            merge = self.merge_time_from_offset(offset)
            cap_boundary = length - merge * playback
            return max(0.0, cap_boundary) / length

        return gauss_legendre(over_position, 0.0, gap, num_nodes=48) / gap

    # ------------------------------------------------------------------
    # Steady-state resource pinning (Little's law).
    # ------------------------------------------------------------------
    def expected_pinned_streams(self, miss_rate_per_minute: float) -> float:
        """Average streams pinned by phase-2 holds: ``lambda_miss * E[hold]``."""
        if miss_rate_per_minute < 0.0:
            raise ConfigurationError(
                f"miss rate must be non-negative, got {miss_rate_per_minute}"
            )
        return miss_rate_per_minute * self.mean_hold()

    def describe(self) -> str:
        """Single-line human-readable summary."""
        return (
            f"Phase2Model(gap={self.gap_width:g} min, eps={RATE_TOLERANCE:g}, "
            f"E[hold]={self.mean_hold():.2f} min, "
            f"P(merge)={self.merge_probability():.3f})"
        )
