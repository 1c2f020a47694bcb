"""Piggybacking: the phase-2 fallback for resume misses.

When a resuming viewer misses every partition, the paper (Section 2, phase 2)
keeps him on the phase-1 stream "until he can join a partition, for instance,
using the piggybacking technique" — displaying slightly faster or slower than
nominal so his position drifts into a partition window, at which point the
dedicated stream is released (Golubchik, Lui & Muntz 1996).

Display-rate deviations are bounded by what viewers tolerate; the classic
figure is ±5%.  Given a missed viewer between two partitions, this policy
picks the cheaper drift direction and computes the merge time analytically:

* drift *forward* (display at ``1 + ε``): the viewer gains on the partition
  ahead, whose trailing edge is ``gap_ahead`` in front; merge after
  ``gap_ahead / ε`` wall minutes — unless the movie ends first;
* drift *backward* (display at ``1 − ε``): the partition behind gains on the
  viewer at the same relative speed.

The gaps are measured on the actual live streams by
:meth:`~repro.vod.partitioning.MovieService.live_gaps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["MergePlan", "PiggybackPolicy"]


@dataclass(frozen=True)
class MergePlan:
    """The outcome of planning a piggyback merge for a missed viewer.

    ``wall_minutes`` is how long the dedicated stream stays pinned before the
    viewer joins a partition (``math.inf`` if the movie ends first, in which
    case the stream is pinned for the rest of the session —
    ``minutes_to_end``).
    """

    direction: str              # "forward", "backward", or "none"
    wall_minutes: float         # time until merge (inf when unreachable)
    minutes_to_end: float       # time until the session would end anyway

    @property
    def merges(self) -> bool:
        """True when the merge lands before the session ends."""
        return self.wall_minutes < self.minutes_to_end

    @property
    def hold_minutes(self) -> float:
        """How long the stream actually stays pinned."""
        return min(self.wall_minutes, self.minutes_to_end)


class PiggybackPolicy:
    """Plans merges for miss-resumed viewers under a display-rate tolerance."""

    def __init__(self, rate_tolerance: float = 0.05) -> None:
        if not 0.0 < rate_tolerance < 1.0:
            raise ConfigurationError(
                f"rate tolerance must be in (0, 1), got {rate_tolerance}"
            )
        self._epsilon = rate_tolerance

    @property
    def rate_tolerance(self) -> float:
        """The display-rate deviation epsilon."""
        return self._epsilon

    def plan_from_gaps(
        self,
        gap_ahead: float | None,
        gap_behind: float | None,
        minutes_to_end: float,
        playback_rate: float = 1.0,
    ) -> MergePlan:
        """Plan a merge given measured gaps to the neighbouring partitions.

        ``gap_ahead`` is the distance to the trailing edge of the nearest
        partition ahead; ``gap_behind`` to the leading edge of the nearest
        partition behind (both in movie minutes, ``None`` when absent).
        """
        drift = self._epsilon * playback_rate
        forward_time = gap_ahead / drift if gap_ahead is not None else math.inf
        backward_time = gap_behind / drift if gap_behind is not None else math.inf

        # Forward drift also advances the viewer; the merge must happen
        # before *he* reaches the end at the faster rate.
        forward_deadline = minutes_to_end * playback_rate / (
            playback_rate * (1.0 + self._epsilon)
        )
        if forward_time > forward_deadline:
            forward_time = math.inf
        # Backward drift slows the viewer down, extending his session; the
        # merge must land before the (slowed) session ends.
        backward_deadline = minutes_to_end * playback_rate / (
            playback_rate * (1.0 - self._epsilon)
        )
        if backward_time > backward_deadline:
            backward_time = math.inf

        if forward_time <= backward_time:
            return MergePlan(
                direction="forward" if math.isfinite(forward_time) else "none",
                wall_minutes=forward_time,
                minutes_to_end=minutes_to_end,
            )
        return MergePlan(
            direction="backward", wall_minutes=backward_time, minutes_to_end=minutes_to_end
        )
