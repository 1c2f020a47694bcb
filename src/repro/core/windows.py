"""Partition-window geometry: the one definition of a *hit*.

Under static partitioning the movie is restarted every ``l/n`` minutes
(stream ``j`` starts at ``j * l/n``), each stream's playhead advances at the
playback rate, and its buffer partition retains the trailing ``B/n`` minutes
of video while the stream is active.  Everything about the windows is
therefore a closed-form function of time, which answers "does any partition
cover movie position ``q`` at time ``t``?" in O(1) integer arithmetic
instead of scanning streams.

A partition's buffer window *outlives* its I/O stream: when the playhead
reaches the end of the movie the stream is released, but the retained tail
``[l − span, l]`` stays in memory until the last enrolled viewer (``span``
minutes behind) finishes — this is precisely why the paper reserves ``delta``
per partition, and what makes its *partial hits* (catching only the last
viewer ``V_l`` of a partition) possible.  The window of a stream started at
``s_j`` is therefore ``[p_j − span, min(p_j, l)]`` for playhead
``p_j = t − s_j`` in ``[0, l + span]``, and a resume at ``q`` is a hit iff
some window covers ``q`` to within ``_TOL``.  The simulated server
(:class:`~repro.vod.partitioning.MovieService`) applies the same window and
tolerance to its actual live streams.

Derivation of :func:`find_covering_window`: the window covers position ``q``
iff ``q <= p_j`` and ``p_j − span <= q`` (for ``q <= l`` the cap
``min(p_j, l)`` is implied by ``q <= p_j``), i.e. ``s_j`` lies in
``[t − q − span, t − q]``; note ``t − q − span >= t − l − span`` makes the
liveness bound redundant.  A hit exists iff that range contains a
non-negative multiple of ``spacing``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.parameters import SystemConfiguration
from repro.exceptions import SimulationError

__all__ = ["WindowHit", "find_covering_window", "next_restart"]

_TOL = 1e-9


@dataclass(frozen=True)
class WindowHit:
    """A partition window found to cover a resume position.

    ``stream_index`` identifies the restart (stream ``j`` began at
    ``j * l/n``); ``lag`` is the viewer's offset ``d`` behind that stream's
    playhead after joining, which becomes his in-partition offset for
    subsequent operations.
    """

    stream_index: int
    playhead: float
    lag: float


def next_restart(config: SystemConfiguration, now: float) -> float:
    """First restart time at or after ``now``."""
    spacing = config.partition_spacing
    index = math.ceil((now - _TOL) / spacing)
    return max(0, index) * spacing


def find_covering_window(
    config: SystemConfiguration, now: float, position: float
) -> WindowHit | None:
    """The partition window covering ``position`` at time ``now``, if any.

    Returns the *youngest* covering stream (largest start time — smallest
    lag), which is the partition a resuming viewer would join to maximise the
    time before his frames are refreshed.  ``None`` means a miss.
    """
    if position < -_TOL or position > config.movie_length + _TOL:
        raise SimulationError(
            f"position {position} outside the movie [0, {config.movie_length}]"
        )
    position = min(max(position, 0.0), config.movie_length)
    spacing = config.partition_spacing
    span = config.partition_span
    lo = max(now - position - span, 0.0)
    hi = min(now, now - position)
    if hi < lo - _TOL:
        return None
    # Largest multiple of `spacing` in [lo, hi].
    index = math.floor((hi + _TOL) / spacing)
    start = index * spacing
    if start > hi and index >= 1 and (index - 1) * spacing >= lo - _TOL:
        # The tolerance admitted a restart just *beyond* the strict
        # containment bound (e.g. a stream starting 1 ulp in the future,
        # whose playhead would be negative).  When the previous stream also
        # covers, it is the one a viewer can actually join — prefer it.
        index -= 1
        start = index * spacing
    if start < lo - _TOL or index < 0:
        return None
    playhead = now - start
    return WindowHit(stream_index=index, playhead=playhead, lag=playhead - position)
