"""Buffer-space accounting for the server.

The server owns ``B_s`` minutes' worth of buffer (Section 5's notation).  The
sizing layer assigns a slice ``B_i`` to each popular movie; this module
tracks those reservations, enforces the capacity constraint
``Σ B_i <= B_s``, and converts between minutes of video and megabytes for
cost reporting.

The per-partition *contents* are not materialised — the window geometry of
:mod:`repro.core.windows` describes what each partition holds at any
instant — so the pool is pure accounting, mirroring how the paper treats
buffer space as a scalar resource.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ResourceError
from repro.vod.movie import Movie

__all__ = ["BufferReservation", "BufferPool"]


@dataclass(frozen=True)
class BufferReservation:
    """An accepted buffer claim of ``minutes`` for ``movie``."""

    movie: Movie
    minutes: float

    @property
    def megabytes(self) -> float:
        """The reservation's size in megabytes."""
        return self.movie.buffer_megabytes(self.minutes)


class BufferPool:
    """Reservable pool of buffer space measured in minutes of video.

    Minutes are bitrate-dependent in megabyte terms; the pool accounts in
    megabytes internally so catalogs with mixed bitrates are handled
    correctly, while the public API speaks minutes per movie.
    """

    def __init__(self, capacity_megabytes: float) -> None:
        if capacity_megabytes < 0:
            raise ResourceError(f"capacity must be >= 0, got {capacity_megabytes}")
        self._capacity_mb = float(capacity_megabytes)
        self._reserved_mb = 0.0
        self._reservations: list[BufferReservation] = []

    @classmethod
    def for_minutes(cls, minutes: float, bitrate_mbps: float = 4.0) -> "BufferPool":
        """Pool sized to hold ``minutes`` of video at the given bitrate."""
        megabytes = minutes * 60.0 * bitrate_mbps / 8.0
        return cls(megabytes)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def capacity_megabytes(self) -> float:
        """Total pool size in megabytes."""
        return self._capacity_mb

    @property
    def reserved_megabytes(self) -> float:
        """Megabytes currently reserved."""
        return self._reserved_mb

    @property
    def available_megabytes(self) -> float:
        """Megabytes free to reserve."""
        return self._capacity_mb - self._reserved_mb

    @property
    def reservations(self) -> tuple[BufferReservation, ...]:
        """Snapshot of the live reservations."""
        return tuple(self._reservations)

    def reserved_minutes_for(self, movie_id: int) -> float:
        """Minutes reserved for one movie id."""
        return sum(r.minutes for r in self._reservations if r.movie.movie_id == movie_id)

    # ------------------------------------------------------------------
    # Reservation lifecycle.
    # ------------------------------------------------------------------
    def can_reserve(self, movie: Movie, minutes: float) -> bool:
        """True when the claim would fit the remaining capacity."""
        return movie.buffer_megabytes(minutes) <= self.available_megabytes + 1e-9

    def reserve(self, movie: Movie, minutes: float) -> BufferReservation:
        """Claim ``minutes`` of buffer for ``movie`` or raise ResourceError."""
        if minutes < 0:
            raise ResourceError(f"cannot reserve negative minutes ({minutes})")
        needed = movie.buffer_megabytes(minutes)
        if needed > self.available_megabytes + 1e-9:
            raise ResourceError(
                f"buffer pool exhausted: need {needed:.1f} MB for {movie.title!r}, "
                f"only {self.available_megabytes:.1f} MB free"
            )
        reservation = BufferReservation(movie=movie, minutes=minutes)
        self._reserved_mb += needed
        self._reservations.append(reservation)
        return reservation

    def release(self, reservation: BufferReservation) -> None:
        """Return a reservation to the pool."""
        try:
            self._reservations.remove(reservation)
        except ValueError:
            raise ResourceError("releasing a reservation this pool never granted") from None
        self._reserved_mb -= reservation.megabytes
        if self._reserved_mb < -1e-9:
            raise ResourceError("buffer accounting went negative (double release?)")
        self._reserved_mb = max(0.0, self._reserved_mb)

    def utilization(self) -> float:
        """Reserved fraction of the pool (0 for an empty pool)."""
        if self._capacity_mb == 0:
            return 0.0
        return self._reserved_mb / self._capacity_mb

    def resize(self, capacity_megabytes: float) -> None:
        """Change the pool size (the fault layer's buffer-pressure lever).

        Shrinking below the reserved total is allowed — existing
        reservations survive (their partitions are evicted separately by the
        degradation path) but new reservations fail until space frees, so
        ``utilization`` can transiently exceed 1.
        """
        if capacity_megabytes < 0:
            raise ResourceError(f"capacity must be >= 0, got {capacity_megabytes}")
        self._capacity_mb = float(capacity_megabytes)
