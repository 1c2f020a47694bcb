"""Movie catalog and popularity modelling.

VOD access patterns are classically skewed: a few popular titles receive most
requests.  The standard model — and the reason the paper restricts batching
and buffering to *popular* movies — is a Zipf distribution over the catalog.
:func:`zipf_popularities` generates the weights; :class:`MovieCatalog` splits
the catalog into the popular set (eligible for batching + buffering) and the
long tail (served by dedicated streams).
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["Movie", "MovieCatalog", "zipf_popularities"]


def zipf_popularities(count: int, skew: float = 0.271) -> np.ndarray:
    """Normalised Zipf-like popularity weights for ``count`` ranked movies.

    ``weight(rank) ∝ 1 / rank**(1 − skew)`` with ``skew = 0.271`` — the
    classic video-store fit used throughout the 1990s VOD literature
    (Dan, Sitaram & Shahabuddin 1994, the paper's batching reference).
    ``skew = 0`` is pure Zipf; larger values flatten the distribution.
    """
    if count < 1:
        raise ConfigurationError(f"catalog needs >= 1 movie, got {count}")
    if not 0.0 <= skew < 1.0:
        raise ConfigurationError(f"zipf skew must be in [0, 1), got {skew}")
    ranks = np.arange(1, count + 1, dtype=float)
    weights = 1.0 / ranks ** (1.0 - skew)
    return weights / weights.sum()


@dataclass(frozen=True)
class Movie:
    """One title in the catalog.

    ``length`` is in minutes; ``bitrate_mbps`` matters only for translating
    buffer minutes into megabytes (Example 2 uses 4 Mb/s MPEG-2).
    """

    movie_id: int
    title: str
    length: float
    bitrate_mbps: float = 4.0
    popularity: float = 0.0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigurationError(f"movie length must be positive, got {self.length}")
        if self.bitrate_mbps <= 0:
            raise ConfigurationError(f"bitrate must be positive, got {self.bitrate_mbps}")
        if not 0.0 <= self.popularity <= 1.0:
            raise ConfigurationError(f"popularity must be in [0, 1], got {self.popularity}")

    def buffer_megabytes(self, minutes: float) -> float:
        """Megabytes needed to hold ``minutes`` of this movie (Example 2 math)."""
        if minutes < 0:
            raise ConfigurationError(f"buffer minutes must be >= 0, got {minutes}")
        return minutes * 60.0 * self.bitrate_mbps / 8.0


class MovieCatalog:
    """A ranked catalog with a popular head eligible for data sharing."""

    def __init__(self, movies: Sequence[Movie], popular_count: int | None = None) -> None:
        if not movies:
            raise ConfigurationError("catalog must contain at least one movie")
        ids = [m.movie_id for m in movies]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("movie ids must be unique")
        total = sum(m.popularity for m in movies)
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ConfigurationError(f"popularities must sum to 1, got {total}")
        self._movies = tuple(sorted(movies, key=lambda m: m.popularity, reverse=True))
        if popular_count is None:
            popular_count = max(1, len(self._movies) // 10)
        if not 0 <= popular_count <= len(self._movies):
            raise ConfigurationError(
                f"popular_count must be in [0, {len(self._movies)}], got {popular_count}"
            )
        self._popular_count = popular_count
        self._by_id = {m.movie_id: m for m in self._movies}
        self._cumulative = _cumulative(self._movies)

    @classmethod
    def synthetic(
        cls,
        count: int,
        popular_count: int | None = None,
        skew: float = 0.271,
        length_minutes: float = 110.0,
        length_spread: float = 20.0,
        bitrate_mbps: float = 4.0,
        seed: int = 7,
    ) -> "MovieCatalog":
        """Generate a catalog with Zipf popularity and jittered lengths."""
        rng = np.random.Generator(np.random.PCG64(seed))
        weights = zipf_popularities(count, skew)
        movies = []
        for rank in range(count):
            jitter = float(rng.uniform(-length_spread, length_spread)) if length_spread else 0.0
            movies.append(
                Movie(
                    movie_id=rank,
                    title=f"movie-{rank:04d}",
                    length=max(30.0, length_minutes + jitter),
                    bitrate_mbps=bitrate_mbps,
                    popularity=float(weights[rank]),
                )
            )
        return cls(movies, popular_count=popular_count)

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------
    @property
    def movies(self) -> tuple[Movie, ...]:
        """All titles, sorted by popularity."""
        return self._movies

    @property
    def popular(self) -> tuple[Movie, ...]:
        """The head of the ranking: batching + buffering candidates."""
        return self._movies[: self._popular_count]

    @property
    def unpopular(self) -> tuple[Movie, ...]:
        """The long tail: served by dedicated streams."""
        return self._movies[self._popular_count:]

    def get(self, movie_id: int) -> Movie:
        """Look up a movie by id (ConfigurationError if unknown)."""
        try:
            return self._by_id[movie_id]
        except KeyError:
            raise ConfigurationError(f"unknown movie id {movie_id}") from None

    def is_popular(self, movie_id: int) -> bool:
        """True when the id belongs to the popular head."""
        return any(m.movie_id == movie_id for m in self.popular)

    def popular_request_fraction(self) -> float:
        """Fraction of the request stream that targets the popular head."""
        return sum(m.popularity for m in self.popular)

    def set_popularities(self, popularity_by_id: dict[int, float]) -> None:
        """Replace the request-sampling weights mid-experiment.

        Models a popularity shift in the arrival stream: the weights change,
        the *membership* of the popular head does not — titles keep their
        ranks so the services and allocations attached to them stay valid
        (a real deployment re-ranks on a much slower timescale than the
        within-run shifts the control-plane experiments exercise).
        """
        unknown = set(popularity_by_id) - set(self._by_id)
        if unknown:
            raise ConfigurationError(f"unknown movie ids {sorted(unknown)}")
        updated = [
            dataclasses.replace(
                m, popularity=popularity_by_id.get(m.movie_id, m.popularity)
            )
            for m in self._movies
        ]
        total = sum(m.popularity for m in updated)
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ConfigurationError(f"popularities must sum to 1, got {total}")
        self._movies = tuple(updated)
        self._by_id = {m.movie_id: m for m in self._movies}
        self._cumulative = _cumulative(self._movies)

    def sample(self, rng: np.random.Generator) -> Movie:
        """Draw a movie according to popularity.

        The same index and the same generator draw as
        ``rng.choice(len(self), p=popularities)``, which bisects the same
        normalised cumulative table with one ``rng.random()``.
        """
        return self._movies[bisect_right(self._cumulative, rng.random())]

    def __len__(self) -> int:
        return len(self._movies)

    def __iter__(self) -> Iterator[Movie]:
        return iter(self._movies)


def _cumulative(movies: Sequence[Movie]) -> list[float]:
    """``Generator.choice``'s table: the popularities' cumsum over its last value."""
    cdf = np.cumsum([m.popularity for m in movies])
    cdf /= cdf[-1]
    return cdf.tolist()
