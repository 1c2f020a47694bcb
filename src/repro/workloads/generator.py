"""Synthetic trace generation.

Generates the log a VOD front-end would produce under a given behaviour:
Poisson session arrivals, exponential think times between VCR operations,
operation types from the mix, durations from the per-operation
distributions, positions advanced by the operations themselves.  The
generator is sequential per session (no resource contention — that is the
server simulation's job); its purpose is producing realistic *measurement*
data for the fitting pipeline and replayable workloads for experiments.
"""

from __future__ import annotations

from repro.core.vcrop import VCROperation
from repro.exceptions import ConfigurationError
from repro.sim.rng import RandomStreams
from repro.vod.movie import Movie, MovieCatalog
from repro.vod.vcr import VCRBehavior
from repro.workloads.events import SessionRecord, Trace, VCREventRecord

__all__ = ["WorkloadGenerator"]


class WorkloadGenerator:
    """Generates traces for a catalog under one behaviour specification."""

    def __init__(
        self,
        catalog: MovieCatalog,
        behavior: VCRBehavior,
        arrival_rate: float,
        seed: int = 1234,
    ) -> None:
        if arrival_rate <= 0.0:
            raise ConfigurationError(f"arrival rate must be positive, got {arrival_rate}")
        self._catalog = catalog
        self._behavior = behavior
        self._arrival_rate = arrival_rate
        self._seed = seed

    @classmethod
    def single_movie(
        cls,
        movie_length: float,
        behavior: VCRBehavior,
        arrival_rate: float,
        seed: int = 1234,
    ) -> "WorkloadGenerator":
        """Convenience for single-movie experiments (the Figure-7 setting)."""
        catalog = MovieCatalog(
            [Movie(0, "movie", movie_length, popularity=1.0)], popular_count=1
        )
        return cls(catalog, behavior, arrival_rate, seed=seed)

    def generate(self, horizon_minutes: float, replication: int = 0) -> Trace:
        """Generate all sessions arriving before ``horizon_minutes``."""
        if horizon_minutes <= 0.0:
            raise ConfigurationError(f"horizon must be positive, got {horizon_minutes}")
        streams = RandomStreams(self._seed).replicate(replication)
        rng_arrivals = streams.stream("arrivals")
        rng_movies = streams.stream("movies")
        rng_behavior = streams.stream("behavior")

        trace = Trace()
        clock = 0.0
        session_id = 0
        while True:
            clock += float(rng_arrivals.exponential(1.0 / self._arrival_rate))
            if clock >= horizon_minutes:
                break
            movie = self._catalog.sample(rng_movies)
            trace.add(self._generate_session(session_id, clock, movie, rng_behavior))
            session_id += 1
        return trace

    def _generate_session(
        self, session_id: int, arrival: float, movie: Movie, rng
    ) -> SessionRecord:
        behavior = self._behavior.truncated_to(movie.length)
        events: list[VCREventRecord] = []
        position = 0.0
        elapsed = 0.0
        completed = True
        while True:
            think = behavior.sample_think_time(rng)
            remaining = movie.length - position
            if think >= remaining:
                elapsed += remaining
                break
            elapsed += think
            position += think
            operation = behavior.sample_operation(rng)
            duration = behavior.sample_duration(operation, rng)
            wall = self._wall_time(operation, duration)
            if operation is VCROperation.FAST_FORWARD and duration >= movie.length - position:
                # The fast-forward runs off the end of the movie.
                wall = (movie.length - position) / 3.0
                events.append(
                    VCREventRecord(
                        at_minutes=elapsed, position=position,
                        operation=operation, duration=duration, wall_minutes=wall,
                    )
                )
                elapsed += wall
                break
            events.append(
                VCREventRecord(
                    at_minutes=elapsed, position=position,
                    operation=operation, duration=duration, wall_minutes=wall,
                )
            )
            if operation is VCROperation.FAST_FORWARD:
                position += duration
            elif operation is VCROperation.REWIND:
                position = max(0.0, position - duration)
            # Pause leaves the position unchanged.
            elapsed += wall
        return SessionRecord(
            session_id=session_id,
            arrival_minutes=arrival,
            movie_id=movie.movie_id,
            movie_length=movie.length,
            events=tuple(events),
            completed=completed,
            ended_at_minutes=elapsed,
        )

    def _wall_time(self, operation: VCROperation, duration: float) -> float:
        # Rates are unit multiples of playback; use the paper defaults.
        if operation is VCROperation.FAST_FORWARD:
            return duration / 3.0
        if operation is VCROperation.REWIND:
            return duration / 3.0
        return duration
