"""Per-movie feasible ``(B, n)`` sets — step 1/2 of the Section-5 procedure.

For a movie with length ``l`` and wait target ``w``, Eq. (2) ties the two
resources together: ``B = l − n·w``.  Sweeping ``n`` from 1 to ``l/w`` walks
the trade-off from "one stream + almost the whole movie in memory" down to
pure batching.  Along that line the hit probability is non-increasing in
``n`` (less buffer, smaller partitions), so the feasible region for a target
``P*`` is a prefix ``n ∈ {1, ..., n_max}``; :meth:`FeasibleSet.max_streams`
finds ``n_max`` by bisection with a monotonicity-tolerant verification pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.parameters import SystemConfiguration, VCRRates
from repro.core.vcrop import VCROperation
from repro.distributions.base import DurationDistribution
from repro.exceptions import ConfigurationError, InfeasibleError

__all__ = [
    "MovieSizingSpec",
    "FeasiblePoint",
    "FeasibleSet",
    "distribution_signature",
]


def distribution_signature(dist: DurationDistribution) -> tuple:
    """A hashable structural fingerprint of a duration distribution.

    Walks the ``__slots__`` of the concrete class (every distribution in
    :mod:`repro.distributions` is slotted): scalars contribute their value,
    nested distributions recurse, and sequence-valued slots contribute their
    elements — rounded numbers (empirical knots, mixture weights) or
    recursed distributions (mixture components).  Two distributions with
    equal signatures are behaviourally identical, which is why the runtime
    evaluation cache keys its transforms and ``P(hit | op)`` values on them.
    Slots named ``*_cache`` hold lazily filled memos (a truncation's mean
    and invariant key), not parameters, and are skipped so reading
    ``.mean`` cannot change the signature.
    """
    parts: list = [type(dist).__qualname__]
    for klass in type(dist).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot.endswith("_cache"):
                continue
            value = getattr(dist, slot, None)
            if isinstance(value, DurationDistribution):
                parts.append(distribution_signature(value))
            elif isinstance(value, (tuple, list, np.ndarray)):
                parts.append(
                    tuple(
                        distribution_signature(v)
                        if isinstance(v, DurationDistribution)
                        else round(float(v), 12)
                        for v in value
                    )
                )
            elif isinstance(value, (int, float, bool)) or value is None:
                parts.append(value)
            else:
                parts.append(repr(value))
    return tuple(parts)


@dataclass(frozen=True)
class MovieSizingSpec:
    """Everything sizing needs to know about one movie.

    ``durations`` may be one distribution for all operations (the paper's
    examples) or a per-operation mapping.
    """

    name: str
    length: float
    max_wait: float
    durations: DurationDistribution | dict[VCROperation, DurationDistribution]
    p_star: float = 0.5
    mix: VCRMix = field(default_factory=VCRMix.paper_figure7d)
    rates: VCRRates = field(default_factory=VCRRates.paper_default)

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigurationError(f"length must be positive, got {self.length}")
        if self.max_wait <= 0:
            raise ConfigurationError(f"max_wait must be positive, got {self.max_wait}")
        if self.max_wait > self.length:
            raise ConfigurationError(
                f"max_wait {self.max_wait} exceeds the movie length {self.length}"
            )
        if not 0.0 <= self.p_star <= 1.0:
            raise ConfigurationError(f"p_star must be in [0, 1], got {self.p_star}")

    def build_model(self) -> HitProbabilityModel:
        """Instantiate the hit model for this movie's statistics."""
        return HitProbabilityModel(self.length, self.durations, mix=self.mix, rates=self.rates)

    @property
    def pure_batching_streams(self) -> int:
        """Streams pure batching would need for the same wait: ``l / w``."""
        return max(1, math.ceil(self.length / self.max_wait - 1e-9))


@dataclass(frozen=True)
class FeasiblePoint:
    """One candidate configuration on the ``B = l − n·w`` line."""

    num_streams: int
    buffer_minutes: float
    hit_probability: float

    def meets(self, p_star: float) -> bool:
        """True when the point's hit probability reaches ``p_star``."""
        return self.hit_probability >= p_star - 1e-12


class FeasibleSet:
    """Evaluates and caches points of one movie's feasibility frontier."""

    def __init__(
        self,
        spec: MovieSizingSpec,
        points: Iterable[FeasiblePoint] | None = None,
    ) -> None:
        self._spec = spec
        # Built lazily on first use: a set warm-started from a parallel
        # sweep's ``points`` may never need an uncached point, and then the
        # truncation + CDF-transform setup is skipped entirely.
        self._model: HitProbabilityModel | None = None
        self._cache: dict[int, FeasiblePoint] = {}
        self._max_streams: int | None = None
        for point in points or ():
            self._cache[point.num_streams] = point

    @property
    def spec(self) -> MovieSizingSpec:
        """The movie spec this frontier belongs to."""
        return self._spec

    @property
    def model(self) -> HitProbabilityModel:
        """The underlying hit-probability model (built on first use)."""
        if self._model is None:
            self._model = self._spec.build_model()
        return self._model

    def known_points(self) -> tuple[FeasiblePoint, ...]:
        """Every point evaluated so far, sorted by stream count.

        This is the payload a parallel sweep ships back to the driver: a
        warm restart with these points replays any frontier query that
        touches only them without ever constructing the model.
        """
        return tuple(self._cache[n] for n in sorted(self._cache))

    def absorb(self, points: Iterable[FeasiblePoint], n_max: int | None = None) -> None:
        """Merge points evaluated elsewhere (a parallel sweep) into this set.

        Points already present locally win — by contract they are equal, so
        keeping the local object preserves ``point(n) is point(n)`` identity.
        A supplied ``n_max`` seeds the :meth:`max_streams` memo when this set
        has not computed it yet (the sweep worker ran the identical verified
        search).
        """
        for point in points:
            self._cache.setdefault(point.num_streams, point)
        if n_max is not None and self._max_streams is None:
            self._max_streams = int(n_max)

    @property
    def max_possible_streams(self) -> int:
        """``floor(l / w)`` — beyond this the Eq.-(2) buffer goes negative."""
        return int(math.floor(self._spec.length / self._spec.max_wait + 1e-9))

    # ------------------------------------------------------------------
    # Point evaluation.
    # ------------------------------------------------------------------
    def point(self, num_streams: int) -> FeasiblePoint:
        """Evaluate (with caching) the configuration with ``n`` streams."""
        if num_streams < 1 or num_streams > self.max_possible_streams:
            raise ConfigurationError(
                f"{self._spec.name}: n={num_streams} outside "
                f"[1, {self.max_possible_streams}]"
            )
        cached = self._cache.get(num_streams)
        if cached is not None:
            return cached
        self._evaluate_missing([num_streams])
        return self._cache[num_streams]

    def points_batch(self, stream_counts: Iterable[int]) -> list[FeasiblePoint]:
        """Evaluate many stream counts with one batched model call.

        Points already in the per-set cache are reused; the rest are
        resolved in a single :meth:`HitProbabilityModel.hit_probability_batch`
        evaluation.  Results are identical to calling :meth:`point` per
        count (the batched path is byte-identical to the scalar oracle).
        """
        ns = [int(n) for n in stream_counts]
        for n in ns:
            if n < 1 or n > self.max_possible_streams:
                raise ConfigurationError(
                    f"{self._spec.name}: n={n} outside "
                    f"[1, {self.max_possible_streams}]"
                )
        missing = sorted({n for n in ns if n not in self._cache})
        if missing:
            self._evaluate_missing(missing)
        return [self._cache[n] for n in ns]

    def _buffer_for(self, num_streams: int) -> float:
        return max(0.0, self._spec.length - num_streams * self._spec.max_wait)

    def _evaluate_missing(self, stream_counts: list[int]) -> None:
        """Evaluate uncached counts (already validated) into the point cache."""
        buffers = [self._buffer_for(n) for n in stream_counts]
        configs = [
            self.model.configuration(n, b) for n, b in zip(stream_counts, buffers)
        ]
        values = self.model.hit_probability_batch(configs)
        for n, b, value in zip(stream_counts, buffers, values):
            self._cache[n] = FeasiblePoint(
                num_streams=n, buffer_minutes=b, hit_probability=value
            )

    def configuration(self, num_streams: int) -> SystemConfiguration:
        """The full SystemConfiguration at ``num_streams`` on the Eq.-(2) line."""
        point = self.point(num_streams)
        return self.model.configuration(point.num_streams, point.buffer_minutes)

    # ------------------------------------------------------------------
    # Frontier queries.
    # ------------------------------------------------------------------
    def max_streams(self) -> int:
        """Largest feasible ``n`` (Example 1's per-movie optimum).

        Bisection over the monotone frontier, then a downward verification
        walk to absorb any residual non-monotonicity from quadrature noise.
        The returned ``n_max`` is *always* verified-feasible: the point it
        names has been evaluated and satisfies ``meets(p_star)`` — including
        the boundary cases ``w | l`` (where the top of the Eq.-(2) line is
        the pure-batching point ``B = 0``) and ``n_max == 1``.
        """
        if self._max_streams is not None:
            return self._max_streams
        p_star = self._spec.p_star
        hi = self.max_possible_streams
        # One batched call resolves both bisection anchors up front.
        self.points_batch([1, hi])
        if not self.point(1).meets(p_star):
            raise InfeasibleError(
                f"{self._spec.name}: even n=1 (B={self._spec.length - self._spec.max_wait:g}) "
                f"misses P*={p_star} (got {self.point(1).hit_probability:.4f})"
            )
        if self.point(hi).meets(p_star):
            self._max_streams = hi
            return hi
        lo = 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.point(mid).meets(p_star):
                lo = mid
            else:
                hi = mid
        # Verification walk: the bisection's invariant only holds on a
        # monotone frontier; under quadrature noise a spuriously-passing mid
        # can leave ``lo`` above the true boundary.  Re-check the candidate
        # and step down until the target genuinely holds — ``n = 1`` was
        # verified above, so the walk always terminates on a feasible point.
        while lo > 1 and not self.point(lo).meets(p_star):
            lo -= 1
        if not self.point(lo).meets(p_star):  # pragma: no cover - walk guard
            raise InfeasibleError(
                f"{self._spec.name}: no verified-feasible n for P*={p_star}"
            )
        self._max_streams = lo
        return lo

    def best_point(self) -> FeasiblePoint:
        """The minimum-buffer feasible point (maximum feasible ``n``)."""
        return self.point(self.max_streams())

    def curve(self, stream_counts: Iterable[int]) -> list[FeasiblePoint]:
        """Evaluate an arbitrary set of stream counts (plot helper)."""
        return self.points_batch(stream_counts)
