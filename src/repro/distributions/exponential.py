"""Exponential duration distribution.

Used by the paper for the VCR-operation durations of movies 2 and 3 in
Example 1 (means 5 and 2 minutes), and the default "short memoryless
interaction" model for VCR behaviour.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import DurationDistribution

__all__ = ["ExponentialDuration"]


class ExponentialDuration(DurationDistribution):
    """Exponential distribution parameterised by its mean."""

    __slots__ = ("_mean",)

    def __init__(self, mean: float) -> None:
        self._mean = self._require_positive("mean", mean)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def rate(self) -> float:
        """The rate parameter ``lambda = 1/mean``."""
        return 1.0 / self._mean

    def pdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        return self.rate * math.exp(-self.rate * x)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def cdf_batch(self, xs):
        # Same arithmetic as ``cdf`` (bit-for-bit), one frame per batch: the
        # multiply/negate are exactly-rounded vector ops and expm1 goes
        # through map(math.expm1, ...) per element.
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        pos = xs > 0.0
        args = (-self.rate) * xs[pos]
        out[pos] = -np.fromiter(map(math.expm1, args.tolist()), dtype=float, count=args.size)
        return out

    def pdf_batch(self, xs):
        # ``pdf`` arithmetic per element, exp through map(math.exp, ...).
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        inside = ~(xs < 0.0)
        args = (-self.rate) * xs[inside]
        out[inside] = self.rate * np.fromiter(
            map(math.exp, args.tolist()), dtype=float, count=args.size
        )
        return out

    def ppf(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            return super().ppf(q)  # delegate the error handling
        return -self._mean * math.log1p(-q)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.exponential(self._mean, size=size)

    def describe(self) -> str:
        return f"Exponential(mean={self._mean:g})"
