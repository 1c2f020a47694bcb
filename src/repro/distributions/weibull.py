"""Weibull duration distribution.

Another standard family for interaction durations; shape < 1 gives the
"many tiny nudges, occasional long scans" behaviour seen in real VCR traces,
shape > 1 gives a mode away from zero.  Used by the distribution-sensitivity
ablation benchmark (A3 in DESIGN.md).
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import DurationDistribution

__all__ = ["WeibullDuration"]


class WeibullDuration(DurationDistribution):
    """Weibull with ``shape`` k and ``scale`` lambda."""

    __slots__ = ("_shape", "_scale")

    def __init__(self, shape: float, scale: float) -> None:
        self._shape = self._require_positive("shape", shape)
        self._scale = self._require_positive("scale", scale)

    @classmethod
    def from_mean(cls, mean: float, shape: float) -> "WeibullDuration":
        """Construct with a target mean at the given shape."""
        shape = cls._require_positive("shape", shape)
        mean = cls._require_positive("mean", mean)
        scale = mean / math.gamma(1.0 + 1.0 / shape)
        return cls(shape=shape, scale=scale)

    @property
    def shape(self) -> float:
        """The Weibull shape parameter k."""
        return self._shape

    @property
    def scale(self) -> float:
        """The Weibull scale parameter lambda."""
        return self._scale

    @property
    def mean(self) -> float:
        return self._scale * math.gamma(1.0 + 1.0 / self._shape)

    def pdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        z = x / self._scale
        if z == 0.0:
            # The origin, including subnormal x whose ratio against the
            # scale underflows to 0 (``0.0 ** negative`` would raise).
            if self._shape > 1.0:
                return 0.0
            if self._shape == 1.0:
                return 1.0 / self._scale
            return math.inf
        return (self._shape / self._scale) * z ** (self._shape - 1.0) * math.exp(-(z ** self._shape))

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-((x / self._scale) ** self._shape))

    def ppf(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            return super().ppf(q)
        return self._scale * (-math.log1p(-q)) ** (1.0 / self._shape)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        draws = rng.weibull(self._shape, size=size)
        return draws * self._scale

    def describe(self) -> str:
        return f"Weibull(shape={self._shape:g}, scale={self._scale:g}, mean={self.mean:g})"
