"""Gamma duration distribution.

Figure 7 of the paper draws VCR durations from "a skewed gamma distribution
with a mean = 8 minutes (alpha = 2, gamma = 4)" — shape 2, scale 4 in modern
notation — and Example 1 uses the same family for movie 1.  The CDF uses the
locally-implemented regularised lower incomplete gamma so that the core
library needs only NumPy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distributions.base import DurationDistribution
from repro.distributions.special import (
    log_gamma,
    regularized_lower_gamma,
    regularized_lower_gamma_many,
)

__all__ = ["GammaDuration"]


class GammaDuration(DurationDistribution):
    """Gamma distribution with ``shape`` (paper's alpha) and ``scale`` (paper's gamma)."""

    __slots__ = ("_shape", "_scale")

    def __init__(self, shape: float, scale: float) -> None:
        self._shape = self._require_positive("shape", shape)
        self._scale = self._require_positive("scale", scale)

    @classmethod
    def paper_figure7(cls) -> "GammaDuration":
        """The skewed gamma used throughout the paper's Figure 7 (mean 8)."""
        return cls(shape=2.0, scale=4.0)

    @property
    def shape(self) -> float:
        """The shape parameter (the paper's alpha)."""
        return self._shape

    @property
    def scale(self) -> float:
        """The scale parameter (the paper's gamma)."""
        return self._scale

    @property
    def mean(self) -> float:
        return self._shape * self._scale

    @property
    def variance(self) -> float:
        """Variance ``shape * scale**2``."""
        return self._shape * self._scale * self._scale

    def pdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        z = x / self._scale
        if z == 0.0:
            # The origin, including subnormal x whose ratio against the
            # scale underflows to 0: finite density only for shape >= 1.
            if self._shape > 1.0:
                return 0.0
            if self._shape == 1.0:
                return 1.0 / self._scale
            return math.inf
        log_pdf = (
            (self._shape - 1.0) * math.log(z) - z - log_gamma(self._shape)
        ) - math.log(self._scale)
        return math.exp(log_pdf)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return regularized_lower_gamma(self._shape, x / self._scale)

    def cdf_batch(self, xs):
        # The masked vectorised incomplete gamma, bitwise-equal to the
        # scalar series / continued fraction.
        xs = np.asarray(xs, dtype=float)
        scaled = np.where(xs > 0.0, xs / self._scale, 0.0)
        return regularized_lower_gamma_many(self._shape, scaled)

    def pdf_batch(self, xs):
        # ``pdf`` arithmetic per element: the linear combination vectorised
        # in the scalar's order, log/exp through map(math.*, ...).
        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape)
        z = xs / self._scale
        inside = ~(xs < 0.0)
        if self._shape <= 1.0:
            out[inside & (z == 0.0)] = 1.0 / self._scale if self._shape == 1.0 else math.inf
        interior = inside & (z != 0.0)
        zs = z[interior]
        logs = np.fromiter(map(math.log, zs.tolist()), dtype=float, count=zs.size)
        log_pdf = ((self._shape - 1.0) * logs - zs - log_gamma(self._shape)) - math.log(
            self._scale
        )
        out[interior] = np.fromiter(
            map(math.exp, log_pdf.tolist()), dtype=float, count=zs.size
        )
        return out

    def sample(self, rng: np.random.Generator, size: int | None = None):
        return rng.gamma(self._shape, self._scale, size=size)

    def describe(self) -> str:
        return f"Gamma(shape={self._shape:g}, scale={self._scale:g}, mean={self.mean:g})"
