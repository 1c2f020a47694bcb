"""Summary statistics and confidence intervals for simulation output.

Section 4 of the paper validates the analytical model against simulation; a
credible reproduction must therefore report not just point estimates of the
empirical hit probability but uncertainty around them.  This module provides
a numerically-stable online accumulator (Welford), batch summaries, and
normal-approximation confidence intervals (simulation runs collect thousands
of Bernoulli hit/miss observations, comfortably inside CLT territory).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import InsufficientDataError, NumericsError

__all__ = [
    "RunningStat",
    "SummaryStatistics",
    "confidence_interval",
    "summarize",
    "normal_quantile",
]


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF via the Acklam rational approximation.

    Accurate to ~1e-9 over ``(0, 1)``; sufficient for confidence intervals.
    Implemented locally so the core library needs only NumPy.
    """
    if not 0.0 < p < 1.0:
        raise NumericsError(f"normal quantile requires p in (0, 1), got {p}")
    # Coefficients from Peter Acklam's algorithm.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


class RunningStat:
    """Welford online accumulator for mean and variance.

    Numerically stable for long simulation runs; supports merging the
    statistics of independent replications.
    """

    __slots__ = ("_count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def push(self, value: float) -> None:
        """Add one observation."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def extend(self, values: Iterable[float]) -> None:
        """Add many observations."""
        for v in values:
            self.push(v)

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Return a new accumulator equivalent to seeing both streams."""
        merged = RunningStat()
        if self._count == 0:
            merged._copy_from(other)
            return merged
        if other._count == 0:
            merged._copy_from(self)
            return merged
        total = self._count + other._count
        delta = other._mean - self._mean
        merged._count = total
        merged._mean = self._mean + delta * other._count / total
        merged._m2 = self._m2 + other._m2 + delta * delta * self._count * other._count / total
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    def _copy_from(self, other: "RunningStat") -> None:
        self._count = other._count
        self._mean = other._mean
        self._m2 = other._m2
        self._min = other._min
        self._max = other._max

    @property
    def count(self) -> int:
        """Number of observations seen."""
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (raises on an empty accumulator)."""
        if self._count == 0:
            raise InsufficientDataError("mean of empty RunningStat")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 for fewer than 2 observations)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def stddev(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation seen."""
        if self._count == 0:
            raise InsufficientDataError("minimum of empty RunningStat")
        return self._min

    @property
    def maximum(self) -> float:
        """Largest observation seen."""
        if self._count == 0:
            raise InsufficientDataError("maximum of empty RunningStat")
        return self._max

    def summary(self) -> "SummaryStatistics":
        """Freeze the accumulator into an immutable summary."""
        return SummaryStatistics(
            count=self.count,
            mean=self.mean,
            stddev=self.stddev,
            minimum=self.minimum,
            maximum=self.maximum,
        )


@dataclass(frozen=True)
class SummaryStatistics:
    """Immutable summary of a sample: count, mean, stddev, min, max."""

    count: int
    mean: float
    stddev: float
    minimum: float
    maximum: float

    def standard_error(self) -> float:
        """Standard error of the mean."""
        if self.count == 0:
            raise InsufficientDataError("standard error of an empty sample")
        return self.stddev / math.sqrt(self.count)

    def ci(self, confidence: float = 0.95) -> tuple[float, float]:
        """Normal-approximation confidence interval for the mean."""
        half = confidence_halfwidth(self.stddev, self.count, confidence)
        return (self.mean - half, self.mean + half)


def confidence_halfwidth(stddev: float, count: int, confidence: float = 0.95) -> float:
    """Half-width of a normal-approximation CI for a sample mean."""
    if count < 1:
        raise InsufficientDataError("confidence interval requires at least one observation")
    if count == 1:
        return math.inf
    z = normal_quantile(0.5 + confidence / 2.0)
    return z * stddev / math.sqrt(count)


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Normal-approximation CI for the mean of ``values``."""
    stat = RunningStat()
    stat.extend(values)
    return stat.summary().ci(confidence)


def summarize(values: Iterable[float]) -> SummaryStatistics:
    """One-shot summary of an iterable of observations."""
    stat = RunningStat()
    stat.extend(values)
    return stat.summary()
