"""Empirical duration distribution fit from observed samples.

The paper notes the VCR duration pdf "can be obtained by statistics while the
movie is displayed".  This class is that path: feed it measured durations and
it exposes a smoothed empirical distribution the hit model can consume — a
linear-interpolation CDF between order statistics (equivalently, the pdf is a
histogram on the inter-order-statistic gaps).
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import DurationDistribution
from repro.exceptions import DistributionError

__all__ = ["EmpiricalDuration"]


class EmpiricalDuration(DurationDistribution):
    """Piecewise-linear empirical CDF over the observed samples.

    The CDF rises linearly from 0 at the smallest observation to 1 at the
    largest; sampling uses inverse-transform on the interpolated CDF, which
    (unlike naive resampling) produces a continuous variate suitable for the
    continuous-duration model.
    """

    __slots__ = ("_knots", "_probs")

    def __init__(self, samples) -> None:
        data = np.asarray(samples, dtype=float)
        if data.ndim != 1 or data.size < 2:
            raise DistributionError("empirical distribution needs >= 2 scalar samples")
        if not np.all(np.isfinite(data)):
            raise DistributionError("empirical samples must be finite")
        if np.any(data < 0.0):
            raise DistributionError("durations must be non-negative")
        knots = np.unique(np.sort(data))
        if knots.size < 2:
            raise DistributionError("empirical samples must not all be identical")
        # CDF value at each unique knot: fraction of samples <= knot, with the
        # first knot anchored at 0 so the distribution is continuous.
        counts = np.searchsorted(np.sort(data), knots, side="right")
        probs = counts / data.size
        probs[0] = 0.0
        probs[-1] = 1.0
        self._knots = knots
        self._probs = probs

    @property
    def mean(self) -> float:
        # Mean of the piecewise-linear CDF: sum over trapezoids.
        mids = 0.5 * (self._knots[1:] + self._knots[:-1])
        weights = np.diff(self._probs)
        return float(np.dot(mids, weights))

    @property
    def upper(self) -> float:
        return float(self._knots[-1])

    def pdf(self, x: float) -> float:
        if x < self._knots[0] or x > self._knots[-1]:
            return 0.0
        idx = int(np.searchsorted(self._knots, x, side="right")) - 1
        idx = min(max(idx, 0), self._knots.size - 2)
        width = self._knots[idx + 1] - self._knots[idx]
        mass = self._probs[idx + 1] - self._probs[idx]
        return float(mass / width)

    def pdf_batch(self, xs):
        # ``pdf`` per element: the same segment lookup and slope division.
        xs = np.asarray(xs, dtype=float).reshape(-1)
        knots = self._knots
        out = np.zeros(xs.shape)
        inside = ~((xs < knots[0]) | (xs > knots[-1]))
        idx = np.searchsorted(knots, xs[inside], side="right") - 1
        idx = np.minimum(np.maximum(idx, 0), knots.size - 2)
        out[inside] = (self._probs[idx + 1] - self._probs[idx]) / (knots[idx + 1] - knots[idx])
        return out

    def cdf(self, x: float) -> float:
        if x <= self._knots[0]:
            return 0.0
        if x >= self._knots[-1]:
            return 1.0
        return float(np.interp(x, self._knots, self._probs))

    def cdf_batch(self, xs):
        # One interpolation over the batch.  numpy's interp applies the same
        # slope formula whether or not it precomputes the slope table (it
        # does for batches at least as long as the knot array), so every
        # element equals the scalar call.  The clamps of ``cdf`` need no
        # masks: interp returns the end values probs[0] = 0.0 and
        # probs[-1] = 1.0 at and beyond the end knots.
        return np.interp(np.asarray(xs, dtype=float).reshape(-1), self._knots, self._probs)

    def ppf(self, q: float) -> float:
        if not 0.0 < q < 1.0:
            return super().ppf(q)
        x = float(np.interp(q, self._probs, self._knots))
        if self.cdf(x) < q:
            # Interpolating across a near-degenerate knot gap can underflow x
            # to the left of where the CDF reaches q (e.g. knots a subnormal
            # apart); fall back to the segment's right knot, which satisfies
            # the defining inequality cdf(ppf(q)) >= q exactly.
            idx = int(np.searchsorted(self._probs, q, side="left"))
            x = float(self._knots[min(idx, self._knots.size - 1)])
        return x

    def sample(self, rng: np.random.Generator, size: int | None = None):
        qs = rng.uniform(0.0, 1.0, size=size)
        return np.interp(qs, self._probs, self._knots) if size is not None else float(
            np.interp(qs, self._probs, self._knots)
        )

    def describe(self) -> str:
        return (
            f"Empirical(n_knots={self._knots.size}, mean={self.mean:g}, "
            f"range=[{self._knots[0]:g}, {self._knots[-1]:g}])"
        )
