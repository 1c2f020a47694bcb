"""Fit VCR behaviour back out of a trace.

Implements the measurement path the paper assumes exists: estimate the
operation mix from event counts, the think time from inter-event gaps, and a
duration distribution per operation.  Candidate duration families are fitted
by the method of moments (exponential, gamma, lognormal, Weibull-by-mean,
uniform) plus the empirical distribution; the candidate with the smallest
Kolmogorov–Smirnov distance to the sample wins.  The result plugs directly
into :class:`~repro.core.hitmodel.HitProbabilityModel` and
:class:`~repro.vod.vcr.VCRBehavior`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.hitmodel import VCRMix
from repro.core.vcrop import VCROperation
from repro.distributions import (
    DurationDistribution,
    EmpiricalDuration,
    ExponentialDuration,
    GammaDuration,
    LognormalDuration,
    UniformDuration,
    WeibullDuration,
)
from repro.distributions.deterministic import DeterministicDuration
from repro.exceptions import (
    ConfigurationError,
    FittingError,
    InsufficientDataError,
    NumericsError,
    ReproError,
)
from repro.vod.vcr import VCRBehavior
from repro.workloads.analysis import analyze_trace
from repro.workloads.events import Trace

__all__ = [
    "FALLBACK_MEAN",
    "ks_distance",
    "fit_duration_distribution",
    "FittedBehavior",
    "fit_behavior",
]

_MIN_SAMPLES = 8

#: Mean (minutes) of the exponential that seeds an operation too sparse to fit.
FALLBACK_MEAN = 5.0


def ks_distance(samples: Sequence[float], dist: DurationDistribution) -> float:
    """Kolmogorov–Smirnov distance between a sample and a distribution CDF."""
    data = np.sort(np.asarray(samples, dtype=float))
    if data.size == 0:
        raise ConfigurationError("KS distance needs at least one sample")
    n = data.size
    cdf_values = dist.cdf_batch(data)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(upper - cdf_values), np.abs(cdf_values - lower))))


def _moment_candidates(samples: np.ndarray) -> list[DurationDistribution]:
    """Method-of-moments fits for every applicable parametric family.

    A family whose moment inversion rejects the sample (near-zero variance
    drives the gamma shape or lognormal sigma out of their numeric range) is
    silently dropped — the competition decides among whoever showed up.
    """
    mean = float(np.mean(samples))
    variance = float(np.var(samples, ddof=1))
    candidates: list[DurationDistribution] = []

    def attempt(factory) -> None:
        try:
            candidates.append(factory())
        except ReproError:
            pass

    if mean > 0.0:
        attempt(lambda: ExponentialDuration(mean))
        if variance > 0.0:
            # Gamma: shape = mean^2/var, scale = var/mean.
            attempt(lambda: GammaDuration(mean * mean / variance, variance / mean))
            cv = math.sqrt(variance) / mean
            if cv > 0.0:
                attempt(lambda: LognormalDuration.from_mean_cv(mean, cv))
            # Weibull: match the mean at a CV-informed shape (cheap heuristic:
            # shape from the CV of a Weibull via a two-point bracket).
            attempt(lambda: WeibullDuration.from_mean(mean, _weibull_shape_from_cv(cv)))
    lo, hi = float(np.min(samples)), float(np.max(samples))
    if hi > lo >= 0.0:
        attempt(lambda: UniformDuration(lo, hi))
    return candidates


def _weibull_shape_from_cv(cv: float) -> float:
    """Invert the Weibull CV(shape) relation by bisection."""
    from repro.numerics.rootfind import bisect

    def cv_of(shape: float) -> float:
        g1 = math.gamma(1.0 + 1.0 / shape)
        g2 = math.gamma(1.0 + 2.0 / shape)
        return math.sqrt(max(0.0, g2 / (g1 * g1) - 1.0))

    target = min(max(cv, 0.05), 5.0)
    try:
        return bisect(lambda k: cv_of(k) - target, 0.2, 20.0, tol=1e-6)
    except (NumericsError, OverflowError):
        # No sign change in the bracket (CV outside the Weibull family's
        # reachable range) — fall back to the exponential special case.
        return 1.0


def fit_duration_distribution(
    samples: Sequence[float],
) -> tuple[DurationDistribution, float]:
    """Best-fitting duration distribution and its KS distance.

    Parametric moment fits compete against the empirical distribution; a
    parametric family wins ties (smaller description, smoother model).

    Degenerate samples are handled deterministically rather than crashing a
    live refit: too few samples raise :class:`InsufficientDataError` (a
    :class:`ConfigurationError` subclass), and a zero-variance sample — every
    duration identical, including all zero — falls back to the point mass
    :class:`DeterministicDuration` at that value with a KS distance of 0.
    """
    data = np.asarray(samples, dtype=float)
    if data.size < _MIN_SAMPLES:
        raise InsufficientDataError(
            f"need at least {_MIN_SAMPLES} samples to fit, got {data.size}"
        )
    if np.any(data < 0.0) or not np.all(np.isfinite(data)):
        raise FittingError("duration samples must be finite and non-negative")
    if float(np.max(data)) == float(np.min(data)):
        # Zero variance: no parametric family is identifiable and the
        # empirical CDF is a step — the point mass reproduces it exactly.
        return DeterministicDuration(float(data[0])), 0.0
    scored: list[tuple[float, int, DurationDistribution]] = []
    for index, candidate in enumerate(_moment_candidates(data)):
        try:
            scored.append((ks_distance(data, candidate), index, candidate))
        except ReproError:
            # A candidate whose CDF itself misbehaves on this sample (e.g. a
            # gamma with an astronomically large shape from near-constant
            # data) is disqualified, not fatal.
            continue
    if np.unique(data).size >= 2:
        empirical = EmpiricalDuration(data)
        # Penalise slightly so it only wins when parametrics genuinely fail.
        scored.append((ks_distance(data, empirical) + 0.02, len(scored), empirical))
    if not scored:
        raise FittingError("no duration family could be fitted to the sample")
    scored.sort(key=lambda item: (item[0], item[1]))
    best_distance, _, best = scored[0]
    return best, best_distance


@dataclass(frozen=True)
class FittedBehavior:
    """The outcome of fitting a trace: behaviour + fit diagnostics."""

    behavior: VCRBehavior
    ks_by_operation: dict[VCROperation, float]
    sample_counts: dict[VCROperation, int]
    estimated_arrival_rate: float | None

    def describe(self) -> str:
        """Single-line human-readable summary."""
        fits = ", ".join(
            f"{op.value}:{self.behavior.durations[op].describe()}"
            f"(KS={self.ks_by_operation[op]:.3f}, n={self.sample_counts[op]})"
            for op in VCROperation
        )
        return f"FittedBehavior(mix={self.behavior.mix}, {fits})"


def fit_behavior(trace: Trace) -> FittedBehavior:
    """Fit the complete VCR behaviour out of a trace.

    Operations with too few samples fall back to an exponential with mean
    :data:`FALLBACK_MEAN` (and a KS of NaN) rather than failing — a deployment
    bootstraps from sparse data.
    """
    stats = analyze_trace(trace)
    if stats.num_events == 0:
        raise ConfigurationError("trace contains no VCR events to fit")
    mix = VCRMix(
        p_ff=stats.operation_fractions[VCROperation.FAST_FORWARD],
        p_rw=stats.operation_fractions[VCROperation.REWIND],
        p_pause=stats.operation_fractions[VCROperation.PAUSE],
    )
    durations: dict[VCROperation, DurationDistribution] = {}
    ks_by_op: dict[VCROperation, float] = {}
    counts: dict[VCROperation, int] = {}
    for op in VCROperation:
        samples = [event.duration for event in trace.events_of(op)]
        counts[op] = len(samples)
        try:
            durations[op], ks_by_op[op] = fit_duration_distribution(samples)
        except FittingError:
            # Sparse or unusable samples (too few, non-finite from a corrupt
            # log): bootstrap from the fallback instead of dying mid-refit.
            durations[op] = ExponentialDuration(FALLBACK_MEAN)
            ks_by_op[op] = math.nan
    think = stats.mean_think_time if stats.mean_think_time else 15.0
    behavior = VCRBehavior(mix=mix, durations=durations, mean_think_time=think)
    rate = None
    if stats.interarrival is not None and stats.interarrival.mean > 0.0:
        rate = 1.0 / stats.interarrival.mean
    return FittedBehavior(
        behavior=behavior,
        ks_by_operation=ks_by_op,
        sample_counts=counts,
        estimated_arrival_rate=rate,
    )
