"""Drift-gated incremental re-fitting on top of :mod:`repro.workloads.fitting`.

The controller must not refit every tick: fitting five candidate families per
operation per movie is the expensive part of the loop, and under stationary
traffic it would only re-derive the distributions it already holds.  The
:class:`IncrementalRefitter` therefore keeps the currently accepted fit per
``(movie, operation)`` and, on each tick, measures the Kolmogorov–Smirnov
distance between the telemetry window and that fit.  Only operations whose
distance exceeds :data:`KS_THRESHOLD` (0.15) are refitted; a stationary
system settles into a state where every tick is a handful of CDF evaluations
and zero fits.

The threshold must dominate KS sampling noise — for a window of ``n`` i.i.d.
samples drawn *from* the fitted distribution the distance concentrates around
``~1.36/sqrt(n)`` at the 95th percentile (n=100 → 0.136) — so 0.15 keeps a
converged fit quiet on realistic window sizes while still firing on a genuine
family or scale change.  Below :data:`MIN_WINDOW_SAMPLES` (30) samples no
drift verdict is attempted, and an operation that has never produced a usable
window is seeded with an exponential of mean
:data:`~repro.workloads.fitting.FALLBACK_MEAN` (5.0 minutes), the same
fallback :func:`~repro.workloads.fitting.fit_behavior` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.vcrop import VCROperation
from repro.distributions import DurationDistribution, ExponentialDuration
from repro.exceptions import FittingError
from repro.runtime.telemetry import TelemetrySnapshot
from repro.vod.vcr import VCRBehavior
from repro.workloads.fitting import (
    FALLBACK_MEAN,
    fit_duration_distribution,
    ks_distance,
)

__all__ = ["KS_THRESHOLD", "MIN_WINDOW_SAMPLES", "DriftReport", "IncrementalRefitter"]

#: KS distance above which an operation's accepted fit is replaced.
KS_THRESHOLD = 0.15

#: Window floor below which no drift verdict is attempted.
MIN_WINDOW_SAMPLES = 30


@dataclass(frozen=True)
class DriftReport:
    """What one refit pass did for one movie."""

    movie_id: int
    at_minutes: float
    ks_by_operation: dict[VCROperation, float]
    refitted: tuple[VCROperation, ...]
    skipped_insufficient: tuple[VCROperation, ...]
    drifted: bool

    def describe(self) -> str:
        """Single-line summary for logs."""
        distances = ", ".join(
            f"{op.value}={self.ks_by_operation[op]:.3f}"
            if not math.isnan(self.ks_by_operation[op])
            else f"{op.value}=n/a"
            for op in VCROperation
        )
        verb = "refit " + ",".join(op.value for op in self.refitted) if self.refitted else "quiet"
        return f"DriftReport(movie={self.movie_id}, KS[{distances}], {verb})"


@dataclass
class _MovieFits:
    """The accepted per-operation fits of one movie."""

    durations: dict[VCROperation, DurationDistribution] = field(default_factory=dict)
    refit_count: int = 0


class IncrementalRefitter:
    """Keeps per-movie fitted distributions current; refits only on drift."""

    def __init__(self) -> None:
        self._fits: dict[int, _MovieFits] = {}
        self.ticks = 0
        self.refits = 0

    # ------------------------------------------------------------------
    # Seeding.
    # ------------------------------------------------------------------
    def seed(self, movie_id: int, behavior: VCRBehavior) -> None:
        """Install an a-priori behaviour (e.g. the offline plan's fit).

        Seeding gives the drift detector a reference from tick one, so the
        first window is *compared* against the offline assumption instead of
        being blindly fitted — exactly the "statistics obtained while the
        movie is displayed" bootstrap the paper sketches.
        """
        self._fits[movie_id] = _MovieFits(durations=dict(behavior.durations))

    def fitted_durations(self, movie_id: int) -> dict[VCROperation, DurationDistribution]:
        """The currently accepted fits of one movie (empty before contact)."""
        fits = self._fits.get(movie_id)
        return dict(fits.durations) if fits else {}

    # ------------------------------------------------------------------
    # The drift-gated tick.
    # ------------------------------------------------------------------
    def observe(self, snapshot: TelemetrySnapshot) -> DriftReport:
        """Compare one telemetry window against the accepted fits.

        Per operation: not enough samples → keep the current fit (or install
        the exponential fallback if there is none); enough samples and the
        current fit is within :data:`KS_THRESHOLD` → keep it; otherwise refit
        from the window.  A failed refit (degenerate window) also keeps the
        current fit — a live control plane never dies on bad data.
        """
        self.ticks += 1
        fits = self._fits.setdefault(snapshot.movie_id, _MovieFits())
        ks_by_op: dict[VCROperation, float] = {}
        refitted: list[VCROperation] = []
        skipped: list[VCROperation] = []
        for op in VCROperation:
            window = snapshot.durations.get(op, ())
            current = fits.durations.get(op)
            if len(window) < MIN_WINDOW_SAMPLES:
                ks_by_op[op] = math.nan
                skipped.append(op)
                if current is None:
                    fits.durations[op] = ExponentialDuration(FALLBACK_MEAN)
                continue
            if current is None:
                # First full window of this operation: fit unconditionally.
                ks_by_op[op] = math.inf
            else:
                ks_by_op[op] = ks_distance(window, current)
                if ks_by_op[op] <= KS_THRESHOLD:
                    continue
            try:
                fits.durations[op], _ = fit_duration_distribution(window)
            except FittingError:
                if current is None:
                    fits.durations[op] = ExponentialDuration(FALLBACK_MEAN)
                continue
            refitted.append(op)
        if refitted:
            fits.refit_count += 1
            self.refits += 1
        return DriftReport(
            movie_id=snapshot.movie_id,
            at_minutes=snapshot.at_minutes,
            ks_by_operation=ks_by_op,
            refitted=tuple(refitted),
            skipped_insufficient=tuple(skipped),
            drifted=bool(refitted),
        )

    def behavior_for(self, snapshot: TelemetrySnapshot) -> VCRBehavior | None:
        """The full current behaviour of one movie, None before a usable mix.

        Combines the accepted duration fits with the snapshot's decayed
        operation mix and think-time estimate; this is what the controller
        hands to the sizing layer.
        """
        if snapshot.mix is None:
            return None
        fits = self._fits.get(snapshot.movie_id)
        durations = dict(fits.durations) if fits else {}
        for op in VCROperation:
            durations.setdefault(op, ExponentialDuration(FALLBACK_MEAN))
        think = snapshot.mean_think_time
        if think is None or think <= 0.0:
            think = 15.0
        return VCRBehavior(mix=snapshot.mix, durations=durations, mean_think_time=think)
