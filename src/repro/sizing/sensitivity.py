"""Sensitivity of the sizing decision to mis-measured VCR statistics.

The paper's procedure takes the VCR-duration pdf and the operation mix as
measured inputs.  Real measurements are noisy, so a deployment needs to know
how wrong its ``(B*, n*)`` becomes when the inputs are off.  For one movie
spec this module answers two questions per perturbation:

* **planning shift** — resize under the perturbed statistics: how far do
  ``n*`` and ``B*`` move?
* **realised performance** — deploy the configuration sized under the
  perturbed (wrong) statistics, but evaluate it under the nominal (true)
  model: what hit probability do viewers actually get, and is the ``P*``
  target still met?

The headline finding (documented by the test suite and the
``ablation-distributions`` benchmark): the frontier is remarkably **robust
to duration-scale errors** — the hit sets cover a roughly scale-free
fraction of duration space, so even a 2x mis-measurement of the mean moves
``n*`` by a stream or two — but **fragile to family and mix errors** (a
deterministic duration where a gamma was assumed, or a pause-heavy mix
measured as FF-heavy, moves the realised hit probability by several points).
Measure the *shape* carefully; the scale forgives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from repro.core.hitmodel import VCRMix
from repro.core.vcrop import VCROperation
from repro.distributions.base import DurationDistribution
from repro.distributions.scaled import ScaledDuration
from repro.exceptions import ConfigurationError
from repro.sizing.feasible import FeasibleSet, MovieSizingSpec

__all__ = ["SensitivityRow", "SizingSensitivity"]


@dataclass(frozen=True)
class SensitivityRow:
    """The outcome of sizing under one perturbed set of statistics."""

    label: str
    num_streams: int
    buffer_minutes: float
    predicted_hit: float       # what the (possibly wrong) model believes
    realized_hit: float        # what the nominal model says actually happens
    meets_target: bool         # realised >= the nominal P*

    @property
    def hit_error(self) -> float:
        """Signed optimism of the perturbed model (predicted − realised)."""
        return self.predicted_hit - self.realized_hit


class SizingSensitivity:
    """Perturbation analysis around one movie's nominal sizing inputs."""

    def __init__(self, spec: MovieSizingSpec) -> None:
        self._spec = spec
        self._nominal = FeasibleSet(spec)

    @property
    def spec(self) -> MovieSizingSpec:
        """The nominal movie spec under analysis."""
        return self._spec

    def nominal_row(self) -> SensitivityRow:
        """The baseline: sized and evaluated under the same statistics."""
        return self._row("nominal", self._spec)

    # ------------------------------------------------------------------
    # Perturbation families.
    # ------------------------------------------------------------------
    def duration_scaling(self, factors: Sequence[float]) -> list[SensitivityRow]:
        """Durations mis-measured by a multiplicative factor."""
        rows = [self.nominal_row()]
        for factor in factors:
            if factor <= 0.0:
                raise ConfigurationError(f"scale factor must be positive, got {factor}")
            if factor == 1.0:
                continue
            perturbed = replace(
                self._spec, durations=self._scale_durations(factor)
            )
            rows.append(self._row(f"durations x{factor:g}", perturbed))
        return rows

    def mix_alternatives(
        self, alternatives: Mapping[str, VCRMix]
    ) -> list[SensitivityRow]:
        """The operation mix mis-measured."""
        rows = [self.nominal_row()]
        for label, mix in alternatives.items():
            rows.append(self._row(label, replace(self._spec, mix=mix)))
        return rows

    def family_alternatives(
        self, alternatives: Mapping[str, DurationDistribution]
    ) -> list[SensitivityRow]:
        """The duration *family* mis-identified (e.g. exponential fitted to
        gamma data); alternatives should match the nominal mean."""
        rows = [self.nominal_row()]
        for label, dist in alternatives.items():
            rows.append(self._row(label, replace(self._spec, durations=dist)))
        return rows

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _scale_durations(self, factor: float):
        durations = self._spec.durations
        if isinstance(durations, DurationDistribution):
            return ScaledDuration(durations, factor)
        return {op: ScaledDuration(dist, factor) for op, dist in durations.items()}

    def _row(self, label: str, perturbed_spec: MovieSizingSpec) -> SensitivityRow:
        perturbed = FeasibleSet(perturbed_spec)
        point = perturbed.best_point()
        # Evaluate the perturbed decision under the nominal (true) model.
        config = self._nominal.model.configuration(
            point.num_streams, point.buffer_minutes
        )
        realized = self._nominal.model.hit_probability(config)
        return SensitivityRow(
            label=label,
            num_streams=point.num_streams,
            buffer_minutes=point.buffer_minutes,
            predicted_hit=point.hit_probability,
            realized_hit=realized,
            meets_target=bool(realized >= self._spec.p_star - 1e-9),
        )
