"""repro — reproduction of Leung, Lui & Golubchik (ICDE 1997).

Buffer and I/O resource pre-allocation for implementing batching and
buffering techniques for video-on-demand systems.

Public API highlights
---------------------
* :class:`repro.core.SystemConfiguration` — the ``(l, n, B, rates)`` geometry.
* :class:`repro.core.HitProbabilityModel` — the analytical ``P(hit)`` model.
* :mod:`repro.distributions` — VCR-duration distribution families.
* :mod:`repro.sizing` — feasible sets, allocation optimisation, cost model.
* :mod:`repro.vod` — full VOD-server simulation substrate.
* :mod:`repro.experiments` — regenerate every figure/table of the paper,
  including the Section-4 model-vs-simulation check on :mod:`repro.vod`.
"""

from repro.core import (
    HitBreakdown,
    HitProbabilityModel,
    Phase2Model,
    SystemConfiguration,
    VCRMix,
    VCROperation,
    VCRRates,
    WaitingTimeModel,
)
from repro.exceptions import (
    ConfigurationError,
    DistributionError,
    InfeasibleError,
    NumericsError,
    ReproError,
    SimulationError,
    SizingError,
)

__version__ = "1.0.0"

__all__ = [
    "HitBreakdown",
    "HitProbabilityModel",
    "Phase2Model",
    "WaitingTimeModel",
    "SystemConfiguration",
    "VCRMix",
    "VCROperation",
    "VCRRates",
    "ReproError",
    "ConfigurationError",
    "DistributionError",
    "NumericsError",
    "SimulationError",
    "SizingError",
    "InfeasibleError",
    "__version__",
]
