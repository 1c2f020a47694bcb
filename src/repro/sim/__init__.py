"""Discrete-event simulation substrate.

The paper validates its analytical model against simulation (Section 4) and
its resource-allocation scheme implicitly assumes a server whose dynamics can
be simulated.  No DES library is available offline, so this subpackage
implements one from scratch in the style familiar from SimPy:

* :class:`~repro.sim.engine.Environment` — the event loop and clock.
* :class:`~repro.sim.engine.Process` — generator-based cooperative processes
  that ``yield`` events, with interrupt support.
* :class:`~repro.sim.resources.Resource` — capacity-limited FIFO resource.
* :class:`~repro.sim.rng.RandomStreams` — independent, reproducible named
  random substreams.
* :mod:`~repro.sim.metrics` — counters and time-weighted statistics.
"""

from repro.sim.engine import Environment, Event, Interrupt, Process, Timeout
from repro.sim.metrics import Counter, MetricsRegistry, TimeWeighted
from repro.sim.resources import Resource, ResourceRequest
from repro.sim.rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "Resource",
    "ResourceRequest",
    "RandomStreams",
    "Counter",
    "TimeWeighted",
    "MetricsRegistry",
]
