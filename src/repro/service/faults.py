"""Deterministic fault injection for the live service.

The simulator's fault layer (:mod:`repro.faults`) schedules faults on the
simulation clock; the service adds the failure modes only a *live* system
has — clients that vanish, clients that stop reading, actuations that die —
and one capacity fault that exercises the degradation ladder end to end.

Every knob is a deterministic counter or service-clock instant, never an
RNG draw: the test suite and CI can assert the exact connection that drops
and the exact request that trips the stall guard.

=====================  ======================================================
knob                   effect
=====================  ======================================================
``drop_every``         the server severs every *k*-th accepted connection
                       right after its first request (simulating the peer
                       vanishing mid-session); its sessions close with
                       reason ``dropped`` and the server keeps serving
``stall_every``        every *k*-th connection is declared a slow client
                       right after its first request — the guard that
                       normally fires when a client stops draining its
                       socket — and is closed gracefully the same way
``actuation_failures`` the first *n* plan actuations raise, driving the
                       control loop's circuit breaker open (the service
                       coasts on the last-good plan)
``capacity_fault_at``  at this service minute the stream capacity shrinks to
                       ``capacity_fraction`` of nominal; the degradation
                       manager sheds in policy order; ``capacity_recovery``
                       minutes later the capacity (and the shed levels)
                       restore
``latency_fault_at``   at this service minute every decision starts reporting
                       an extra ``latency_fault_seconds`` of engine time (a
                       simulated slow disk/overloaded core) until
                       ``latency_fault_recovery`` minutes later; drives the
                       SLO monitor's p99 burn-rate objective deterministically
=====================  ======================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

__all__ = ["ServiceFaultConfig"]


def _positive(value: float) -> bool:
    """True for a finite value above zero; NaN and infinity fail."""
    return math.isfinite(value) and value > 0.0


@dataclass(frozen=True)
class ServiceFaultConfig:
    """Deterministic failure schedule for one service run."""

    drop_every: int | None = None
    stall_every: int | None = None
    actuation_failures: int = 0
    capacity_fault_at: float | None = None
    capacity_fraction: float = 0.5
    capacity_recovery: float | None = None
    latency_fault_at: float | None = None
    latency_fault_seconds: float = 1.0
    latency_fault_recovery: float | None = None

    def __post_init__(self) -> None:
        for name in ("drop_every", "stall_every"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.actuation_failures < 0:
            raise ConfigurationError(
                f"actuation_failures must be >= 0, got {self.actuation_failures}"
            )
        if self.capacity_fault_at is not None:
            if not (math.isfinite(self.capacity_fault_at) and self.capacity_fault_at >= 0.0):
                raise ConfigurationError(
                    f"capacity_fault_at must be finite and >= 0, got {self.capacity_fault_at}"
                )
            if not 0.0 < self.capacity_fraction <= 1.0:
                raise ConfigurationError(
                    f"capacity_fraction must be in (0, 1], got {self.capacity_fraction}"
                )
            if self.capacity_recovery is not None and not _positive(self.capacity_recovery):
                raise ConfigurationError(
                    f"capacity_recovery must be finite and positive, "
                    f"got {self.capacity_recovery}"
                )
        if self.latency_fault_at is not None:
            if not (math.isfinite(self.latency_fault_at) and self.latency_fault_at >= 0.0):
                raise ConfigurationError(
                    f"latency_fault_at must be finite and >= 0, got {self.latency_fault_at}"
                )
            if not _positive(self.latency_fault_seconds):
                raise ConfigurationError(
                    f"latency_fault_seconds must be finite and positive, "
                    f"got {self.latency_fault_seconds}"
                )
            if self.latency_fault_recovery is not None and not _positive(
                self.latency_fault_recovery
            ):
                raise ConfigurationError(
                    f"latency_fault_recovery must be finite and positive, "
                    f"got {self.latency_fault_recovery}"
                )

    @property
    def any_connection_faults(self) -> bool:
        """True when the server must track per-connection fault counters."""
        return self.drop_every is not None or self.stall_every is not None

    def drops_connection(self, connection_index: int) -> bool:
        """Is this (1-based) connection scheduled to be severed?"""
        return self.drop_every is not None and connection_index % self.drop_every == 0

    def stalls_connection(self, connection_index: int) -> bool:
        """Is this (1-based) connection scheduled to be declared stalled?"""
        return self.stall_every is not None and connection_index % self.stall_every == 0
