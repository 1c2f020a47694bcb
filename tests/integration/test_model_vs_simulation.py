"""Integration: the analytical model tracks the simulated server (paper
Section 4).

This is the repository's equivalent of Figure 7's validation claim, run on a
reduced grid so it stays test-suite friendly; the full-fidelity version is
``repro run figure7a`` … ``figure7d``.
"""

from __future__ import annotations

import pytest

from repro.core.hitmodel import HitProbabilityModel, VCRMix
from repro.core.vcrop import VCROperation
from repro.distributions import GammaDuration
from repro.experiments.figure7 import compare_model_and_simulation
from repro.vod.server import ServerWorkload

WORKLOAD = ServerWorkload(arrival_rate=0.5, horizon=1500.0, warmup=300.0, seed=20250704)


@pytest.fixture(scope="module")
def model():
    return HitProbabilityModel(
        120.0, GammaDuration.paper_figure7(), mix=VCRMix.paper_figure7d()
    )


@pytest.mark.parametrize(
    "operation",
    [VCROperation.FAST_FORWARD, VCROperation.REWIND, VCROperation.PAUSE, None],
    ids=["ff", "rw", "pause", "mixed"],
)
def test_model_tracks_simulation(model, operation):
    points = compare_model_and_simulation(
        model,
        partition_counts=[10, 30, 60],
        max_wait=1.0,
        workload=WORKLOAD,
        replications=3,
        operation=operation,
    )
    for point in points:
        assert point.absolute_error < 0.07, (
            f"{operation}: n={point.num_partitions} model={point.model_hit:.4f} "
            f"sim={point.simulated_hit:.4f}"
        )
    # The curve shape: P(hit) decreases with n along a fixed-w line for both
    # the model and the simulation.
    model_curve = [p.model_hit for p in points]
    sim_curve = [p.simulated_hit for p in points]
    assert model_curve == sorted(model_curve, reverse=True)
    assert sim_curve == sorted(sim_curve, reverse=True)


def test_rewind_bias_direction(model):
    """Paper Section 4: the model under-estimates RW (rewind to minute 0 can
    re-enroll in reality but is booked a miss analytically)."""
    points = compare_model_and_simulation(
        model,
        partition_counts=[10, 30],
        max_wait=1.0,
        workload=WORKLOAD,
        replications=3,
        operation=VCROperation.REWIND,
    )
    assert all(p.simulated_hit >= p.model_hit - 0.01 for p in points)
    # And the bias is visible at small n where the boundary mass is larger.
    assert points[0].simulated_hit > points[0].model_hit
