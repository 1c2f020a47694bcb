"""The certified cubic-Hermite ``F`` of ``CdfTransform`` against the exact CDF.

A transform interpolates ``F`` only when its certificate holds: every grid
density finite, and the interpolant within ``HERMITE_TOLERANCE`` of the
exact ``cdf_batch`` at every cell midpoint.  The oracle here checks the
promise that certificate stands for: within the bound at random points of
*every* cell, not only at midpoints.  Transforms that fail it must give the
exact CDF bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_properties import distributions

from repro.core.hitsets import (
    DEFAULT_GRID_POINTS,
    HERMITE_TOLERANCE,
    CdfTransform,
    hit_probability_batch,
)
from repro.core.vcrop import VCROperation
from repro.distributions import (
    EmpiricalDuration,
    ExponentialDuration,
    GammaDuration,
    UniformDuration,
    truncate,
)
from repro.experiments.example1 import paper_example1_specs
from repro.experiments.figure8 import figure8_tasks
from repro.service.bootstrap import default_behavior, default_catalog
from repro.workloads.fitting import FALLBACK_MEAN

#: Random points drawn inside each grid cell.
_PER_CELL = 3


def _cell_points(length: float, seed: int) -> np.ndarray:
    """``_PER_CELL`` uniform points strictly inside every grid cell."""
    grid = np.linspace(0.0, length, DEFAULT_GRID_POINTS)
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 1.0, (grid.size - 1, _PER_CELL))
    points = grid[:-1, None] + u * np.diff(grid)[:, None]
    return points[(points > 0.0) & (points < length)]


def _check(duration, length: float, seed: int = 1997) -> CdfTransform:
    """Build the transform and hold it to its contract at cell points."""
    transform = CdfTransform(duration, length)
    cs = _cell_points(length, seed)
    exact = duration.cdf_batch(cs)
    values = transform.F_many(cs)
    if transform.interpolated:
        assert float(np.max(np.abs(values - exact))) <= HERMITE_TOLERANCE
    else:
        assert values.tobytes() == exact.tobytes()
    stride = max(1, cs.size // 64)
    assert [transform.F(float(c)) for c in cs[::stride]] == values[::stride].tolist()
    return transform


@settings(max_examples=60, deadline=None)
@given(dist=distributions(), length=st.floats(10.0, 150.0), seed=st.integers(0, 2**32 - 1))
def test_interpolant_within_bound_in_every_cell(dist, length, seed):
    assume(dist.cdf(length) > 0.0)  # a truncation needs mass below l
    _check(truncate(dist, length), length, seed)


@pytest.mark.parametrize("spec", paper_example1_specs(), ids=lambda spec: spec.name)
def test_example1_transforms_certify(spec):
    transform = _check(truncate(spec.durations, spec.length), spec.length)
    assert transform.interpolated


def test_serve_default_catalog():
    """``serve``'s Uniform(0.5, 3) keeps the exact F; the refit fallback does not."""
    kinked = set(default_behavior().durations.values())
    fallback = ExponentialDuration(FALLBACK_MEAN)
    for movie in default_catalog(20, 5, seed=1234).popular:
        length = movie.length
        assert _check(truncate(fallback, length), length).interpolated
        for duration in kinked:
            assert not _check(truncate(duration, length), length).interpolated


@pytest.mark.parametrize(
    "duration",
    [
        GammaDuration(0.5, 4.0),  # infinite density at 0
        GammaDuration(1.5, 4.0),  # sqrt head: the first cell misses the bound
        EmpiricalDuration([0.5, 2.0, 3.5, 7.0, 20.0, 41.0]),  # kinks at knots
        UniformDuration(0.5, 3.0),  # kinks at both edges
    ],
    ids=lambda d: d.describe(),
)
def test_kinked_and_singular_families_keep_exact_cdf(duration):
    assert not _check(truncate(duration, 90.0), 90.0).interpolated


def test_figure8_p_hit_moves_by_less_than_1e_9():
    """P(hit) over the fast Figure-8 grid, interpolated F against exact F."""
    worst = 0.0
    for task in figure8_tasks(fast=True):
        spec = task.spec
        model = spec.build_model()
        duration = truncate(spec.durations, spec.length)
        interpolated = CdfTransform(duration, spec.length)
        exact = CdfTransform(duration, spec.length)
        exact._hermite_coeffs = None
        configs = [
            model.configuration(n, max(0.0, spec.length - n * spec.max_wait))
            for n in task.stream_counts
        ]
        for op in VCROperation:
            ours = hit_probability_batch(op, configs, duration, transform=interpolated)
            ref = hit_probability_batch(op, configs, duration, transform=exact)
            worst = max(worst, max(abs(a - b) for a, b in zip(ours, ref)))
    assert worst <= 1e-9
