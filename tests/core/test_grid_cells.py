"""The arithmetic grid-cell lookup of ``CdfTransform`` against a binary search.

``CdfTransform`` locates a query point on its uniform grid by arithmetic —
the floor of ``c · (points − 1)/l``, corrected by one compare each way — and
reads ``G`` and the interpolated ``F`` from that one cell.  Part one holds
the lookup to ``searchsorted(xs, c, side="right") − 1`` wherever rounding
could push the estimate into a neighbouring cell.  Part two keeps the
binary-search evaluation the lookup replaced — ``searchsorted`` for the
Hermite ``F``, ``np.interp`` for ``G`` — and requires the same bytes from
the transform, interpolated or exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hitsets import DEFAULT_GRID_POINTS, CdfTransform
from repro.distributions import (
    EmpiricalDuration,
    ExponentialDuration,
    GammaDuration,
    UniformDuration,
    truncate,
)
from repro.experiments.example1 import paper_example1_specs

#: Movie lengths of the lookup property: the paper's, and extreme scales.
LENGTHS = (60.0, 75.0, 90.0, 129.1, 1e-3, 1e4)


def _transform(length: float) -> CdfTransform:
    return CdfTransform(truncate(ExponentialDuration(length / 3.0), length), length)


_TRANSFORMS = {length: _transform(length) for length in LENGTHS}


def _binary_search_cells(xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    return np.searchsorted(xs, cs, side="right") - 1


def _assert_cells(length: float, cs: np.ndarray) -> None:
    """Batched and scalar lookups of ``cs`` agree with the binary search."""
    transform = _TRANSFORMS[length]
    xs = transform._xs
    expected = _binary_search_cells(xs, cs)
    cells, offsets = transform._locate(cs)
    assert np.array_equal(cells, expected)
    assert offsets.tobytes() == (cs - xs[expected]).tobytes()
    stride = max(1, cs.size // 200)
    for c, cell in zip(cs[::stride], expected[::stride]):
        assert transform._locate(np.float64(c))[0] == cell


def _interior(cs: np.ndarray, length: float) -> np.ndarray:
    return cs[(cs > 0.0) & (cs < length)]


@pytest.mark.parametrize("length", LENGTHS, ids=str)
def test_cells_at_nodes_their_neighbours_and_midpoints(length):
    xs = np.linspace(0.0, length, DEFAULT_GRID_POINTS)
    cs = np.concatenate(
        (
            xs,
            np.nextafter(xs, -np.inf),
            np.nextafter(xs, np.inf),
            0.5 * (xs[1:] + xs[:-1]),
        )
    )
    _assert_cells(length, _interior(cs, length))


@settings(max_examples=60, deadline=None)
@given(
    length=st.sampled_from(LENGTHS),
    fractions=st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=50
    ),
)
def test_cells_at_random_points(length, fractions):
    cs = _interior(np.asarray(fractions) * length, length)
    if cs.size:
        _assert_cells(length, cs)


# ----------------------------------------------------------------------
# Part two: the binary-search evaluation the lookup replaced, as the oracle.
# ----------------------------------------------------------------------
def _searched_F(transform: CdfTransform, cs: np.ndarray) -> np.ndarray:
    """Interior ``F``: ``searchsorted`` + Horner, or the exact ``cdf_batch``."""
    if transform._hermite_coeffs is None:
        return transform._duration.cdf_batch(cs)
    xs = transform._xs
    f0, d1, d2, d3 = transform._hermite_coeffs
    cells = np.searchsorted(xs, cs, side="right") - 1
    s = cs - xs[cells]
    return f0[cells] + s * (d1[cells] + s * (d2[cells] + s * d3[cells]))


def _searched_F_many(transform: CdfTransform, cs: np.ndarray) -> np.ndarray:
    length = transform.movie_length
    out = np.where(cs >= length, float(transform._fs[-1]), 0.0)
    mask = (cs > 0.0) & (cs < length)
    if mask.any():
        out[mask] = _searched_F(transform, cs[mask])
    return out


def _searched_H_many(transform: CdfTransform, cs: np.ndarray) -> np.ndarray:
    length = transform.movie_length
    out = np.where(cs >= length, transform._g_total, 0.0)
    mask = (cs > 0.0) & (cs < length)
    if mask.any():
        interior = cs[mask]
        out[mask] = np.interp(interior, transform._xs, transform._gs) + (
            length - interior
        ) * _searched_F(transform, interior)
    return out


def _queries(length: float) -> np.ndarray:
    xs = np.linspace(0.0, length, DEFAULT_GRID_POINTS)
    rng = np.random.default_rng(1997)
    return np.concatenate(
        (
            xs,
            np.nextafter(xs, -np.inf),
            np.nextafter(xs, np.inf),
            0.5 * (xs[1:] + xs[:-1]),
            rng.uniform(-0.05 * length, 1.05 * length, 20_000),
            [-1.0, -0.0, 0.0, 5e-324, length, 2.0 * length],
        )
    )


def _assert_matches_binary_search(duration, length: float, interpolated: bool) -> None:
    transform = CdfTransform(duration, length)
    assert transform.interpolated is interpolated
    cs = _queries(length)
    assert transform.F_many(cs).tobytes() == _searched_F_many(transform, cs).tobytes()
    assert transform.H_many(cs).tobytes() == _searched_H_many(transform, cs).tobytes()
    inside = _interior(cs, length)[::97]
    assert [transform.G(c) for c in inside] == np.interp(
        inside, transform._xs, transform._gs
    ).tolist()


@pytest.mark.parametrize(
    "duration,length",
    [(truncate(spec.durations, spec.length), spec.length) for spec in paper_example1_specs()]
    + [
        (truncate(ExponentialDuration(2.0), 90.0), 90.0),
        (truncate(GammaDuration(2.0, 3.0), 129.1), 129.1),
    ],
    ids=lambda value: value.describe() if hasattr(value, "describe") else str(value),
)
def test_certified_transform_matches_binary_search(duration, length):
    _assert_matches_binary_search(duration, length, interpolated=True)


@pytest.mark.parametrize(
    "duration",
    [
        GammaDuration(0.5, 4.0),
        EmpiricalDuration([0.5, 2.0, 3.5, 7.0, 20.0, 41.0]),
        UniformDuration(0.5, 3.0),
    ],
    ids=lambda d: d.describe(),
)
def test_uncertified_transform_matches_binary_search(duration):
    _assert_matches_binary_search(truncate(duration, 90.0), 90.0, interpolated=False)


def test_nan_clamps_to_zero_in_scalar_and_batch():
    """NaN never reaches the lookup: scalar and batched clamps both give 0.0."""
    for interpolated in (True, False):
        duration = ExponentialDuration(2.0) if interpolated else UniformDuration(0.5, 3.0)
        transform = CdfTransform(truncate(duration, 90.0), 90.0)
        assert transform.interpolated is interpolated
        nan = np.asarray([np.nan])
        assert transform.F_many(nan).tolist() == transform.H_many(nan).tolist() == [0.0]
        assert transform.F(np.nan) == transform.G(np.nan) == transform.H(np.nan) == 0.0
