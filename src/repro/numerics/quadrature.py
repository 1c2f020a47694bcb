"""Definite-integral quadrature rules.

The hit-probability model evaluates many integrals of the form
``integral of g(u) over [a, b]`` where ``g`` is built from a distribution CDF
and is piecewise smooth.  Gauss–Legendre quadrature with a modest number of
nodes is both fast and accurate for these, and is the default used by the
model.  Composite trapezoid/Simpson rules and an adaptive Simpson routine are
provided for validation and for integrands with limited smoothness.

All routines integrate scalar-valued callables over a finite interval and
return a ``float``.  Vectorised evaluation is used where the callable accepts
NumPy arrays (``gauss_legendre`` probes for this and falls back to a scalar
loop when the callable does not broadcast).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.exceptions import NumericsError

__all__ = [
    "trapezoid",
    "simpson",
    "adaptive_simpson",
    "gauss_legendre",
    "gauss_legendre_nodes",
    "fixed_quadrature",
]

#: Default number of Gauss–Legendre nodes.  32 nodes integrate polynomials up
#: to degree 63 exactly and give ~1e-12 accuracy on the smooth CDF-based
#: integrands that the hit model produces.
DEFAULT_GL_NODES = 32


def _validate_bounds(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NumericsError(f"integration bounds must be finite, got [{a}, {b}]")


def trapezoid(func: Callable[[float], float], a: float, b: float, num_points: int = 257) -> float:
    """Composite trapezoid rule with ``num_points`` equally spaced samples.

    Parameters
    ----------
    func:
        Integrand; must accept a float and return a float.
    a, b:
        Finite integration bounds.  ``b < a`` yields the signed integral.
    num_points:
        Number of sample points (at least 2).
    """
    _validate_bounds(a, b)
    if num_points < 2:
        raise NumericsError(f"trapezoid needs at least 2 points, got {num_points}")
    if a == b:
        return 0.0
    xs = np.linspace(a, b, num_points)
    ys = np.asarray([float(func(float(x))) for x in xs])
    return float(np.trapezoid(ys, xs))


def simpson(func: Callable[[float], float], a: float, b: float, num_intervals: int = 256) -> float:
    """Composite Simpson rule over ``num_intervals`` (even) subintervals."""
    _validate_bounds(a, b)
    if num_intervals < 2 or num_intervals % 2:
        raise NumericsError(f"simpson needs an even interval count >= 2, got {num_intervals}")
    if a == b:
        return 0.0
    xs = np.linspace(a, b, num_intervals + 1)
    ys = np.asarray([float(func(float(x))) for x in xs])
    h = (b - a) / num_intervals
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def _simpson_segment(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(
    func: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> float:
    """Adaptive Simpson quadrature with classic error-halving recursion.

    Subdivides until the two-panel Richardson estimate is within ``tol``
    (scaled by the subinterval length relative to the whole range) or
    ``max_depth`` levels of recursion have been used.
    """
    _validate_bounds(a, b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    def recurse(lo: float, hi: float, flo: float, fmid: float, fhi: float,
                whole: float, eps: float, depth: int) -> float:
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = float(func(lmid))
        frm = float(func(rmid))
        left = _simpson_segment(flo, flm, fmid, lo, mid)
        right = _simpson_segment(fmid, frm, fhi, mid, hi)
        if depth >= max_depth or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (
            recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth + 1)
            + recurse(mid, hi, fmid, frm, fhi, right, eps / 2.0, depth + 1)
        )

    fa, fb = float(func(a)), float(func(b))
    fm = float(func(0.5 * (a + b)))
    whole = _simpson_segment(fa, fm, fb, a, b)
    return sign * recurse(a, b, fa, fm, fb, whole, tol, 0)


@lru_cache(maxsize=32)
def _gl_nodes(num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss–Legendre nodes/weights on the reference interval [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(num_nodes)
    return nodes, weights


@lru_cache(maxsize=32)
def gauss_legendre_nodes(num_nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss–Legendre nodes and weights on ``[-1, 1]`` as plain floats.

    The batched hit-model kernels consume the rule directly (they fuse the
    node loop into one array evaluation); exposing it here keeps every
    quadrature constant in one place.  Values are bit-identical to the
    arrays :func:`gauss_legendre` uses internally.
    """
    if num_nodes < 1:
        raise NumericsError(f"gauss_legendre_nodes needs >= 1 node, got {num_nodes}")
    nodes, weights = _gl_nodes(num_nodes)
    return tuple(float(x) for x in nodes), tuple(float(w) for w in weights)


def gauss_legendre(
    func: Callable,
    a: float,
    b: float,
    num_nodes: int = DEFAULT_GL_NODES,
) -> float:
    """Gauss–Legendre quadrature of ``func`` over ``[a, b]``.

    The integrand is first probed with an array argument; if it broadcasts,
    a single vectorised call is used, otherwise a scalar loop.
    """
    _validate_bounds(a, b)
    if num_nodes < 1:
        raise NumericsError(f"gauss_legendre needs >= 1 node, got {num_nodes}")
    if a == b:
        return 0.0
    nodes, weights = _gl_nodes(num_nodes)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    xs = mid + half * nodes
    try:
        ys = np.asarray(func(xs), dtype=float)
    except (TypeError, ValueError, IndexError):
        ys = None
    if ys is None or ys.shape != xs.shape:
        # Scalar-only integrand: evaluate pointwise instead of vectorised.
        ys = np.asarray([float(func(float(x))) for x in xs])
    return float(half * np.dot(weights, ys))


def fixed_quadrature(
    func: Callable,
    a: float,
    b: float,
    breakpoints: tuple[float, ...] = (),
    num_nodes: int = DEFAULT_GL_NODES,
) -> float:
    """Gauss–Legendre quadrature split at known kinks of the integrand.

    The hit model's integrands are piecewise smooth with kinks at partition
    boundaries; passing those positions as ``breakpoints`` restores spectral
    accuracy.  Breakpoints outside ``(a, b)`` are ignored.
    """
    _validate_bounds(a, b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += gauss_legendre(func, lo, hi, num_nodes=num_nodes)
    return sign * total
