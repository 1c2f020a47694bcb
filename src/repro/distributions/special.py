"""Special functions needed by the distribution families.

Only NumPy is a hard dependency of the core library, so the regularised lower
incomplete gamma function (needed by the gamma CDF, which the paper's Figure 7
workload uses) is implemented here with the classic series/continued-fraction
split from Numerical Recipes.  Tests cross-check it against SciPy.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import NumericsError

__all__ = ["regularized_lower_gamma", "regularized_lower_gamma_many", "log_gamma"]

_MAX_ITERATIONS = 500
_EPS = 3e-15
_FPMIN = 1e-300


def log_gamma(a: float) -> float:
    """Natural log of the gamma function (thin wrapper over ``math.lgamma``)."""
    return math.lgamma(a)


def _gamma_series(a: float, x: float) -> float:
    """Series representation of P(a, x); converges quickly for x < a + 1.

    Called only with ``a > 0`` and ``x > 0``, so ``term`` and ``total`` are
    never negative and the convergence test needs no ``abs()``.
    """
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(_MAX_ITERATIONS):
        ap += 1.0
        term *= x / ap
        total += term
        if term < total * _EPS:
            return total * math.exp(-x + a * math.log(x) - log_gamma(a))
    raise NumericsError(f"incomplete gamma series failed to converge for a={a}, x={x}")


def _gamma_continued_fraction(a: float, x: float) -> float:
    """Continued fraction for Q(a, x); converges quickly for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITERATIONS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - log_gamma(a))
    raise NumericsError(
        f"incomplete gamma continued fraction failed to converge for a={a}, x={x}"
    )


def regularized_lower_gamma(a: float, x: float) -> float:
    """Regularised lower incomplete gamma function ``P(a, x)``.

    ``P(a, x) = gamma(a, x) / Gamma(a)`` — this is exactly the CDF of a
    Gamma(shape=a, scale=1) random variable evaluated at ``x``.
    """
    if a <= 0.0:
        raise NumericsError(f"regularized_lower_gamma requires a > 0, got {a}")
    if x < 0.0:
        return 0.0
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(1.0, _gamma_series(a, x))
    return min(1.0, max(0.0, 1.0 - _gamma_continued_fraction(a, x)))


# ----------------------------------------------------------------------
# Batched evaluation.
#
# The vectorised kernels below run the *same* recurrences as the scalar
# series/continued fraction — identical operations in identical order per
# element — with each lane's value snapshotted at its own convergence
# iteration, so the results are bit-for-bit equal to the scalar function.
# Only +, -, *, / and comparisons are vectorised; the exp/log/lgamma
# prefactor is evaluated per element through ``math`` exactly as the scalar
# code does (NumPy's transcendental kernels are not guaranteed to round
# identically to libm, so they are never used here).
# ----------------------------------------------------------------------
def _prefactors(a: float, xs: np.ndarray) -> np.ndarray:
    """``exp(-x + a*ln(x) - lgamma(a))`` per element, via ``math``.

    The log/exp calls are pushed through ``map(math.*, ...)`` — a C-level
    loop over libm with no bytecode per element — and the linear combination
    in between is vectorised (exactly-rounded ops only), preserving the
    scalar expression's evaluation order ``(-x + a*log(x)) - lgamma(a)``.
    """
    lg = log_gamma(a)
    n = xs.shape[0]
    logs = np.fromiter(map(math.log, xs.tolist()), dtype=float, count=n)
    exponents = (-xs) + a * logs - lg
    return np.fromiter(map(math.exp, exponents.tolist()), dtype=float, count=n)


def _gamma_series_many(a: float, xs: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_gamma_series`, bitwise-identical per element.

    Lanes run the exact scalar recurrence; each lane's value is captured at
    its own convergence iteration and the active set is compacted so later
    iterations only touch still-unconverged lanes.
    """
    n = xs.shape[0]
    out = np.empty(n)
    idx = np.arange(n)
    active = xs
    ap = np.full(n, a)
    total = np.full(n, 1.0 / a)
    term = total.copy()
    for _ in range(_MAX_ITERATIONS):
        ap += 1.0
        term *= active / ap
        total += term
        conv = np.abs(term) < np.abs(total) * _EPS
        if conv.any():
            out[idx[conv]] = total[conv]
            keep = ~conv
            if not keep.any():
                return out * _prefactors(a, xs)
            idx = idx[keep]
            active = active[keep]
            ap = ap[keep]
            term = term[keep]
            total = total[keep]
    raise NumericsError(
        f"incomplete gamma series failed to converge for a={a}, x={float(active[0])}"
    )


def _gamma_continued_fraction_many(a: float, xs: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_gamma_continued_fraction`, bitwise-identical per element.

    Same modified-Lentz recurrence as the scalar loop (in-place array ops
    commute bitwise with the scalar expressions), with converged lanes
    retired from the active set as they finish.
    """
    n = xs.shape[0]
    out = np.empty(n)
    idx = np.arange(n)
    active = xs
    b = xs + 1.0 - a
    c = np.full(n, 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, _MAX_ITERATIONS + 1):
        an = -i * (i - a)
        b += 2.0
        d *= an
        d += b
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        np.divide(an, c, out=c)
        c += b
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        np.divide(1.0, d, out=d)
        delta = d * c
        h *= delta
        conv = np.abs(delta - 1.0) < _EPS
        if conv.any():
            out[idx[conv]] = h[conv]
            keep = ~conv
            if not keep.any():
                return out * _prefactors(a, xs)
            idx = idx[keep]
            active = active[keep]
            b = b[keep]
            c = c[keep]
            d = d[keep]
            h = h[keep]
    raise NumericsError(
        "incomplete gamma continued fraction failed to converge for "
        f"a={a}, x={float(active[0])}"
    )


def regularized_lower_gamma_many(a: float, xs: np.ndarray) -> np.ndarray:
    """Batched ``P(a, x)`` over an array of ``x`` — bitwise equal to the scalar.

    Elements are routed to the same series/continued-fraction split as
    :func:`regularized_lower_gamma` and evaluated with masked array
    recurrences whose per-element arithmetic matches the scalar loops
    exactly, so ``regularized_lower_gamma_many(a, xs)[k] ==
    regularized_lower_gamma(a, xs[k])`` bit for bit.
    """
    if a <= 0.0:
        raise NumericsError(f"regularized_lower_gamma requires a > 0, got {a}")
    out = np.zeros(xs.shape)
    series = (xs > 0.0) & (xs < a + 1.0)
    # The scalar's final ``else``: NaN goes to the continued fraction too.
    fraction = ~(xs < a + 1.0)
    if series.any():
        out[series] = np.minimum(1.0, _gamma_series_many(a, xs[series]))
    if fraction.any():
        out[fraction] = np.minimum(
            1.0, np.maximum(0.0, 1.0 - _gamma_continued_fraction_many(a, xs[fraction]))
        )
    return out
