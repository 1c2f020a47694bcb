"""Bracketed scalar root finding.

The sizing module solves the paper's constraint system (C1)/(C2) — find the
largest stream count ``n`` whose induced buffer ``B = l − n·w`` still meets the
hit-probability target — by searching for sign changes of
``P(hit)(n) − P*``.  These helpers provide bisection (robust, guaranteed) and
Brent's method (fast) plus a bracket scanner.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.exceptions import NumericsError

__all__ = ["bisect", "brent", "find_bracket"]


def bisect(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> float:
    """Find a root of ``func`` in ``[lo, hi]`` by bisection.

    Requires ``func(lo)`` and ``func(hi)`` to have opposite signs (a zero at
    either endpoint is returned immediately).
    """
    flo, fhi = float(func(lo)), float(func(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if _same_sign(flo, fhi):
        raise NumericsError(
            f"bisect requires a sign change: f({lo})={flo}, f({hi})={fhi}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = float(func(mid))
        if fmid == 0.0 or (hi - lo) / 2.0 < tol:
            return mid
        # Compare signs, not the product: flo * fmid underflows to -0.0
        # when both values are tiny (a subnormal root) and would steer the
        # search away from the root.
        if flo < 0.0 < fmid or fmid < 0.0 < flo:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def brent(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_iter: int = 100,
    *,
    f_hi: float | None = None,
) -> float:
    """Brent's method: inverse-quadratic/secant with bisection fallback.

    Same bracketing contract as :func:`bisect` but converges superlinearly on
    smooth functions.  Like :func:`bisect` it decides brackets by comparing
    signs: the product of two tiny values underflows to 0 and would look
    like a sign change.

    The root is located to within ``tol`` both absolutely and relatively
    (``tol * min(1, |x|)``), so a root near zero keeps its relative accuracy.
    A caller that already knows ``func(hi)`` passes it as ``f_hi`` to skip
    that evaluation.
    """
    a, b = float(lo), float(hi)
    fa = float(func(a))
    fb = float(func(b)) if f_hi is None else float(f_hi)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if _same_sign(fa, fb):
        raise NumericsError(f"brent requires a sign change: f({a})={fa}, f({b})={fb}")
    if abs(fa) < abs(fb):
        a, b, fa, fb = b, a, fb, fa
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if _same_sign(fb, fc):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * math.ulp(abs(b)) + 0.5 * tol * min(1.0, abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = float(func(b))
    return b


def _same_sign(x: float, y: float) -> bool:
    """Whether ``x`` and ``y`` are both positive or both negative."""
    return (x > 0.0 and y > 0.0) or (x < 0.0 and y < 0.0)


def find_bracket(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    num_probes: int = 64,
) -> tuple[float, float] | None:
    """Scan ``[lo, hi]`` for the first subinterval where ``func`` changes sign.

    Returns the bracketing pair or ``None`` if no sign change is observed at
    the probe resolution.  Probes with non-finite values are skipped.
    """
    if num_probes < 2:
        raise NumericsError(f"find_bracket needs >= 2 probes, got {num_probes}")
    step = (hi - lo) / (num_probes - 1)
    prev_x = lo
    prev_f = float(func(lo))
    for i in range(1, num_probes):
        x = lo + i * step
        f = float(func(x))
        if not math.isfinite(f):
            prev_x, prev_f = x, f
            continue
        if math.isfinite(prev_f):
            if prev_f == 0.0:
                return (prev_x, prev_x)
            if not _same_sign(prev_f, f):
                return (prev_x, x)
        prev_x, prev_f = x, f
    return None
