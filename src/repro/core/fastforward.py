"""Literal transcription of the paper's fast-forward equations (3)–(21).

This module exists for fidelity and cross-validation: it follows the paper's
case analysis term by term — hits within the same partition
(:func:`p_hit_within`, Eqs. 3–8), complete/partial hits in the ``i``-th
partition ahead (:func:`p_hit_jump`, Eqs. 9–18), the Eq.-(19) bound on the
jump index, fast-forwarding past the end of the movie (:func:`p_end`,
Eq. 20), and their sum (:func:`p_hit_fastforward`, Eq. 21).

The production path is the interval engine in :mod:`repro.core.hitsets`,
which computes the same quantity in closed form over ``V_c``; the test suite
asserts agreement between the two to tight tolerance.  A third, fully
independent path (:func:`p_hit_fastforward_direct`) performs brute-force 2-D
quadrature of the conditional hit probability over ``(V_c, d)``.

Notation (mirrors the paper):

* ``alpha = R_FF / (R_FF − R_PB)`` — Eq. (1).
* ``V_c`` — viewer position; ``V_f = V_c + d`` — first possible viewer of the
  same partition, ``d ~ U[0, B/n]``.
* ``V_t = (l + (alpha−1) V_c) / alpha`` — Eq. (5): the farthest position
  whose viewer can still be caught before the movie ends.
"""

from __future__ import annotations

import math

from repro.core.catchup import ff_catchup_factor
from repro.core.hitsets import fastforward_end_interval, fastforward_hit_intervals
from repro.core.parameters import SystemConfiguration
from repro.distributions.base import DurationDistribution
from repro.exceptions import ConfigurationError
from repro.numerics.quadrature import gauss_legendre

__all__ = [
    "p_hit_within",
    "p_hit_jump",
    "max_jump_index",
    "p_end",
    "p_hit_fastforward",
    "p_hit_fastforward_direct",
]

_NODES = 48


def _cdf(duration: DurationDistribution):
    """Vector-friendly CDF wrapper (the families expose scalar ``cdf``)."""

    def F(x) -> float:
        return duration.cdf(float(x))

    return F


# ----------------------------------------------------------------------
# Hits within the same partition — Eqs. (3)–(8).
# ----------------------------------------------------------------------
def p_hit_within(config: SystemConfiguration, duration: DurationDistribution) -> float:
    """``P(hit_w | FF)`` — sum of the case-a and case-b terms (Eqs. 7 + 8)."""
    alpha = ff_catchup_factor(config.rates)
    length = config.movie_length
    span = config.partition_span
    if span == 0.0:
        return 0.0
    F = _cdf(duration)

    # Case a (Eq. 7): V_c in [0, l − B*alpha/n]; the inner Eq.-(4) integral is
    # independent of V_c after substituting u = V_f − V_c.
    case_a_top = length - span * alpha
    p_case_a = 0.0
    if case_a_top > 0.0:
        inner = gauss_legendre(lambda u: F(alpha * u), 0.0, span, num_nodes=_NODES) / span
        p_case_a = inner * case_a_top / length

    # Case b (Eq. 8): V_c in (l − B*alpha/n, l]; the Eq.-(6) inner integral
    # splits at V_t where catch-up stops being possible before the movie ends.
    def inner_case_b(v_c: float) -> float:
        v_t = (length + (alpha - 1.0) * v_c) / alpha
        reach = min(v_t, v_c + span)  # V_t can exceed V_c + B/n near the seam
        first = gauss_legendre(
            lambda v_f: F(alpha * (v_f - v_c)), v_c, reach, num_nodes=_NODES
        )
        tail = max(0.0, (v_c + span) - reach) * F(alpha * (v_t - v_c))
        return (first + tail) / span

    case_b_lo = max(0.0, case_a_top)
    p_case_b = gauss_legendre(inner_case_b, case_b_lo, length, num_nodes=_NODES) / length
    return p_case_a + p_case_b


# ----------------------------------------------------------------------
# Hits in the i-th partition ahead — Eqs. (9)–(18).
# ----------------------------------------------------------------------
def p_hit_jump(
    config: SystemConfiguration, duration: DurationDistribution, jump_index: int
) -> float:
    """``P(hit_j^i | FF)`` — the four-term sum of Eqs. (15)–(18)."""
    if jump_index < 1:
        raise ConfigurationError(f"jump index must be >= 1, got {jump_index}")
    alpha = ff_catchup_factor(config.rates)
    length = config.movie_length
    span = config.partition_span
    spacing = config.partition_spacing
    if span == 0.0:
        return 0.0
    F = _cdf(duration)
    phase = jump_index * spacing  # i*l/n

    def delta_lo(v_c: float, v_f: float) -> float:
        return phase + (v_f - v_c) - span  # Delta_jump_l

    def delta_hi(v_c: float, v_f: float) -> float:
        return phase + (v_f - v_c)  # Delta_jump_f

    def complete(v_c: float, v_f: float) -> float:
        """Eq. (9): caught both V_l_i and V_f_i."""
        return F(alpha * delta_hi(v_c, v_f)) - F(alpha * delta_lo(v_c, v_f))

    def partial(v_c: float, v_f: float) -> float:
        """Eq. (10): caught V_l_i only; upper limit collapses to l − V_c."""
        return F(length - v_c) - F(alpha * delta_lo(v_c, v_f))

    def v_t(v_c: float) -> float:
        return (length + (alpha - 1.0) * v_c - phase * alpha) / alpha

    def v_t_prime(v_c: float) -> float:
        return (length + (alpha - 1.0) * v_c - alpha * (phase - span)) / alpha

    # Eq. (15): complete hit over the full V_f range.
    c1_top = length - span * alpha - phase * alpha
    p1 = 0.0
    if c1_top > 0.0:
        # Inner integral depends on V_c only through u = V_f − V_c.
        inner = gauss_legendre(
            lambda u: F(alpha * (phase + u)) - F(alpha * (phase + u - span)),
            0.0,
            span,
            num_nodes=_NODES,
        ) / span
        p1 = inner * c1_top / length

    seam_lo = max(0.0, c1_top)
    seam_hi = max(seam_lo, length - phase * alpha)

    # Eq. (16): complete hit, V_f limited to V_t.
    def inner_p2(v_c: float) -> float:
        top = min(v_t(v_c), v_c + span)
        if top <= v_c:
            return 0.0
        return gauss_legendre(
            lambda v_f: complete(v_c, v_f), v_c, top, num_nodes=_NODES
        ) / span

    p2 = (
        gauss_legendre(inner_p2, seam_lo, seam_hi, num_nodes=_NODES) / length
        if seam_hi > seam_lo
        else 0.0
    )

    # Eq. (17): partial hit for V_f beyond V_t (same V_c band as Eq. 16).
    def inner_p3(v_c: float) -> float:
        lo = max(v_c, v_t(v_c))
        hi = v_c + span
        if hi <= lo:
            return 0.0
        return gauss_legendre(
            lambda v_f: partial(v_c, v_f), lo, hi, num_nodes=_NODES
        ) / span

    p3 = (
        gauss_legendre(inner_p3, seam_lo, seam_hi, num_nodes=_NODES) / length
        if seam_hi > seam_lo
        else 0.0
    )

    # Eq. (18): only partial hits are possible; V_f limited to V_t'.
    p4_lo = max(0.0, length - phase * alpha)
    p4_hi = max(p4_lo, min(length, length - (phase - span) * alpha))

    def inner_p4(v_c: float) -> float:
        top = min(v_t_prime(v_c), v_c + span)
        if top <= v_c:
            return 0.0
        return gauss_legendre(
            lambda v_f: partial(v_c, v_f), v_c, top, num_nodes=_NODES
        ) / span

    p4 = (
        gauss_legendre(inner_p4, p4_lo, p4_hi, num_nodes=_NODES) / length
        if p4_hi > p4_lo
        else 0.0
    )
    return max(0.0, p1) + max(0.0, p2) + max(0.0, p3) + max(0.0, p4)


def max_jump_index(config: SystemConfiguration) -> int:
    """Eq. (19): largest ``i`` for which a complete jump hit is possible.

    ``i <= floor((n(l + w*alpha) − l*alpha) / (l*alpha))``.  The partial-hit
    terms (Eqs. 17/18) can be non-zero for one more index; the summation in
    :func:`p_hit_fastforward` therefore iterates until the Eq.-(18) range is
    empty rather than stopping exactly here.
    """
    alpha = ff_catchup_factor(config.rates)
    length = config.movie_length
    n = config.num_partitions
    w = config.max_wait
    return max(0, math.floor((n * (length + w * alpha) - length * alpha) / (length * alpha)))


def p_end(config: SystemConfiguration, duration: DurationDistribution) -> float:
    """Eq. (20): ``P(end) = (1/l) ∫_0^l [F(l) − F(l − V_c)] dV_c``."""
    F = _cdf(duration)
    length = config.movie_length
    total_mass = F(length)
    integral = gauss_legendre(
        lambda v_c: total_mass - F(length - v_c), 0.0, length, num_nodes=_NODES
    )
    return integral / length


def p_hit_fastforward(config: SystemConfiguration, duration: DurationDistribution) -> float:
    """Eq. (21): ``P(hit|FF) = P(hit_w|FF) + Σ_i P(hit_j^i|FF) + P(end)``."""
    alpha = ff_catchup_factor(config.rates)
    total = p_hit_within(config, duration)
    i = 1
    while True:
        # Stop once even the Eq.-(18) partial-hit V_c band is empty.
        if (i * config.partition_spacing - config.partition_span) * alpha >= config.movie_length:
            break
        total += p_hit_jump(config, duration, i)
        i += 1
    total += p_end(config, duration)
    return min(1.0, max(0.0, total))


def p_hit_fastforward_direct(
    config: SystemConfiguration,
    duration: DurationDistribution,
    num_nodes: int = 32,
) -> float:
    """Brute-force 2-D quadrature over ``(V_c, d)`` of the conditional hit mass.

    A third independent evaluation path, used by the property tests to pin
    down both the paper transcription and the interval engine.
    """
    span = config.partition_span
    length = config.movie_length

    def over_vc(d: float) -> float:
        def mass(v_c: float) -> float:
            value = fastforward_hit_intervals(config, v_c, d).measure_under(duration.cdf)
            end = fastforward_end_interval(config, v_c)
            return value + duration.probability(end.lo, end.hi)

        return gauss_legendre(mass, 0.0, length, num_nodes=num_nodes) / length

    if span == 0.0:
        return min(1.0, max(0.0, over_vc(0.0)))
    outer = gauss_legendre(over_vc, 0.0, span, num_nodes=num_nodes) / span
    return min(1.0, max(0.0, outer))
