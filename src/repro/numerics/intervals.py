"""Closed-interval union algebra.

The model of Section 3 reduces every hit event to a statement of the form
"the operation's duration ``x`` falls in one of these intervals".  For fast
forward the intervals are the catch-up windows of successive partitions ahead;
for rewind they are the catch-up windows of partitions behind; for pause they
are the periodic window-overlap episodes.  This module provides the small
amount of interval algebra needed to build those sets robustly: normalisation
(sorting/merging overlaps), intersection with a clipping window, measure, and
membership — plus measure-under-a-CDF, which is the quantity that actually
enters the probability computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = ["Interval", "IntervalUnion"]


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]`` on the real line.

    Degenerate intervals (``lo == hi``) are allowed and have measure zero;
    construction with ``lo > hi`` is normalised to an empty marker by callers
    via :meth:`is_empty` — the constructor itself does not reorder, so that
    accidental bound swaps surface in tests.
    """

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        """True when the interval contains no points (``lo > hi``)."""
        return self.lo > self.hi

    @property
    def length(self) -> float:
        """Lebesgue measure of the interval (0 for empty/degenerate)."""
        return max(0.0, self.hi - self.lo)

    def contains(self, x: float) -> bool:
        """Closed-interval membership."""
        return self.lo <= x <= self.hi

    def clip(self, lo: float, hi: float) -> "Interval":
        """Intersect with ``[lo, hi]``; may produce an empty interval."""
        return Interval(max(self.lo, lo), min(self.hi, hi))

    def overlaps(self, other: "Interval") -> bool:
        """True when the two closed intervals share at least one point."""
        if self.is_empty or other.is_empty:
            return False
        return self.lo <= other.hi and other.lo <= self.hi


class IntervalUnion:
    """A finite union of closed intervals, kept sorted and disjoint.

    Construction normalises the input: empty intervals are dropped and
    overlapping or touching intervals are merged.  Instances are immutable
    from the caller's perspective; all operations return new unions.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals: tuple[Interval, ...] = self._normalize(intervals)

    @staticmethod
    def _normalize(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
        live = sorted(iv for iv in intervals if not iv.is_empty)
        if not live:
            return ()
        merged: list[Interval] = [live[0]]
        for iv in live[1:]:
            last = merged[-1]
            if iv.lo <= last.hi:  # overlap or touch: closed intervals merge
                if iv.hi > last.hi:
                    merged[-1] = Interval(last.lo, iv.hi)
            else:
                merged.append(iv)
        return tuple(merged)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "IntervalUnion":
        """Build a union from ``(lo, hi)`` tuples."""
        return cls(Interval(lo, hi) for lo, hi in pairs)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        """The disjoint, sorted component intervals."""
        return self._intervals

    @property
    def is_empty(self) -> bool:
        """True when the union contains no intervals."""
        return not self._intervals

    @property
    def measure(self) -> float:
        """Total Lebesgue measure of the union."""
        return sum(iv.length for iv in self._intervals)

    def contains(self, x: float) -> bool:
        """Membership test (linear scan; unions here are tiny)."""
        return any(iv.contains(x) for iv in self._intervals)

    def clip(self, lo: float, hi: float) -> "IntervalUnion":
        """Intersect every component with ``[lo, hi]``."""
        return IntervalUnion(iv.clip(lo, hi) for iv in self._intervals)

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        """Set union with another interval union."""
        return IntervalUnion([*self._intervals, *other._intervals])

    def add(self, interval: Interval) -> "IntervalUnion":
        """Return a new union including ``interval``."""
        return IntervalUnion([*self._intervals, interval])

    def complement(self, lo: float, hi: float) -> "IntervalUnion":
        """The set difference ``[lo, hi] \\ self``."""
        gaps: list[Interval] = []
        cursor = lo
        for iv in self.clip(lo, hi).intervals:
            if iv.lo > cursor:
                gaps.append(Interval(cursor, iv.lo))
            cursor = max(cursor, iv.hi)
        if cursor < hi:
            gaps.append(Interval(cursor, hi))
        return IntervalUnion(gaps)

    def measure_under(self, cdf: Callable[[float], float]) -> float:
        """Probability mass of the union under a distribution CDF.

        Computes ``sum(cdf(hi_k) − cdf(lo_k))`` over the disjoint components,
        which equals ``P(X in union)`` for a continuous random variable.
        """
        return sum(float(cdf(iv.hi)) - float(cdf(iv.lo)) for iv in self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalUnion):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        parts = ", ".join(f"[{iv.lo:g}, {iv.hi:g}]" for iv in self._intervals)
        return f"IntervalUnion({parts})"
