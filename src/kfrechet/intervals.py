"""Closed intervals and the one rule for covering an interval with a union.

Parameter-space projections of diagram components and the edges of the
reduction's boxes are both closed intervals, so the curve side and the
box side share this module. It imports no numpy: the box commands load
it without the curve layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .config import resolve_tol


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[lo, hi]``; ``EMPTY`` is the canonical empty value.

    A degenerate interval (``lo == hi``) is a single point. Construction
    with ``lo > hi`` is only used for the empty sentinel. Any other interval
    needs finite ends; a NaN end raises ``ValueError`` too.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo > self.hi and not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def length(self) -> float:
        return 0.0 if self.is_empty else self.hi - self.lo

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return not self.is_empty and self.lo - tol <= x <= self.hi + tol

    def contains_interval(self, other: "Interval") -> bool:
        """Exact (tolerance-free) containment; empty is contained in anything."""
        if other.is_empty:
            return True
        return not self.is_empty and self.lo <= other.lo and other.hi <= self.hi

    def shift(self, offset: float) -> "Interval":
        if self.is_empty:
            return EMPTY
        return Interval(self.lo + offset, self.hi + offset)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


EMPTY = Interval(math.inf, -math.inf)


def interval_union_covers(
    intervals: Iterable[Interval],
    target: Interval,
    gap_tol: float | None = None,
) -> bool:
    """Whether the union of ``intervals`` covers ``target``.

    Uncovered gaps of width at most ``gap_tol`` are forgiven. A degenerate
    target is covered only when some interval actually contains its point.
    """
    gap_tol = resolve_tol(gap_tol)
    if target.is_empty:
        return True
    spans = sorted((iv.lo, iv.hi) for iv in intervals if not iv.is_empty)
    if target.length == 0.0:
        return any(lo <= target.lo <= hi for lo, hi in spans)
    reach = target.lo
    goal = target.hi - gap_tol
    for lo, hi in spans:
        if lo > reach + gap_tol:
            break
        if hi > reach:
            reach = hi
            if reach >= goal:
                return True
    return reach >= goal
