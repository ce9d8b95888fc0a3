"""Greedy interval covers and the factor-2 approximation of the budget k.

Each axis is covered greedily on its own (which is optimal per axis),
from the (id, lo, hi) projections of :func:`kfrechet.decide._axis_intervals`;
the union of the two covers is at worst twice the size of an optimal
joint selection, since the optimum must cover each axis too.
"""

from __future__ import annotations

import math
from typing import Sequence

from .config import resolve_tol
from .decide import _axis_intervals
from .freespace import FreeSpaceDiagram
from .intervals import Interval


def greedy_axis_cover(intervals: Sequence[tuple[int, float, float]], target: Interval,
                      tol: float | None = None) -> tuple | None:
    """Minimum-cardinality cover of ``target`` by (id, lo, hi) intervals.

    Left-to-right sweep under the rule of :mod:`kfrechet.decide`: among
    the intervals starting within ``tol`` of the frontier, take the one
    reaching farthest right (ties go to the smaller id). Returns the
    sorted ids of the cover, or None when the frontier stops short of
    ``target.hi - tol``. An interval with
    ``lo > hi`` is empty; a nonempty one must have finite ends, as an
    :class:`~kfrechet.intervals.Interval` must, or ``ValueError`` is raised.
    """
    tol = resolve_tol(tol)
    pool = []
    for cid, lo, hi in intervals:
        if not lo > hi:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"interval endpoints must be finite, got [{lo}, {hi}]")
            pool.append((lo, hi, cid))
    if target.is_empty:
        return ()
    if target.length == 0.0:
        holders = sorted(cid for lo, hi, cid in pool if lo <= target.lo <= hi)
        return tuple(holders[:1]) if holders else None
    pool.sort(key=lambda t: (t[0], t[2]))
    chosen: list[int] = []
    frontier = target.lo
    idx = 0
    best_hi = -float("inf")
    best_id = -1
    while frontier < target.hi - tol:
        while idx < len(pool) and pool[idx][0] <= frontier + tol:
            lo, hi, cid = pool[idx]
            if hi > best_hi or (hi == best_hi and cid < best_id):
                best_hi, best_id = hi, cid
            idx += 1
        if best_id < 0 or best_hi <= frontier:
            return None
        chosen.append(best_id)
        frontier = best_hi
    return tuple(sorted(chosen))


def approximate_k(diagram: FreeSpaceDiagram, tol: float | None = None) -> tuple | None:
    """Covering selection at most twice the optimal size, or None.

    None exactly when one axis cannot be covered at all, i.e. the
    Hausdorff test fails. Components picked on both axes count once.
    """
    tol = resolve_tol(tol)
    union: set = set()
    for axis, length in (("p", diagram.n), ("q", diagram.m)):
        cover = greedy_axis_cover(_axis_intervals(diagram, axis), Interval(0.0, float(length)), tol)
        if cover is None:
            return None
        union.update(cover)
    return tuple(sorted(union))
