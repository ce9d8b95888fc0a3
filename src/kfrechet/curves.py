"""Polygonal curves in the plane and closed-interval primitives.

A curve with ``n`` segments is parameterised over ``[0, n]``: parameter
``s`` maps to the affine point on segment ``floor(s)``, so integer
parameters land exactly on vertices. Points are plain length-2 numpy
arrays. Curves and intervals are immutable once built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import resolve_tol


class CurveError(ValueError):
    """Raised for malformed curve input."""


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


class PolyCurve:
    """Piecewise-linear curve defined by at least two plane vertices.

    Consecutive vertices must be distinct (zero-length segments are
    rejected rather than collapsed). The vertex array is read-only.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices) -> None:
        arr = np.array(vertices, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise CurveError("expected a sequence of (x, y) vertices")
        if arr.shape[0] < 2:
            raise CurveError("a curve needs at least 2 vertices")
        if not np.isfinite(arr).all():
            raise CurveError("vertex coordinates must be finite")
        if np.all(arr[1:] == arr[:-1], axis=1).any():
            raise CurveError("zero-length segment: repeated consecutive vertex")
        arr.setflags(write=False)
        self.vertices = arr

    @property
    def n(self) -> int:
        """Segment count; the parameter space is [0, n]."""
        return len(self.vertices) - 1

    def segment(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= i < self.n:
            raise IndexError(f"segment index {i} out of range [0, {self.n})")
        return self.vertices[i], self.vertices[i + 1]

    def point_at(self, s: float) -> np.ndarray:
        """Point at parameter ``s`` in ``[0, n]`` by affine interpolation."""
        if not 0.0 <= s <= self.n:
            raise ValueError(f"parameter {s} outside [0, {self.n}]")
        i = min(int(math.floor(s)), self.n - 1)
        a, b = self.vertices[i], self.vertices[i + 1]
        return a + (s - i) * (b - a)

    def points_at(self, s: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`point_at` for an array of parameters."""
        s = np.asarray(s, dtype=float)
        if s.size and (s.min() < 0.0 or s.max() > self.n):
            raise ValueError("parameters outside [0, n]")
        idx = np.minimum(np.floor(s).astype(int), self.n - 1)
        frac = (s - idx)[:, None]
        a = self.vertices[idx]
        b = self.vertices[idx + 1]
        return a + frac * (b - a)

    def segment_lengths(self) -> np.ndarray:
        return np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)

    def max_segment_length(self) -> float:
        return float(self.segment_lengths().max())

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyCurve) and np.array_equal(self.vertices, other.vertices)

    def __hash__(self):
        return hash(self.vertices.tobytes())

    def __repr__(self) -> str:
        return f"PolyCurve({self.vertices.tolist()!r})"


def parse_curve(text: str) -> PolyCurve:
    """Parse the plain-text curve format.

    One vertex per line as two whitespace-separated decimal numbers;
    blank lines and lines starting with ``#`` are ignored.
    """
    vertices = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise CurveError(f"line {lineno}: expected two numbers, got {stripped!r}")
        try:
            vertices.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise CurveError(f"line {lineno}: malformed number in {stripped!r}") from exc
    return PolyCurve(vertices)


def parse_curve_json(text: str) -> PolyCurve:
    """Parse the JSON curve format ``{"vertices": [[x, y], ...]}``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CurveError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise CurveError('JSON curve must be an object with a "vertices" key')
    return PolyCurve(obj["vertices"])


def serialize_curve(curve: PolyCurve) -> str:
    """Inverse of :func:`parse_curve` (round-trips the vertex list)."""
    return "\n".join(f"{float(x)!r} {float(y)!r}" for x, y in curve.vertices) + "\n"


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


def segment_distance(a0: Sequence[float], a1: Sequence[float],
                     b0: Sequence[float], b1: Sequence[float]) -> float:
    """Minimum distance between two closed segments."""
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    if _segments_intersect(a0, a1, b0, b1):
        return 0.0
    return min(
        point_segment_distance(a0, b0, b1),
        point_segment_distance(a1, b0, b1),
        point_segment_distance(b0, a0, a1),
        point_segment_distance(b1, a0, a1),
    )


def point_segment_distance(p, a, b) -> float:
    """Distance from point ``p`` to the closed segment ``a``-``b``."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    den = float(d @ d)
    if den == 0.0:
        return float(np.linalg.norm(p - a))
    u = float((p - a) @ d) / den
    u = min(1.0, max(0.0, u))
    return float(np.linalg.norm(a + u * d - p))


def _segments_intersect(a0, a1, b0, b1) -> bool:
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    d1 = orient(b0, b1, a0)
    d2 = orient(b0, b1, a1)
    d3 = orient(a0, a1, b0)
    d4 = orient(a0, a1, b1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True

    def on_segment(p, q, r):
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    if d1 == 0 and on_segment(b0, b1, a0):
        return True
    if d2 == 0 and on_segment(b0, b1, a1):
        return True
    if d3 == 0 and on_segment(a0, a1, b0):
        return True
    if d4 == 0 and on_segment(a0, a1, b1):
        return True
    return False
