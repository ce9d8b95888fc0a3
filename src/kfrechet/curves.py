"""Polygonal curves in the plane.

A curve with ``n`` segments is parameterised over ``[0, n]``: parameter
``s`` maps to the affine point on segment ``floor(s)``, so integer
parameters land exactly on vertices. Points are plain length-2 numpy
arrays, and a curve is immutable once built. The closed intervals of
parameter space live in :mod:`kfrechet.intervals`, which does not need
numpy.
"""

from __future__ import annotations

import json

import numpy as np


class CurveError(ValueError):
    """Raised for malformed curve input."""


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

    def points_at(self, s: np.ndarray) -> np.ndarray:
        """The points at parameters ``s`` in ``[0, n]``; one outside raises."""
        s = np.asarray(s, dtype=float)
        if s.size and (s.min() < 0.0 or s.max() > self.n):
            raise ValueError("parameters outside [0, n]")
        idx = np.minimum(np.floor(s).astype(int), self.n - 1)
        frac = (s - idx)[:, None]
        a = self.vertices[idx]
        b = self.vertices[idx + 1]
        return a + frac * (b - a)

    def max_segment_length(self) -> float:
        return float(np.linalg.norm(np.diff(self.vertices, axis=0), axis=1).max())

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

