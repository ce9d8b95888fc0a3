"""Polygonal curves in the plane.

A curve with ``n`` segments is parameterised over ``[0, n]``: parameter
``s`` maps to the affine point on segment ``floor(s)``, so integer
parameters land exactly on vertices. Points are plain length-2 numpy
arrays, and a curve is immutable once built. Intervals of parameter
space are plain (lo, hi) pairs of floats.
"""

from __future__ import annotations

import json

import numpy as np


class CurveError(ValueError):
    """Raised for malformed curve input."""


# bool, complex, bytes, str, datetime64, timedelta64: numpy casts them to float
# (a complex loses its imaginary part), but they are no plane coordinates
_NOT_NUMBERS = "bcSUMm"


class PolyCurve:
    """Piecewise-linear curve defined by at least two plane vertices.

    Consecutive vertices must be distinct (zero-length segments are
    rejected rather than collapsed), and coordinates must be finite real
    numbers: bools, complex numbers, strings, bytes, datetimes and
    timedeltas are rejected, not cast. The vertex array is read-only.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices) -> None:
        try:
            arr = np.asarray(vertices)
            kind = arr.dtype.kind
            if kind in _NOT_NUMBERS or kind == "O" and any(
                    np.asarray(x).dtype.kind in _NOT_NUMBERS for x in arr.flat):
                raise TypeError(f"got {arr.dtype} values")
            arr = np.array(arr, dtype=float)
        except (OverflowError, TypeError, ValueError) as exc:  # a dict, "x", [1], 10**400
            raise CurveError(f"vertices must be (x, y) pairs of numbers: {exc}") from exc
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise CurveError("expected a sequence of (x, y) vertices")
        if arr.shape[0] < 2:
            raise CurveError("a curve needs at least 2 vertices")
        if not np.isfinite(arr).all():
            raise CurveError("vertex coordinates must be finite")
        same = arr[1:] == arr[:-1]
        if (same[:, 0] & same[:, 1]).any():
            raise CurveError("zero-length segment: repeated consecutive vertex")
        arr.setflags(write=False)
        self.vertices = arr

    @property
    def n(self) -> int:
        """Segment count; the parameter space is [0, n]."""
        return len(self.vertices) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyCurve) and np.array_equal(self.vertices, other.vertices)

    def __hash__(self):
        return hash((self.vertices + 0.0).tobytes())  # -0.0 == 0.0

    def __repr__(self) -> str:
        return f"PolyCurve({self.vertices.tolist()!r})"


def parse_curve(text: str) -> PolyCurve:
    """Parse the plain-text curve format.

    One vertex per line as two whitespace-separated decimal numbers;
    blank lines and lines starting with ``#`` are ignored.
    """
    coords = []
    underscores = "_" in text  # float() reads "1_0" as 10
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        try:
            x, y = parts
            if underscores and "_" in x + y:
                raise ValueError("an underscore in a number")
            coords += float(x), float(y)
        except ValueError as exc:
            problem = "expected two numbers, got" if len(parts) != 2 else "malformed number in"
            raise CurveError(f"line {lineno}: {problem} {line.strip()!r}") from exc
    # no vertex leaves the array flat, which PolyCurve rejects as no (x, y) sequence
    coords = np.array(coords)
    return PolyCurve(coords.reshape(-1, 2) if coords.size else coords)


def parse_curve_json(text: str) -> PolyCurve:
    """Parse the JSON curve format ``{"vertices": [[x, y], ...]}``."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CurveError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise CurveError('JSON curve must be an object with a "vertices" key')
    vertices = obj["vertices"]
    # only JSON numbers are coordinates: not true or false, which Python reads
    # as 1 or 0, nor a string, which numpy would parse as the number it spells
    for i, vertex in enumerate(vertices if isinstance(vertices, list) else ()):
        for x in vertex if isinstance(vertex, list) else ():
            if isinstance(x, bool):
                raise CurveError(f"vertex {i}: coordinates must be numbers, got true or false")
            if not isinstance(x, (int, float)):
                raise CurveError(f"vertex {i}: vertices must be (x, y) pairs of numbers, "
                                 f"got {json.dumps(x)}")
    return PolyCurve(vertices)


def serialize_curve(curve: PolyCurve) -> str:
    """Inverse of :func:`parse_curve` (round-trips the vertex list)."""
    return "\n".join(f"{float(x)!r} {float(y)!r}" for x, y in curve.vertices) + "\n"

