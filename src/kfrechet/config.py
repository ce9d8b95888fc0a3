"""Global numeric tolerance and budget checks.

All interval-endpoint comparisons and coverage gap checks share a single
absolute tolerance. It defaults to 1e-9 and can be overridden through the
``KFRECHET_TOL`` environment variable or per call via the ``tol`` keyword
that most operations accept. Either must be a finite number in ``[0, 1)``;
anything else raises ``ValueError``. Comparisons are in parameter units,
where one cell of a diagram and one column of a box instance are 1 wide: a
tolerance that wide would forgive a whole uncovered cell.
"""

from __future__ import annotations

import math
import operator
import os

DEFAULT_TOL = 1e-9

_ENV_VAR = "KFRECHET_TOL"
_RULE = "must be a finite number >= 0 and < 1"


def _check(name: str, value: float) -> float:
    if not (math.isfinite(value) and 0.0 <= value < 1.0):
        raise ValueError(f"{name} {_RULE}, got {value}")
    return value


def default_tol() -> float:
    """Tolerance from the environment, falling back to :data:`DEFAULT_TOL`."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        return _check(_ENV_VAR, float(raw))
    except ValueError:  # not a number, or outside [0, 1)
        raise ValueError(f"{_ENV_VAR} {_RULE}, got {raw!r}") from None


def resolve_tol(tol: float | None) -> float:
    """Return ``tol`` itself, or the configured default when ``tol`` is None."""
    if tol is None:
        return default_tol()
    return _check("tolerance", tol)


def _budget(k, least: int = 0) -> int:
    """``k`` as a Python int; a non-integer (NaN, inf, 1.5) or ``k < least`` raises."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < least:
        raise ValueError(f"k must be >= {least}, got {k}")
    return k
