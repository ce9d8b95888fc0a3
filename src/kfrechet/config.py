"""Global numeric tolerance.

All interval-endpoint comparisons and coverage gap checks share a single
absolute tolerance. It defaults to 1e-9 and can be overridden through the
``KFRECHET_TOL`` environment variable or per call via the ``tol`` keyword
that most operations accept. Either must be a finite number >= 0;
anything else raises ``ValueError``.
"""

from __future__ import annotations

import math
import os

DEFAULT_TOL = 1e-9

_ENV_VAR = "KFRECHET_TOL"


def _check(name: str, value: float) -> float:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value}")
    return value


def default_tol() -> float:
    """Tolerance from the environment, falling back to :data:`DEFAULT_TOL`."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        return _check(_ENV_VAR, float(raw))
    except ValueError:  # not a number, or not finite and >= 0
        raise ValueError(f"{_ENV_VAR} must be a finite number >= 0, got {raw!r}") from None


def resolve_tol(tol: float | None) -> float:
    """Return ``tol`` itself, or the configured default when ``tol`` is None."""
    if tol is None:
        return default_tol()
    return _check("tolerance", tol)
