"""Global numeric tolerance and budget checks.

All interval-endpoint comparisons and coverage gap checks share a single
absolute tolerance, the one setting ``KFRECHET_TOL``, 1e-9 when unset.
Every public entry point reads it once, at call time, through
:func:`default_tol` and hands that float to its helpers, so one question
is asked at one tolerance. It must be a finite number in ``[0, 1)``;
anything else raises a ``ValueError`` that names the variable.
Comparisons are in parameter units, where one cell of a diagram and one
column of a box instance are 1 wide: a tolerance that wide would forgive a
whole uncovered cell. The ``tol`` of
:func:`~kfrechet.optimize.minimize_epsilon` is not a comparison tolerance
but the width of its search.
"""

from __future__ import annotations

import math
import operator
import os

DEFAULT_TOL = 1e-9

_ENV_VAR = "KFRECHET_TOL"


def default_tol() -> float:
    """Tolerance from the environment, falling back to :data:`DEFAULT_TOL`."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:  # not a number
        tol = math.nan
    if not (math.isfinite(tol) and 0.0 <= tol < 1.0):
        raise ValueError(f"{_ENV_VAR} must be a finite number >= 0 and < 1, got {raw!r}")
    return tol


def _budget(k, least: int = 0) -> int:
    """``k`` as a Python int; a non-integer (NaN, inf, 1.5) or ``k < least`` raises."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < least:
        raise ValueError(f"k must be >= {least}, got {k}")
    return k
