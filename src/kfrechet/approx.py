"""The factor-2 approximation of the budget k.

Each axis gets a minimum cover of its own, from the cover search of
:mod:`kfrechet.intervals` with no component given for free; the union of the
two covers is at worst twice the size of an optimal joint selection,
since the optimum must cover each axis too.
"""

from __future__ import annotations

from .config import default_tol
from .decide import _axis_intervals
from .freespace import FreeSpaceDiagram
from .intervals import _axis_cover


def approximate_k(diagram: FreeSpaceDiagram) -> tuple | None:
    """Covering selection at most twice the optimal size, or None.

    None exactly when one axis cannot be covered at all, i.e. the
    Hausdorff test fails. Components picked on both axes count once.
    """
    tol = default_tol()
    union: set = set()
    for axis, length in (("p", diagram.n), ("q", diagram.m)):
        cover = _axis_cover(_axis_intervals(diagram, axis), (0.0, float(length)), tol)
        if cover is None:
            return None
        union.update(cover)
    return tuple(sorted(union))
