"""The factor-2 approximation of the budget k.

Each axis gets a minimum cover of its own, from the cover search of
:mod:`kfrechet.intervals` with no component given for free; the union of the
two covers is at worst twice the size of an optimal joint selection,
since the optimum must cover each axis too. The two covers are the
diagram's cover pair, which the decider's certificate shares (see
:mod:`kfrechet.decide`).
"""

from __future__ import annotations

from .config import default_tol
from .decide import _axes_and_covers
from .freespace import FreeSpaceDiagram


def approximate_k(diagram: FreeSpaceDiagram) -> tuple | None:
    """Covering selection at most twice the optimal size, or None.

    None exactly when one axis cannot be covered at all, i.e. the
    Hausdorff test fails. Components picked on both axes count once.
    """
    a, b = _axes_and_covers(diagram, default_tol())[1]
    if a is None or b is None:
        return None
    return tuple(sorted({*a, *b}))
