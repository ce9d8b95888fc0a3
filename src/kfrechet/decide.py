"""Decision procedures over a built free space diagram.

The central question: can at most k connected components of the free
space jointly project onto the whole of both parameter axes? This module
answers it with one exact decider, :func:`decide_fpt`, and derives the
classic decisions, Hausdorff / weak / strong matching, from the same
diagram: the weak one is the decider at k = 1. The subset brute force that
checks :func:`decide_fpt` is a test oracle, in ``tests/oracles.py``.

The cover rule and the search live in the numpy-free
:mod:`kfrechet.intervals`, shared with the box solver of
:mod:`kfrechet.boxes`. The search starts from the paper's factor-2
approximation, the union of a minimum cover a of p and b of q (which
:func:`kfrechet.approx.approximate_k` returns too), as a certificate: no
joint cover has fewer than max(|a|, |b|) components. Only the diagrams
where the union is larger go to the bounded search tree.

A diagram keeps its pair (a, b) once a decision has computed it at a
tolerance (see :class:`~kfrechet.freespace.FreeSpaceDiagram`), so the
Hausdorff decision ("a and b exist"), the approximation (a ∪ b), the weak
decision, :func:`decide_fpt` and :func:`~kfrechet.optimize.minimize_k` on
one diagram compute it once between them. A tree walk is not kept.

A selection is a sorted, duplicate-free tuple of component ids. The
decider reads each axis as (id, lo, hi) triples from :func:`_axis_intervals`,
each component's id and (lo, hi) projection pair, the one per-axis shape
that :mod:`kfrechet.approx` and the eps search of :mod:`kfrechet.optimize`
read too. Only the strong decision needs the cell geometry, and its
boundary test is its own; the others need only the component projections.

Each public function reads the one comparison tolerance, ``KFRECHET_TOL``
(see :mod:`kfrechet.config`), once when called and hands it to the search.
"""

from __future__ import annotations

import math
from typing import Iterable

from .config import _budget, default_tol
from .freespace import FreeSpaceDiagram, FreeSpaceGrid, _picked
from .intervals import _OPEN, _axis_cover, _axis_selections, _certified_cover, _walk_joint_cover


def covers_both(diagram: FreeSpaceDiagram, selection: Iterable[int]) -> bool:
    """Whether the components with the selected ids project onto all of both axes."""
    tol = default_tol()
    comps = _picked(diagram, selection)
    p = [(c.id, *c.proj_p) for c in comps]
    q = [(c.id, *c.proj_q) for c in comps]
    return (_axis_cover(p, (0.0, diagram.n), tol) is not None
            and _axis_cover(q, (0.0, diagram.m), tol) is not None)


def _axis_intervals(diagram: FreeSpaceDiagram, axis: str) -> list:
    """The (id, lo, hi) projections of every component onto axis "p" or "q", by id."""
    if axis == "p":
        return [(c.id, *c.proj_p) for c in diagram.components]
    if axis == "q":
        return [(c.id, *c.proj_q) for c in diagram.components]
    raise ValueError(f'axis must be "p" or "q", got {axis!r}')


def _cover_pair(diagram: FreeSpaceDiagram, tol: float) -> tuple:
    """The minimum covers (a, b) of the p and q axes, None where an axis has
    none, at ``tol``: kept on the diagram, and computed again only when asked
    at another tolerance."""
    stored = diagram._covers
    if stored is None or stored[0] != tol:
        stored = (tol, _axis_cover(_axis_intervals(diagram, "p"), (0.0, diagram.n), tol),
                  _axis_cover(_axis_intervals(diagram, "q"), (0.0, diagram.m), tol))
        object.__setattr__(diagram, "_covers", stored)  # frozen; see FreeSpaceDiagram
    return stored[1:]


def _joint_cover(diagram: FreeSpaceDiagram, k: int, tol: float) -> tuple | None:
    """:func:`~kfrechet.intervals._min_joint_cover` over the axes (0, n) and
    (0, m), its certificate taken from the diagram's cover pair."""
    found = _certified_cover(*_cover_pair(diagram, tol), k)
    if found is _OPEN:
        return _walk_joint_cover(_axis_intervals(diagram, "p"), _axis_intervals(diagram, "q"),
                                 (0.0, diagram.n), (0.0, diagram.m), k, tol)
    return found


def fpt_feasible_selections(diagram: FreeSpaceDiagram, axis: str, k: int) -> tuple[list, int]:
    """All axis-covering selections found by a depth-bounded sweep search.

    The search tree holds every covering chain (see :mod:`kfrechet.intervals`)
    of at most k components, walked breadth-first. Returns the sorted
    selections of its paths (as sorted id tuples) and the path count.

    A node's children all meet the window (frontier, frontier + tol]; where
    no two projection ends lie within tol, they all meet one axis-parallel
    line, so a node has at most ``diagram.z`` children and the tree at
    most z^k paths. ``diagram.z`` is at most the paper's z (see
    :class:`~kfrechet.freespace.FreeSpaceDiagram`): the paper's FPT bound.
    """
    tol = default_tol()
    k = _budget(k)
    axis_len = float(diagram.n if axis == "p" else diagram.m)
    tree = _axis_selections(_axis_intervals(diagram, axis), (0.0, axis_len), tol)
    levels = [level for _, level in zip(range(k + 1), tree)]
    return sorted({sel for level in levels for sel in level}), sum(map(len, levels))


def decide_fpt(diagram: FreeSpaceDiagram, k: int) -> tuple | None:
    """A minimum selection covering both axes if it has at most k
    components, else None: :func:`~kfrechet.intervals._min_joint_cover` over
    the axes (0, n) and (0, m).

    First the certificate of the module docstring, from the diagram's one
    minimum cover per axis (O(C log C) for C components, once per diagram).
    Otherwise the search tree of :func:`fpt_feasible_selections` on p is
    walked breadth-first, no deeper than k or the least cover size, and each
    path is completed by the cheapest q chain, in O(C log C). Paths go by
    depth and then in sorted order; a later cover wins only if it is
    smaller. The z^k bound on the tree's paths holds for this search.
    """
    tol = default_tol()
    k = _budget(k)
    return _joint_cover(diagram, k, tol)


def decide_weak_frechet(diagram: FreeSpaceDiagram) -> bool:
    """True when a single component projects onto the whole of both axes.

    Equivalently: some component touches all four diagram boundaries, and
    :func:`decide_fpt` finds a selection at ``k = 1``.
    """
    return _joint_cover(diagram, 1, default_tol()) is not None


def decide_hausdorff(diagram: FreeSpaceDiagram) -> bool:
    """True when the union of all components covers both axes: when each
    axis has a minimum cover."""
    a, b = _cover_pair(diagram, default_tol())
    return a is not None and b is not None


def _boundary_starts(edges: list, tol: float) -> list:
    """Start of the reachable part of each edge in a run of (lo, hi) boundary
    edges from the origin corner, inf where none: an edge is reached when it is
    nonempty and ``lo <= tol`` and, after the first, the edge before it is
    reached and ends at ``>= 1 - tol``."""
    starts = [math.inf] * len(edges)
    for j, (lo, hi) in enumerate(edges):
        if not (lo <= hi and lo <= tol):
            break
        starts[j] = lo
        if hi < 1.0 - tol:
            break
    return starts


def decide_strong_frechet(diagram: FreeSpaceDiagram) -> bool:
    """Monotone reachability from the bottom-left to the top-right corner.

    The dynamic program of Alt & Godau over cell edges. A cell's free space
    is convex, so the reachable part of a free edge ``[lo, hi]`` is
    ``[start, hi]``; the sweep keeps the start only, inf where nothing on the
    edge is reachable. The left and bottom boundary edges follow
    :func:`_boundary_starts`. Of a cell entered from below (start b), the
    right edge starts at ``r_lo``; of one entered from the left only (start
    l), at ``max(r_lo, l)``. Symmetrically, the top edge starts at ``t_lo``
    when the cell is entered from the left, else at ``max(t_lo, b)``. A start
    past the edge's hi is inf.
    """
    grid = diagram.cells
    if not isinstance(grid, FreeSpaceGrid):
        raise ValueError("decide_strong_frechet needs the cell geometry of the diagram; "
                         "this one holds component projections only")
    tol = default_tol()
    n, m, inf = diagram.n, diagram.m, math.inf
    # left[j]: start on the left edge of cell (i, j) in column i; bottom[i]: on
    # the bottom edge of cell (i, 0), the only bottom edge entered from outside.
    left = _boundary_starts(grid.vert[0].tolist(), tol)
    bottom = _boundary_starts(grid.horiz[:, 0].tolist(), tol) + [inf]
    for i in range(n):
        r_lo, r_hi = grid.vert[i + 1].T.tolist()
        t_lo, t_hi = grid.horiz[i, 1:].T.tolist()
        right, b = [inf] * m, bottom[i]
        for j, l in enumerate(left):
            if b == l == inf:
                continue  # neither entered: nothing leaves this cell
            r = r_lo[j] if b < inf else max(r_lo[j], l)
            t = t_lo[j] if l < inf else max(t_lo[j], b)
            right[j] = r if r <= r_hi[j] else inf
            b = t if t <= t_hi[j] else inf
        if i == n - 1 and b < inf and t_hi[m - 1] >= 1.0 - tol:
            return True  # top-right corner reached through the top edge of the last cell
        if right.count(inf) == m and bottom[i + 1] == inf:
            return False  # nothing reachable enters the remaining columns
        left = right
    return left[m - 1] < inf and r_hi[m - 1] >= 1.0 - tol
