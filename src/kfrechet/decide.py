"""Decision procedures over a built free space diagram.

The central question: can at most k connected components of the free
space jointly project onto the whole of both parameter axes? This module
answers it with one exact decider, :func:`decide_fpt`, and derives the
classic decisions, Hausdorff / weak / strong matching, from the same
diagram: the weak one is the decider at k = 1. The subset brute force that
checks :func:`decide_fpt` is a test oracle, in ``tests/oracles.py``.

The cover rule and the search live in the numpy-free
:mod:`kfrechet.intervals`, shared with the box solver of
:mod:`kfrechet.boxes`: its one joint-cover entry point,
:func:`~kfrechet.intervals._min_joint_cover`, starts from the paper's
factor-2 approximation, the union of a minimum cover a of p and b of q
(which :func:`kfrechet.approx.approximate_k` returns too), as a
certificate: no joint cover has fewer than max(|a|, |b|) components. Only
the diagrams where the union is larger go to the bounded search tree.

A diagram keeps its two axes, each component's id and (lo, hi) projection
as (id, lo, hi) triples by id, and its pair (a, b) once a decision has
computed them at a tolerance (:func:`_axes_and_covers`; see
:class:`~kfrechet.freespace.FreeSpaceDiagram`), so the Hausdorff decision
("a and b exist"), the approximation (a ∪ b), the weak decision,
:func:`decide_fpt`, :func:`fpt_feasible_selections` and
:func:`~kfrechet.optimize.minimize_k` on one diagram build them once
between them. A tree walk is not kept.

A selection is a sorted, duplicate-free tuple of component ids. Only the
strong decision needs the cell geometry, and its boundary test is its own;
the others need only the component projections.

Each public function reads the one comparison tolerance, ``KFRECHET_TOL``
(see :mod:`kfrechet.config`), once when called and hands it to the search.
"""

from __future__ import annotations

import math
from typing import Iterable

from .config import _budget, default_tol
from .freespace import FreeSpaceDiagram, FreeSpaceGrid, _picked
from .intervals import _axes_covered, _axis_cover, _axis_selections, _min_joint_cover


def covers_both(diagram: FreeSpaceDiagram, selection: Iterable[int]) -> bool:
    """Whether the components with the selected ids project onto all of both axes."""
    tol = default_tol()
    comps = _picked(diagram, selection)
    return _axes_covered([(c.id,) + c.proj_p for c in comps], [(c.id,) + c.proj_q for c in comps],
                         (0.0, diagram.n), (0.0, diagram.m), tol)


def _axes_and_covers(diagram: FreeSpaceDiagram, tol: float) -> tuple:
    """(axes, covers): the arguments ``(p, q, (0, n), (0, m))`` of
    :func:`~kfrechet.intervals._min_joint_cover` for the diagram, p and q the
    (id, lo, hi) projections of every component by id, and ``(a, b)``, their
    minimum covers at ``tol``, None where an axis has none. Kept on the
    diagram, and computed again only when asked at another tolerance."""
    stored = diagram._covers
    if stored is None or stored[0] != tol:
        p = [(c.id,) + c.proj_p for c in diagram.components]  # (c.id, *proj) builds a list per item
        q = [(c.id,) + c.proj_q for c in diagram.components]
        axes = (p, q, (0.0, diagram.n), (0.0, diagram.m))
        stored = (tol, axes, (_axis_cover(p, axes[2], tol), _axis_cover(q, axes[3], tol)))
        object.__setattr__(diagram, "_covers", stored)  # frozen; see FreeSpaceDiagram
    return stored[1:]


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
    if axis not in ("p", "q"):
        raise ValueError(f'axis must be "p" or "q", got {axis!r}')
    p, q, ends_p, ends_q = _axes_and_covers(diagram, tol)[0]
    tree = _axis_selections(p, ends_p, tol) if axis == "p" else _axis_selections(q, ends_q, tol)
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
    (p, q, ends_p, ends_q), covers = _axes_and_covers(diagram, tol)
    return _min_joint_cover(p, q, ends_p, ends_q, k, tol, covers)


def decide_weak_frechet(diagram: FreeSpaceDiagram) -> bool:
    """True when a single component projects onto the whole of both axes.

    Equivalently: some component touches all four diagram boundaries, and
    :func:`decide_fpt` finds a selection at ``k = 1``.
    """
    tol = default_tol()
    (p, q, ends_p, ends_q), covers = _axes_and_covers(diagram, tol)
    return _min_joint_cover(p, q, ends_p, ends_q, 1, tol, covers) is not None


def decide_hausdorff(diagram: FreeSpaceDiagram) -> bool:
    """True when the union of all components covers both axes: when each
    axis has a minimum cover."""
    a, b = _axes_and_covers(diagram, default_tol())[1]
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
