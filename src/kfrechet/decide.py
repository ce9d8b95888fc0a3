"""Decision procedures over a built free space diagram.

The central question: can at most k connected components of the free
space jointly project onto the whole of both parameter axes? Besides the
two exact deciders (subset brute force and a bounded-search-tree method)
this module derives the classic decisions, Hausdorff / weak / strong
matching, from the same diagram.

A selection is a sorted, duplicate-free tuple of component ids. The
deciders read each axis as (id, lo, hi) triples from :func:`_axis_intervals`,
the one per-axis shape that the greedy covers of :mod:`kfrechet.approx`
and the eps search of :mod:`kfrechet.optimize` read too. Only the strong
decision needs the cell geometry; the others need only the component
projections.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable

from .config import resolve_tol
from .curves import Interval, interval_union_covers
from .freespace import FreeSpaceDiagram, FreeSpaceGrid


@dataclass(frozen=True)
class Preprocessed:
    """Result of :func:`preprocess`.

    ``necessary``: components that are the sole coverer of some open
    sub-interval of an axis; every covering selection contains them.
    ``kept``: ids that survive redundancy pruning. ``dropped``: ids whose
    projection bounding box fits inside another component's box.
    """

    necessary: tuple
    kept: tuple
    dropped: tuple


def _budget(k, least: int = 0) -> int:
    """``k`` as a Python int; a non-integer (NaN, inf, 1.5) or ``k < least`` raises."""
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < least:
        raise ValueError(f"k must be >= {least}, got {k}")
    return k


def covers_both(diagram: FreeSpaceDiagram, selection: Iterable[int],
                tol: float | None = None) -> bool:
    """Whether the components with the selected ids project onto all of both axes."""
    tol = resolve_tol(tol)
    comps = []
    for cid in selection:
        if not 0 <= cid < len(diagram.components):
            raise KeyError(f"unknown component id {cid}")
        comps.append(diagram.components[cid])
    return (
        interval_union_covers([c.proj_p for c in comps], Interval(0.0, float(diagram.n)), tol)
        and interval_union_covers([c.proj_q for c in comps], Interval(0.0, float(diagram.m)), tol)
    )


def _sole_coverers(components, axis_len: float, proj, tol: float) -> set:
    """Ids covering some open sub-interval of the axis on their own."""
    events = [0.0, axis_len]
    for c in components:
        iv = proj(c)
        events.append(min(max(iv.lo, 0.0), axis_len))
        events.append(min(max(iv.hi, 0.0), axis_len))
    events.sort()
    marks = [events[0]]
    for e in events[1:]:
        if e - marks[-1] > tol:
            marks.append(e)
    found = set()
    for a, b in zip(marks, marks[1:]):
        mid = 0.5 * (a + b)
        covering = [c.id for c in components if proj(c).lo <= mid <= proj(c).hi]
        if len(covering) == 1:
            found.add(covering[0])
    return found


def preprocess(diagram: FreeSpaceDiagram, tol: float | None = None) -> Preprocessed:
    """Identify necessary components and prune redundant ones.

    A component is redundant when its proj_p x proj_q bounding box is
    contained in a single other component's box (ties on identical boxes
    keep the smaller id, so mutually-contained components are never both
    dropped). Necessary and redundant sets are disjoint.
    """
    tol = resolve_tol(tol)
    comps = diagram.components
    necessary = _sole_coverers(comps, float(diagram.n), lambda c: c.proj_p, tol)
    necessary |= _sole_coverers(comps, float(diagram.m), lambda c: c.proj_q, tol)

    dropped = []
    for b in comps:
        for a in comps:
            if a.id == b.id:
                continue
            if a.proj_p.contains_interval(b.proj_p) and a.proj_q.contains_interval(b.proj_q):
                same_box = a.proj_p == b.proj_p and a.proj_q == b.proj_q
                if same_box and a.id > b.id:
                    continue
                dropped.append(b.id)
                break
    kept = tuple(c.id for c in comps if c.id not in set(dropped))
    return Preprocessed(necessary=tuple(sorted(necessary)), kept=kept, dropped=tuple(dropped))


def decide_bruteforce(diagram: FreeSpaceDiagram, k: int, use_preprocess: bool = True,
                      tol: float | None = None) -> tuple | None:
    """Search all selections of size <= k for one covering both axes.

    The necessary components are seeded into every candidate and the
    remaining slots run through the non-redundant ids in lexicographic
    order; the first covering selection is returned.
    """
    tol = resolve_tol(tol)
    k = _budget(k)
    if not decide_hausdorff(diagram, tol):
        return None
    if use_preprocess:
        pre = preprocess(diagram, tol)
        base = pre.necessary
        pool = [cid for cid in pre.kept if cid not in base]
    else:
        base = ()
        pool = range(len(diagram.components))
    if len(base) > k:
        return None
    for extra_count in range(k - len(base) + 1):
        for extra in itertools.combinations(pool, extra_count):
            candidate = tuple(sorted((*base, *extra)))
            if covers_both(diagram, candidate, tol):
                return candidate
    return None


def _axis_intervals(diagram: FreeSpaceDiagram, axis: str) -> list:
    """The (id, lo, hi) projections of every component onto axis "p" or "q", by id."""
    if axis == "p":
        return [(c.id, c.proj_p.lo, c.proj_p.hi) for c in diagram.components]
    if axis == "q":
        return [(c.id, c.proj_q.lo, c.proj_q.hi) for c in diagram.components]
    raise ValueError(f'axis must be "p" or "q", got {axis!r}')


def fpt_feasible_selections(diagram: FreeSpaceDiagram, axis: str, k: int,
                            tol: float | None = None) -> tuple[list, int]:
    """All axis-covering selections found by a depth-bounded sweep search.

    Each node of the search tree stands for a component whose projection
    interval contains the parent's frontier (the right end of the prefix
    covered so far) and extends it (strictly, beyond tolerance); the root,
    at depth 0, is the axis' left boundary, and no path is deeper than k.
    A path ends as soon as its component reaches the right boundary. The
    tree is walked depth-first as a path enumeration and its nodes are
    never materialised. Returns the duplicate-free sorted list of
    selections (as sorted id tuples) plus the raw feasible-path count.
    """
    tol = resolve_tol(tol)
    k = _budget(k)
    axis_len = float(diagram.n if axis == "p" else diagram.m)
    return _axis_selections(_axis_intervals(diagram, axis), axis_len, k, tol)


def _axis_selections(intervals, axis_len: float, k: int, tol: float) -> tuple[list, int]:
    """:func:`fpt_feasible_selections` on a list of (id, lo, hi) projections."""
    found: set = set()
    paths = 0

    def extend(frontier: float, path: tuple, depth: int) -> None:
        nonlocal paths
        if depth == k:
            return
        for cid, lo, hi in intervals:
            if lo <= frontier + tol and hi > frontier + tol:
                if hi >= axis_len - tol:
                    paths += 1
                    found.add(tuple(sorted((*path, cid))))
                else:
                    extend(hi, (*path, cid), depth + 1)

    extend(0.0, (), 0)
    return sorted(found), paths


def _joint_covers(intervals_p, intervals_q, n: int, m: int, k: int, tol: float):
    """Unions of at most k ids of a p-axis and a q-axis selection of the
    search tree, as sorted id tuples, in the order the pairs are tried.

    ``intervals_p``/``intervals_q`` are (id, lo, hi) projections on axes of
    length n and m. Every union covers both axes.
    """
    sels_p, _ = _axis_selections(intervals_p, float(n), k, tol)
    if not sels_p:
        return
    sels_q, _ = _axis_selections(intervals_q, float(m), k, tol)
    for sp in sels_p:
        set_p = set(sp)
        for sq in sels_q:
            union = set_p.union(sq)
            if len(union) <= k:
                yield tuple(sorted(union))


def decide_fpt(diagram: FreeSpaceDiagram, k: int, tol: float | None = None) -> tuple | None:
    """Bounded-search-tree decision for budget k.

    Feasible per-axis selections are enumerated independently, then every
    pair is combined; a pair whose union stays within k components is a
    positive answer. The lexicographically smallest union is returned so
    results are deterministic.
    """
    tol = resolve_tol(tol)
    k = _budget(k)
    return min(_joint_covers(_axis_intervals(diagram, "p"), _axis_intervals(diagram, "q"),
                             diagram.n, diagram.m, k, tol), default=None)


def _weak_witness(diagram: FreeSpaceDiagram, tol: float | None = None) -> int | None:
    """Id of the first component touching all four diagram boundaries, or None."""
    tol = resolve_tol(tol)
    n, m = float(diagram.n), float(diagram.m)
    return next((c.id for c in diagram.components
                 if c.proj_p.lo <= tol and c.proj_p.hi >= n - tol
                 and c.proj_q.lo <= tol and c.proj_q.hi >= m - tol), None)


def decide_weak_frechet(diagram: FreeSpaceDiagram, tol: float | None = None) -> bool:
    """True when a single component projects onto the whole of both axes.

    Equivalently: some component touches all four diagram boundaries.
    """
    return _weak_witness(diagram, tol) is not None


def decide_hausdorff(diagram: FreeSpaceDiagram, tol: float | None = None) -> bool:
    """True when the union of all components covers both axes."""
    return covers_both(diagram, range(len(diagram.components)), tol)


def decide_strong_frechet(diagram: FreeSpaceDiagram, tol: float | None = None) -> bool:
    """Monotone reachability from the bottom-left to the top-right corner.

    Classic dynamic program over cell boundary intervals: within one cell
    the free space is convex, so from an entry point every exit point
    above/right of it is reachable by a monotone segment.
    """
    grid = diagram.cells
    if not isinstance(grid, FreeSpaceGrid):
        raise ValueError("decide_strong_frechet needs the cell geometry of the diagram; "
                         "this one holds component projections only")
    tol = resolve_tol(tol)
    n, m = diagram.n, diagram.m
    # Edge intervals as lo and hi lists (empty where lo > hi), converted one
    # column at a time as the sweep reaches it: reachability usually dies in
    # the first columns. vert[i] holds the left edges of the cells (i, j),
    # the right edges of the cells (i-1, j); horiz[i] the bottom and top
    # edges of the cells (i, j).
    empty = (1.0, -1.0)

    def clip_from(edge_lo: float, edge_hi: float, lo: float):
        if edge_lo > edge_hi or edge_hi < lo:
            return empty
        return (max(edge_lo, lo), edge_hi)

    def opens(edge_lo: float, edge_hi: float) -> bool:
        """Nonempty and starting at the cell corner."""
        return edge_lo <= edge_hi and edge_lo <= tol

    # reach_left[j] for the current column i: reachable part of the left
    # edge of cell (i, j); reach_bottom[i] that of the bottom edge of cell
    # (i, 0), the only bottom edges reached from outside a column.
    reach_left = [empty] * m
    v_lo, v_hi = grid.vert[0].T.tolist()
    if opens(v_lo[0], v_hi[0]):
        reach_left[0] = (v_lo[0], v_hi[0])
        for j in range(1, m):
            below = reach_left[j - 1]
            if below[0] <= below[1] and below[1] >= 1.0 - tol and opens(v_lo[j], v_hi[j]):
                reach_left[j] = (v_lo[j], v_hi[j])
            else:
                break

    reach_bottom = [empty] * n
    h_lo, h_hi = grid.horiz[:, 0].T.tolist()
    if opens(h_lo[0], h_hi[0]):
        reach_bottom[0] = (h_lo[0], h_hi[0])
        for i in range(1, n):
            left_of = reach_bottom[i - 1]
            if left_of[0] <= left_of[1] and left_of[1] >= 1.0 - tol and opens(h_lo[i], h_hi[i]):
                reach_bottom[i] = (h_lo[i], h_hi[i])
            else:
                break

    for i in range(n):
        right_lo, right_hi = grid.vert[i + 1].T.tolist()
        top_lo, top_hi = grid.horiz[i].T.tolist()
        next_left = [empty] * m
        bottom_in = reach_bottom[i]
        for j in range(m):
            left_in = reach_left[j]
            has_left = left_in[0] <= left_in[1]
            has_bottom = bottom_in[0] <= bottom_in[1]
            if has_bottom:
                out_right = clip_from(right_lo[j], right_hi[j], 0.0)
            elif has_left:
                out_right = clip_from(right_lo[j], right_hi[j], left_in[0])
            else:
                out_right = empty
            if has_left:
                out_top = clip_from(top_lo[j + 1], top_hi[j + 1], 0.0)
            elif has_bottom:
                out_top = clip_from(top_lo[j + 1], top_hi[j + 1], bottom_in[0])
            else:
                out_top = empty
            next_left[j] = out_right
            bottom_in = out_top
        if i == n - 1 and bottom_in[0] <= bottom_in[1] and bottom_in[1] >= 1.0 - tol:
            # top-right corner reached through the top edge of the last cell
            return True
        if next_left.count(empty) == m and (i + 1 == n or reach_bottom[i + 1] is empty):
            return False  # nothing reachable enters the remaining columns
        reach_left = next_left
    top_right = reach_left[m - 1]
    return top_right[0] <= top_right[1] and top_right[1] >= 1.0 - tol
