"""The one rule for covering an axis with a union of closed intervals,
and the one search for the fewest intervals that cover two axes at once.

"Do at most k components (boxes) cover both axes (boundaries)?" is one
question on closed intervals, so the curve side and the box side share
this module. It imports no numpy: the box commands load it without the
curve layers.

The cover rule: swept from the frontier ``start`` of an axis (start, end),
an interval joins a chain when ``lo <= frontier + tol`` and ``hi >
frontier``; the chain covers once the frontier reaches ``end - tol``. The
intervals of a cover that move the frontier form a chain, so every cover
holds one. The searches take (id, lo, hi) triples and return selections:
sorted, duplicate-free tuples of ids. The empty interval, (inf, -inf),
joins no chain.

:func:`_min_joint_cover` is the one entry point the other modules call for
the least selection of at most k that covers both axes: the decider, the
eps probes and the off-grid box solver. The certificate and the tree walk
behind it are this module's own.
"""

from __future__ import annotations

import bisect
import operator


def _axis_selections(intervals, ends, tol: float):
    """The search tree of chains over the axis ``ends``, breadth-first: for
    depth 0, 1, ..., the selections of the covering paths of that many
    intervals, one per path, while any path is open. The hi ends along a
    path increase, so no two paths hold the same set."""
    start, end = ends
    level = [(start, ())]  # the (frontier, path) nodes of one depth
    while level:
        yield [tuple(sorted(path)) for frontier, path in level if frontier >= end - tol]
        level = [(hi, (*path, cid)) for frontier, path in level if frontier < end - tol
                 for cid, lo, hi in intervals if lo <= frontier + tol and hi > frontier]


def _cheapest_cover(by_hi, ends, tol: float, free) -> tuple | None:
    """``free`` and the fewest other ids holding a chain that covers the axis
    ``ends``, sorted, or None, from (id, lo, hi) intervals sorted by hi. A
    frontier is kept only while no larger one is as cheap: the first kept past
    a point is cheapest. Of intervals with equal hi at equal cost, the last
    given is kept."""
    start, end = ends
    free = set(free)
    fronts, reach, costs, paids = [start], [start + tol], [0], [()]  # f, f + tol, cost, paid ids (id, rest)
    for cid, lo, hi in by_hi:
        i = bisect.bisect_left(reach, lo)
        if i == len(fronts) or fronts[i] >= hi:
            continue
        cost, paid = (costs[i], paids[i]) if cid in free else (costs[i] + 1, (cid, paids[i]))
        while costs and costs[-1] >= cost:
            del fronts[-1], reach[-1], costs[-1], paids[-1]
        fronts.append(hi)
        reach.append(hi + tol)
        costs.append(cost)
        paids.append(paid)
    i = bisect.bisect_left(fronts, end - tol)
    if i == len(fronts):
        return None
    ids, paid = list(free), paids[i]
    while paid:
        cid, paid = paid
        ids.append(cid)
    return tuple(sorted(ids))


def _axis_cover(intervals, ends, tol: float) -> tuple | None:
    """A minimum cover of the axis ``ends`` from (id, lo, hi) intervals, or None."""
    return _cheapest_cover(sorted(intervals, key=operator.itemgetter(2)), ends, tol, ())


def _axes_covered(intervals_p, intervals_q, ends_p, ends_q, tol: float) -> bool:
    """Whether the p intervals cover the axis ``ends_p`` and the q intervals
    the axis ``ends_q``: ``covers_both`` and ``covers_boundaries``."""
    return (_axis_cover(intervals_p, ends_p, tol) is not None
            and _axis_cover(intervals_q, ends_q, tol) is not None)


def _min_joint_cover(intervals_p, intervals_q, ends_p, ends_q, k: int, tol: float,
                     covers: tuple | None = None, cap: int | None = None) -> tuple | None:
    """A minimum selection of at most k ids covering both the p axis
    ``ends_p`` and the q axis ``ends_q``, each a (start, end) pair, else None:
    :func:`~kfrechet.decide.decide_fpt` over (0, n) and (0, m), the eps probes
    of :func:`~kfrechet.optimize.minimize_epsilon`, and off-grid
    :func:`~kfrechet.boxes.solve_box_bruteforce` over (1, x_max) and (1, y_max).

    First a certificate from the per-axis minimum covers a and b
    (:func:`_axis_cover`, None where an axis has none), taken from ``covers``
    when the caller holds them. Every joint cover covers each axis, so the
    least size is at least max(|a|, |b|): None when an axis has no cover or
    that bound exceeds k; the union of a and b when it meets the bound. The
    tie rule of :func:`_cheapest_cover` fixes a and b, so the union and
    witness are fixed too. Only otherwise does :func:`_walk_joint_cover` run,
    and with ``cap`` given, more than ``cap`` p intervals raise ValueError
    there instead: the box solver's bound on the walk.
    """
    a, b = covers or (_axis_cover(intervals_p, ends_p, tol), _axis_cover(intervals_q, ends_q, tol))
    if a is None or b is None or max(len(a), len(b)) > k:
        return None
    union = tuple(sorted({*a, *b}))
    if len(union) == max(len(a), len(b)):
        return union
    if cap is not None and len(intervals_p) > cap:
        raise ValueError(f"off-grid instance of {len(intervals_p)} boxes; "
                         f"the cover search takes at most {cap}")
    return _walk_joint_cover(intervals_p, intervals_q, ends_p, ends_q, k, tol)


def _walk_joint_cover(intervals_p, intervals_q, ends_p, ends_q, k: int, tol: float) -> tuple | None:
    """:func:`_min_joint_cover` by the tree of :func:`_axis_selections` on
    p, walked no deeper than k, each path S completed by the q chain with
    fewest ids outside S: a cover holds such an S and a q chain. Needs the q
    axis to have a cover. A path of ``depth`` ids, once the best cover has
    ``depth + 1``, wins only if it covers q alone, so it is completed from
    its own q intervals (in ``by_hi_q`` order) instead of from all of them.
    """
    by_hi_q = sorted(intervals_q, key=operator.itemgetter(2))
    rank = {iv[0]: r for r, iv in enumerate(by_hi_q)}
    best, size = None, k + 1  # only a cover smaller than size is kept
    for depth, level in enumerate(_axis_selections(intervals_p, ends_p, tol)):
        for sel in sorted(set(level)):
            if size == depth + 1:  # only sel itself can win: try its own q intervals
                own = [by_hi_q[r] for r in sorted(rank[cid] for cid in sel)]
                if _cheapest_cover(own, ends_q, tol, sel) is not None:
                    return sel  # a cover of size depth: no smaller one is left
                continue
            cover = _cheapest_cover(by_hi_q, ends_q, tol, sel)  # q has a cover, so this is one
            if len(cover) < size:
                best, size = cover, len(cover)
            if size == depth:
                return best  # no path of this depth or deeper gives less
        if size <= depth + 1:
            break
    return best
