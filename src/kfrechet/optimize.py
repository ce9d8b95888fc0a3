"""Optimisation wrappers around the decision procedures.

Minimise the number of covering components at fixed eps, or the distance
eps at a fixed component budget k. Both lean on monotonicity: a positive
decision stays positive when k or eps grows. The eps search decides
eps = 0 on a built diagram, then prepares the eps-independent geometry of
the pair once; each further probe solves only the eps terms, labels the
components and runs the search-tree decider on their projections, without
building a :class:`FreeSpaceDiagram`. Free space only grows with eps (in
floating point too, see :mod:`kfrechet.freespace`), so each probe starts
its union-find from the components found at the largest eps found
infeasible so far and adds only the joins free at its own eps; the labels
and projections, hence the returned eps, are those of a cold probe.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .approx import axis_projections, greedy_axis_cover
from .config import resolve_tol
from .curves import Interval, PolyCurve, point_segment_distance, segment_distance
from .decide import _budget, _joint_covers, decide_fpt
from .freespace import FreeSpaceDiagram, _components, _PairGeometry, build_diagram


def minimize_k(diagram: FreeSpaceDiagram, method: str = "exact",
               tol: float | None = None) -> int | None:
    """Smallest covering budget k for this diagram, or None.

    None exactly when no selection of any size covers (Hausdorff fails).
    "exact" scans k upward from the per-axis greedy lower bound using the
    search-tree decider; "approx" just reports the greedy union size,
    which is at most twice the optimum.
    """
    if method not in ("exact", "approx"):
        raise ValueError(f'method must be "exact" or "approx", got {method!r}')
    cover_p = greedy_axis_cover(axis_projections(diagram, "p"),
                                Interval(0.0, float(diagram.n)), tol)
    if cover_p is None:
        return None
    cover_q = greedy_axis_cover(axis_projections(diagram, "q"),
                                Interval(0.0, float(diagram.m)), tol)
    if cover_q is None:
        return None
    union = len({*cover_p, *cover_q})
    if method == "approx":
        return union
    lower = max(len(cover_p), len(cover_q))
    for k in range(lower, union + 1):
        if decide_fpt(diagram, k, tol) is not None:
            return k
    return union


def pairwise_vertex_max(P: PolyCurve, Q: PolyCurve) -> float:
    """Largest vertex-to-vertex distance between the two curves.

    At this eps every cell of the diagram is entirely free (the distance
    of two segment points is maximised at a vertex pair), so the whole
    diagram is one component and any budget k >= 1 succeeds.
    """
    diff = P.vertices[:, None, :] - Q.vertices[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).max())


def distance_candidates(P: PolyCurve, Q: PolyCurve) -> list[float]:
    """Vertex-vertex, vertex-segment and segment-segment distances, sorted.

    These are the eps values at which per-cell free space typically
    appears or reaches a cell edge. They are NOT proven to include every
    value where coverage feasibility changes (component projections can
    start overlapping at other eps), so they serve as a heuristic
    candidate grid only.
    """
    values = {0.0}
    for u in P.vertices:
        for v in Q.vertices:
            values.add(float(np.linalg.norm(u - v)))
    for u in P.vertices:
        for j in range(Q.n):
            values.add(point_segment_distance(u, *Q.segment(j)))
    for v in Q.vertices:
        for i in range(P.n):
            values.add(point_segment_distance(v, *P.segment(i)))
    for i, j in itertools.product(range(P.n), range(Q.n)):
        values.add(segment_distance(*P.segment(i), *Q.segment(j)))
    return sorted(values)


def _cover_exists(geometry: _PairGeometry, eps: float, k: int, tol: float,
                  forest: np.ndarray | None = None) -> bool:
    """``decide_fpt(build_diagram(P, Q, eps, tol), k, tol) is not None`` for the
    prepared pair, from the component projections alone. ``forest`` warm-starts
    the component labelling as in :func:`~kfrechet.freespace._components`."""
    p_lo, p_hi, q_lo, q_hi = _components(geometry.solve(eps, tol), forest)[2].tolist()
    ids = range(len(p_lo))
    covers = _joint_covers(list(zip(ids, p_lo, p_hi)), list(zip(ids, q_lo, q_hi)),
                           geometry.n, geometry.m, k, tol)
    return next(covers, None) is not None


def minimize_epsilon(P: PolyCurve, Q: PolyCurve, k: int, tol: float = 1e-6,
                     method: str = "bisect") -> float:
    """Smallest eps (within ``tol``) whose diagram admits a k-cover.

    "bisect" runs a monotone binary search on eps over [0, max vertex
    distance]. "candidates" instead bisects the sorted
    :func:`distance_candidates` list and returns an exact member of it;
    that grid is heuristic, see there. Either way a probe at eps decides
    exactly what ``decide_fpt(build_diagram(P, Q, eps), k) is not None``
    decides; every probe after eps = 0 reuses geometry computed once for
    the pair and the components of the largest eps found infeasible.
    """
    k = _budget(k, least=1)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    if method not in ("bisect", "candidates"):
        raise ValueError(f'method must be "bisect" or "candidates", got {method!r}')
    # eps = 0 is decided on a built diagram, so that per-layer tracing, which
    # wraps only public functions, still sees one build and one decision per
    # search; the probes of the search proper re-solve the prepared pair
    if decide_fpt(build_diagram(P, Q, 0.0), k) is not None:
        return 0.0
    geometry = _PairGeometry(P.vertices, Q.vertices)
    cmp_tol = resolve_tol(None)
    # Free space only grows with eps, so the cells joined at the largest eps
    # found infeasible so far stay joined at every later (larger) probe.
    forest = np.arange(geometry.n * geometry.m)

    def feasible(eps: float) -> bool:
        nonlocal forest
        roots = forest.copy()
        if _cover_exists(geometry, eps, k, cmp_tol, roots):
            return True
        forest = roots
        return False

    if method == "candidates":
        cands = distance_candidates(P, Q)
        lo, hi = 0, len(cands) - 1
        if not feasible(cands[hi]):
            raise ValueError("candidate grid missed a feasible eps")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if feasible(cands[mid]):
                hi = mid
            else:
                lo = mid
        return cands[hi]
    lo, hi = 0.0, pairwise_vertex_max(P, Q)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats: no finer eps exists
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
