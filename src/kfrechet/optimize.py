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

The decision is monotone in eps too, so the bisection probes only the
points of its path that lie strictly between the largest eps found
infeasible and the smallest found feasible; every other outcome is
implied. It first predicts where feasibility starts and probes the two
path points around the prediction: if the prediction is right, they
imply the whole path. The first prediction is the vertex bound, the
largest distance from a vertex of either curve to the other curve, a
lower bound on the Hausdorff distance and so on every k-Fréchet
distance; later ones come from the vertex-segment distances above it.
A wrong prediction costs only its own probes, so the returned float is
the plain bisection's.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .approx import _axis_covers
from .config import resolve_tol
from .curves import PolyCurve
from .decide import _budget, _joint_covers, decide_fpt
from .freespace import FreeSpaceDiagram, _components, _dot, _PairGeometry, build_diagram


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
    covers = _axis_covers(diagram, tol)
    if covers is None:
        return None
    cover_p, cover_q = covers
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


def _vertex_distance(P: PolyCurve, Q: PolyCurve) -> np.ndarray:
    """``np.linalg.norm(u - v)`` for each vertex u of P and v of Q, shape (n+1, m+1)."""
    diff = P.vertices[:, None] - Q.vertices[None]
    return np.sqrt(_dot(diff, diff))


def _vertex_segment_distance(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """``point_segment_distance(p, a, b)`` of each point p to each segment a-b
    of the polyline ``vertices``, shape (points, segments): the same IEEE
    operations in the same order as the scalar function, hence the same floats."""
    start, step = vertices[:-1], np.diff(vertices, axis=0)
    den = _dot(step, step)
    with np.errstate(all="ignore"):
        u = _dot(points[:, None] - start, step) / den
    u = np.where(u > 0.0, u, 0.0)  # min(1.0, max(0.0, u)) as Python computes it,
    u = np.where(u < 1.0, u, 1.0)  # NaN included
    u[:, den == 0.0] = 0.0  # a squared length that underflows: the distance to a
    x = start + u[..., None] * step - points[:, None]
    return np.sqrt(_dot(x, x))


def _vertex_segment_distances(P: PolyCurve, Q: PolyCurve) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex of P to each segment of Q, and each vertex of Q to each segment of P."""
    return (_vertex_segment_distance(P.vertices, Q.vertices),
            _vertex_segment_distance(Q.vertices, P.vertices))


def _vertex_bound(p_to_q: np.ndarray, q_to_p: np.ndarray) -> float:
    """Largest distance from a vertex of either curve to the other curve: a
    lower bound on the Hausdorff distance, hence on every k-Fréchet one."""
    return float(max(p_to_q.min(axis=1).max(), q_to_p.min(axis=1).max()))


def _sorted_distinct(distances) -> np.ndarray:
    """0 and the given distance arrays, sorted, each value once."""
    values = np.sort(np.concatenate([np.zeros(1), *(d.ravel() for d in distances)]))
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def distance_candidates(P: PolyCurve, Q: PolyCurve) -> list[float]:
    """Vertex-vertex, vertex-segment and segment-segment distances, sorted.

    These are the eps values at which per-cell free space typically
    appears or reaches a cell edge. They are NOT proven to include every
    value where coverage feasibility changes (component projections can
    start overlapping at other eps), so they serve as a heuristic
    candidate grid only. Each value is the float that ``np.linalg.norm``,
    :func:`~kfrechet.curves.point_segment_distance` or
    :func:`~kfrechet.curves.segment_distance` returns for the pair; a
    segment-segment distance is 0 (crossing segments) or the least of its
    four vertex-segment distances, so it adds no value of its own.
    """
    return _sorted_distinct((_vertex_distance(P, Q), *_vertex_segment_distances(P, Q))).tolist()


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


def _bisect(lo: float, hi: float, tol: float, feasible) -> tuple[float, float]:
    """Bisect [lo, hi] to width ``tol`` under the decision ``feasible``.

    Returns the final ends: the last eps decided infeasible and the last
    decided feasible (``lo`` and ``hi`` themselves if there was none).
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats: no finer eps exists
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def minimize_epsilon(P: PolyCurve, Q: PolyCurve, k: int, tol: float = 1e-6,
                     method: str = "bisect") -> float:
    """Smallest eps (within ``tol``) whose diagram admits a k-cover.

    "bisect" runs a monotone binary search on eps over [0, max vertex
    distance] and returns the upper end once the two ends are within
    ``tol``. "candidates" instead bisects the sorted
    :func:`distance_candidates` list and returns an exact member of it;
    that grid is heuristic, see there. Either way a probe at eps decides
    exactly what ``decide_fpt(build_diagram(P, Q, eps), k) is not None``
    decides, comparing interval ends with ``resolve_tol(None)``
    (``KFRECHET_TOL`` or 1e-9); ``tol`` is only the search width. Every
    probe after eps = 0 reuses geometry computed once for the pair and the
    components of the largest eps found infeasible.

    "bisect" follows the plain bisection's path but probes only outcomes
    not yet implied: the decision is monotone in eps, so an eps at or
    below one found infeasible is infeasible, and one at or above one
    found feasible is feasible. It predicts where feasibility starts: if
    it started at g, the path would end between two of its points, the
    last below g and the last at or above it, and once those two are
    probed as predicted they imply every other outcome on the path. Each
    prediction is the median of a prior over where feasibility starts,
    restricted to between the eps found infeasible and feasible so far,
    and each probe goes to the one of its two path points that splits the
    prior more evenly. The prior puts 3 on the vertex bound (the largest
    distance from a vertex of either curve to the other curve, a lower
    bound on the answer, and often the answer itself), as much as on all
    the rest, so that the vertex bound is checked first, with two probes;
    2 spread evenly over the vertex-segment distances above it (the
    :func:`distance_candidates` at which edges open); and 1 over the
    range by length, so that an answer no distance predicts costs at
    most a few probes more than plain bisection. A wrong prediction costs
    only its own probes: every outcome on the path is still the one a
    probe would give, so the returned float is the plain bisection's,
    bit for bit.
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
    # found infeasible so far stay joined at every later probe, which lies
    # above it.
    forest = np.arange(geometry.n * geometry.m)
    infeasible_at, feasible_at = 0.0, math.inf

    def feasible(eps: float) -> bool:
        nonlocal forest, infeasible_at, feasible_at
        if eps <= infeasible_at:
            return False
        if eps >= feasible_at:
            return True
        roots = forest.copy()
        if _cover_exists(geometry, eps, k, cmp_tol, roots):
            feasible_at = eps
            return True
        forest, infeasible_at = roots, eps
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

    # every point of the bisection path lies below top, so none needs top decided
    top = feasible_at = pairwise_vertex_max(P, Q)
    p_to_q, q_to_p = _vertex_segment_distances(P, Q)
    # The prior (see above): atoms[0] is the vertex bound, of mass 3, and the
    # atoms[t] for t >= 1 the larger vertex-segment distances, of mass 2 in
    # all; 1 more is spread over (0, top] by length.
    bound = _vertex_bound(p_to_q, q_to_p)
    atoms = _sorted_distinct((p_to_q, q_to_p))
    atoms = [bound, *atoms[atoms > bound].tolist()]
    share = 2.0 / max(len(atoms) - 1, 1)

    def mass(eps: float, atoms_in: int) -> float:
        """Prior mass of (0, eps], given the atoms it holds."""
        return (atoms_in > 0) * (3.0 + share * (atoms_in - 1)) + eps / top

    def mass_at(eps: float) -> float:
        return mass(eps, bisect.bisect_right(atoms, eps))

    def median(lo: float, hi: float, half: float) -> float:
        """Least eps in (lo, hi] whose mass reaches ``half``."""
        i, j = bisect.bisect_right(atoms, lo), bisect.bisect_right(atoms, hi)
        t = bisect.bisect_left(range(i, j), half, key=lambda t: mass(atoms[t], t + 1)) + i
        start = atoms[t - 1] if t > i else lo
        return min(start + (half - mass(start, t)) * top, atoms[t] if t < j else hi)

    while True:
        lo, hi = infeasible_at, feasible_at
        half = 0.5 * (mass_at(lo) + mass_at(hi))
        # the path ends if feasibility started at the median; if neither lies
        # inside (lo, hi), every outcome on the path is implied
        ends = [eps for eps in _bisect(0.0, top, tol, median(lo, hi, half).__le__)
                if lo < eps < hi]
        if not ends:
            return _bisect(0.0, top, tol, feasible)[1]
        feasible(min(ends, key=lambda eps: abs(mass_at(eps) - half)))
