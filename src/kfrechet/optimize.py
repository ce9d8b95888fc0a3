"""Optimisation wrappers around the decision procedures.

Minimise the number of covering components at fixed eps, or the distance
eps at a fixed component budget k. Both lean on monotonicity: a positive
decision stays positive when k or eps grows. The eps search, a bisection
that probes only the outcomes its predictions leave open, is described in
:func:`minimize_epsilon`.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .config import _budget, default_tol
from .curves import PolyCurve
from .decide import decide_fpt
from .freespace import _OUT_OF_RANGE, FreeSpaceDiagram, _components, _PairGeometry, build_diagram
from .intervals import _min_joint_cover


def minimize_k(diagram: FreeSpaceDiagram) -> int | None:
    """Smallest covering budget k for this diagram, or None.

    None exactly when no selection of any size covers (Hausdorff fails).
    The size of the minimum cover of :func:`~kfrechet.decide.decide_fpt`
    at a budget of every component, which is None exactly then.
    """
    cover = decide_fpt(diagram, len(diagram.components))
    return None if cover is None else len(cover)


def pairwise_vertex_max(P: PolyCurve, Q: PolyCurve) -> float:
    """Largest vertex-to-vertex distance between the two curves.

    At this eps every cell of the diagram is entirely free (the distance
    of two segment points is maximised at a vertex pair), so the whole
    diagram is one component and any budget k >= 1 succeeds. Read off the
    pair that :func:`~kfrechet.freespace.build_diagram` prepares, so this
    raises its ``ValueError`` exactly where it does.
    """
    return _vertex_max(_PairGeometry(P.vertices, Q.vertices))


def _vertex_max(pair: _PairGeometry) -> float:
    """:func:`pairwise_vertex_max` of a prepared pair."""
    top = pair.vertex_ww.max()
    # a curve has two distinct vertices, so one of them is off each vertex of
    # the other curve and the largest distance is never 0 but by underflow
    if not top > 0.0:
        raise ValueError(_OUT_OF_RANGE)
    return float(np.sqrt(top))


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
    start overlapping at other eps), so no search returns one of them as
    its answer; they place test and demo eps near critical values. Each
    value is the float that ``np.linalg.norm`` or the scalar reference
    (``point_segment_distance``, ``segment_distance`` in ``tests/conftest.py``)
    returns for the pair; a segment-segment distance is 0 (crossing segments)
    or the least of its four vertex-segment distances, so it adds no value.
    All are read off the prepared pair of
    :func:`~kfrechet.freespace.build_diagram`, so this raises its
    ``ValueError`` exactly where it does.
    """
    pair = _PairGeometry(P.vertices, Q.vertices)
    return _sorted_distinct((np.sqrt(pair.vertex_ww), *pair.vertex_segment_distances())).tolist()


def _cover_exists(geometry: _PairGeometry, eps: float, k: int, tol: float,
                  forest: np.ndarray | None = None) -> bool:
    """``decide_fpt(build_diagram(P, Q, eps), k) is not None`` at the tolerance
    ``tol`` for the prepared pair, from the component projections alone.
    ``forest`` warm-starts the component labelling as in
    :func:`~kfrechet.freespace._components`."""
    p_lo, p_hi, q_lo, q_hi = _components(geometry.solve(eps, tol), forest)[2].tolist()
    ids = range(len(p_lo))
    return _min_joint_cover(list(zip(ids, p_lo, p_hi)), list(zip(ids, q_lo, q_hi)),
                            (0.0, geometry.n), (0.0, geometry.m), k, tol) is not None


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


def minimize_epsilon(P: PolyCurve, Q: PolyCurve, k: int, tol: float = 1e-6) -> float:
    """Smallest eps (within ``tol``) whose diagram admits a k-cover.

    A monotone binary search on eps over [0, max vertex distance] that
    returns the upper end once the two ends are within ``tol``. A probe at
    eps decides exactly what ``decide_fpt(build_diagram(P, Q, eps), k) is
    not None`` decides, comparing interval ends with the one tolerance
    setting (``KFRECHET_TOL`` or 1e-9), read once per search; ``tol`` is only
    the search width. The pair is prepared once, by the eps = 0 build, and
    the range end, the vertex bound and the prior's distances are read off
    it, not computed again from the curves. Every later probe re-solves that
    pair. Free space only grows with eps (in floating point too, see
    :mod:`kfrechet.freespace`), so each probe starts its union-find from the
    components found at the largest eps found infeasible so far and adds
    only the joins free at its own eps; the labels and projections, hence
    the returned eps, are those of a cold probe.

    The search follows the plain bisection's path but probes only outcomes
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
    bound on the Hausdorff distance and so on every k-Fréchet distance,
    and often the answer itself), as much as on all the rest, so that the
    vertex bound is checked first, with two probes; 2 over the
    vertex-segment distances above it (the :func:`distance_candidates` at
    which edges open, from
    :meth:`~kfrechet.freespace._PairGeometry.vertex_segment_distances`),
    split in proportion to 1/rank, rank 1 the nearest the bound, since an
    answer at such a distance mostly lies among the first few; and 1 over
    the range by length, so that an answer no distance predicts costs at
    most a few probes more than plain bisection. A wrong prediction costs
    only its own probes: every outcome on the path is still the one a
    probe would give, so the returned float is the plain bisection's,
    bit for bit.
    """
    k = _budget(k, least=1)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    # eps = 0 is decided on a built diagram, so that per-layer tracing, which
    # wraps only public functions, still sees one build and one decision per
    # search; the probes of the search proper re-solve the pair it prepared
    start = build_diagram(P, Q, 0.0)
    if decide_fpt(start, k) is not None:
        return 0.0
    pair = start._pair
    cmp_tol = default_tol()
    # every point of the bisection path lies below top, so none needs top decided
    top = _vertex_max(pair)
    p_to_q, q_to_p = pair.vertex_segment_distances()
    # The prior (see above): atoms[0] is the vertex bound, of mass 3, and the
    # atoms[t] for t >= 1 the larger vertex-segment distances, of mass 2 in
    # all split in proportion to 1/t; 1 more is spread over (0, top] by length.
    # held[t] is the mass of the first t atoms.
    bound = _vertex_bound(p_to_q, q_to_p)
    atoms = _sorted_distinct((p_to_q, q_to_p))
    atoms = [bound, *atoms[atoms > bound].tolist()]
    weights = 1.0 / np.arange(1, len(atoms))  # the sum is at least 1 unless empty
    held = np.cumsum([0.0, 3.0, *(2.0 / max(weights.sum(), 1.0) * weights)]).tolist()

    def mass(eps: float) -> float:
        """Prior mass of (0, eps]."""
        return held[bisect.bisect_right(atoms, eps)] + eps / top

    # lo is the largest eps found infeasible, hi the smallest found feasible,
    # and forest the cells joined at lo, which stay joined at every probe above
    lo, hi, forest = 0.0, top, np.arange(pair.n * pair.m)
    while True:
        # the median: the least eps in (lo, hi] whose mass reaches half
        half = 0.5 * (mass(lo) + mass(hi))
        i, j = bisect.bisect_right(atoms, lo), bisect.bisect_right(atoms, hi)
        t = bisect.bisect_left(atoms, half, i, j, key=mass)
        below = atoms[t - 1] if t > i else lo
        median = min(below + (half - mass(below)) * top, atoms[t] if t < j else hi)
        # the path ends if feasibility started at the median; if neither lies
        # inside (lo, hi), every outcome on the path is implied
        ends = [eps for eps in _bisect(0.0, top, tol, median.__le__) if lo < eps < hi]
        if not ends:
            return _bisect(0.0, top, tol, hi.__le__)[1]
        eps = min(ends, key=lambda eps: abs(mass(eps) - half))
        roots = forest.copy()
        if _cover_exists(pair, eps, k, cmp_tol, roots):
            hi = eps
        else:
            lo, forest = eps, roots
