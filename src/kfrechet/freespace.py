"""Free space diagrams for pairs of polygonal curves.

For curves P (n segments, horizontal axis) and Q (m segments, vertical
axis) and a distance bound eps, the free space is the set of parameter
pairs (s, t) whose curve points are within eps of each other. Per grid
cell the free space is the intersection of an ellipse with the unit
square, hence convex; the diagram stitches the cells together and keeps,
for every connected component, the interval it projects onto on each
parameter axis.

The geometry is computed for the whole grid at once and kept as arrays
(:class:`FreeSpaceGrid`): free intervals of the (n+1)×m vertical and
n×(m+1) horizontal cell edges and the n×m cell projections on each axis.
:meth:`FreeSpaceDiagram.cell` builds a :class:`CellFreeSpace` from them.
The part that does not depend on eps (every dot product and strip term)
is prepared once per curve pair, so a search over eps re-solves only the
eps terms of the same kernels.

Connectivity uses the closed-set convention: two adjacent cells sharing
only a single free boundary point belong to the same component.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import resolve_tol
from .curves import EMPTY, Interval, PolyCurve

_INF = math.inf


@dataclass(frozen=True)
class CellFreeSpace:
    """Free space of one segment pair, restricted to the unit square.

    Edge intervals are in local edge coordinates in [0, 1]:
    ``left``/``right`` along Q at the cell's left/right vertex of P,
    ``bottom``/``top`` along P at the bottom/top vertex of Q.
    ``s_projection``/``t_projection`` are the axis extents of the whole
    free region of the cell (not only of its edges).
    """

    i: int
    j: int
    left: Interval
    right: Interval
    bottom: Interval
    top: Interval
    interior_nonempty: bool
    s_projection: Interval
    t_projection: Interval


@dataclass(frozen=True)
class BoundaryTouch:
    left: bool
    right: bool
    bottom: bool
    top: bool

    @property
    def all_four(self) -> bool:
        return self.left and self.right and self.bottom and self.top


@dataclass(frozen=True)
class Component:
    """One connected region of free space.

    ``proj_p``/``proj_q`` are single intervals: the projection of a
    connected planar set onto an axis is connected.
    """

    id: int
    cells: frozenset
    proj_p: Interval
    proj_q: Interval
    touches: BoundaryTouch


@dataclass(frozen=True, eq=False)
class FreeSpaceGrid:
    """Cell geometry of a diagram, as float arrays ending in a (lo, hi) axis.

    ``vert[i, j]``: free t-interval at P-vertex i along Q-segment j (right edge
    of cell (i-1, j), left of cell (i, j)); ``horiz[i, j]``: free s-interval
    along P-segment i at Q-vertex j; ``s_proj``/``t_proj[i, j]``: the cell's
    free region projected on each axis, in local [0, 1]. Empty is (inf, -inf).
    """

    vert: np.ndarray  # (n+1, m, 2)
    horiz: np.ndarray  # (n, m+1, 2)
    s_proj: np.ndarray  # (n, m, 2)
    t_proj: np.ndarray  # (n, m, 2)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeSpaceGrid) and all(
            np.array_equal(a, b) for a, b in zip(vars(self).values(), vars(other).values()))

    def __hash__(self) -> int:
        return hash(tuple((a + 0.0).tobytes() for a in vars(self).values()))  # -0.0 == 0.0

    def cell(self, i: int, j: int) -> CellFreeSpace:
        n, m = self.s_proj.shape[:2]
        if not (0 <= i < n and 0 <= j < m):
            raise IndexError(f"cell ({i}, {j}) outside the {n}x{m} grid")
        s_projection = _interval(self.s_proj[i, j])
        return CellFreeSpace(
            i=i, j=j, left=_interval(self.vert[i, j]), right=_interval(self.vert[i + 1, j]),
            bottom=_interval(self.horiz[i, j]), top=_interval(self.horiz[i, j + 1]),
            interior_nonempty=not s_projection.is_empty,
            s_projection=s_projection, t_projection=_interval(self.t_proj[i, j]))


@dataclass(frozen=True)
class FreeSpaceDiagram:
    epsilon: float
    n: int
    m: int
    cells: FreeSpaceGrid | tuple  # () for diagrams made from projections alone
    components: tuple  # tuple of Component, ids equal to positions
    z: int  # max number of components met by any axis-aligned line

    def cell(self, i: int, j: int) -> CellFreeSpace:
        """Per-cell view, built on demand from the grid arrays."""
        return self.cells.cell(i, j)

    def component_count(self) -> int:
        return len(self.components)


def _interval(pair) -> Interval:
    lo, hi = (float(x) for x in pair)
    return EMPTY if lo > hi else Interval(lo, hi)


def _dot(x, y):
    """Dot products of 2-vectors on the last axis. A batched matmul rounds
    exactly like the scalar ``x @ y`` (a BLAS dot); ``x0*y0 + x1*y1`` does
    not for about a quarter of inputs, flipping edges at near-critical eps."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _empty_where(empty, lo, hi):
    """(lo, hi) arrays with ``(inf, -inf)`` where empty."""
    return np.where(empty, _INF, lo), np.where(empty, -_INF, hi)


def _disk_terms(w, d):
    """The eps-free terms of ``|w + u*d|² <= eps²``: d·d, -d·w, (d·w)² and w·w.

    ``w`` is the edge start minus the fixed point, ``d`` the edge direction.
    """
    qb = _dot(d, w)
    return _dot(d, d), -qb, qb * qb, _dot(w, w)


def _disk_slice(qa, neg_qb, qb2, ww, eps: float, tol: float):
    """Parameters u in [0, 1] with ``|w + u*d| <= eps``, from :func:`_disk_terms`.

    A discriminant within ``-tol..0`` is clamped to zero so tangencies survive.
    """
    disc = qb2 - qa * (ww - eps * eps)
    root = np.sqrt(np.where(disc < 0.0, 0.0, disc))
    lo = (neg_qb - root) / qa
    hi = (neg_qb + root) / qa
    return _empty_where((disc < -tol) | (hi < 0.0) | (lo > 1.0),
                        np.maximum(lo, 0.0), np.minimum(hi, 1.0))


def _linear_slice(alpha, beta, lo: float, hi: float):
    """Solutions u of ``lo <= alpha + beta*u <= hi`` as raw (lo, hi) arrays."""
    flat = beta == 0.0
    inside = (lo <= alpha) & (alpha <= hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        u0 = (lo - alpha) / beta
        u1 = (hi - alpha) / beta
    return (np.where(flat, np.where(inside, -_INF, _INF), np.minimum(u0, u1)),
            np.where(flat, np.where(inside, _INF, -_INF), np.maximum(u0, u1)))


def _strip_terms(w0, d, e):
    """The eps-free terms of the strip slice of ``w0 + u*d`` over segment [0, e]:
    the u-range whose foot falls inside the segment, and the signed distance
    ``gamma + delta*u`` from the segment's line."""
    den = _dot(e, e)
    foot_lo, foot_hi = _linear_slice(_dot(w0, e) / den, _dot(d, e) / den, 0.0, 1.0)
    norm_e = np.sqrt(den)
    gamma = (e[..., 0] * w0[..., 1] - e[..., 1] * w0[..., 0]) / norm_e
    delta = (e[..., 0] * d[..., 1] - e[..., 1] * d[..., 0]) / norm_e
    return foot_lo, foot_hi, gamma, delta


def _strip_slice(foot_lo, foot_hi, gamma, delta, eps: float):
    """Parameters u in [0, 1] where the point lies in the strip of half-width
    eps over the segment: its eps-capsule without the endpoint disks."""
    perp_lo, perp_hi = _linear_slice(gamma, delta, -eps, eps)
    lo = np.maximum(np.maximum(foot_lo, perp_lo), 0.0)
    hi = np.minimum(np.minimum(foot_hi, perp_hi), 1.0)
    return _empty_where(lo > hi, lo, hi)


def _hull(*pieces):
    """Smallest interval holding every (lo, hi) piece; an empty piece adds nothing."""
    los, his = zip(*pieces)
    return functools.reduce(np.minimum, los), functools.reduce(np.maximum, his)


class _PairGeometry:
    """The part of the free space grid of one curve pair that does not depend
    on eps: every dot product of the endpoint-disk quadratics and the strip
    terms of both capsule slices. :meth:`solve` adds only the eps work, so a
    search over eps prepares the pair once."""

    def __init__(self, pv: np.ndarray, qv: np.ndarray) -> None:
        self.n, self.m = len(pv) - 1, len(qv) - 1
        w = pv[:, None, :] - qv[None, :, :]  # P-vertex i minus Q-vertex j
        dp, dq = np.diff(pv, axis=0)[:, None], np.diff(qv, axis=0)[None]
        self.vert = _disk_terms(-w[:, :-1], dq)
        self.horiz = _disk_terms(w[:-1], dp)
        self.s_strip = _strip_terms(w[:-1, :-1], dp, dq)
        self.t_strip = _strip_terms(-w[:-1, :-1], dq, dp)

    def solve(self, eps: float, tol: float):
        """(lo, hi) arrays of the edge intervals and cell projections at eps.

        Returns ``(vert, horiz, s_proj, t_proj)`` laid out as the fields of
        :class:`FreeSpaceGrid`, each as a (lo, hi) pair of arrays.
        """
        if not (math.isfinite(eps) and eps >= 0.0):
            raise ValueError(f"eps must be a finite number >= 0, got {eps}")
        v_lo, v_hi = vert = _disk_slice(*self.vert, eps, tol)
        h_lo, h_hi = horiz = _disk_slice(*self.horiz, eps, tol)
        no_v, no_h = v_lo > v_hi, h_lo > h_hi
        # A cell's projection on an axis is the union of its strip piece and its
        # two edge intervals along the axis (the endpoint-disk pieces), which is
        # an interval as distance to a segment is convex along a line. It must
        # also hold 0 or 1 where an edge across the axis is free.
        s_proj = _hull(_strip_slice(*self.s_strip, eps), (h_lo[:, :-1], h_hi[:, :-1]),
                       (h_lo[:, 1:], h_hi[:, 1:]),
                       _empty_where(no_v[:-1], 0.0, 0.0), _empty_where(no_v[1:], 1.0, 1.0))
        t_proj = _hull(_strip_slice(*self.t_strip, eps), (v_lo[:-1], v_hi[:-1]), (v_lo[1:], v_hi[1:]),
                       _empty_where(no_h[:, :-1], 0.0, 0.0), _empty_where(no_h[:, 1:], 1.0, 1.0))
        return vert, horiz, s_proj, t_proj


def _as_grid(arrays) -> FreeSpaceGrid:
    """A :class:`FreeSpaceGrid` from the (lo, hi) pairs of :meth:`_PairGeometry.solve`."""
    return FreeSpaceGrid(*(np.stack(pair, axis=-1) for pair in arrays))


def _segment_cell(seg_p, seg_q, eps: float, tol: float | None) -> CellFreeSpace:
    """The cell of one segment pair, from the grid kernels on a 1×1 grid."""
    P, Q = PolyCurve(seg_p), PolyCurve(seg_q)
    if P.n != 1 or Q.n != 1:
        raise ValueError("a segment needs exactly two endpoints")
    return _as_grid(_PairGeometry(P.vertices, Q.vertices).solve(eps, resolve_tol(tol))).cell(0, 0)


def cell_edge_interval(seg_p, seg_q, eps: float, edge: str, tol: float | None = None) -> Interval:
    """Free interval on one edge of the cell of segment pair (seg_p, seg_q).

    ``left``/``right`` fix the P endpoint and vary along seg_q (interval in
    t); ``bottom``/``top`` fix the Q endpoint and vary along seg_p
    (interval in s). Returns EMPTY when no point of the edge is free.
    """
    if edge not in ("left", "right", "bottom", "top"):
        raise ValueError(f"edge must be left, right, bottom or top, got {edge!r}")
    return getattr(_segment_cell(seg_p, seg_q, eps, tol), edge)


def cell_axis_projection(seg_p, seg_q, eps: float, axis: str = "p",
                         tol: float | None = None) -> Interval:
    """Projection of a cell's free space onto one axis, in local [0, 1].

    For axis "p" this is the set of s with dist(P(s), seg_q) <= eps; axis
    "q" swaps the roles.
    """
    if axis not in ("p", "q"):
        raise ValueError(f'axis must be "p" or "q", got {axis!r}')
    cell = _segment_cell(seg_p, seg_q, eps, tol)
    return cell.s_projection if axis == "p" else cell.t_projection


def _component_roots(size: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest node of each node's component, for nodes joined by edges (a, b).

    Each round hooks the larger root of every edge whose ends still differ
    onto the smaller, then jumps pointers until all point at roots; that
    at least halves the trees with an edge leaving them.
    """
    root = np.arange(size)
    while not np.array_equal(root[a], root[b]):
        ra, rb = root[a], root[b]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(root[root], root):
            root = root[root]
    return root


def _components(arrays):
    """Connected components of the solved grid arrays of :meth:`_PairGeometry.solve`.

    Returns the occupied cells (row-major index i*m + j), each one's
    component label, and the component projections as the arrays
    ``(p_lo, p_hi, q_lo, q_hi)`` in global parameters. Components are
    numbered in the order of their first cell.
    """
    vert, horiz, s_proj, t_proj = arrays
    n, m = s_proj[0].shape
    # cells join across the free shared edges only; every other cell stays alone
    index = np.arange(n * m).reshape(n, m)
    join_i = vert[0][1:-1] <= vert[1][1:-1]
    join_j = horiz[0][:, 1:-1] <= horiz[1][:, 1:-1]
    root = _component_roots(n * m, np.concatenate((index[:-1][join_i], index[:, :-1][join_j])),
                            np.concatenate((index[1:][join_i], index[:, 1:][join_j])))
    occupied = index[s_proj[0] <= s_proj[1]]
    roots = occupied[root[occupied] == occupied]  # each component's first cell
    number = np.empty(n * m, dtype=int)
    number[roots] = np.arange(len(roots))
    label = number[root[occupied]]

    # hull of the member cells' projections, shifted to global parameters
    ii, jj = np.divmod(occupied, m)
    ends = []
    for proj, offset in ((s_proj, ii), (t_proj, jj)):
        for side, reduce, start in ((proj[0], np.minimum, _INF), (proj[1], np.maximum, -_INF)):
            out = np.full(len(roots), start)
            reduce.at(out, label, side.ravel()[occupied] + offset)
            ends.append(out)
    return occupied, label, ends


def build_diagram(P: PolyCurve, Q: PolyCurve, eps: float,
                  tol: float | None = None) -> FreeSpaceDiagram:
    """Compute the full free space diagram of P and Q at distance eps.

    Cells are joined into components when their shared edge carries a
    nonempty free interval (a single shared tangency point suffices).
    Components that never reach a cell edge, an ellipse interior to one
    cell, become single-cell components. Components are numbered in the
    row-major order (cell index i*m + j) of their first cell.
    """
    tol = resolve_tol(tol)
    n, m = P.n, Q.n
    arrays = _PairGeometry(P.vertices, Q.vertices).solve(eps, tol)
    occupied, label, ends = _components(arrays)
    ii, jj = np.divmod(occupied, m)
    members = [[] for _ in ends[0]]
    for c, i, j in zip(label.tolist(), ii.tolist(), jj.tolist()):
        members[c].append((i, j))

    components = tuple(
        Component(id=c, cells=frozenset(members[c]),
                  proj_p=_interval((plo, phi)), proj_q=_interval((qlo, qhi)),
                  touches=BoundaryTouch(left=plo <= tol, right=phi >= n - tol,
                                        bottom=qlo <= tol, top=qhi >= m - tol))
        for c, (plo, phi, qlo, qhi) in enumerate(zip(*(e.tolist() for e in ends))))
    return FreeSpaceDiagram(epsilon=eps, n=n, m=m, cells=_as_grid(arrays), components=components,
                            z=_stab_number(ends, n, m, tol))


def _stab_number(ends, n: int, m: int, tol: float) -> int:
    """Most components met by one axis-parallel line, by a sorted sweep.

    ``ends`` holds the arrays (p_lo, p_hi, q_lo, q_hi) of the component
    projections; empty ones (lo > hi) meet no line and are skipped.
    """
    best = 0
    for lo, hi, length in ((ends[0], ends[1], n), (ends[2], ends[3], m)):
        lo, hi = np.sort(lo[lo <= hi]), np.sort(hi[lo <= hi])
        pos = np.concatenate([e + shift for e in (lo, hi) for shift in (-tol, 0.0, tol)])
        pos = pos[(pos >= 0.0) & (pos <= length)]
        if pos.size:
            count = np.searchsorted(lo, pos, "right") - np.searchsorted(hi, pos, "left")
            best = max(best, int(count.max()))
    return best


def compute_z(diagram: FreeSpaceDiagram, tol: float | None = None) -> int:
    """Maximum number of components hit by any horizontal or vertical line.

    Only projection endpoints (and a tolerance to either side) are tried:
    the count changes only there."""
    tol = resolve_tol(tol)
    ends = np.array([(c.proj_p.lo, c.proj_p.hi, c.proj_q.lo, c.proj_q.hi)
                     for c in diagram.components], dtype=float).reshape(-1, 4)
    return _stab_number(ends.T, diagram.n, diagram.m, tol)
