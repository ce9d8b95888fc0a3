"""Free space diagrams for pairs of polygonal curves.

For curves P (n segments, horizontal axis) and Q (m segments, vertical
axis) and a distance bound eps, the free space is the set of parameter
pairs (s, t) whose curve points are within eps of each other. Per grid
cell the free space is the intersection of an ellipse with the unit
square, hence convex; the diagram stitches the cells together and keeps,
for every connected component, the interval it projects onto on each
parameter axis.

The geometry is computed for the whole grid at once, by one kernel. A
curve pair is prepared once into flat rows of eps-free terms: one row of
endpoint-disk terms for all vertical and horizontal cell edges, one row
of strip terms for the s and t strips of all cells, and gather indices
for each cell's hull pieces and for the interior edges that join cells.
A solve at eps is then one disk slice, one strip slice, the hull gathers
and a union-find over the free joins; a search over eps re-solves only
that. :func:`build_diagram` and the per-cell functions reshape the solved
rows into a :class:`FreeSpaceGrid`: free intervals of the (n+1)×m
vertical and n×(m+1) horizontal cell edges and the n×m cell projections
on each axis. A :class:`Component` holds its id, its cells and its two
projection intervals, nothing more; which diagram boundaries it touches
follows from the projections.

Every edge test is built from monotone IEEE operations (``eps*eps``, a
subtraction, a multiplication by ``d·d > 0``, a square root and a
division by ``d·d``), and so is every strip slice (a subtraction of eps
and a division by ``|delta| > 0``). So an edge or a cell projection
free at eps stays free at every larger eps, in floating point as in the
plane: components only merge as eps grows.

Connectivity uses the closed-set convention: two adjacent cells sharing
only a single free boundary point belong to the same component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import resolve_tol
from .curves import EMPTY, Interval, PolyCurve

_INF = math.inf


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


@dataclass(frozen=True)
class FreeSpaceDiagram:
    epsilon: float
    n: int
    m: int
    cells: FreeSpaceGrid | tuple  # () for diagrams made from projections alone
    components: tuple  # tuple of Component, ids equal to positions
    z: int  # max number of components met by any axis-aligned line


def _interval(pair) -> Interval:
    lo, hi = (float(x) for x in pair)
    return EMPTY if lo > hi else Interval(lo, hi)


def _dot(x, y):
    """Dot products of 2-vectors on the last axis. A batched matmul rounds
    exactly like the scalar ``x @ y`` (a BLAS dot); ``x0*y0 + x1*y1`` does
    not for about a quarter of inputs, flipping edges at near-critical eps."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


# Intervals are kept as two rows, lo and -hi: the hull of several intervals is
# then one minimum, and an empty interval is (inf, inf).
_CLIP = np.array([[0.0], [-1.0]])  # clamps a (lo, -hi) pair to [0, 1]
_OUTSIDE = np.array([[1.0], [0.0]])  # lo > 1 or hi < 0: no point in [0, 1]
_POINTS = np.array([[[[0.0]], [[-0.0]]], [[[1.0]], [[-1.0]]]])  # the points 0 and 1 as (lo, -hi)
_UNIT = np.array([[0.0], [1.0]])  # the two ends of a foot range
_ROWS = np.arange(4)[:, None]  # the four rows of component ends
_SIGNS = np.array([[1.0], [-1.0], [1.0], [-1.0]])  # (lo, -hi, lo, -hi) back to (lo, hi, lo, hi)


class _Solved(NamedTuple):
    """The free space of a prepared pair at one eps, as (lo, -hi) rows.

    ``edges``: the disk rows' free intervals, ``empty`` marking those with
    no free point; ``proj``: the s projections of the cells, then their t
    projections, in local [0, 1].
    """

    pair: "_PairGeometry"
    edges: np.ndarray  # (2, disks)
    empty: np.ndarray  # (disks,)
    proj: np.ndarray  # (2, 2*n*m)


@np.errstate(all="ignore")  # terms out of range are rejected by the caller
def _pair_terms(pv: np.ndarray, qv: np.ndarray):
    """The eps-free terms of a curve pair, as written into the flat rows of
    :class:`_PairGeometry`: disk rows (d·d, -d·w, d·w, (d·w)², w·w) and strip rows
    (alpha, beta, gamma, delta), the latter shaped (4, 2, n, m)."""
    n, m = len(pv) - 1, len(qv) - 1
    nv = (n + 1) * m
    w = pv[:, None] - qv[None]  # P-vertex i minus Q-vertex j
    dp, dq = np.diff(pv, axis=0), np.diff(qv, axis=0)
    lp, lq = _dot(dp, dp), _dot(dq, dq)  # squared segment lengths
    wq, wp, ww = _dot(w[:, :-1], dq), _dot(w[:-1], dp[:, None]), _dot(w, w)
    pq = _dot(dp[:, None], dq)
    cell_w = w[:-1, :-1]
    cross_q = dq[:, 0] * cell_w[..., 1] - dq[:, 1] * cell_w[..., 0]
    cross_p = dp[:, None, 0] * cell_w[..., 1] - dp[:, None, 1] * cell_w[..., 0]
    cross_qp = dq[:, 0] * dp[:, None, 1] - dq[:, 1] * dp[:, None, 0]

    # A vertical edge runs along Q from Q-vertex j, so its w is minus the
    # grid's: (-x)·y = -(x·y) and (-x)·(-x) = x·x exactly.
    disk = np.empty((5, nv + n * (m + 1)))
    vert, horiz = disk[:, :nv].reshape(5, n + 1, m), disk[:, nv:].reshape(5, n, m + 1)
    vert[0], horiz[0] = lq, lp[:, None]
    np.negative(wq, out=vert[2])
    vert[4], horiz[2], horiz[4] = ww[:, :-1], wp, ww[:-1]
    np.negative(disk[2], out=disk[1])
    np.multiply(disk[2], disk[2], out=disk[3])

    # Strip rows, s then t: the foot on the other segment at u is alpha +
    # beta*u, the signed distance from its line gamma + delta*u. A t strip's
    # w is minus the grid's, and its e×d is minus the s strip's; the sign
    # goes to the divisor, as x/(-y) = -(x/y) exactly.
    strip = np.empty((4, 2, n, m))
    (alpha_s, alpha_t), (beta_s, beta_t), (gamma_s, gamma_t), (delta_s, delta_t) = strip
    len_q, len_p = np.sqrt(lq), np.sqrt(lp)[:, None]
    np.divide(wq[:-1], lq, out=alpha_s)
    np.divide(wp[:, :-1], -lp[:, None], out=alpha_t)
    np.divide(pq, lq, out=beta_s)
    np.divide(pq, lp[:, None], out=beta_t)
    np.divide(cross_q, len_q, out=gamma_s)
    np.divide(cross_p, -len_p, out=gamma_t)
    np.divide(cross_qp, len_q, out=delta_s)
    np.divide(cross_qp, -len_p, out=delta_t)
    return disk, strip


class _PairGeometry:
    """The part of the free space of one curve pair that does not depend on eps.

    Kept in flat rows. Disk rows: the (n+1)×m vertical cell edges (P-vertex
    i against Q-segment j, row i*m + j), then the n×(m+1) horizontal ones
    (P-segment i against Q-vertex j); each holds the terms ``d·d``,
    ``∓d·w``, ``(d·w)²`` and ``w·w`` of ``|w + u*d|² <= eps²``, with ``w``
    the edge start minus the fixed point and ``d`` the edge direction. Strip rows:
    the s strips of the n×m cells (P-segment i against Q-segment j, row
    i*m + j), then their t strips; each holds the u-range whose foot falls
    inside the other segment and the signed distance ``gamma + delta*u``
    from its line. Gather indices pick each cell's hull pieces and the
    interior edges that join cells. :meth:`solve` adds only the eps work,
    so a search over eps prepares the pair once.

    Raises ``ValueError`` when a term leaves the float64 range (a squared
    length that overflows or underflows to 0): every edge would then read
    as empty, and free space would no longer provably grow with eps.
    """

    def __init__(self, pv: np.ndarray, qv: np.ndarray) -> None:
        n, m = self.n, self.m = len(pv) - 1, len(qv) - 1
        nv, nm = (n + 1) * m, n * m
        disk, strip = _pair_terms(pv, qv)
        if not (disk[0].min() > 0.0 and np.isfinite(disk).all() and np.isfinite(strip).all()):
            raise ValueError("curve coordinates out of range: a squared length or dot "
                             "product of the pair is not a finite positive float64")
        self.qa, self.qb2, self.ww = disk[0], disk[3], disk[4]
        self.qb = disk[1:3]  # lo = (-qb - root)/qa, -hi = (qb - root)/qa
        strip = strip.reshape(4, -1)
        alpha, beta, gamma, delta = strip
        # Foot range 0 <= alpha + beta*u <= 1, clamped to [0, 1]; rows with
        # beta = 0 are all in or all out.
        with np.errstate(divide="ignore", invalid="ignore"):
            at = (_UNIT - alpha) / beta  # u with the foot at 0 and at 1
        foot_flat = np.flatnonzero(beta == 0.0)
        foot_in = (0.0 <= alpha[foot_flat]) & (alpha[foot_flat] <= 1.0)
        # Perpendicular slice |gamma + delta*u| <= eps, with the signs of gamma
        # and delta flipped where delta < 0 (exact): lo = (-gamma - eps)/delta,
        # -hi = (gamma - eps)/delta. Rows with delta = 0 are all in or all out,
        # set per eps.
        self.delta = np.abs(delta)
        self.flat = np.flatnonzero(delta == 0.0)
        np.negative(gamma, out=gamma, where=delta < 0.0)
        self.flat_gamma = np.abs(gamma[self.flat])
        self.delta[self.flat] = 1.0
        # the strip rows turn into (lo, -hi) of the foot range and (-gamma, gamma)
        np.maximum(np.minimum(at[0], at[1]), 0.0, out=strip[0])
        np.maximum(-np.maximum(at[0], at[1]), -1.0, out=strip[1])
        strip[:2, foot_flat] = np.where(foot_in, _CLIP, _INF)
        strip[3] = gamma
        np.negative(gamma, out=strip[2])
        self.foot, self.gamma = strip[:2], strip[2:]

        # Gather indices of each cell's hull pieces: its low edges (bottom, left),
        # then its high edges (top, right). Cell c = i*m + j has vertical edges
        # c and c + m and horizontal edges nv + c + i and nv + c + i + 1.
        cell, row, col = np.arange(nm), np.repeat(np.arange(n), m), np.tile(np.arange(m), n)
        bottom = nv + cell + row
        self.hull = np.array(((bottom, cell), (bottom + 1, cell + m)))
        # Interior edges and the two cells each one joins: vertical edge c
        # joins cells c - m and c, horizontal edge nv + c + i joins c - 1 and c.
        inner = cell[col > 0]
        self.join_edge = np.concatenate((cell[m:], nv + inner + row[col > 0]))
        self.join_a = np.concatenate((cell[:nm - m], inner - 1))
        self.join_b = np.concatenate((cell[m:], inner))

    def solve(self, eps: float, tol: float) -> _Solved:
        """Edge intervals and cell projections at eps.

        A discriminant within ``-tol..0`` is clamped to zero so tangencies survive.
        """
        if not (math.isfinite(eps) and eps >= 0.0):
            raise ValueError(f"eps must be a finite number >= 0, got {eps}")
        disc = self.ww - eps * eps  # qb2 - qa*(ww - eps²), in place
        disc *= self.qa
        np.subtract(self.qb2, disc, out=disc)
        edges = self.qb - np.sqrt(np.maximum(disc, 0.0))
        edges /= self.qa
        empty = (disc < -tol) | (edges > _OUTSIDE).any(axis=0)
        np.maximum(edges, _CLIP, out=edges)
        np.copyto(edges, _INF, where=empty)

        strips = self.gamma - eps
        strips /= self.delta
        if self.flat.size:
            strips[:, self.flat] = np.where(self.flat_gamma <= eps, -_INF, _INF)
        np.maximum(strips, self.foot, out=strips)
        np.copyto(strips, _INF, where=strips[0] > -strips[1])

        # A cell's projection on an axis is the hull of its strip piece and its
        # two edge intervals along the axis (the endpoint-disk pieces), which is
        # an interval as distance to a segment is convex along a line. It also
        # holds 0 where its low edge across the axis is free and 1 where its
        # high one is: the edges along the t axis are those across the s axis.
        proj = strips.reshape(2, 2, -1)  # row, axis, cell
        for side, point in zip(self.hull, _POINTS):
            np.minimum(proj, edges.take(side, axis=1), out=proj)
            np.minimum(proj, np.where(empty.take(side)[::-1], _INF, point), out=proj)
        return _Solved(self, edges, empty, proj.reshape(2, -1))


def _as_grid(solved: _Solved) -> FreeSpaceGrid:
    """A :class:`FreeSpaceGrid` from the rows of :meth:`_PairGeometry.solve`."""
    n, m = solved.pair.n, solved.pair.m
    nv, nm = (n + 1) * m, n * m
    edges, proj = solved.edges.T * [1.0, -1.0], solved.proj.T * [1.0, -1.0]
    return FreeSpaceGrid(vert=edges[:nv].reshape(n + 1, m, 2),
                         horiz=edges[nv:].reshape(n, m + 1, 2),
                         s_proj=proj[:nm].reshape(n, m, 2), t_proj=proj[nm:].reshape(n, m, 2))


def _segment_grid(seg_p, seg_q, eps: float, tol: float | None) -> FreeSpaceGrid:
    """The 1×1 grid of one segment pair, from the grid kernels."""
    P, Q = PolyCurve(seg_p), PolyCurve(seg_q)
    if P.n != 1 or Q.n != 1:
        raise ValueError("a segment needs exactly two endpoints")
    return _as_grid(_PairGeometry(P.vertices, Q.vertices).solve(eps, resolve_tol(tol)))


def cell_edge_interval(seg_p, seg_q, eps: float, edge: str, tol: float | None = None) -> Interval:
    """Free interval on one edge of the cell of segment pair (seg_p, seg_q).

    ``left``/``right`` fix the P endpoint and vary along seg_q (interval in
    t); ``bottom``/``top`` fix the Q endpoint and vary along seg_p
    (interval in s). Returns EMPTY when no point of the edge is free.
    """
    if edge not in ("left", "right", "bottom", "top"):
        raise ValueError(f"edge must be left, right, bottom or top, got {edge!r}")
    grid = _segment_grid(seg_p, seg_q, eps, tol)
    return _interval({"left": grid.vert[0, 0], "right": grid.vert[1, 0],
                      "bottom": grid.horiz[0, 0], "top": grid.horiz[0, 1]}[edge])


def cell_axis_projection(seg_p, seg_q, eps: float, axis: str = "p",
                         tol: float | None = None) -> Interval:
    """Projection of a cell's free space onto one axis, in local [0, 1].

    For axis "p" this is the set of s with dist(P(s), seg_q) <= eps; axis
    "q" swaps the roles.
    """
    if axis not in ("p", "q"):
        raise ValueError(f'axis must be "p" or "q", got {axis!r}')
    grid = _segment_grid(seg_p, seg_q, eps, tol)
    return _interval((grid.s_proj if axis == "p" else grid.t_proj)[0, 0])


def _merge(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the trees of nodes a and b in the forest ``root``, in place.

    Each round hooks the larger root of every edge whose ends still differ
    onto the smaller, then jumps pointers until all point at roots; that
    at least halves the trees with an edge leaving them. Every root stays
    the smallest node of its tree, so from any forest of that kind whose
    trees lie inside the components, each node ends at the smallest node of
    its component. Only nodes that are edge ends need jumps: any node of a
    tree with more than one node is one, if the forest came from a subset of
    the edges.
    """
    ends = np.concatenate((a, b))
    ra, rb = root[a], root[b]
    while not np.array_equal(ra, rb):
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        up = root[ends]
        jumped = root[up]
        while not np.array_equal(jumped, up):
            root[ends] = up = jumped
            jumped = root[up]
        ra, rb = root[a], root[b]


def _components(solved: _Solved, forest: np.ndarray | None = None):
    """Connected components of a solved grid.

    Returns the occupied cells (row-major index i*m + j), each one's
    component label, and the component projections as the rows
    ``(p_lo, p_hi, q_lo, q_hi)`` of one array, in global parameters.
    Components are numbered in the order of their first cell.

    ``forest``, if given, holds the roots (:func:`_merge`) of the same pair
    at a smaller eps: the cells join from there, and it is left holding the
    roots at this eps. Free space only grows with eps, so the result is the
    same as from single cells.
    """
    pair = solved.pair
    nm = pair.n * pair.m
    # cells join across the free shared edges only; every other cell stays alone
    root = np.arange(nm) if forest is None else forest
    free = ~solved.empty[pair.join_edge]
    _merge(root, pair.join_a[free], pair.join_b[free])
    proj = solved.proj
    occupied = np.flatnonzero(proj[0, :nm] <= -proj[1, :nm])
    roots = occupied[root[occupied] == occupied]  # each component's first cell
    number = np.empty(nm, dtype=int)
    number[roots] = np.arange(len(roots))
    label = number[root[occupied]]

    # hull of the member cells' projections, shifted to global parameters: s
    # by the cell's i, t by its j; rows p_lo, q_lo, -p_hi, -q_hi
    ends = np.full((4, len(roots)), _INF)
    shift = np.stack(np.divmod(occupied, pair.m))
    cells = proj.reshape(4, nm).take(occupied, axis=1)
    cells[:2] += shift
    cells[2:] -= shift
    np.minimum.at(ends.ravel(), (label + len(roots) * _ROWS).ravel(), cells.ravel())
    return occupied, label, ends[[0, 2, 1, 3]] * _SIGNS


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
    solved = _PairGeometry(P.vertices, Q.vertices).solve(eps, tol)
    occupied, label, ends = _components(solved)
    ii, jj = np.divmod(occupied, m)
    members = [[] for _ in ends[0]]
    for c, i, j in zip(label.tolist(), ii.tolist(), jj.tolist()):
        members[c].append((i, j))

    components = tuple(
        Component(id=c, cells=frozenset(members[c]),
                  proj_p=_interval((plo, phi)), proj_q=_interval((qlo, qhi)))
        for c, (plo, phi, qlo, qhi) in enumerate(zip(*ends.tolist())))
    return FreeSpaceDiagram(epsilon=eps, n=n, m=m, cells=_as_grid(solved), components=components,
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

