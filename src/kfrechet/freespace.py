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
that, and a diagram keeps the pair it was solved from for such a search.
:func:`build_diagram` reshapes the solved rows into a :class:`FreeSpaceGrid`:
free intervals of the (n+1)×m vertical and n×(m+1) horizontal cell edges
and the n×m cell projections on each axis. A :class:`Component` holds its
id, its cells and its two projection intervals, nothing more; which
diagram boundaries it touches follows from the projections.

Every edge test is built from monotone IEEE operations (``eps*eps``, a
subtraction, a multiplication by ``d·d > 0``, a square root and a
division by ``d·d``), and so is every strip slice (a subtraction of eps
and a division by ``|delta| > 0``). So an edge or a cell projection
free at eps stays free at every larger eps, in floating point as in the
plane: components only merge as eps grows. A term that overflows rounds
to ±inf, which is monotone too, and clips to the ends of [0, 1]; so a
huge finite eps gives the whole grid, without a warning.

Connectivity uses the closed-set convention: two adjacent cells sharing
only a single free boundary point belong to the same component.
Components come from a union-find over the free joins (:func:`_merge`).
A diagram's cells start from their column runs: the cells of a P column
joined across free horizontal edges are consecutive row-major, so one
running maximum points each at the first cell of its run, and only the
joins across free vertical edges are left to merge. A search over eps
starts each probe from the forest of the largest eps found infeasible.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

import numpy as np

from .config import default_tol
from .curves import PolyCurve

_INF = math.inf
_OUT_OF_RANGE = ("curve coordinates out of range: a squared length or dot product "
                 "of the pair is not a finite positive float64")


@dataclass(frozen=True)
class Component:
    """One connected region of free space.

    ``proj_p``/``proj_q`` are its projections onto the axes as (lo, hi)
    pairs of floats, each a single interval: the projection of a connected
    planar set onto an axis is connected. Empty is (inf, -inf), as in
    :class:`FreeSpaceGrid`; a component of a built diagram is never empty,
    and its projections lie inside [0, n] and [0, m]. The ends are stored as
    floats; a projection that is no such tuple of numbers, or has a NaN end,
    raises ``ValueError``.
    """

    id: int
    cells: frozenset
    proj_p: tuple
    proj_q: tuple

    def __post_init__(self):
        p, q = self.proj_p, self.proj_q
        if type(p) is type(q) is tuple and len(p) == len(q) == 2:
            a, b, c, d = *p, *q  # each end against itself: (nan, 1.0) == (nan, 1.0) holds
            if (type(a) is type(b) is type(c) is type(d) is float
                    and a == a and b == b and c == c and d == d):
                return  # four float ends, none NaN, as build_diagram gives them
        # a list would not hash, and the cover search would read a NaN end as a match
        for name in ("proj_p", "proj_q"):
            pair = getattr(self, name)
            numbers = (isinstance(pair, tuple) and len(pair) == 2
                       and hasattr(type(pair[0]), "__float__")
                       and hasattr(type(pair[1]), "__float__"))
            try:
                lo, hi = (float(pair[0]), float(pair[1])) if numbers else (math.nan,) * 2
            except OverflowError:  # an int past the float range
                lo = hi = math.nan
            if lo != lo or hi != hi:
                raise ValueError(f"{name} must be a (lo, hi) tuple of two numbers, "
                                 f"neither NaN, got {pair!r}")
            object.__setattr__(self, name, (lo, hi))


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
    """The free space of two curves at ``epsilon``, its components and ``z``.

    ``z``, the most component projections met by one axis-parallel line,
    is at most the paper's z (the most segments of one curve within eps of
    a point on the other): each component met at P(s) holds a cell whose
    Q segment is within eps of P(s), and likewise on Q. A line meets at
    least as many projections at the largest projection start at or before
    it, so ``z`` is counted at the starts alone (see :func:`_stab_number`).

    A diagram from :func:`build_diagram` keeps the prepared curve pair it was
    solved from, so that :func:`~kfrechet.optimize.minimize_epsilon` probes
    other eps without preparing the pair again. Every diagram also keeps its
    two axes as (id, lo, hi) projections and the minimum cover of each, as the
    paper's factor-2 approximation and the decider's certificate take them,
    once a decision has asked at a tolerance: the decisions that follow at
    that tolerance share them (see :mod:`kfrechet.decide`). Neither is part
    of the value: equality, hashing and ``repr`` ignore them, and
    ``dataclasses.replace`` drops them.

    A selection names components by id, and the decisions read an id as a
    position in ``components``, so a component whose id is not its position
    raises ``ValueError``; so does an ``n`` or ``m`` that is no integer >= 1,
    as a diagram of no cells would be covered by no component at all.
    """

    epsilon: float
    n: int
    m: int
    cells: FreeSpaceGrid | tuple  # () for diagrams made from projections alone
    components: tuple  # tuple of Component, ids equal to positions
    z: int  # max number of components met by any axis-aligned line
    _pair: _PairGeometry | None = field(default=None, init=False, repr=False, compare=False)
    _covers: tuple | None = field(default=None, init=False, repr=False, compare=False)  # tol, axes, (a, b)

    def __post_init__(self):
        for name, size in (("n", self.n), ("m", self.m)):
            if not (hasattr(type(size), "__index__") and size >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {size!r}")
        for position, comp in enumerate(self.components):
            if comp.id != position:
                raise ValueError(f"component ids must equal their positions, got id "
                                 f"{comp.id!r} at position {position}")


def _picked(diagram: FreeSpaceDiagram, ids) -> list:
    """The components with the given ids, in order; an id not in the diagram,
    such as one that is no integer, raises KeyError."""
    comps = []
    for cid in ids:
        if not (hasattr(type(cid), "__index__") and 0 <= cid < len(diagram.components)):
            raise KeyError(f"unknown component id {cid!r}")
        comps.append(diagram.components[cid])
    return comps


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
_PAIR_SIGNS = np.array([1.0, -1.0])  # a (lo, -hi) column pair back to (lo, hi)


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
    (alpha, beta, gamma, delta), the latter shaped (4, 2, n, m); then the segment
    directions of P and of Q and the (n+1)×(m+1) ``w·w`` of every vertex pair."""
    n, m = len(pv) - 1, len(qv) - 1
    nv = (n + 1) * m
    # P-vertex i minus Q-vertex j, one coordinate at a time: a single broadcast
    # over the trailing axis of length 2 takes twice as long
    w = np.empty((n + 1, m + 1, 2))
    np.subtract(pv[:, None, 0], qv[:, 0], out=w[..., 0])
    np.subtract(pv[:, None, 1], qv[:, 1], out=w[..., 1])
    dp, dq = pv[1:] - pv[:-1], qv[1:] - qv[:-1]
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
    return disk, strip, dp, dq, ww


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
    interior edges that join cells, and each cell's shift to global
    parameters. :meth:`solve` adds only the eps work, so a search over eps
    prepares the pair once.

    The pair also keeps its vertices, segment directions and the ``w·w`` of
    every vertex pair, for :meth:`vertex_segment_distances`,
    :func:`~kfrechet.optimize.distance_candidates` and
    :func:`~kfrechet.optimize.pairwise_vertex_max`.

    Raises ``ValueError`` when a term leaves the float64 range (a squared
    length that overflows or underflows to 0): every edge would then read
    as empty, and free space would no longer provably grow with eps.
    """

    def __init__(self, pv: np.ndarray, qv: np.ndarray) -> None:
        n, m = self.n, self.m = len(pv) - 1, len(qv) - 1
        nv, nm = (n + 1) * m, n * m
        disk, strip, dp, dq, ww = _pair_terms(pv, qv)
        if not (disk[0].min() > 0.0 and np.isfinite(disk).all() and np.isfinite(strip).all()
                and np.isfinite(ww[-1, -1])):  # the one vertex pair no disk row holds
            raise ValueError(_OUT_OF_RANGE)
        self.pv, self.qv, self.dp, self.dq, self.vertex_ww = pv, qv, dp, dq, ww
        self.qa, self.qb2, self.ww = disk[0], disk[3], disk[4]
        self.qb = disk[1:3]  # lo = (-qb - root)/qa, -hi = (qb - root)/qa
        strip = strip.reshape(4, -1)
        alpha, beta, gamma, delta = strip
        # Foot range 0 <= alpha + beta*u <= 1, clamped to [0, 1]; rows with
        # beta = 0 are all in or all out.
        with np.errstate(divide="ignore", invalid="ignore"):
            at = (_UNIT - alpha) / beta  # u with the foot at 0 and at 1
        foot_flat = (beta == 0.0).nonzero()[0]
        foot_in = (0.0 <= alpha[foot_flat]) & (alpha[foot_flat] <= 1.0)
        # Perpendicular slice |gamma + delta*u| <= eps, with the signs of gamma
        # and delta flipped where delta < 0 (exact): lo = (-gamma - eps)/delta,
        # -hi = (gamma - eps)/delta. Rows with delta = 0 are all in or all out,
        # set per eps.
        self.delta = np.abs(delta)
        self.flat = (delta == 0.0).nonzero()[0]
        gamma *= np.where(delta < 0.0, -1.0, 1.0)
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
        cell = np.arange(nm)
        row, col = cell // m, cell % m
        bottom = nv + cell + row
        self.hull = np.array(((bottom, cell), (bottom + 1, cell + m)))
        # Interior edges and the two cells each one joins: vertical edge c
        # joins cells c - m and c, horizontal edge nv + c + i joins c - 1 and c.
        inner = cell[col > 0]
        self.join_edge = np.concatenate((cell[m:], nv + inner + row[col > 0]))
        self.join_a = np.concatenate((cell[:nm - m], inner - 1))
        self.join_b = np.concatenate((cell[m:], inner))
        # Shift of each cell's projection rows (lo s, lo t, -hi s, -hi t) to
        # global parameters: x + (-0.0) is x and x + (-i) is x - i, bit for bit.
        start = np.array((row, col), dtype=float)
        self.shift = np.concatenate((start, -start))

    def vertex_segment_distances(self) -> tuple[np.ndarray, np.ndarray]:
        """Distance from each vertex of P to each segment of Q, shape (n+1, m),
        and from each vertex of Q to each segment of P, shape (m+1, n), by the
        IEEE operations of the scalar reference ``point_segment_distance`` in
        ``tests/conftest.py``, hence the same floats: per disk row, the foot
        ``u = min(max(-d·w / d·d, 0), 1)`` of the fixed point p on the segment
        from a along d, then ``|a + u*d - p|``."""
        n, m = self.n, self.m
        nv = (n + 1) * m
        u = np.clip(self.qb[0] / self.qa, 0.0, 1.0)
        p_to_q = self.qv[:-1] + u[:nv].reshape(n + 1, m, 1) * self.dq - self.pv[:, None]
        q_to_p = self.pv[:-1, None] + u[nv:].reshape(n, m + 1, 1) * self.dp[:, None] - self.qv
        return np.sqrt(_dot(p_to_q, p_to_q)), np.sqrt(_dot(q_to_p, q_to_p)).T

    @np.errstate(over="ignore")  # ±inf is the monotone rounding; see the module docstring
    def solve(self, eps: float, tol: float) -> _Solved:
        """Edge intervals and cell projections at eps, a finite float >= 0.

        A discriminant within ``-tol..0`` is clamped to zero so tangencies survive.
        """
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
    edges, proj = solved.edges.T * _PAIR_SIGNS, solved.proj.T * _PAIR_SIGNS
    return FreeSpaceGrid(vert=edges[:nv].reshape(n + 1, m, 2),
                         horiz=edges[nv:].reshape(n, m + 1, 2),
                         s_proj=proj[:nm].reshape(n, m, 2), t_proj=proj[nm:].reshape(n, m, 2))


def _merge(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the trees of nodes a and b in the forest ``root``, in place.

    Each round hooks the larger root of every edge whose ends still differ
    onto the smaller, then jumps the pointers of every node until all point
    at roots; that at least halves the trees with an edge leaving them.
    Every root stays the smallest node of its tree, so from any forest of
    that kind whose trees lie inside the components, each node ends at the
    smallest node of its component.
    """
    ra, rb = root[a], root[b]
    while (ra != rb).any():
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        up = root[root]
        while (up != root).any():
            root[:] = up
            up = root[root]
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
    same as from single cells. Without it each cell c starts at the running
    maximum of c, or 0 where c joins c - 1 across its bottom edge: the first
    cell of its column run, the smallest node of a tree inside its component.
    """
    pair = solved.pair
    nm = pair.n * pair.m
    # cells join across the free shared edges only; every other cell stays alone
    free = ~solved.empty[pair.join_edge]
    a, b, root = pair.join_a, pair.join_b, forest
    if forest is None:
        vertical = nm - pair.m  # joins across vertical edges, then horizontal ones
        root = np.arange(nm)
        root[b[vertical:][free[vertical:]]] = 0
        root = np.maximum.accumulate(root)
        a, b, free = a[:vertical], b[:vertical], free[:vertical]
    _merge(root, a[free], b[free])
    proj = solved.proj
    occupied = (proj[0, :nm] <= -proj[1, :nm]).nonzero()[0]
    roots = occupied[root[occupied] == occupied]  # each component's first cell
    number = np.empty(nm, dtype=int)
    number[roots] = np.arange(len(roots))
    label = number[root[occupied]]

    # hull of the member cells' projections, shifted to global parameters: s
    # by the cell's i, t by its j; rows p_lo, q_lo, -p_hi, -q_hi
    ends = np.full((4, len(roots)), _INF)
    cells = (proj.reshape(4, nm) + pair.shift).take(occupied, axis=1)
    np.minimum.at(ends.ravel(), (label + len(roots) * _ROWS).ravel(), cells.ravel())
    return occupied, label, ends[[0, 2, 1, 3]] * _SIGNS


def build_diagram(P: PolyCurve, Q: PolyCurve, eps: float) -> FreeSpaceDiagram:
    """Compute the full free space diagram of P and Q at distance eps.

    Cells are joined into components when their shared edge carries a
    nonempty free interval (a single shared tangency point suffices).
    Components that never reach a cell edge, an ellipse interior to one
    cell, become single-cell components. Components are numbered in the
    row-major order (cell index i*m + j) of their first cell.
    ``eps``, any finite real number >= 0 (else ``ValueError``), is solved as a float.
    """
    n, m = P.n, Q.n
    pair = _PairGeometry(P.vertices, Q.vertices)
    try:
        valid = math.isfinite(eps) and eps >= 0.0
    except (OverflowError, TypeError):  # an int past the float range, a string
        valid = False
    if not valid:
        raise ValueError(f"eps must be a finite number >= 0, got {eps!r}")
    # as a float: the square of a numpy int would wrap, and of a big int overflow
    solved = pair.solve(float(eps), default_tol())
    occupied, label, ends = _components(solved)
    # component c's cells: the c-th run of the occupied cells stably sorted by label
    occupied = occupied[label.argsort(kind="stable")]
    members = zip((occupied // m).tolist(), (occupied % m).tolist())
    ends = ends.tolist()
    components = tuple(
        Component(id=c, cells=frozenset(islice(members, size)), proj_p=(plo, phi),
                  proj_q=(qlo, qhi))
        for c, (size, plo, phi, qlo, qhi) in enumerate(zip(np.bincount(label).tolist(), *ends)))
    diagram = FreeSpaceDiagram(epsilon=eps, n=n, m=m, cells=_as_grid(solved),
                               components=components, z=_stab_number(ends))
    object.__setattr__(diagram, "_pair", pair)  # frozen; see FreeSpaceDiagram
    return diagram


def _stab_number(ends) -> int:
    """Most components met by one axis-parallel line, counted at projection starts.

    ``ends`` holds the lists (p_lo, p_hi, q_lo, q_hi) of the component
    projections; empty ones (lo > hi) meet no line and are skipped. A closed
    projection that contains x contains the largest start at or below x, so
    no line meets more projections than the line at some start, and the
    starts of a built diagram lie on the axes, inside [0, n] and [0, m]:
    no line within the axes, at or near an end, meets more. With the
    starts sorted, the line at the i-th (from 1) meets i
    projections less those ending below it; of equal starts the last counts
    exactly and the others count fewer.
    """
    best = 0
    for los, his in ((ends[0], ends[1]), (ends[2], ends[3])):
        kept = [(lo, hi) for lo, hi in zip(los, his) if lo <= hi]
        stops = sorted(hi for _, hi in kept)
        for i, start in enumerate(sorted(lo for lo, _ in kept), start=1):
            best = max(best, i - bisect.bisect_left(stops, start))
    return best

