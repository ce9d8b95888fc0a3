import collections
import decimal
import fractions
import math
import warnings

import numpy as np
import pytest

import kfrechet as kf
from kfrechet import freespace
from conftest import point_segment_distance, random_curve, random_pair, touched_sides
import oracles

UNIT_P = ((0.0, 0.0), (1.0, 0.0))
UNIT_Q = ((0.0, 1.0), (1.0, 1.0))  # parallel, at distance 1


def diagonal_pair():
    return kf.PolyCurve(UNIT_P), kf.PolyCurve(UNIT_Q)


def one_cell(seg_p, seg_q, eps: float):
    """The cell arrays of one segment pair: the diagram of two one-segment curves."""
    return kf.build_diagram(kf.PolyCurve(seg_p), kf.PolyCurve(seg_q), eps).cells


def cell_edges(grid):
    """The left, right, bottom and top edge intervals of the grid's cell (0, 0),
    as (lo, hi) pairs: (inf, -inf) where empty."""
    return [tuple(e.tolist()) for e in (grid.vert[0, 0], grid.vert[1, 0],
                                        grid.horiz[0, 0], grid.horiz[0, 1])]


class TestCellEdgeInterval:
    def test_tangency_single_point(self):
        lo, hi = one_cell(UNIT_P, UNIT_Q, 1.0).horiz[0, 0]
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(0.0, abs=1e-9)

    def test_whole_edge_free(self):
        for lo, hi in cell_edges(one_cell(UNIT_P, UNIT_Q, math.sqrt(2))):
            assert lo == pytest.approx(0.0, abs=1e-9)
            assert hi == pytest.approx(1.0, abs=1e-9)

    def test_below_min_distance_empty(self):
        for iv in cell_edges(one_cell(UNIT_P, UNIT_Q, 0.5)):
            assert iv == (math.inf, -math.inf)

    def test_malformed_segment_rejected(self):
        with pytest.raises(ValueError):
            one_cell(((0.0, 0.0), (0.0, 0.0)), UNIT_Q, 1.0)

    def test_matches_dense_sampling(self, rng):
        for _ in range(50):
            seg_p = rng.uniform(0, 1, size=(2, 2))
            seg_q = rng.uniform(0, 1, size=(2, 2))
            eps = float(rng.uniform(0.05, 1.0))
            u = np.linspace(0, 1, 2001)
            edges = cell_edges(one_cell(seg_p, seg_q, eps))
            # left and right fix a P endpoint and run along seg_q, bottom and top
            # fix a Q endpoint and run along seg_p
            for (lo, hi), fixed, seg in zip(edges, (*seg_p, *seg_q), (seg_q, seg_q, seg_p, seg_p)):
                pts = seg[0] + u[:, None] * (seg[1] - seg[0])
                free = np.linalg.norm(pts - fixed, axis=1) <= eps
                if lo > hi:
                    assert not (np.linalg.norm(pts - fixed, axis=1) <= eps - 1e-6).any()
                else:
                    inside = u[free]
                    if inside.size:
                        assert lo <= inside.min() + 1e-3
                        assert hi >= inside.max() - 1e-3


class TestCellAxisProjection:
    def test_parallel_at_exact_distance(self):
        lo, hi = one_cell(UNIT_P, UNIT_Q, 1.0).s_proj[0, 0]
        assert lo == pytest.approx(0.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_parallel_below_distance(self):
        assert one_cell(UNIT_P, UNIT_Q, 0.9).s_proj[0, 0].tolist() == [math.inf, -math.inf]

    def test_short_segment_oracle_value(self):
        # frozen from a 10^4-point sampling of dist(P(s), segQ):
        # footprint of the eps-capsule around the short top segment
        seg_p = ((0.0, 0.0), (2.0, 0.0))
        seg_q = ((1.0, 1.0), (1.05, 1.0))
        lo, hi = one_cell(seg_p, seg_q, 1.0).s_proj[0, 0]
        assert lo == pytest.approx(0.5, abs=1e-4)
        assert hi == pytest.approx(0.525, abs=1e-4)
        # live oracle at coarser resolution agrees
        s = np.linspace(0, 1, 2001)
        pts = np.array(seg_p[0]) + s[:, None] * (np.array(seg_p[1]) - np.array(seg_p[0]))
        dist = [point_segment_distance(p, np.array(seg_q[0]), np.array(seg_q[1])) for p in pts]
        inside = s[np.array(dist) <= 1.0]
        assert lo == pytest.approx(inside.min(), abs=1e-3)
        assert hi == pytest.approx(inside.max(), abs=1e-3)

    def test_membership_matches_sampling(self, rng):
        for _ in range(40):
            seg_p = rng.uniform(0, 1, size=(2, 2))
            seg_q = rng.uniform(0, 1, size=(2, 2))
            eps = float(rng.uniform(0.05, 0.8))
            lo, hi = one_cell(seg_p, seg_q, eps).s_proj[0, 0]
            for s in rng.uniform(0, 1, size=60):
                p = seg_p[0] + s * (seg_p[1] - seg_p[0])
                d = point_segment_distance(p, seg_q[0], seg_q[1])
                if d <= eps - 1e-7:
                    assert lo <= s <= hi
                elif d >= eps + 1e-7:
                    assert not lo <= s <= hi

    def test_axis_q_is_swap(self, rng):
        seg_p = rng.uniform(0, 1, size=(2, 2))
        seg_q = rng.uniform(0, 1, size=(2, 2))
        a = one_cell(seg_p, seg_q, 0.4).t_proj[0, 0].tolist()
        b = one_cell(seg_q, seg_p, 0.4).s_proj[0, 0].tolist()
        assert a == b


class TestBuildDiagram:
    def test_diagonal_single_component(self):
        P, Q = diagonal_pair()
        d = kf.build_diagram(P, Q, 1.0)
        assert len(d.components) == 1
        c = d.components[0]
        assert c.proj_p == pytest.approx((0.0, 1.0), abs=1e-9)
        assert c.proj_q == pytest.approx((0.0, 1.0), abs=1e-9)
        assert touched_sides(c, d.n, d.m) == "LRBT"
        assert d.z == 1

    def test_empty_at_small_eps(self):
        P, Q = diagonal_pair()
        d = kf.build_diagram(P, Q, 0.5)
        assert len(d.components) == 0
        assert d.z == 0

    def test_negative_eps_rejected(self):
        P, Q = diagonal_pair()
        with pytest.raises(ValueError):
            kf.build_diagram(P, Q, -0.1)

    # an int past the float range and a string raised OverflowError and TypeError
    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf,
                                     pytest.param(10**400, id="10**400"), "0.2"])
    def test_non_finite_eps_rejected(self, eps):
        P, Q = diagonal_pair()
        with pytest.raises(ValueError, match="eps must be a finite number >= 0, got"):
            kf.build_diagram(P, Q, eps)

    @pytest.mark.parametrize("eps", [np.int64(2**40), 10**300, fractions.Fraction(3, 10),
                                     decimal.Decimal("0.3"), np.float32(0.3), True],
                             ids=["int64", "10**300", "Fraction", "Decimal", "float32", "True"])
    def test_eps_of_any_real_type_solved_as_its_float(self, eps):
        # np.int64(2**40) squared wrapped to 0, and the diagram mixed eps = 0 and
        # 2**40; 10**300 squared overflowed, a Fraction and a Decimal raised TypeError
        P = kf.PolyCurve([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])
        Q = kf.PolyCurve([(0.0, 0.1), (2.0, 1.1)])
        d, want = kf.build_diagram(P, Q, eps), kf.build_diagram(P, Q, float(eps))
        assert d.cells == want.cells and d.components == want.components and d.epsilon is eps

    def test_squared_length_underflow_rejected(self):
        # d·d of a 1e-170 segment underflows to 0: every edge would read as empty
        # (0 components, Hausdorff false) although the curves are identical
        P = kf.PolyCurve([(0.0, 0.0), (1e-170, 0.0)])
        with pytest.raises(ValueError, match="out of range"):
            kf.build_diagram(P, P, 1.0)

    def test_squared_distance_overflow_rejected(self):
        # w·w of two segments 1e200 apart overflows: every edge would read as empty
        P = kf.PolyCurve(UNIT_P)
        Q = kf.PolyCurve([(0.0, 1e200), (1.0, 1e200)])
        with pytest.raises(ValueError, match="out of range"):
            kf.build_diagram(P, Q, 1e201)
        with pytest.raises(ValueError, match="out of range"):
            kf.minimize_epsilon(P, Q, 1, tol=1e-3)

    @pytest.mark.parametrize("eps", [1e154, 1e200, 1e308])
    def test_huge_finite_eps_gives_the_whole_grid_silently(self, eps, rng):
        # eps*eps, (w·w - eps²)*d·d (d·d > 1 here) and (gamma - eps)/|delta|
        # overflow to -inf, which clips to the ends of [0, 1] like any large value
        pairs = [diagonal_pair(), *((random_curve(rng, 6, 10.0), random_curve(rng, 5, 10.0))
                                    for _ in range(3))]
        for P, Q in pairs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                d = kf.build_diagram(P, Q, eps)
                assert len(d.components) == 1 and d.z == 1
                assert d.components[0].proj_p == (0.0, P.n)
                assert d.components[0].proj_q == (0.0, Q.n)
                assert kf.decide_hausdorff(d) and kf.decide_weak_frechet(d)
                assert kf.decide_strong_frechet(d)
                assert kf.decide_fpt(d, 1) == kf.approximate_k(d) == (0,)
                assert kf.minimize_k(d) == 1

    def test_range_check_keeps_extreme_but_representable_pairs(self):
        for scale in (1e-70, 1e70):
            P = kf.PolyCurve(np.array(UNIT_P) * scale)
            Q = kf.PolyCurve(np.array(UNIT_Q) * scale)
            d = kf.build_diagram(P, Q, scale)
            assert len(d.components) == 1 and kf.decide_weak_frechet(d)

    def test_free_top_edge_puts_top_into_t_projection(self):
        # the only free point of cell (1, 2) is a tangency on its top edge;
        # the component must then project onto t = 3 and touch the top
        P = kf.PolyCurve([[0.1378161543499311, 0.7603732959901822],
                          [0.9929488587486061, 0.14798814876206468],
                          [0.7126756760614649, 0.8253234003000403],
                          [0.9205719449963611, 0.12338141427757432]])
        Q = kf.PolyCurve([[0.09180991315160947, 0.9878715818465336],
                          [0.11675648510158831, 0.17680755913689605],
                          [0.574952933829019, 0.44627303628963466],
                          [0.750392191327833, 0.19055724815811337]])
        d = kf.build_diagram(P, Q, 0.20785064927471805)
        (comp,) = [c for c in d.components if c.cells == {(1, 2)}]
        top_lo, top_hi = d.cells.horiz[1, 3]  # the top edge of cell (1, 2)
        assert top_lo <= top_hi
        p_lo, p_hi = comp.proj_p
        assert p_lo == p_hi == pytest.approx(1.1802, abs=1e-4)
        assert comp.proj_q == (3.0, 3.0)
        assert "T" in touched_sides(comp, d.n, d.m)

    def test_interior_only_component(self):
        # crossing X: free space at small eps hugs the crossing point and
        # never reaches a cell edge, so it must still become a component
        P = kf.PolyCurve([(0, 0), (2, 2)])
        Q = kf.PolyCurve([(0, 2), (2, 0)])
        d = kf.build_diagram(P, Q, 0.3)
        assert len(d.components) == 1
        c = d.components[0]
        grid = d.cells
        for lo, hi in (grid.vert[0, 0], grid.vert[1, 0], grid.horiz[0, 0], grid.horiz[0, 1]):
            assert lo > hi  # left, right, bottom and top edge all empty
        assert grid.s_proj[0, 0, 0] <= grid.s_proj[0, 0, 1]  # the interior is not
        half = 0.3 * math.sqrt(2) / 4.0
        assert c.proj_p == pytest.approx((0.5 - half, 0.5 + half), abs=1e-9)
        assert touched_sides(c, d.n, d.m) == ""

    def test_single_point_tangency_joins_cells(self):
        # collinear two-segment P below a one-segment Q: at eps equal to
        # the gap, the two cells share exactly one free boundary point
        # and the closed-set convention makes them one component
        P = kf.PolyCurve([(0, 0), (1, 0), (2, 0)])
        Q = kf.PolyCurve([(0, 1), (2, 1)])
        d = kf.build_diagram(P, Q, 1.0)
        assert d.n == 2 and d.m == 1
        shared_lo, shared_hi = d.cells.vert[1, 0]  # right edge of cell (0, 0)
        assert shared_lo <= shared_hi
        assert shared_lo == pytest.approx(0.5, abs=1e-9)
        assert shared_hi == pytest.approx(0.5, abs=1e-9)
        assert len(d.components) == 1
        assert d.components[0].cells == {(0, 0), (1, 0)}

    def test_components_partition_occupied_cells(self, rng):
        for _ in range(10):
            P, Q = random_pair(rng, 5)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.1, 0.8)))
            seen = collections.Counter()
            for comp in d.components:
                seen.update(comp.cells)
            for i in range(d.n):
                for j in range(d.m):
                    s_lo, s_hi = d.cells.s_proj[i, j]
                    expected = 1 if s_lo <= s_hi else 0
                    assert seen[(i, j)] == expected

    def test_projection_endpoints_attained_by_member_cells(self, rng):
        for _ in range(10):
            P, Q = random_pair(rng, 5)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.1, 0.8)))
            for comp in d.components:
                plos, phis, qlos, qhis = [], [], [], []
                for (i, j) in comp.cells:
                    (s_lo, s_hi), (t_lo, t_hi) = d.cells.s_proj[i, j], d.cells.t_proj[i, j]
                    plos.append(s_lo + i)
                    phis.append(s_hi + i)
                    qlos.append(t_lo + j)
                    qhis.append(t_hi + j)
                assert comp.proj_p == pytest.approx((min(plos), max(phis)), abs=1e-12)
                assert comp.proj_q == pytest.approx((min(qlos), max(qhis)), abs=1e-12)

    def test_projection_union_matches_sampling(self, rng):
        for _ in range(8):
            P, Q = random_pair(rng, 5)
            eps = float(rng.uniform(0.2, 0.8))
            d = kf.build_diagram(P, Q, eps)
            intervals = [c.proj_p for c in d.components]
            params = rng.uniform(0, P.n, size=120)
            for s, point in zip(params, oracles.points_at(P, params)):
                dist = min(point_segment_distance(point, *Q.vertices[j:j + 2]) for j in range(Q.n))
                covered = any(lo <= s <= hi for lo, hi in intervals)
                if dist <= eps - 1e-6:
                    assert covered
                elif dist >= eps + 1e-6:
                    assert not covered

    def test_monotone_in_eps(self, rng):
        for _ in range(8):
            P, Q = random_pair(rng, 4)
            e1 = float(rng.uniform(0.1, 0.5))
            e2 = e1 + float(rng.uniform(0.05, 0.4))
            d1 = kf.build_diagram(P, Q, e1)
            d2 = kf.build_diagram(P, Q, e2)
            cell_owner = {}
            for comp in d2.components:
                for cell in comp.cells:
                    cell_owner[cell] = comp.id
            for comp in d1.components:
                owners = {cell_owner[cell] for cell in comp.cells}
                assert len(owners) == 1
                big = d2.components[owners.pop()]
                for grown, proj in ((big.proj_p, comp.proj_p), (big.proj_q, comp.proj_q)):
                    assert grown[0] <= proj[0] + 1e-9
                    assert grown[1] >= proj[1] - 1e-9

    def test_symmetry_transpose(self, rng):
        for _ in range(10):
            P, Q = random_pair(rng, 5)
            eps = float(rng.uniform(0.1, 0.9))
            d1 = kf.build_diagram(P, Q, eps)
            d2 = kf.build_diagram(Q, P, eps)
            assert len(d1.components) == len(d2.components)
            assert d1.z == d2.z

            def key(iv):
                return (round(iv[0], 9), round(iv[1], 9))

            bag1 = collections.Counter((key(c.proj_p), key(c.proj_q)) for c in d1.components)
            bag2 = collections.Counter((key(c.proj_q), key(c.proj_p)) for c in d2.components)
            assert bag1 == bag2

    def test_zigzag_vs_reversal_matches_pixel_oracle(self):
        # 3-segment zigzag against its own reversal, eps above the leg
        # crossing distance; raster-stable (checked at build time)
        verts = [[0.676, 0.214], [0.309, 0.799], [0.996, 0.142], [0.079, 0.181]]
        P = kf.PolyCurve(verts)
        Q = kf.PolyCurve(verts[::-1])
        eps = 0.12
        d = kf.build_diagram(P, Q, eps)
        pix = oracles.pixel_freespace(P, Q, eps, res=512)
        assert len(d.components) == 3
        assert pix.component_count == 3
        # projections agree within one pixel per axis
        step = 3.0 / 511
        diagram_spans = sorted((*c.proj_p, *c.proj_q) for c in d.components)
        pixel_spans = sorted((pc.s_min, pc.s_max, pc.t_min, pc.t_max)
                             for pc in pix.components)
        for ds, ps in zip(diagram_spans, pixel_spans):
            for a, b in zip(ds, ps):
                assert abs(a - b) <= 2 * step

    def test_agrees_with_pixel_oracle(self, rng):
        from conftest import raster_stable
        checked = 0
        for _ in range(40):
            P, Q = random_pair(rng, 4)
            eps = float(rng.uniform(0.15, 0.9))
            if not raster_stable(P, Q, eps, 256):
                continue  # a topology change hides inside the raster band
            d = kf.build_diagram(P, Q, eps)
            pix = oracles.pixel_freespace(P, Q, eps, res=256)
            assert pix.component_count == len(d.components)
            checked += 1
        assert checked >= 10


def reference_roots(nodes: int, a, b, parent=None) -> list:
    """Scalar union-find: each node's root after joining the edges (a[i], b[i])
    to the forest ``parent`` (single nodes if None), hooking the larger root
    under the smaller, so that every root is the smallest node of its tree.
    Returns the parents: no path is compressed."""
    parent = list(range(nodes)) if parent is None else list(parent)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in zip(a, b):
        rx, ry = find(x), find(y)
        parent[max(rx, ry)] = min(rx, ry)
    return parent


class TestMerge:
    """freespace._merge, the union-find over the free joins of a solved grid."""

    @staticmethod
    def random_edges(rng, nodes: int):
        count = int(rng.integers(0, 2 * nodes + 1))
        if rng.random() < 0.5:  # near neighbours, as the joins of a grid are
            a = rng.integers(0, nodes, size=count)
            b = np.clip(a + rng.integers(-3, 4, size=count), 0, nodes - 1)
        else:
            a, b = rng.integers(0, nodes, size=(2, count))
        return a, b

    @staticmethod
    def smallest_of_component(nodes: int, a, b) -> list:
        parent = reference_roots(nodes, a, b)
        roots = []
        for x in range(nodes):
            while parent[x] != x:
                x = parent[x]
            roots.append(x)
        return roots

    def test_every_node_ends_at_the_smallest_node_of_its_component(self, rng):
        for _ in range(400):
            nodes = int(rng.integers(1, 120))
            a, b = self.random_edges(rng, nodes)
            root = np.arange(nodes)
            freespace._merge(root, a, b)
            want = self.smallest_of_component(nodes, a.tolist(), b.tolist())
            assert root.tolist() == want
            assert all(want[x] <= x for x in range(nodes))

    def test_warm_start_from_the_forest_of_a_subset(self, rng):
        warm = 0
        for _ in range(400):
            nodes = int(rng.integers(1, 120))
            a, b = self.random_edges(rng, nodes)
            some = rng.random(len(a)) < 0.5
            want = self.smallest_of_component(nodes, a.tolist(), b.tolist())
            # a compressed forest, as _merge leaves it, and the reference's own
            # uncompressed one: every root the smallest node of its tree
            compressed = np.arange(nodes)
            freespace._merge(compressed, a[some], b[some])
            chains = np.array(reference_roots(nodes, a[some].tolist(), b[some].tolist()))
            warm += bool((chains[chains] != chains).any())
            for root in (compressed, chains):
                freespace._merge(root, a, b)
                assert root.tolist() == want
        assert warm >= 100  # forests with chains longer than one step


class TestComponentLabels:
    """freespace._components on synthetic solved grids against a flood fill.

    A grid is a set of free joins between neighbouring cells plus, per cell,
    its two local projections (empty where the cell holds no free point).
    Every cell a free join touches is occupied, as in a solved grid."""

    @staticmethod
    def grid_pair(n: int, m: int):
        """A prepared pair of n×m cells: only its join indices and shifts are read."""
        P = kf.PolyCurve([(float(i), 0.0) for i in range(n + 1)])
        Q = kf.PolyCurve([(0.0, float(j)) for j in range(m + 1)])
        return freespace._PairGeometry(P.vertices, Q.vertices)

    @staticmethod
    def solved(pair, free, occupied, rng):
        """A solve of ``pair`` with the joins ``free`` open and the cells
        ``occupied`` holding random projections, as (lo, -hi) rows."""
        empty = np.ones(pair.qa.shape, dtype=bool)
        empty[pair.join_edge[free]] = False
        nm = pair.n * pair.m
        lo = rng.uniform(0.0, 1.0, size=(2, nm))
        hi = lo + rng.uniform(0.0, 1.0, size=(2, nm)) * (1.0 - lo)
        proj = np.where(occupied, np.stack((lo.ravel(), -hi.ravel())), math.inf)
        return freespace._Solved(pair, None, empty, proj)

    @staticmethod
    def flood_fill(pair, free, occupied, proj):
        """Occupied cells, labels, ends and forest by a scalar flood fill:
        components numbered by their first occupied cell, each node's root the
        smallest node of its component."""
        n, m = pair.n, pair.m
        neighbours = collections.defaultdict(list)
        for a, b in zip(pair.join_a[free].tolist(), pair.join_b[free].tolist()):
            neighbours[a].append(b)
            neighbours[b].append(a)
        root = list(range(n * m))
        for start in range(n * m):
            if root[start] == start:
                todo = [start]
                while todo:
                    for c in neighbours[todo.pop()]:
                        if root[c] == c and c != start:
                            root[c] = start
                            todo.append(c)
        cells = [c for c in range(n * m) if occupied[c]]
        number = {r: k for k, r in enumerate(dict.fromkeys(root[c] for c in cells))}
        labels = [number[root[c]] for c in cells]
        ends = [[math.inf] * len(number), [-math.inf] * len(number),
                [math.inf] * len(number), [-math.inf] * len(number)]
        for c, k in zip(cells, labels):
            i, j = divmod(c, m)
            s_lo, t_lo = proj[0, c], proj[0, n * m + c]
            s_hi, t_hi = -proj[1, c], -proj[1, n * m + c]
            ends[0][k], ends[1][k] = min(ends[0][k], s_lo + i), max(ends[1][k], s_hi + i)
            ends[2][k], ends[3][k] = min(ends[2][k], t_lo + j), max(ends[3][k], t_hi + j)
        return cells, labels, ends, root

    @staticmethod
    def path_joins(pair, path) -> np.ndarray:
        """The joins between consecutive cells (i, j) of ``path``, as a mask."""
        index = {(a, b): k for k, (a, b) in enumerate(zip(pair.join_a.tolist(),
                                                           pair.join_b.tolist()))}
        free = np.zeros(len(pair.join_edge), dtype=bool)
        cells = [i * pair.m + j for i, j in path]
        for a, b in zip(cells, cells[1:]):
            free[index[min(a, b), max(a, b)]] = True
        return free

    def check(self, pair, free, rng, monkeypatch):
        """Cold and warm labelling of the grid with joins ``free`` equal the
        flood fill, and so does the forest each leaves."""
        nm = pair.n * pair.m
        touched = np.zeros(nm, dtype=bool)
        touched[pair.join_a[free]] = touched[pair.join_b[free]] = True
        occupied = np.tile(touched | (rng.random(nm) < 0.5), 2)
        solved = self.solved(pair, free, occupied, rng)
        want = self.flood_fill(pair, free, occupied[:nm], solved.proj)

        def same(got):
            cells, labels, ends = got
            return (cells.tolist(), labels.tolist(), ends.tolist()) == want[:3]

        forests = []
        merge = freespace._merge
        monkeypatch.setattr(freespace, "_merge", lambda root, a, b: (merge(root, a, b),
                                                                    forests.append(root)))
        assert same(freespace._components(solved))  # cold, from the column runs
        assert forests.pop().tolist() == want[3]
        # warm, from the forest of a sub-mask of the joins
        forest = np.arange(nm)
        freespace._components(self.solved(pair, free & (rng.random(len(free)) < 0.5),
                                          occupied, rng), forest)
        assert same(freespace._components(solved, forest))
        assert forest.tolist() == want[3]

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 7), (7, 1), (5, 6), (9, 4)])
    def test_no_joins_and_all_joins(self, n, m, rng, monkeypatch):
        pair = self.grid_pair(n, m)
        for free in (np.zeros(len(pair.join_edge), dtype=bool),
                     np.ones(len(pair.join_edge), dtype=bool)):
            self.check(pair, free, rng, monkeypatch)

    @pytest.mark.parametrize("n, m", [(1, 9), (9, 1), (6, 6), (12, 5), (5, 12)])
    def test_serpentines_and_spirals(self, n, m, rng, monkeypatch):
        # one long path each, the worst case for hooking and pointer jumps:
        # a serpentine along either axis, and a spiral inwards from a corner
        pair = self.grid_pair(n, m)
        along_q = [(i, j if i % 2 == 0 else m - 1 - j) for i in range(n) for j in range(m)]
        along_p = [(i if j % 2 == 0 else n - 1 - i, j) for j in range(m) for i in range(n)]
        spiral, seen, (i, j), (di, dj) = [], set(), (0, 0), (0, 1)
        while len(spiral) < n * m:
            spiral.append((i, j))
            seen.add((i, j))
            if not (0 <= i + di < n and 0 <= j + dj < m) or (i + di, j + dj) in seen:
                di, dj = dj, -di
            i, j = i + di, j + dj
        for path in (along_q, along_p, spiral, spiral[::-1]):
            self.check(pair, self.path_joins(pair, path), rng, monkeypatch)

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_random_masks(self, density, rng, monkeypatch):
        for _ in range(30):
            pair = self.grid_pair(int(rng.integers(1, 13)), int(rng.integers(1, 13)))
            self.check(pair, rng.random(len(pair.join_edge)) < density, rng, monkeypatch)


class TestComponent:
    # float("nan") is no math.nan: float ends take a fast path that must test
    # each end, as a tuple compares items by identity first
    @pytest.mark.parametrize("proj", [(math.nan, 1.0), (0.0, math.nan), [0.0, 1.0], (0.0,),
                                      (0.0, 1.0, 2.0), (0.0, "1"), (0, 10**400),
                                      (float("nan"), 1.0), (0.0, float("nan"))])
    def test_projection_must_be_a_tuple_of_two_numbers(self, proj):
        # the cover search would read a NaN end as a match (covers_both and
        # decide_hausdorff True on a 1 x 1 diagram), and a list does not hash
        for proj_p, proj_q in ((proj, (0.0, 1.0)), ((0.0, 1.0), proj)):
            with pytest.raises(ValueError, match="tuple of two numbers"):
                kf.Component(id=0, cells=frozenset(), proj_p=proj_p, proj_q=proj_q)

    def test_projection_ends_stored_as_floats(self):
        comp = kf.Component(id=0, cells=frozenset(), proj_p=(np.float64(0.5), 1),
                            proj_q=(math.inf, -math.inf))
        assert comp.proj_p == (0.5, 1.0) and comp.proj_q == (math.inf, -math.inf)
        assert all(type(end) is float for end in (*comp.proj_p, *comp.proj_q))
        d = kf.FreeSpaceDiagram(epsilon=1.0, n=1, m=1, cells=(), components=(comp,), z=1)
        assert hash(d) == hash(d)

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 1), (1, 0), (-1, 2), (1.0, 1), (1, 2.5),
                                      (1, None), ("1", 1), (np.float64(1.0), 1)])
    def test_grid_size_must_be_an_integer_at_least_one(self, n, m):
        # a diagram of no cells read as covered: decide_weak_frechet True,
        # decide_fpt(d, 0) == () and minimize_k 0 with no component at all
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            kf.FreeSpaceDiagram(epsilon=1.0, n=n, m=m, cells=(), components=(), z=0)

    def test_numpy_integer_grid_size_accepted(self):
        d = kf.FreeSpaceDiagram(epsilon=1.0, n=np.int64(2), m=np.int32(1), cells=(),
                                components=(), z=0)
        assert (d.n, d.m) == (2, 1)

    def test_ids_must_equal_positions(self):
        # a selection's ids are read as positions: with the ids swapped,
        # decide_fpt(d, 1) returned (1,), which covers_both read as the small
        # component and rejected
        big = kf.Component(id=1, cells=frozenset(), proj_p=(0.0, 2.0), proj_q=(0.0, 2.0))
        small = kf.Component(id=0, cells=frozenset(), proj_p=(0.0, 0.5), proj_q=(0.0, 0.5))
        with pytest.raises(ValueError, match="ids must equal their positions"):
            kf.FreeSpaceDiagram(epsilon=1.0, n=2, m=2, cells=(), components=(big, small), z=2)
        d = kf.FreeSpaceDiagram(epsilon=1.0, n=2, m=2, cells=(), components=(small, big), z=2)
        assert kf.decide_fpt(d, 1) == (1,) and kf.covers_both(d, (1,))


class TestComputeZ:
    def test_single_component(self):
        P, Q = diagonal_pair()
        assert kf.build_diagram(P, Q, 1.0).z == 1

    def test_overlapping_projections(self):
        from conftest import stub_diagram
        d = stub_diagram(1, 1, [((0.0, 0.5), (0.0, 0.4)), ((0.4, 1.0), (0.6, 1.0))])
        assert d.z == 2

    def test_matches_dense_stabbing(self, rng):
        for _ in range(12):
            P, Q = random_pair(rng, 5)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.2, 0.8)))
            if not d.components:
                assert d.z == 0
                continue
            best = 0
            for axis_len, proj in ((d.n, lambda c: c.proj_p), (d.m, lambda c: c.proj_q)):
                for pos in np.linspace(0, axis_len, 1000):
                    best = max(best, sum(1 for c in d.components
                                         if proj(c)[0] <= pos <= proj(c)[1]))
            assert d.z >= best
            assert d.z >= 1
