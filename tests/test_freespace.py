import collections
import math

import numpy as np
import pytest

import kfrechet as kf
from kfrechet import oracles
from conftest import random_pair, touched_sides

UNIT_P = ((0.0, 0.0), (1.0, 0.0))
UNIT_Q = ((0.0, 1.0), (1.0, 1.0))  # parallel, at distance 1


def diagonal_pair():
    return kf.PolyCurve(UNIT_P), kf.PolyCurve(UNIT_Q)


class TestCellEdgeInterval:
    def test_tangency_single_point(self):
        iv = kf.cell_edge_interval(UNIT_P, UNIT_Q, 1.0, "bottom")
        assert iv.lo == pytest.approx(0.0, abs=1e-9)
        assert iv.hi == pytest.approx(0.0, abs=1e-9)

    def test_whole_edge_free(self):
        for edge in ("left", "right", "bottom", "top"):
            iv = kf.cell_edge_interval(UNIT_P, UNIT_Q, math.sqrt(2), edge)
            assert iv.lo == pytest.approx(0.0, abs=1e-9)
            assert iv.hi == pytest.approx(1.0, abs=1e-9)

    def test_below_min_distance_empty(self):
        for edge in ("left", "right", "bottom", "top"):
            assert kf.cell_edge_interval(UNIT_P, UNIT_Q, 0.5, edge).is_empty

    def test_bad_edge_name(self):
        with pytest.raises(ValueError):
            kf.cell_edge_interval(UNIT_P, UNIT_Q, 1.0, "diagonal")

    def test_malformed_segment_rejected(self):
        for seg_p in (((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))):
            with pytest.raises(ValueError):
                kf.cell_edge_interval(seg_p, UNIT_Q, 1.0, "left")

    def test_matches_dense_sampling(self, rng):
        for _ in range(50):
            seg_p = rng.uniform(0, 1, size=(2, 2))
            seg_q = rng.uniform(0, 1, size=(2, 2))
            eps = float(rng.uniform(0.05, 1.0))
            u = np.linspace(0, 1, 2001)
            for edge in ("left", "right", "bottom", "top"):
                iv = kf.cell_edge_interval(seg_p, seg_q, eps, edge)
                if edge in ("left", "right"):
                    fixed = seg_p[0] if edge == "left" else seg_p[1]
                    pts = seg_q[0] + u[:, None] * (seg_q[1] - seg_q[0])
                else:
                    fixed = seg_q[0] if edge == "bottom" else seg_q[1]
                    pts = seg_p[0] + u[:, None] * (seg_p[1] - seg_p[0])
                free = np.linalg.norm(pts - fixed, axis=1) <= eps
                if iv.is_empty:
                    assert not (np.linalg.norm(pts - fixed, axis=1) <= eps - 1e-6).any()
                else:
                    inside = u[free]
                    if inside.size:
                        assert iv.lo <= inside.min() + 1e-3
                        assert iv.hi >= inside.max() - 1e-3


class TestCellAxisProjection:
    def test_parallel_at_exact_distance(self):
        iv = kf.cell_axis_projection(UNIT_P, UNIT_Q, 1.0, "p")
        assert iv.lo == pytest.approx(0.0, abs=1e-9)
        assert iv.hi == pytest.approx(1.0, abs=1e-9)

    def test_parallel_below_distance(self):
        assert kf.cell_axis_projection(UNIT_P, UNIT_Q, 0.9, "p").is_empty

    def test_short_segment_oracle_value(self):
        # frozen from a 10^4-point sampling of dist(P(s), segQ):
        # footprint of the eps-capsule around the short top segment
        seg_p = ((0.0, 0.0), (2.0, 0.0))
        seg_q = ((1.0, 1.0), (1.05, 1.0))
        iv = kf.cell_axis_projection(seg_p, seg_q, 1.0, "p")
        assert iv.lo == pytest.approx(0.5, abs=1e-4)
        assert iv.hi == pytest.approx(0.525, abs=1e-4)
        # live oracle at coarser resolution agrees
        s = np.linspace(0, 1, 2001)
        pts = np.array(seg_p[0]) + s[:, None] * (np.array(seg_p[1]) - np.array(seg_p[0]))
        dist = [kf.point_segment_distance(p, np.array(seg_q[0]), np.array(seg_q[1])) for p in pts]
        inside = s[np.array(dist) <= 1.0]
        assert iv.lo == pytest.approx(inside.min(), abs=1e-3)
        assert iv.hi == pytest.approx(inside.max(), abs=1e-3)

    def test_membership_matches_sampling(self, rng):
        for _ in range(40):
            seg_p = rng.uniform(0, 1, size=(2, 2))
            seg_q = rng.uniform(0, 1, size=(2, 2))
            eps = float(rng.uniform(0.05, 0.8))
            iv = kf.cell_axis_projection(seg_p, seg_q, eps, "p")
            for s in rng.uniform(0, 1, size=60):
                p = seg_p[0] + s * (seg_p[1] - seg_p[0])
                d = kf.point_segment_distance(p, seg_q[0], seg_q[1])
                if d <= eps - 1e-7:
                    assert iv.contains(float(s))
                elif d >= eps + 1e-7:
                    assert not iv.contains(float(s))

    def test_axis_q_is_swap(self, rng):
        seg_p = rng.uniform(0, 1, size=(2, 2))
        seg_q = rng.uniform(0, 1, size=(2, 2))
        a = kf.cell_axis_projection(seg_p, seg_q, 0.4, "q")
        b = kf.cell_axis_projection(seg_q, seg_p, 0.4, "p")
        assert a == b


class TestBuildDiagram:
    def test_diagonal_single_component(self):
        P, Q = diagonal_pair()
        d = kf.build_diagram(P, Q, 1.0)
        assert len(d.components) == 1
        c = d.components[0]
        assert c.proj_p.lo == pytest.approx(0.0, abs=1e-9)
        assert c.proj_p.hi == pytest.approx(1.0, abs=1e-9)
        assert c.proj_q.lo == pytest.approx(0.0, abs=1e-9)
        assert c.proj_q.hi == pytest.approx(1.0, abs=1e-9)
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

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, eps):
        P, Q = diagonal_pair()
        with pytest.raises(ValueError, match="eps"):
            kf.build_diagram(P, Q, eps)
        with pytest.raises(ValueError, match="eps"):
            kf.cell_edge_interval(UNIT_P, UNIT_Q, eps, "left")
        with pytest.raises(ValueError, match="eps"):
            kf.cell_axis_projection(UNIT_P, UNIT_Q, eps, "p")

    def test_squared_length_underflow_rejected(self):
        # d·d of a 1e-170 segment underflows to 0: every edge would read as empty
        # (0 components, Hausdorff false) although the curves are identical
        P = kf.PolyCurve([(0.0, 0.0), (1e-170, 0.0)])
        with pytest.raises(ValueError, match="out of range"):
            kf.build_diagram(P, P, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            kf.cell_edge_interval(P.vertices, P.vertices, 1.0, "left")

    def test_squared_distance_overflow_rejected(self):
        # w·w of two segments 1e200 apart overflows: every edge would read as empty
        P = kf.PolyCurve(UNIT_P)
        Q = kf.PolyCurve([(0.0, 1e200), (1.0, 1e200)])
        with pytest.raises(ValueError, match="out of range"):
            kf.build_diagram(P, Q, 1e201)
        with pytest.raises(ValueError, match="out of range"):
            kf.minimize_epsilon(P, Q, 1, tol=1e-3)

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
        assert comp.proj_p.lo == comp.proj_p.hi == pytest.approx(1.1802, abs=1e-4)
        assert comp.proj_q == kf.Interval(3.0, 3.0)
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
        assert c.proj_p.lo == pytest.approx(0.5 - half, abs=1e-9)
        assert c.proj_p.hi == pytest.approx(0.5 + half, abs=1e-9)
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
                assert comp.proj_p.lo == pytest.approx(min(plos), abs=1e-12)
                assert comp.proj_p.hi == pytest.approx(max(phis), abs=1e-12)
                assert comp.proj_q.lo == pytest.approx(min(qlos), abs=1e-12)
                assert comp.proj_q.hi == pytest.approx(max(qhis), abs=1e-12)

    def test_projection_union_matches_sampling(self, rng):
        for _ in range(8):
            P, Q = random_pair(rng, 5)
            eps = float(rng.uniform(0.2, 0.8))
            d = kf.build_diagram(P, Q, eps)
            intervals = [c.proj_p for c in d.components]
            for s in rng.uniform(0, P.n, size=120):
                dist = min(kf.point_segment_distance(P.point_at(float(s)), *Q.segment(j))
                           for j in range(Q.n))
                covered = any(iv.contains(float(s)) for iv in intervals)
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
                assert big.proj_p.lo <= comp.proj_p.lo + 1e-9
                assert big.proj_p.hi >= comp.proj_p.hi - 1e-9
                assert big.proj_q.lo <= comp.proj_q.lo + 1e-9
                assert big.proj_q.hi >= comp.proj_q.hi - 1e-9

    def test_symmetry_transpose(self, rng):
        for _ in range(10):
            P, Q = random_pair(rng, 5)
            eps = float(rng.uniform(0.1, 0.9))
            d1 = kf.build_diagram(P, Q, eps)
            d2 = kf.build_diagram(Q, P, eps)
            assert len(d1.components) == len(d2.components)
            assert d1.z == d2.z

            def key(iv):
                return (round(iv.lo, 9), round(iv.hi, 9))

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
        diagram_spans = sorted((c.proj_p.lo, c.proj_p.hi, c.proj_q.lo, c.proj_q.hi)
                               for c in d.components)
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
                                         if proj(c).lo <= pos <= proj(c).hi))
            assert d.z >= best
            assert d.z >= 1
