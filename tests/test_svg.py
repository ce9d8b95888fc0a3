import json
import re
import xml.etree.ElementTree as ET

import pytest

import kfrechet as kf
from conftest import SIX_COMPONENT_PAIR, random_pair, stub_diagram
from kfrechet.svg import CANVAS, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, _cell_shapes


def diagonal_pair():
    return kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(0, 1), (1, 1)])


def groups(svg_text):
    """The contents of the component groups."""
    return re.findall(r'<g class="component[^>]*>(.*?)</g>', svg_text, re.S)


def metadata(svg_text):
    match = re.search(r"<metadata[^>]*>(.*?)</metadata>", svg_text, re.S)
    assert match is not None
    return json.loads(match.group(1))


class TestRenderDiagram:
    def test_diagonal_one_region(self):
        P, Q = diagonal_pair()
        d = kf.build_diagram(P, Q, 1.0)
        svg = kf.render_diagram_svg(d, P, Q)
        assert svg.count('<g class="component"') == 1
        assert 'viewBox="0 0 1000 1000"' in svg
        meta = metadata(svg)
        assert meta["components"] == 1
        assert meta["n"] == 1 and meta["m"] == 1
        ET.fromstring(svg)  # well-formed XML

    def test_empty_free_space_grid_only(self):
        P, Q = diagonal_pair()
        d = kf.build_diagram(P, Q, 0.5)
        svg = kf.render_diagram_svg(d, P, Q)
        assert '<g class="component"' not in svg
        assert '<g class="grid"' in svg
        assert metadata(svg)["components"] == 0

    def test_metadata_matches_component_count(self):
        pv, qv, eps = SIX_COMPONENT_PAIR
        P, Q = kf.PolyCurve(pv), kf.PolyCurve(qv)
        d = kf.build_diagram(P, Q, eps)
        svg = kf.render_diagram_svg(d, P, Q)
        assert metadata(svg)["components"] == len(d.components) == 6
        assert svg.count('<g class="component') == 6
        ET.fromstring(svg)

    def test_selected_components_outlined(self):
        pv, qv, eps = SIX_COMPONENT_PAIR
        P, Q = kf.PolyCurve(pv), kf.PolyCurve(qv)
        d = kf.build_diagram(P, Q, eps)
        svg = kf.render_diagram_svg(d, P, Q, selected=(0, 4))
        assert svg.count('class="component selected"') == 2
        assert metadata(svg)["selected"] == [0, 4]

    def test_unknown_selected_id_rejected(self):
        # as in covers_both; the metadata used to list ids the diagram lacks
        P, Q = diagonal_pair()
        d = kf.build_diagram(P, Q, 1.0)
        for selected in ((99, -3), (0, 1), (-1,), ("0",), (None,), (0.0,)):
            with pytest.raises(KeyError, match="unknown component id"):
                kf.render_diagram_svg(d, P, Q, selected=selected)
        assert metadata(kf.render_diagram_svg(d, P, Q, selected=(0,)))["selected"] == [0]

    def test_curves_of_another_diagram_rejected(self):
        P = kf.PolyCurve([(0, 0), (1, 0), (2, 0)])
        Q = kf.PolyCurve([(0, 1), (2, 1)])
        d = kf.build_diagram(P, Q, 1.5)  # n = 2, m = 1
        longer = kf.PolyCurve([(0, 0), (1, 0), (2, 0), (3, 0)])
        for curves in ((longer, Q), (P, longer), (Q, P), (longer, None), (None, P)):
            with pytest.raises(ValueError, match="segment counts"):
                kf.render_diagram_svg(d, *curves)
        assert metadata(kf.render_diagram_svg(d, P, Q))["n"] == 2
        assert metadata(kf.render_diagram_svg(d))["m"] == 1

    def test_axis_labels_present(self):
        P, Q = diagonal_pair()
        d = kf.build_diagram(P, Q, 1.0)
        svg = kf.render_diagram_svg(d, P, Q)
        assert "curve P" in svg and "curve Q" in svg
        assert ">0<" in svg and ">1<" in svg

    def test_degenerate_region_drawn_as_tangency(self):
        # exactly-critical eps: the free region is the diagonal line,
        # rendered as a stroke rather than dropped
        P, Q = diagonal_pair()
        d = kf.build_diagram(P, Q, 1.0)
        svg = kf.render_diagram_svg(d, P, Q)
        group = re.search(r'<g class="component".*?</g>', svg, re.S).group(0)
        assert "<line" in group or "<path" in group or "<circle" in group


class TestCellRegionShape:
    """Each member cell's free region, drawn from the built diagram."""

    def test_blocked_cell(self):
        P, Q = diagonal_pair()
        assert _cell_shapes(kf.build_diagram(P, Q, 0.5), P, Q) == {}

    def test_full_cell_polygon(self):
        P, Q = diagonal_pair()
        kind, pts = _cell_shapes(kf.build_diagram(P, Q, 2.0), P, Q)[0, 0]
        assert kind == "polygon"
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        assert min(xs) == min(ys) == 0.0 and max(xs) == max(ys) == 1.0

    def test_crossing_segments_ellipse(self):
        P, Q = kf.PolyCurve([(0, 0), (2, 2)]), kf.PolyCurve([(0, 2), (2, 0)])
        kind, pts = _cell_shapes(kf.build_diagram(P, Q, 0.3), P, Q)[0, 0]
        assert kind == "polygon"
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        assert abs(cx - 0.5) < 0.05 and abs(cy - 0.5) < 0.05

    def test_tangent_point(self):
        P, Q = kf.PolyCurve([(0, 0), (2, 2)]), kf.PolyCurve([(0, 2), (2, 0)])
        kind, geom = _cell_shapes(kf.build_diagram(P, Q, 0.0), P, Q)[0, 0]
        assert kind == "point"
        assert abs(geom[0] - 0.5) < 1e-9 and abs(geom[1] - 0.5) < 1e-9

    def test_parallel_at_eps_is_the_diagonal(self):
        # every slice's discriminant |dq|²eps² - (v × dq)² is exactly 0 here
        P, Q = diagonal_pair()
        shape = _cell_shapes(kf.build_diagram(P, Q, 1.0), P, Q)[0, 0]
        assert shape == ("segment", ((0.0, 0.0), (1.0, 1.0)))

    def test_single_point_projection_drawn(self):
        # the component's only cell projects on s to [0.5, 0.5]: the free
        # space is the point (0.5, 0), where P(0.5) = (1, 0) is 1 below Q(0)
        P, Q = kf.PolyCurve([(0, 0), (2, 0)]), kf.PolyCurve([(1, 1), (1.5, 3)])
        d = kf.build_diagram(P, Q, 1.0)
        assert len(d.components) == 1 and d.components[0].cells == {(0, 0)}
        assert d.components[0].proj_p == (0.5, 0.5)
        assert _cell_shapes(d, P, Q)[0, 0] == ("point", (0.5, 0.0))
        (group,) = groups(kf.render_diagram_svg(d, P, Q))
        scale = min(CANVAS - MARGIN_LEFT - MARGIN_RIGHT, CANVAS - MARGIN_TOP - MARGIN_BOTTOM)
        assert f'<circle cx="{MARGIN_LEFT + 0.5 * scale:.2f}" cy="{CANVAS - MARGIN_BOTTOM:.2f}"' in group

    def test_stub_diagram_draws_grid_and_metadata(self):
        # projections alone, no cell geometry: nothing to draw a region from
        P, Q = diagonal_pair()
        d = stub_diagram(1, 1, [((0, 1), (0, 1))])
        svg = kf.render_diagram_svg(d, P, Q)
        assert groups(svg) == [] and '<g class="grid"' in svg
        assert metadata(svg)["components"] == 1

    def test_every_member_cell_drawn_near_critical_eps(self, rng):
        # at, and 1e-9 either side of, critical distances: every component
        # group is drawn, every vertex lies in the cell, and each cell's
        # drawn s-extent is its s projection
        tol = kf.default_tol()
        for _ in range(30):
            P, Q = random_pair(rng, 4)
            candidates = kf.distance_candidates(P, Q)
            for value in rng.choice(candidates, size=min(4, len(candidates)), replace=False):
                for eps in (value - 1e-9, value, value + 1e-9):
                    d = kf.build_diagram(P, Q, max(float(eps), 0.0))
                    svg = kf.render_diagram_svg(d, P, Q)
                    drawn = groups(svg)
                    assert len(drawn) == metadata(svg)["components"] == len(d.components)
                    assert all(group.strip() for group in drawn)
                    for (i, j), (kind, geom) in _cell_shapes(d, P, Q).items():
                        pts = [geom] if kind == "point" else geom
                        s = [p[0] for p in pts]
                        assert all(0.0 <= c <= 1.0 for p in pts for c in p)
                        lo, hi = d.cells.s_proj[i, j]
                        assert min(s) == lo
                        assert max(s) == hi if kind == "polygon" else hi - max(s) <= tol
