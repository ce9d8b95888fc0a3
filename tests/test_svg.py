import json
import re
import xml.etree.ElementTree as ET

import kfrechet as kf
from conftest import SIX_COMPONENT_PAIR


def diagonal_pair():
    return kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(0, 1), (1, 1)])


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
    def test_blocked_cell(self):
        from kfrechet.svg import cell_region_shape
        assert cell_region_shape(((0, 0), (1, 0)), ((0, 1), (1, 1)), 0.5) is None

    def test_full_cell_polygon(self):
        from kfrechet.svg import cell_region_shape
        kind, pts = cell_region_shape(((0, 0), (1, 0)), ((0, 1), (1, 1)), 2.0)
        assert kind == "polygon"
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        assert min(xs) >= -1e-9 and max(xs) <= 1 + 1e-9
        assert min(ys) >= -1e-9 and max(ys) <= 1 + 1e-9

    def test_crossing_segments_ellipse(self):
        from kfrechet.svg import cell_region_shape
        kind, pts = cell_region_shape(((0, 0), (2, 2)), ((0, 2), (2, 0)), 0.3)
        assert kind == "polygon"
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        assert abs(cx - 0.5) < 0.05 and abs(cy - 0.5) < 0.05

    def test_tangent_point(self):
        from kfrechet.svg import cell_region_shape
        shape = cell_region_shape(((0, 0), (2, 2)), ((0, 2), (2, 0)), 0.0)
        assert shape is not None
        kind, geom = shape
        assert kind == "point"
        assert abs(geom[0] - 0.5) < 1e-9 and abs(geom[1] - 0.5) < 1e-9
