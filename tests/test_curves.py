import math

import numpy as np
import pytest

import kfrechet as kf
from conftest import random_curve


class TestParseCurve:
    def test_minimal_curve(self):
        c = kf.parse_curve("0 0\n1 0")
        assert c.n == 1
        assert np.allclose(c.vertices, [[0, 0], [1, 0]])

    def test_zero_length_segment_rejected(self):
        with pytest.raises(kf.CurveError, match="zero-length"):
            kf.parse_curve("0 0\n0 0\n1 0")

    def test_u_shape(self):
        c = kf.parse_curve("0 0\n1 0\n1 1\n0 1")
        assert c.n == 3

    def test_comments_and_blanks_ignored(self):
        c = kf.parse_curve("# header\n\n0 0\n  \n1 0\n# trailing\n")
        assert c.n == 1

    def test_single_vertex_rejected(self):
        with pytest.raises(kf.CurveError, match="at least 2"):
            kf.parse_curve("0 0")

    def test_malformed_number(self):
        with pytest.raises(kf.CurveError, match="malformed"):
            kf.parse_curve("0 0\n1 x")

    def test_wrong_token_count(self):
        with pytest.raises(kf.CurveError, match="two numbers"):
            kf.parse_curve("0 0 0\n1 0")

    def test_nan_rejected(self):
        with pytest.raises(kf.CurveError, match="finite"):
            kf.PolyCurve([(0, 0), (float("nan"), 1)])

    def test_json_format(self):
        c = kf.parse_curve_json('{"vertices": [[0, 0], [1, 0], [1, 1]]}')
        assert c.n == 2
        with pytest.raises(kf.CurveError):
            kf.parse_curve_json("[1, 2]")
        with pytest.raises(kf.CurveError):
            kf.parse_curve_json("{nope")

    def test_round_trip(self, rng):
        for _ in range(20):
            c = random_curve(rng, int(rng.integers(1, 6)))
            again = kf.parse_curve(kf.serialize_curve(c))
            assert np.array_equal(again.vertices, c.vertices)


class TestPointAt:
    def test_midpoint(self):
        c = kf.PolyCurve([(0, 0), (2, 0)])
        assert np.allclose(c.point_at(0.5), (1, 0))

    def test_endpoints_are_vertices(self):
        c = kf.parse_curve("0 0\n1 0\n1 1\n0 1")
        for i in range(c.n + 1):
            assert np.allclose(c.point_at(i), c.vertices[i])

    def test_u_shape_interior(self):
        c = kf.parse_curve("0 0\n1 0\n1 1\n0 1")
        assert np.allclose(c.point_at(1.5), (1, 0.5))

    def test_out_of_range(self):
        c = kf.PolyCurve([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            c.point_at(-0.1)
        with pytest.raises(ValueError):
            c.point_at(1.1)

    def test_vectorised_matches_scalar(self, rng):
        c = random_curve(rng, 4)
        params = rng.uniform(0, c.n, size=50)
        batch = c.points_at(params)
        for s, p in zip(params, batch):
            assert np.allclose(p, c.point_at(s))

    def test_lipschitz_continuity(self, rng):
        c = random_curve(rng, 5)
        L = c.max_segment_length()
        for _ in range(200):
            s, t = rng.uniform(0, c.n, size=2)
            gap = np.linalg.norm(c.point_at(s) - c.point_at(t))
            assert gap <= L * abs(s - t) + 1e-12

    def test_immutable_vertices(self):
        c = kf.PolyCurve([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            c.vertices[0, 0] = 5.0


class TestInterval:
    def test_empty_sentinel(self):
        assert kf.EMPTY.is_empty
        assert not kf.EMPTY.contains(0.0)
        assert kf.EMPTY.length == 0.0

    def test_non_finite_rejected(self):
        for lo, hi in ((0.0, math.inf), (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(ValueError):
                kf.Interval(lo, hi)

    def test_hull_and_shift(self):
        a = kf.Interval(0.0, 1.0)
        b = kf.Interval(2.0, 3.0)
        assert a.hull(b) == kf.Interval(0.0, 3.0)
        assert a.hull(kf.EMPTY) == a
        assert kf.EMPTY.shift(2.0).is_empty
        assert a.shift(1.5) == kf.Interval(1.5, 2.5)

    def test_containment(self):
        a = kf.Interval(0.0, 1.0)
        assert a.contains_interval(kf.Interval(0.2, 0.8))
        assert a.contains_interval(a)
        assert not kf.Interval(0.2, 0.8).contains_interval(a)
        assert a.contains_interval(kf.EMPTY)


class TestIntervalUnionCovers:
    def test_overlapping_pair(self):
        assert kf.interval_union_covers(
            [kf.Interval(0, 0.6), kf.Interval(0.5, 1)], kf.Interval(0, 1))

    def test_visible_gap(self):
        assert not kf.interval_union_covers(
            [kf.Interval(0, 0.4), kf.Interval(0.6, 1)], kf.Interval(0, 1), gap_tol=1e-9)

    def test_degenerate_target(self):
        assert not kf.interval_union_covers([], kf.Interval(0, 0))
        assert kf.interval_union_covers([kf.Interval(-1, 2)], kf.Interval(0, 0))

    def test_interval_left_of_target_does_not_help(self):
        assert not kf.interval_union_covers(
            [kf.Interval(-5, -1), kf.Interval(0.5, 1)], kf.Interval(0, 1))

    def test_gap_within_tolerance(self):
        assert kf.interval_union_covers(
            [kf.Interval(0, 0.5), kf.Interval(0.5 + 5e-10, 1)], kf.Interval(0, 1))

    def test_monotone_under_additions(self, rng):
        for _ in range(200):
            base = [kf.Interval(lo, lo + w) for lo, w in
                    zip(rng.uniform(0, 1, 5), rng.uniform(0, 0.5, 5))]
            target = kf.Interval(0.0, 1.0)
            before = kf.interval_union_covers(base, target)
            extra = kf.Interval(float(rng.uniform(0, 1)), 1.5)
            after = kf.interval_union_covers(base + [extra], target)
            if before:
                assert after

    def test_negative_gap_tol_rejected(self):
        with pytest.raises(ValueError):
            kf.interval_union_covers([], kf.Interval(0, 1), gap_tol=-1.0)


class TestDistances:
    def test_point_segment(self):
        assert kf.point_segment_distance((0, 1), (-1, 0), (1, 0)) == pytest.approx(1.0)
        assert kf.point_segment_distance((5, 0), (-1, 0), (1, 0)) == pytest.approx(4.0)

    def test_crossing_segments(self):
        assert kf.segment_distance((0, 0), (2, 2), (0, 2), (2, 0)) == 0.0

    def test_parallel_segments(self):
        assert kf.segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)

    def test_touching_endpoint(self):
        assert kf.segment_distance((0, 0), (1, 0), (1, 0), (2, 5)) == 0.0
