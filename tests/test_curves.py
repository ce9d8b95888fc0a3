import collections
import fractions
import json
import math

import numpy as np
import pytest

import kfrechet as kf
from conftest import (point_segment_distance, random_curve, reference_parse_curve,
                      reference_union_covers, segment_distance, stub_diagram)
from kfrechet.intervals import _axis_cover
import oracles


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

    def test_underscore_in_number_rejected(self):
        # float() reads "1_0" as 10; a comment may hold an underscore
        with pytest.raises(kf.CurveError, match=r"line 3: malformed number in '1_0 0'"):
            kf.parse_curve("# my_curve\n0 0\n1_0 0\n")
        assert kf.parse_curve("# my_curve\n0 0\n1 0\n").n == 1

    def test_wrong_token_count(self):
        with pytest.raises(kf.CurveError, match="two numbers"):
            kf.parse_curve("0 0 0\n1 0")

    def test_nan_rejected(self):
        with pytest.raises(kf.CurveError, match="finite"):
            kf.PolyCurve([(0, 0), (float("nan"), 1)])

    def test_flat_parse_equals_the_line_loop(self, rng):
        # random mixes of what the format allows and rejects, each text parsed
        # by parse_curve and by the loop it replaced
        # float() reads the Arabic-Indic digits "\u0661\u0662" as 12
        numbers = ["0", "1.5", "-2.25e3", "+.5", "7.", "1e-320", "3", "-0", "\u0661\u0662"]
        odd = ["nan", "inf", "-inf", "1e999", "1_0", "\ufeff1", "x", "0x1p3"]
        breaks = ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"]
        spaces = [" ", "\t", "  ", " \t "]
        comments = ["# c", "  # my_curve", "#1 2", "\t#", "#"]
        blanks = ["", "   ", "\t"]

        def token():
            return str(rng.choice(odd if rng.random() < 0.05 else numbers))

        def line():
            kind = rng.random()
            if kind < 0.75:
                tokens = [token(), token()]
            elif kind < 0.85:
                return str(rng.choice(comments + blanks))
            else:
                tokens = [token() for _ in range(int(rng.choice([1, 3])))]
            pad = [str(rng.choice(["", *spaces])) for _ in range(2)]
            return pad[0] + str(rng.choice(spaces)).join(tokens) + pad[1]

        def outcome(parse, text):
            try:
                v = parse(text).vertices
            except kf.CurveError as exc:
                return str(exc)
            return [x.hex() for x in v.ravel().tolist()], v.shape, v.dtype, v.flags.writeable

        texts = ["", " ", "\n\n", "# only a comment\n", "0 0", "0 0\n1 1", "\ufeff0 0\n1 1"]
        texts += ["".join(line() + str(rng.choice(breaks)) for _ in range(int(rng.integers(0, 7))))
                  for _ in range(3000)]
        results = collections.Counter()
        for text in texts:
            got, want = outcome(kf.parse_curve, text), outcome(reference_parse_curve, text)
            assert got == want, repr(text)
            if not isinstance(want, str):
                assert want[2] == np.float64 and not want[3]
            results["curve" if not isinstance(want, str) else
                    "line" if want.startswith("line ") else want] += 1
        assert outcome(kf.parse_curve, "") == "expected a sequence of (x, y) vertices"
        assert results["curve"] >= 300 and results["line"] >= 300
        assert {"expected a sequence of (x, y) vertices", "a curve needs at least 2 vertices",
                "vertex coordinates must be finite",
                "zero-length segment: repeated consecutive vertex"} <= set(results)

    @pytest.mark.parametrize("vertices", [
        np.array([[0, 0], [1 + 1j, 0]]),  # numpy would drop the imaginary part
        [[0, 0], [1 + 1j, 0]],
        np.array([[True, False], [False, True]]),
        np.array([["0", "0"], ["1", "1"]]),
        np.array([[b"0", b"0"], [b"1", b"1"]]),
        np.array([[0, 0], [1, 1]], dtype="datetime64[s]"),
        np.array([[0, 0], [1, 1]], dtype="timedelta64[s]"),
        [[0, 0], [np.datetime64(1, "s"), 1]],  # an array of objects
        [[0, 0], [1, np.timedelta64(1, "s")]],
    ])
    def test_non_numbers_rejected(self, vertices):
        with pytest.raises(kf.CurveError, match="pairs of numbers"):
            kf.PolyCurve(vertices)

    def test_numbers_of_any_real_type_accepted(self):
        want = [[0.0, 0.0], [0.5, 2.0]]
        for vertices in ([[0, 0], [fractions.Fraction(1, 2), 2]], [[False, 0], [0.5, 2]],
                         np.array(want, dtype=np.float32), [[0, 0], [0.5, np.int8(2)]]):
            assert kf.PolyCurve(vertices).vertices.tolist() == want

    def test_json_format(self):
        c = kf.parse_curve_json('{"vertices": [[0, 0], [1, 0], [1, 1]]}')
        assert c.n == 2
        with pytest.raises(kf.CurveError):
            kf.parse_curve_json("[1, 2]")
        with pytest.raises(kf.CurveError):
            kf.parse_curve_json("{nope")

    @pytest.mark.parametrize("vertex", [[0, {}], [0, "x"], [0, [1]], [0, 10**400]])
    def test_non_numeric_vertex_rejected(self, vertex):
        # CurveError, not numpy's TypeError or a ValueError without context
        with pytest.raises(kf.CurveError, match="pairs of numbers"):
            kf.PolyCurve([vertex, [1, 1]])
        with pytest.raises(kf.CurveError, match="pairs of numbers"):
            kf.parse_curve_json(json.dumps({"vertices": [vertex, [1, 1]]}))

    def test_json_booleans_rejected(self):
        # JSON true and false would read as 1 and 0, as in box_instance_from_json
        for vertices in ([[True, False], [1, 1]], [[0, 0], [1, True]]):
            with pytest.raises(kf.CurveError, match="got true or false"):
                kf.parse_curve_json(json.dumps({"vertices": vertices}))

    @pytest.mark.parametrize("vertex", [[0, "1"], ["0", 1], [0, "1e3"], [0, "nan"]])
    def test_json_strings_rejected(self, vertex):
        # numpy would parse "1" as 1.0: a JSON string is no number
        text = json.dumps(next(x for x in vertex if isinstance(x, str)))
        with pytest.raises(kf.CurveError, match=f"vertex 1: .*got {text}"):
            kf.parse_curve_json(json.dumps({"vertices": [[1, 1], vertex]}))

    def test_round_trip(self, rng):
        for _ in range(20):
            c = random_curve(rng, int(rng.integers(1, 6)))
            again = kf.parse_curve(kf.serialize_curve(c))
            assert np.array_equal(again.vertices, c.vertices)


class TestPointAt:
    def test_midpoint(self):
        c = kf.PolyCurve([(0, 0), (2, 0)])
        assert np.allclose(oracles.points_at(c, [0.5]), [(1, 0)])

    def test_endpoints_are_vertices(self):
        c = kf.parse_curve("0 0\n1 0\n1 1\n0 1")
        assert np.allclose(oracles.points_at(c, np.arange(c.n + 1)), c.vertices)

    def test_u_shape_interior(self):
        c = kf.parse_curve("0 0\n1 0\n1 1\n0 1")
        assert np.allclose(oracles.points_at(c, [1.5]), [(1, 0.5)])

    def test_out_of_range(self):
        c = kf.PolyCurve([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            oracles.points_at(c, [-0.1])
        with pytest.raises(ValueError):
            oracles.points_at(c, [0.5, 1.1])

    def test_vectorised_matches_scalar(self, rng):
        c = random_curve(rng, 4)
        params = rng.uniform(0, c.n, size=50)
        batch = oracles.points_at(c, params)
        for s, p in zip(params, batch):
            i = min(int(s), c.n - 1)  # the segment of s, as written out by hand
            assert np.allclose(p, c.vertices[i] + (s - i) * (c.vertices[i + 1] - c.vertices[i]))

    def test_lipschitz_continuity(self, rng):
        c = random_curve(rng, 5)
        L = oracles.max_segment_length(c)
        for _ in range(200):
            s, t = rng.uniform(0, c.n, size=2)
            gap = np.linalg.norm(np.subtract(*oracles.points_at(c, [s, t])))
            assert gap <= L * abs(s - t) + 1e-12

    def test_immutable_vertices(self):
        c = kf.PolyCurve([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            c.vertices[0, 0] = 5.0

    def test_negative_zero_twin_hashes_equal(self):
        # -0.0 == 0.0, so the twins are equal and a set must keep one
        c, twin = kf.PolyCurve([(0.0, 0.0), (1.0, 0.0)]), kf.PolyCurve([(-0.0, -0.0), (1.0, -0.0)])
        assert c == twin and hash(c) == hash(twin)
        assert len({c, twin}) == 1


class TestInterval:
    def test_containment(self):
        a = (0.0, 1.0)
        assert oracles.contains_interval(a, (0.2, 0.8))
        assert oracles.contains_interval(a, a)
        assert not oracles.contains_interval((0.2, 0.8), a)
        assert oracles.contains_interval(a, (math.inf, -math.inf))


def union_covers(spans, target, tol: float = 1e-9) -> bool:
    """Whether (lo, hi) ``spans`` cover the (lo, hi) ``target`` by the cover rule."""
    return _axis_cover([(i, lo, hi) for i, (lo, hi) in enumerate(spans)], target, tol) is not None


class TestIntervalUnionCovers:
    """The cover rule of :mod:`kfrechet.intervals`, through its per-axis search."""

    def test_overlapping_pair(self):
        assert union_covers([(0, 0.6), (0.5, 1)], (0, 1))

    def test_visible_gap(self):
        assert not union_covers([(0, 0.4), (0.6, 1)], (0, 1))

    def test_interval_left_of_target_does_not_help(self):
        assert not union_covers([(-5, -1), (0.5, 1)], (0, 1))

    def test_gap_within_tolerance(self):
        assert union_covers([(0, 0.5), (0.5 + 5e-10, 1)], (0, 1))

    def test_monotone_under_additions(self, rng):
        for _ in range(200):
            base = [(lo, lo + w) for lo, w in zip(rng.uniform(0, 1, 5), rng.uniform(0, 0.5, 5))]
            target = (0.0, 1.0)
            before = union_covers(base, target)
            extra = (float(rng.uniform(0, 1)), 1.5)
            after = union_covers(base + [extra], target)
            if before:
                assert after

    def test_negative_gap_tol_rejected(self, kfrechet_tol):
        kfrechet_tol(-1.0)
        with pytest.raises(ValueError, match="KFRECHET_TOL"):
            kf.covers_both(stub_diagram(1, 1, []), [])

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_matches_the_reference_sweep(self, tol):
        # chains of intervals over a target starting at 0, 1 or elsewhere, with
        # gaps of 0.5 and 1.5 tol, overlaps, touching ends, degenerate, empty and
        # stray intervals, in shuffled order; targets no longer than 1.5 tol too
        rng = np.random.default_rng(18)
        answers = []
        for _ in range(2000):
            start = float(rng.choice([0.0, 1.0, rng.uniform(-3, 3)]))
            end = start + float(rng.choice([0.0, 0.5 * tol, 1.5 * tol]) if rng.random() < 0.2
                                else rng.uniform(0, 4))
            intervals, at = [], start - float(rng.choice([0.0, 0.5 * tol, 1.5 * tol, 0.3]))
            while at < end + 0.5 and len(intervals) < 8:
                width = float(rng.choice([0.0, rng.uniform(0, 1.5)]))
                intervals.append((at, at + width))
                gap = float(rng.choice([0.0, 0.5 * tol, tol, 1.5 * tol, -rng.uniform(0, 1), 0.2]))
                at += width + gap
            intervals += [(math.inf, -math.inf)] * int(rng.integers(0, 2))
            intervals += [(lo, lo + float(rng.uniform(0, 2)))
                          for lo in rng.uniform(start - 2, end + 1, size=int(rng.integers(0, 3)))]
            rng.shuffle(intervals)
            target = (start, end)
            got = union_covers(intervals, target, tol)
            assert got == reference_union_covers(intervals, target, tol), (intervals, target)
            answers.append(got)
        assert 600 <= sum(answers) <= 1400


class TestDistances:
    def test_point_segment(self):
        assert point_segment_distance((0, 1), (-1, 0), (1, 0)) == pytest.approx(1.0)
        assert point_segment_distance((5, 0), (-1, 0), (1, 0)) == pytest.approx(4.0)

    def test_crossing_segments(self):
        assert segment_distance((0, 0), (2, 2), (0, 2), (2, 0)) == 0.0

    def test_parallel_segments(self):
        assert segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == pytest.approx(1.0)

    def test_touching_endpoint(self):
        assert segment_distance((0, 0), (1, 0), (1, 0), (2, 5)) == 0.0
