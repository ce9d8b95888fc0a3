import math

import kfrechet as kf
from conftest import axis_cover, axis_intervals, exhaustive_min_selection_size, random_pair
import oracles


def proj(idx, lo, hi):
    return (idx, lo, hi)


class TestGreedyAxisCover:
    """The per-axis minimum cover of approximate_k (see conftest.axis_cover)."""

    def test_two_interval_optimum(self):
        intervals = [proj(0, 0.0, 0.5), proj(1, 0.4, 1.0), proj(2, 0.0, 0.3), proj(3, 0.25, 0.8)]
        sel = axis_cover(intervals, (0.0, 1.0))
        assert sel == (0, 1)
        # brute-force minimum cover is also 2
        spans = [(0, 0.5), (0.4, 1), (0, 0.3), (0.25, 0.8)]
        assert oracles.exhaustive_min_cover(spans, (0, 1)) == 2

    def test_single_interval(self):
        assert axis_cover([proj(0, 0.0, 1.0)], (0.0, 1.0)) == (0,)

    def test_gap_returns_none(self):
        intervals = [proj(0, 0.0, 0.4), proj(1, 0.6, 1.0)]
        assert axis_cover(intervals, (0.0, 1.0)) is None

    def test_tie_breaks_to_last_in_input_order(self):
        # of intervals with equal hi, the last one given wins, whatever its id
        assert axis_cover([proj(5, 0.0, 1.0), proj(2, 0.0, 1.0)], (0.0, 1.0)) == (2,)
        assert axis_cover([proj(2, 0.0, 1.0), proj(5, 0.0, 1.0)], (0.0, 1.0)) == (5,)

    def test_empty_interval_skipped(self):
        # an empty interval, (inf, -inf) as a diagram holds it, is skipped
        empty = proj(1, math.inf, -math.inf)
        assert axis_cover([proj(0, 0.0, 1.0), empty], (0.0, 1.0)) == (0,)

    def test_tangent_chain_is_covering(self):
        intervals = [proj(0, 0.0, 0.5), proj(1, 0.5, 1.0)]
        assert axis_cover(intervals, (0.0, 1.0)) == (0, 1)

    def test_optimal_size_on_random_inputs(self, rng):
        for _ in range(1000):
            count = int(rng.integers(1, 13))
            los = rng.uniform(-0.1, 1.0, size=count)
            widths = rng.uniform(0.0, 0.7, size=count)
            intervals = [proj(i, float(lo), float(lo + w))
                         for i, (lo, w) in enumerate(zip(los, widths))]
            sel = axis_cover(intervals, (0.0, 1.0))
            opt = oracles.exhaustive_min_cover(
                [(lo, hi) for _, lo, hi in intervals], (0.0, 1.0),
                gap_tol=kf.default_tol())
            if opt is None:
                assert sel is None
            else:
                assert sel is not None
                assert len(sel) == opt


class TestApproximateK:
    def test_diagonal_optimal(self):
        P = kf.PolyCurve([(0, 0), (1, 0)])
        Q = kf.PolyCurve([(0, 1), (1, 1)])
        d = kf.build_diagram(P, Q, 1.0)
        assert kf.approximate_k(d) == (0,)

    def test_empty_free_space(self):
        P = kf.PolyCurve([(0, 0), (1, 0)])
        Q = kf.PolyCurve([(0, 1), (1, 1)])
        assert kf.approximate_k(kf.build_diagram(P, Q, 0.5)) is None

    def test_factor_two_bound_and_coverage(self, rng):
        checked = 0
        for _ in range(50):
            P, Q = random_pair(rng)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.2, 0.9)))
            if len(d.components) > 9:
                continue
            sel = kf.approximate_k(d)
            opt = exhaustive_min_selection_size(d)
            if sel is None:
                assert opt is None
                continue
            assert kf.covers_both(d, sel)
            assert opt is not None
            assert len(sel) <= 2 * opt
            p, q = axis_intervals(d)
            cover_p = axis_cover(p, (0.0, float(d.n)))
            cover_q = axis_cover(q, (0.0, float(d.m)))
            assert max(len(cover_p), len(cover_q)) <= len(sel)
            assert len(sel) <= len(cover_p) + len(cover_q)
            assert opt >= max(len(cover_p), len(cover_q))
            checked += 1
        assert checked >= 20

    def test_none_iff_hausdorff_fails(self, rng):
        for _ in range(30):
            P, Q = random_pair(rng, 4)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.1, 0.9)))
            assert (kf.approximate_k(d) is None) == (not kf.decide_hausdorff(d))
