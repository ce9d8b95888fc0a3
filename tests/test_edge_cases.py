"""Degenerate inputs, tolerance plumbing, and an independent cross-check
of the monotone reachability decision."""

import numpy as np
import pytest

import kfrechet as kf
from kfrechet import oracles
from conftest import random_pair


class TestDegenerateGeometry:
    def test_identical_curves_at_zero_eps(self, rng):
        P, _ = random_pair(rng, 4)
        d = kf.build_diagram(P, P, 0.0)
        assert kf.decide_strong_frechet(d)
        assert kf.decide_weak_frechet(d)
        assert kf.decide_hausdorff(d)
        assert kf.decide_fpt(d, 1) is not None

    def test_crossing_curves_at_zero_eps(self):
        # free space is a single interior point: nothing can cover an axis
        P = kf.PolyCurve([(0, 0), (2, 2)])
        Q = kf.PolyCurve([(0, 2), (2, 0)])
        d = kf.build_diagram(P, Q, 0.0)
        assert len(d.components) == 1
        assert d.components[0].proj_p.length == pytest.approx(0.0, abs=1e-9)
        assert not kf.decide_hausdorff(d)
        assert kf.decide_fpt(d, 3) is None
        assert kf.approximate_k(d) is None

    def test_self_intersecting_curves_need_no_special_casing(self):
        # figure-eight against a shifted copy of itself
        verts = [(0, 0), (1, 1), (1, 0), (0, 1), (0, 0.2)]
        P = kf.PolyCurve(verts)
        Q = kf.PolyCurve([(x + 0.05, y) for x, y in verts])
        d = kf.build_diagram(P, Q, 0.2)
        assert kf.decide_weak_frechet(d)
        assert kf.covers_both(d, tuple(c.id for c in d.components))

    def test_very_short_segment(self):
        P = kf.PolyCurve([(0, 0), (1e-8, 0)])
        Q = kf.PolyCurve([(0, 1), (1e-8, 1)])
        d = kf.build_diagram(P, Q, 1.0)
        assert len(d.components) == 1
        assert kf.decide_weak_frechet(d)

    def test_collinear_overlapping_curves(self):
        P = kf.PolyCurve([(0, 0), (3, 0)])
        Q = kf.PolyCurve([(1, 0), (2, 0)])
        d = kf.build_diagram(P, Q, 1.0)
        assert kf.decide_hausdorff(d)
        assert kf.decide_weak_frechet(d)
        d_small = kf.build_diagram(P, Q, 0.5)
        assert not kf.decide_hausdorff(d_small)  # P's ends are too far from Q

    def test_moderately_large_diagram(self, rng):
        import time
        P = kf.PolyCurve(np.cumsum(rng.uniform(-1, 1, size=(31, 2)), axis=0))
        Q = kf.PolyCurve(np.cumsum(rng.uniform(-1, 1, size=(31, 2)), axis=0))
        t0 = time.time()
        d = kf.build_diagram(P, Q, 2.0)
        kf.decide_weak_frechet(d)
        kf.decide_strong_frechet(d)
        kf.approximate_k(d)
        assert time.time() - t0 < 5.0
        assert d.n == d.m == 30


class TestToleranceKnob:
    def test_gap_tolerance_changes_coverage(self):
        spans = [kf.Interval(0.0, 0.5), kf.Interval(0.54, 1.0)]
        target = kf.Interval(0.0, 1.0)
        assert not kf.interval_union_covers(spans, target)
        assert kf.interval_union_covers(spans, target, gap_tol=0.05)

    def test_env_tolerance_feeds_operations(self, monkeypatch):
        spans = [kf.Interval(0.0, 0.5), kf.Interval(0.54, 1.0)]
        target = kf.Interval(0.0, 1.0)
        monkeypatch.setenv("KFRECHET_TOL", "0.05")
        assert kf.interval_union_covers(spans, target)
        monkeypatch.delenv("KFRECHET_TOL")
        assert not kf.interval_union_covers(spans, target)


def _pixel_monotone_reachable(pix) -> bool:
    """Staircase reachability through free pixels; independent of the
    cell-interval dynamic program it cross-checks."""
    mask = pix.mask
    res = pix.res
    reach = np.zeros((res, res), dtype=bool)
    reach[0, 0] = mask[0, 0]
    for i in range(res):
        for j in range(res):
            if (i or j) and mask[i, j]:
                up = i > 0 and (reach[i - 1, j] or (j > 0 and reach[i - 1, j - 1]))
                left = j > 0 and reach[i, j - 1]
                reach[i, j] = up or left
    return bool(reach[-1, -1])


class TestStrongDecisionOracle:
    def test_matches_pixel_reachability(self, rng):
        res = 96
        checked = trues = 0
        while checked < 25:
            P, Q = random_pair(rng, 4)
            eps = float(rng.uniform(0.3, 1.2))
            margin = oracles.pixel_margin(P, Q, res)
            if eps - margin <= 0:
                continue
            below = kf.decide_strong_frechet(kf.build_diagram(P, Q, eps - margin))
            above = kf.decide_strong_frechet(kf.build_diagram(P, Q, eps + margin))
            if below != above:
                continue  # too close to the decision threshold for the raster
            got = kf.decide_strong_frechet(kf.build_diagram(P, Q, eps))
            oracle = _pixel_monotone_reachable(oracles.pixel_freespace(P, Q, eps, res=res))
            assert got == oracle, (P.vertices, Q.vertices, eps)
            checked += 1
            trues += got
        assert trues > 0  # corpus exercises both outcomes
